"""Staged approximation of jumps and limit-computed sets.

This module is the home of every instance type (`SetPresentation`,
`Delta2Presentation`, `Coloring`, `Delta2Partition`) and of a coloring's
colour facts that EM reads: its limit colours (`limit_color`), each
column's stabilization point, its pair colours (`color_rows`) and the
fallowness scan (`fallow_check`).  It imports only `machine` and
`pairing`, so reading or generating an instance loads no construction.

Jump polarity note: the jump window below records the classical halting set
{<e,x> : program e halts on x with the base oracle}, the Sigma-1 polarity.
Negative information ("this pair is absent") is always provisional at a
finite stage; consumers must remember the stage they committed at so audits
can re-ask with a larger one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .machine import (
    EMPTY_WINDOW,
    HALTED,
    ORACLE_INSUFFICIENT,
    OracleProgram,
    OracleWindow,
    run_program,
)
from .pairing import cantor, uncantor


class MalformedPresentationError(ValueError):
    """An approximator or decider broke its totality/0-1 contract."""


class MalformedInstanceError(ValueError):
    """An instance payload broke its declared contract."""


class OracleInsufficientError(RuntimeError):
    """A run queried past the base window; the caller must widen it."""

    def __init__(self, missing: int):
        super().__init__(f"oracle window too short: index {missing} queried")
        self.missing = missing


@dataclass(frozen=True)
class SetPresentation:
    """A program-decided or table-given subset of the naturals, windowed."""

    window: OracleWindow

    @staticmethod
    def from_table(bits: Sequence[int]) -> "SetPresentation":
        return SetPresentation(OracleWindow(tuple(int(b) for b in bits)))

    @staticmethod
    def from_set(members, bound: int) -> "SetPresentation":
        return SetPresentation(OracleWindow.from_set(members, bound))

    @staticmethod
    def from_program(decider: int | OracleProgram, bound: int,
                     budget: int) -> "SetPresentation":
        bits = []
        for n in range(bound):
            out = run_program(decider, n, EMPTY_WINDOW, budget)
            if out.tag != HALTED or out.value not in (0, 1):
                raise MalformedPresentationError(
                    f"decider not total 0/1-valued at n={n} within budget {budget}: {out.tag}"
                )
            bits.append(out.value)
        return SetPresentation(OracleWindow(tuple(bits)))

    def member(self, n: int) -> int:
        if n >= self.window.bound:
            raise OracleInsufficientError(n)
        return self.window.bits[n]


@dataclass(frozen=True)
class Delta2Presentation:
    """A two-argument 0/1 approximator f(n, s); membership is its s-limit."""

    table: Tuple[Tuple[int, ...], ...]  # table[n][s]
    promised_bound: Optional[int] = None

    def value(self, n: int, s: int) -> int:
        row = self.table[n]
        v = row[s] if s < len(row) else row[-1]
        if v not in (0, 1):
            raise MalformedPresentationError(
                f"approximator output {v!r} at (n={n}, s={s}) is not 0/1"
            )
        return v


@dataclass(frozen=True)
class Delta2Partition:
    """k-valued limit approximation d(n, s); part of n is the s-limit."""

    k: int
    table: Tuple[Tuple[int, ...], ...]  # table[n][s], values < k
    bound: int
    promised_bound: Optional[int] = None
    declared_limits: Optional[Tuple[int, ...]] = None

    def value(self, n: int, s: int) -> int:
        row = self.table[n]
        v = row[s] if s < len(row) else row[-1]
        if not 0 <= v < self.k:
            raise MalformedInstanceError(f"part value {v} at (n={n}, s={s})")
        return v

    def limit_part(self, n: int) -> Optional[int]:
        """Exact when a stabilization bound is declared (audited at load);
        otherwise the last value of the row, which a row that has not yet
        settled may not hold."""
        if self.promised_bound is not None:
            return self.value(n, self.promised_bound)
        return self.value(n, len(self.table[n]) - 1)


@dataclass(frozen=True)
class LimitValue:
    bit: int
    stabilized_at: int


UNSTABLE = None  # returned where a limit fails to settle before the guard


def settles_at(value, low: int, top: int) -> int:
    """The least t in [low, top] with value(s) the same for every s in
    [t, top], read from the top down; top, reading nothing, when low > top."""
    t = top
    if low <= top:
        final = value(top)
        while t > low and value(t - 1) == final:
            t -= 1
    return t


def _guarded_limit(limit, value, low: int, top: int):
    """limit(value(top), settles_at(value, low, top)), or UNSTABLE when the
    value still changes inside the guard interval, the final quarter of
    [0, top]."""
    t = settles_at(value, low, top)
    return UNSTABLE if t > top - top // 4 else limit(value(top), t)


def limit_value(d: Delta2Presentation, n: int, stage_budget: int) -> Optional[LimitValue]:
    """Last-stable value of f(n, .) over stages [0, stage_budget]; unstable
    inside the guard interval."""
    if stage_budget < 1:
        raise ValueError("stage_budget must be >= 1")
    return _guarded_limit(LimitValue, lambda s: d.value(n, s), 0,
                          stage_budget)


@dataclass(frozen=True)
class Coloring:
    """A k-coloring of pairs x < y, table- or program-presented."""

    k: int
    table: Optional[Tuple[Tuple[int, ...], ...]] = None  # table[x][y - x - 1]
    program: Optional[int] = None  # program on input <x, y>
    budget: int = 512
    bound: int = 0  # domain bound for table presentations
    declared_bound: Optional[int] = None  # colors c(x, y) frozen for y >= this
    declared_limits: Optional[Tuple[int, ...]] = None  # generator ground truth

    def value(self, x: int, y: int) -> int:
        if not x < y:
            raise ValueError(f"coloring defined on pairs x < y, got ({x}, {y})")
        if self.table is not None:
            if y >= self.bound:
                raise OracleInsufficientError(y)
            v = self.table[x][y - x - 1]
        else:
            out = run_program(self.program, cantor(x, y), EMPTY_WINDOW, self.budget)
            if out.tag != HALTED:
                raise MalformedInstanceError(f"coloring program diverged at ({x}, {y})")
            v = out.value
        if not 0 <= v < self.k:
            raise MalformedInstanceError(f"color {v} out of range at ({x}, {y})")
        return v

    @staticmethod
    def from_function(k: int, bound: int, fn) -> "Coloring":
        table = tuple(
            tuple(fn(x, y) for y in range(x + 1, bound)) for x in range(bound)
        )
        return Coloring(k=k, table=table, bound=bound)


@dataclass(frozen=True)
class ColorLimit:
    color: int
    stabilized_at: int


def stable_color_limit(c: Coloring, x: int, budget: int) -> Optional[ColorLimit]:
    """Limit color of c(x, .) over y in (x, budget]; None when unsettled.

    This is the membership oracle for the limit partition: x lies in part i
    exactly when the returned color is i.
    """
    if budget <= x + 1:
        raise ValueError(f"budget {budget} leaves no room above x={x}")
    return _guarded_limit(ColorLimit, lambda y: c.value(x, y), x + 1, budget)


def limit_color(c: Coloring, x: int, budget: int) -> Optional[ColorLimit]:
    """Limit color of column x, exact when the instance declares a
    stabilization bound (the bound is audited at load time)."""
    if c.declared_bound is not None:
        y = max(c.declared_bound, x + 1)
        if c.table is not None and y >= c.bound:
            return None  # no pair above x inside the window
        return ColorLimit(c.value(x, y), c.declared_bound)
    return stable_color_limit(c, x, budget)


def stabilization_point(c: Coloring, x: int, window_bound: int) -> int:
    """Least m with c(x, y) constant for all y in [m, window_bound); exact on
    the window.  A column with no pair above it inside the window reads no
    pair and gives window_bound - 1, where the scan starts.  A table's
    column is read straight from its row when no color there is one that
    `Coloring.value` would refuse."""
    top = window_bound - 1
    if c.table is not None and x < top < c.bound:
        column = c.table[x][:top - x]  # c(x, y) for x < y <= top
        if max(column) < c.k:
            return x + 1 + settles_at(column.__getitem__, 0, top - x - 1)
    return settles_at(lambda y: c.value(x, y), x + 1, top)


@dataclass(frozen=True)
class FallowReport:
    ok: bool
    violation: Optional[Tuple[int, int, int]] = None


def color_rows(c: Coloring, elems) -> List[List[Optional[int]]]:
    """rows[a][b] = c(elems[a], elems[b]) for increasing `elems`, in both
    orders; the diagonal is None.  Each pair is read once, straight from the
    table when there is one."""
    table, n = c.table, len(elems)
    rows = [[None] * n for _ in range(n)]
    for a, x in enumerate(elems):
        for b in range(a + 1, n):
            y = elems[b]
            rows[a][b] = rows[b][a] = (c.value(x, y) if table is None
                                       else table[x][y - x - 1])
    return rows


def fallow_check(c: Coloring, s) -> FallowReport:
    """Least violating triple x < y < z with c(x,z) outside {c(x,y), c(y,z)},
    if any, scanning every triple; each pair is read once, by `color_rows`."""
    elems = sorted(s)
    rows, n = color_rows(c, elems), len(elems)
    for a, to_x in enumerate(rows):
        for b in range(a + 1, n):
            xy, to_y = to_x[b], rows[b]
            for d in range(b + 1, n):
                xz = to_x[d]
                if xz != xy and xz != to_y[d]:
                    return FallowReport(False, (elems[a], elems[b], elems[d]))
    return FallowReport(True)


@dataclass(frozen=True)
class JumpWindow:
    """Stage-bounded positive fragment of the base's jump, replayable."""

    base: SetPresentation
    stage: int
    bound: int
    positives: Dict[int, int] = field(default_factory=dict)  # pair -> halt step


def jump_positive(x: SetPresentation, e: int, n: int, stage: int) -> Optional[int]:
    """Point query of the staged jump: halt step when <e, n> is certified
    within `stage` steps, None otherwise (provisional at this stage)."""
    out = run_program(e, n, x.window, stage)
    if out.tag == ORACLE_INSUFFICIENT:
        raise OracleInsufficientError(out.missing)
    return out.steps if out.tag == HALTED else None


def jump_window(x: SetPresentation, bound: int, stage: int) -> JumpWindow:
    """Certified halting pairs <e, n> < bound within `stage` steps."""
    if bound < 1 or stage < 1:
        raise ValueError("bound and stage must be >= 1")
    positives: Dict[int, int] = {}
    for pair in range(bound):
        steps = jump_positive(x, *uncantor(pair), stage)
        if steps is not None:
            positives[pair] = steps
    return JumpWindow(base=x, stage=stage, bound=bound, positives=positives)
