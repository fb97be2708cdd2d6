"""Staged approximation of jumps and limit-computed sets.

Jump polarity note: the jump window below records the classical halting set
{<e,x> : program e halts on x with the base oracle}, the Sigma-1 polarity.
Negative information ("this pair is absent") is always provisional at a
finite stage; consumers must remember the stage they committed at so audits
can re-ask with a larger one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

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
        if v >= self.k:
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
        e, n = uncantor(pair)
        out = run_program(e, n, x.window, stage)
        if out.tag == ORACLE_INSUFFICIENT:
            raise OracleInsufficientError(out.missing)
        if out.tag == HALTED:
            positives[pair] = out.steps
    return JumpWindow(base=x, stage=stage, bound=bound, positives=positives)
