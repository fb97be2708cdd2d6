"""Transitive-pattern (fallow) set construction from a stable coloring.

Conditions are pairs (F, reservoir).  Stages run on the shared skeleton
`base.force_step`; a piece is extendable when some limit class of it
holds a valid extension (fallow now and in the limit).  The extraction
records the clause flags (ii)-(vi) that the final condition meets:
reservoir density, separation, fallowness of F, one-step fallowness
F ∪ {z}, and tail-color constancy c(x, z) for x in F across the
reservoir.

The fallowness checks are incremental.  Every committed F passed the
extension check against the run's limit colors when it was committed: F
starts as (), and E- and R-witnesses alike are committed only through
that check.  So a candidate F ∪ E needs scanning only on the triples and
limit pairs through an element of E outside F.  The coloring and the
window do not change during a run, so the pair colors `rows[x][y]` and
each column's limit color and stabilization point are worked out once.
F only grows during a run (every commit is F ∪ extra), so the run's
`_Extensions` memo keeps, for each member z, its verdict on F ∪ {z} and
how many members of F, in commit order, it has seen: asked again, it
scans only the triples and limit pairs through z and a member F gained
since, and a False verdict is final, since a larger F only adds triples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..approx import Coloring
from .base import (
    PARTITION_CAP,
    SUBSET_WIDTH,
    StageRecord,
    State,
    coloring_digest,
    color_rows,
    committed,
    fallow_check,
    find_halt_witness,
    force_step,
    halt_cert,
    halt_compat,
    limit_color,
    parse_label,
    run_stages,
    stabilization_point,
    start,
)
# re-exported: the tests and perfbench's tracer reach the bad-partition
# search, which EM and D2 share, under this module
from .base import PartitionCapExceeded, _find_bad_partition  # noqa: F401


DENSITY_MIN = 4  # reservoir members past F that clause (ii) asks for
EXTENSION_CAP = 256  # need-subsets of one limit class an E+ search tries


@dataclass(frozen=True)
class EmConfig:
    window: int = 40


def valid_em_extension(c: Coloring, F, E, limits) -> bool:
    """F ∪ E stays fallow now and against every later element: the actual
    triple condition on F ∪ E plus the limit-color condition
    lim(x) ∈ {c(x,y), lim(y)} for all pairs x < y, which is what any future
    element beyond all stabilization points will see.

    Precondition: F itself meets both conditions, as every committed F of
    a run does (see the module docstring).  Only what E adds is scanned:
    the elements of E outside F join one at a time, each checked against F
    and the new elements before it, which covers every triple with one,
    two or three new elements exactly once.  Runs ask `_Extensions`."""
    rows = color_rows(c, range(max((*F, *E), default=-1) + 1))
    s = list(F)
    for z in sorted(set(E) - set(F)):
        if not _fallow_through(rows, s, z, limits=limits):
            return False
        s.append(z)
    return True


def _fallow_through(rows, elems, z, start=0, limits=None) -> bool:
    """No triple {x, y, z} breaks fallowness, for y = elems[b] with
    b >= start and x before y in elems: in each, the outer pair's color is
    one of the two inner pairs' colors (`rows[x][y]` is c(x, y) in both
    orders).  Given `limits`, nor does a pair (y, z) break the limit-color
    condition."""
    to_z, lz = rows[z], limits.get(z) if limits else None
    for b in range(start, len(elems)):
        y = elems[b]
        to_y, yz, y_above = rows[y], to_z[y], y > z
        for x in elems[:b]:
            xy, xz = to_y[x], to_z[x]
            if (x > z) != y_above:  # z is the middle one: outer pair x, y
                if xy != xz and xy != yz:
                    return False
            # otherwise the outer pair joins z to the one farther from it
            elif xz != yz and xy != (xz if (x < y) != y_above else yz):
                return False
        if limits is not None:
            ly = limits.get(y)
            low, high = (ly, lz) if y < z else (lz, ly)
            if ly is None or lz is None or low != yz and low != high:
                return False
    return True


class _Extensions:
    """One run's memo of extension verdicts (see the module docstring):
    `verdict[z]` is (ok, how many members of `order` it has seen)."""

    def __init__(self, rows, limits: Dict[int, int]):
        self.rows, self.limits = rows, limits
        self.order: List[int] = []  # F in commit order
        self.verdict: Dict[int, Tuple[bool, int]] = {}

    def allows(self, F, E) -> bool:
        """valid_em_extension(c, F, E, limits); a larger E needs every new
        member's verdict, then the triples and pairs with two of them."""
        order, members = self.order, set(F)
        if len(F) != len(order):
            order += sorted(members - set(order))
        new = sorted(set(E) - members)
        for z in new:
            ok, n = self.verdict.get(z, (True, 0))
            if ok and n < len(order):
                ok = _fallow_through(self.rows, order, z, n, self.limits)
                self.verdict[z] = (ok, len(order))
            if not ok:
                return False
        return all(_fallow_through(self.rows, order + new[:j], new[j],
                                   len(order), self.limits)
                   for j in range(1, len(new)))


def em_clause_flags(c: Coloring, F, reservoir,
                    density_min) -> Tuple[str, ...]:
    """The clause tags (F, reservoir) meets."""
    F = tuple(F)
    flags = []
    max_f = max(F) if F else -1
    if sum(1 for z in reservoir if z > max_f) >= density_min:
        flags.append("ii-reservoir-dense")
    if not F or not reservoir or max_f < min(reservoir):
        flags.append("iii-separated")
    base_fallow = fallow_check(c, F).ok
    if base_fallow:
        flags.append("iv-fallow")
    rows = color_rows(c, range(max((*F, *reservoir), default=-1) + 1))
    if base_fallow and all(_fallow_through(rows, F, z) for z in reservoir):
        flags.append("v-one-step-fallow")
    if all(
        len({c.value(x, z) for z in reservoir if z > x}) <= 1 for x in F
    ):
        flags.append("vi-tail-constant")
    return tuple(flags)


def _next_em_requirement(state: State) -> Optional[str]:
    """The least free code from the cursor on: 2n-2 is E+_n, 2e+1 R_e."""
    horizon = len(state.decided) + len(state.blocked) + len(state.condition.F)
    for code in range(state.cursor, 2 * horizon + 4):
        if code % 2 == 0:
            label = f"E+_{code // 2 + 1}"
            if len(state.condition.F) >= code // 2 + 1:
                continue
        else:
            label = f"R_{code // 2}"
            if label in state.decided:
                continue
        if label not in state.blocked:
            state.cursor = code
            return label
    return None


def em_step(state: State, c: Coloring, stage: int, ext: _Extensions,
            stab: Sequence[int]) -> Optional[StageRecord]:
    """One stage; `ext.limits` maps each column of the window that has a
    limit color to it, and `stab[x]` is column x's stabilization point."""
    cond = state.condition
    label = _next_em_requirement(state)
    if label is None:
        return None
    kind, n, _ = parse_label(label)
    F, window, limits = cond.F, cond.window_bound, ext.limits

    def classes(members):
        # the limit classes, where Case 1 pulls its witnesses from
        return (tuple(sorted(z for z in members if limits.get(z) == i))
                for i in range(c.k))

    def keeps_fallow(s) -> bool:
        return ext.allows(F, s)

    def commit(added, cert, part_class):
        # the reservoir keeps only what lies past every committed column's
        # stabilization point
        m = max((stab[x] for x in (*F, *added)), default=0)
        return (committed(cond, added, floor=m),
                {**cert, "m": m, "class": part_class})

    if kind == "E+":
        need = n - len(F)  # positive: E+_n is due only while |F| < n

        def extensions(members):
            # per limit class i, the first (i, E) that keeps F ∪ E fallow
            # among the class's first EXTENSION_CAP need-subsets
            for i, pool in enumerate(classes(members)):
                for extra in itertools.islice(
                        itertools.combinations(pool, need), EXTENSION_CAP):
                    if ext.allows(F, extra):
                        yield i, extra
                        break

        def compat(piece: frozenset) -> bool:
            return any(extensions(piece))

        def witness():
            # among all classes, keep the extension whose top element is
            # least: committing high elements starves the reservoir on trim
            found = min(extensions(cond.reservoir),
                        key=lambda f: (max(f[1]), f[1]), default=None)
            if found is not None:
                i, extra = found
                return commit(extra, {"E": list(extra)}, i)
    else:
        compat = halt_compat(n, F, window, classes,
                             lambda z: ext.allows(F, (z,)), keeps_fallow)

        def witness():
            for i, pool in enumerate(classes(cond.reservoir)):
                w, search = find_halt_witness(n, F, pool,
                                              extra_filter=keeps_fallow)
                if w is not None:
                    return commit(w.added, halt_cert(w, search), i)

    return force_step(state, stage, label, c.k, compat, witness,
                      {"F_at_decision": list(F)},
                      "no extendable piece; requirement stalled")


def run_em(c: Coloring, stages: int, config: Optional[EmConfig] = None):
    """Run the construction; returns (Transcript, B prefix)."""
    window = min((config or EmConfig()).window, c.bound)
    state = State(start(window))
    limits: Dict[int, int] = {}
    for z in range(window):
        cl = limit_color(c, z, window - 1)
        if cl is not None:
            limits[z] = cl.color
    stab = [stabilization_point(c, z, window) for z in range(window)]
    ext = _Extensions(color_rows(c, range(window)), limits)
    t = run_stages(
        "em", coloring_digest(c), {
            "stages": stages, "window": window,
            "density_min": DENSITY_MIN, "subset_width": SUBSET_WIDTH,
            "partition_cap": PARTITION_CAP, "k": c.k,
        }, state, lambda st, s: em_step(st, c, s, ext, stab), stages)
    final = state.condition
    flags = em_clause_flags(c, final.F, final.reservoir, DENSITY_MIN)
    t.extraction = {
        "B": list(final.F),
        "fallow": "iv-fallow" in flags,
        "blocked": list(state.blocked),
        "final_flags": list(flags),
    }
    return t, tuple(final.F)
