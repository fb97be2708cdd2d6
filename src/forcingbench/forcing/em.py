"""Transitive-pattern (fallow) set construction from a stable coloring.

Conditions are pairs (F, reservoir).  Stages run on the shared skeleton
`base.force_step`; a piece is extendable when some limit class of it
holds a valid extension (fallow now and in the limit).  The extraction
records the clause flags (ii)-(vi) that the final condition meets:
reservoir density, separation, fallowness of F, one-step fallowness
F ∪ {z}, and tail-color constancy c(x, z) for x in F across the
reservoir.

A stage costs what changed since the last one.  The coloring and the
window do not change during a run, so `_EmRun` works out once the pair
colors `rows[x][y]` and each column's limit class and stabilization
point.  F only grows during a run (every commit is F ∪ extra), so the
run's `_Extensions` memo keeps F in commit order, its members as a set
and the largest stabilization point over it, each brought up to date by
what F gained; committing reads the reservoir's floor from that maximum.
The schedule leaves the code it gave out in `State.cursor`, so a stage
reads its requirement's kind and index from the code, not the label.
Within a stage the bad-partition search asks the predicate once per
distinct piece, an R stage searches each distinct pool for a halting
witness once (`base.halt_search`, shared with its witness step), and the
E+ predicate answers False for a piece of fewer than `need` members
before it builds any class pool.

The fallowness checks are incremental.  Every committed F passed the
extension check against the run's limit colors when it was committed: F
starts as (), and E- and R-witnesses alike are committed only through
that check.  So a candidate F ∪ E needs scanning only on the triples and
limit pairs through an element of E outside F.  `_Extensions` keeps, for
each member z, its verdict on F ∪ {z} and how many members of F, in
commit order, it has seen: asked again, it scans only the triples and
limit pairs through z and a member F gained since, and a False verdict
is final, since a larger F only adds triples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..approx import Coloring, MalformedInstanceError
from .base import (
    PARTITION_CAP,
    SUBSET_WIDTH,
    StageRecord,
    State,
    coloring_digest,
    color_rows,
    committed,
    fallow_check,
    force_step,
    halt_cert,
    halt_compat,
    halt_search,
    limit_color,
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
    `verdict[z]` is (ok, how many members of `order` it has seen).  It
    keeps F's members as a set and, given the window's stabilization
    points `stab`, their maximum `top`; each grows with F, when a question
    names an F longer than `order`."""

    def __init__(self, rows, limits: Dict[int, int], stab=()):
        self.rows, self.limits, self.stab = rows, limits, stab
        self.order: List[int] = []  # F in commit order
        self.members: Set[int] = set()
        self.top = 0
        self.verdict: Dict[int, Tuple[bool, int]] = {}

    def _grow(self, F):
        if len(F) != len(self.order):
            new = sorted(set(F) - self.members)
            self.order += new
            self.members.update(new)
            if self.stab:
                self.top = max((self.top, *(self.stab[x] for x in new)))

    def allows(self, F, E) -> bool:
        """valid_em_extension(c, F, E, limits); a larger E needs every new
        member's verdict, then the triples and pairs with two of them."""
        self._grow(F)
        order, members = self.order, self.members
        # a witness search asks about F ∪ D as F followed by D
        rest = (E[len(F):] if isinstance(E, tuple) and E[:len(F)] == F
                else E)
        new = [z for z in rest if z not in members]
        if len(new) > 1:
            new = sorted(set(new))
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

    def floor(self, F, added) -> int:
        """The largest stabilization point of a column of F ∪ `added`, or
        0 for none."""
        self._grow(F)
        return max((self.top, *(self.stab[x] for x in added)))


def em_clause_flags(c: Coloring, F, reservoir, density_min,
                    rows=None) -> Tuple[str, ...]:
    """The clause tags (F, reservoir) meets; `rows`, when given, are
    `color_rows` over a range that holds both, as a run keeps them."""
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
    if rows is None:
        rows = color_rows(c, range(max((*F, *reservoir), default=-1) + 1))
    if base_fallow and all(_fallow_through(rows, F, z) for z in reservoir):
        flags.append("v-one-step-fallow")
    if all(
        len({c.value(x, z) for z in reservoir if z > x}) <= 1 for x in F
    ):
        flags.append("vi-tail-constant")
    return tuple(flags)


def _next_em_requirement(state: State) -> str:
    """The least free code from the cursor on: 2n-2 is E+_n, 2e+1 R_e."""
    decided, blocked, size = (state.decided, state.blocked,
                              len(state.condition.F))
    for code in itertools.count(state.cursor):
        if code % 2 == 0:
            if size > code // 2:
                continue
            label = f"E+_{code // 2 + 1}"
        else:
            label = f"R_{code // 2}"
            if label in decided:
                continue
        if label not in blocked:
            state.cursor = code
            return label


class _EmRun:
    """One run's stage step and the facts it reads that no stage changes:
    each window member's limit class, and the `_Extensions` memo."""

    def __init__(self, c: Coloring, window: int):
        self.k = c.k
        limits: Dict[int, int] = {}
        for z in range(window):
            cl = limit_color(c, z, window - 1)
            if cl is not None:
                limits[z] = cl.color
        self.cls = tuple(limits[z] if limits.get(z) in range(c.k) else None
                         for z in range(window))
        stab = [stabilization_point(c, z, window) for z in range(window)]
        self.ext = _Extensions(color_rows(c, range(window)), limits, stab)

    def step(self, state: State, stage: int) -> StageRecord:
        """One stage.  The schedule leaves the code it gave out in the
        cursor, so the label is not read back."""
        label = _next_em_requirement(state)
        code, cond = state.cursor, state.condition
        self.cond, self.F = cond, cond.F
        if code % 2 == 0:
            # E+_n for n = code // 2 + 1 is due only while |F| < n
            self.need = code // 2 + 1 - len(cond.F)
            compat, witness = self.extendable, self.least_extension
        else:
            e = code // 2
            self.search = halt_search(e, cond.F, self.keeps_fallow)
            compat = halt_compat(e, cond.F, cond.window_bound, self.classes,
                                 self.admits, self.search)
            witness = self.halt_witness
        return force_step(state, stage, label, self.k, compat, witness,
                          {"F_at_decision": list(cond.F)},
                          "no extendable piece; requirement stalled")

    def classes(self, members):
        """The limit classes of increasing `members`, where Case 1 pulls
        its witnesses from."""
        pools = [[] for _ in range(self.k)]
        cls = self.cls
        for z in members:
            if cls[z] is not None:
                pools[cls[z]].append(z)
        return [tuple(p) for p in pools]

    def commit(self, added, cert, part_class):
        # the reservoir keeps only what lies past every committed column's
        # stabilization point
        m = self.ext.floor(self.F, added)
        return (committed(self.cond, added, floor=m),
                {**cert, "m": m, "class": part_class})

    # E+_n: grow F by `need` members of one limit class
    def extensions(self, members):
        """Per limit class i, the first (i, E) that keeps F ∪ E fallow
        among the class's first EXTENSION_CAP need-subsets: the predicate
        asks for any, the witness for the one whose top element is least.
        With need 1 and no more members than that cap, every member's
        singleton is among its class's first, so the least such member
        answers both, and it alone is yielded."""
        F, need, allows = self.F, self.need, self.ext.allows
        if need == 1 and len(members) <= EXTENSION_CAP:
            cls = self.cls
            for z in members:
                if cls[z] is not None and allows(F, (z,)):
                    yield cls[z], (z,)
                    return
            return
        for i, pool in enumerate(self.classes(members)):
            if len(pool) >= need:
                for extra in itertools.islice(
                        itertools.combinations(pool, need), EXTENSION_CAP):
                    if allows(F, extra):
                        yield i, extra
                        break

    def extendable(self, piece) -> bool:
        # a piece of fewer than `need` members holds no need-subset
        return len(piece) >= self.need and any(self.extensions(piece))

    def least_extension(self):
        # among all classes, keep the extension whose top element is least:
        # committing high elements starves the reservoir on trim
        found = min(self.extensions(self.cond.reservoir),
                    key=lambda f: (max(f[1]), f[1]), default=None)
        if found is not None:
            i, extra = found
            return self.commit(extra, {"E": list(extra)}, i)

    # R_e: make program e self-halt over F ∪ D, D inside one limit class
    def admits(self, z) -> bool:
        return self.ext.allows(self.F, (z,))

    def keeps_fallow(self, s) -> bool:
        return self.ext.allows(self.F, s)

    def halt_witness(self):
        for i, pool in enumerate(self.classes(self.cond.reservoir)):
            w, record = self.search(pool)
            if w is not None:
                return self.commit(w.added, halt_cert(w, record), i)


def run_em(c: Coloring, stages: int, config: Optional[EmConfig] = None):
    """Run the construction; returns (Transcript, B prefix)."""
    if c.declared_bound is None:  # `limit_color` would refuse the top columns
        raise MalformedInstanceError("no stabilization bound (declared_bound)")
    window = min((config or EmConfig()).window, c.bound)
    state = State(start(window))
    run = _EmRun(c, window)
    t = run_stages(
        "em", coloring_digest(c), {
            "stages": stages, "window": window,
            "density_min": DENSITY_MIN, "subset_width": SUBSET_WIDTH,
            "partition_cap": PARTITION_CAP, "k": c.k,
        }, state, run.step, stages)
    final = state.condition
    flags = em_clause_flags(c, final.F, final.reservoir, DENSITY_MIN,
                            run.ext.rows)
    t.extraction = {
        "B": list(final.F),
        "fallow": "iv-fallow" in flags,
        "blocked": list(state.blocked),
        "final_flags": list(flags),
    }
    return t, tuple(final.F)
