"""Transitive-pattern (fallow) set construction from a stable coloring.

Conditions are pairs (F, reservoir).  Stages run on the shared skeleton
`base.force_step`; a piece is extendable when some limit class of it
holds a valid extension (fallow now and in the limit).  The extraction
records the clause flags (ii)-(vi) that the final condition meets:
reservoir density, separation, fallowness of F, one-step fallowness
F ∪ {z}, and tail-color constancy c(x, z) for x in F across the
reservoir.

The fallowness checks are incremental.  Every committed F passed
`valid_em_extension` against the run's limit colors when it was committed:
F starts as (), and E- and R-witnesses alike are committed only through
that check.  So a candidate F ∪ E needs scanning only on the triples and
limit pairs through an element of E outside F.  The coloring and the
window do not change during a run, so each column's limit color and
stabilization point are worked out once per run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

from ..approx import Coloring
from .base import (
    CohCondition,
    StageRecord,
    State,
    digest,
    fallow_check,
    find_halt_witness,
    force_step,
    halt_cert,
    halt_compat,
    limit_color,
    pair_value,
    run_stages,
    stabilization_point,
)
# re-exported: the tests and perfbench's tracer reach the bad-partition
# search, which EM and D2 share, under this module
from .base import PartitionCapExceeded, _find_bad_partition  # noqa: F401


@dataclass(frozen=True)
class EmConfig:
    window: int = 40
    density_min: int = 4
    subset_width: int = 8
    partition_cap: int = 3 ** 9
    extension_cap: int = 256


def coloring_digest(c: Coloring) -> str:
    return digest({
        "k": c.k, "table": [list(r) for r in c.table or ()],
        "bound": c.bound, "declared_bound": c.declared_bound,
    })


def valid_em_extension(c: Coloring, F, E, limits) -> bool:
    """F ∪ E stays fallow now and against every later element: the actual
    triple condition on F ∪ E plus the limit-color condition
    lim(x) ∈ {c(x,y), lim(y)} for all pairs x < y, which is what any future
    element beyond all stabilization points will see.

    Precondition: F itself meets both conditions, as every committed F of
    a run does (see the module docstring).  Only what E adds is scanned:
    the elements of E outside F join one at a time, each checked against F
    and the new elements before it, which covers every triple with one,
    two or three new elements exactly once."""
    val = pair_value(c)
    s = list(F)
    for z in sorted(set(E) - set(F)):
        if not _fallow_through(val, s, z):
            return False
        for w in s:
            x, y = min(w, z), max(w, z)
            lx, ly = limits.get(x), limits.get(y)
            if lx is None or ly is None:
                return False
            if lx not in (c.value(x, y), ly):
                return False
        s.append(z)
    return True


def _fallow_through(val, elems, z) -> bool:
    """No triple of elems ∪ {z} through z breaks fallowness: in each, the
    outer pair's color is one of the two inner pairs' colors."""
    elems = sorted(elems)
    to_z = [val(x, z) if x < z else val(z, x) for x in elems]
    for a in range(len(elems)):
        x, xz = elems[a], to_z[a]
        for b in range(a + 1, len(elems)):
            y, yz = elems[b], to_z[b]
            xy = val(x, y)
            if z > y:
                ok = xz in (xy, yz)
            elif z > x:
                ok = xy in (xz, yz)
            else:
                ok = yz in (xz, xy)
            if not ok:
                return False
    return True


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
    val = pair_value(c)
    if base_fallow and all(_fallow_through(val, F, z) for z in reservoir):
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


def em_step(state: State, c: Coloring, config: EmConfig, stage: int,
            limits: Dict[int, int],
            stab: Sequence[int]) -> Optional[StageRecord]:
    """One stage; `limits` maps each column of the window that has a limit
    color to it, and `stab[x]` is column x's stabilization point."""
    cond = state.condition
    label = _next_em_requirement(state)
    if label is None:
        return None
    kind, _, num = label.partition("_")
    n = int(num)
    F, window = cond.F, cond.window_bound

    def classes(members):
        # the limit classes, where Case 1 pulls its witnesses from
        return (tuple(sorted(z for z in members if limits.get(z) == i))
                for i in range(c.k))

    def keeps_fallow(s) -> bool:
        return valid_em_extension(c, F, set(s) - set(F), limits)

    def commit(new_f, cert, part_class):
        m = max((stab[x] for x in new_f), default=0)
        top = max(new_f) if new_f else -1
        survivors = tuple(z for z in cond.reservoir if z >= m and z > top)
        new_cond = CohCondition(tuple(sorted(new_f)), cond.I + 1, survivors,
                                window)
        return new_cond, {**cert, "m": m, "class": part_class}

    if kind == "E+":
        need = n - len(F)
        compat = _em_compat_e(c, F, limits, need, config)

        def witness():
            found = _em_e_witness(c, cond, limits, need, config)
            if found is not None:
                i, extra = found
                return commit(tuple(sorted(set(F) | set(extra))),
                              {"E": list(extra)}, i)
    else:
        compat = halt_compat(
            n, F, window, config.subset_width, classes,
            lambda z: valid_em_extension(c, F, (z,), limits), keeps_fallow)

        def witness():
            for i, pool in enumerate(classes(cond.reservoir)):
                w, search = find_halt_witness(
                    n, F, pool, subset_width=config.subset_width,
                    extra_filter=keeps_fallow)
                if w is not None:
                    return commit(w.members, halt_cert(w, search), i)

    return force_step(
        state, stage, label, c.k, config.partition_cap, compat, witness,
        lambda kept: CohCondition(F, cond.I + 1, kept, window),
        {"F_at_decision": list(F),
         "search": {"subset_width": config.subset_width}},
        "no extendable piece; requirement stalled")


def _em_compat_e(c, F, limits, need, config):
    @lru_cache(maxsize=None)
    def compat(piece: frozenset) -> bool:
        if need <= 0:
            return True
        for i in range(c.k):
            pool = sorted(z for z in piece if limits.get(z) == i)
            for extra in itertools.islice(
                    itertools.combinations(pool, need), config.extension_cap):
                if valid_em_extension(c, F, extra, limits):
                    return True
        return False

    return compat


def _em_e_witness(c, cond, limits, need, config):
    # among all classes, keep the valid extension whose top element is
    # least: committing high elements starves the reservoir on trim
    best = None
    for i in range(c.k):
        pool = sorted(z for z in cond.reservoir if limits.get(z) == i)
        for extra in itertools.islice(
                itertools.combinations(pool, need), config.extension_cap):
            if valid_em_extension(c, cond.F, extra, limits):
                key = (max(extra), extra)
                if best is None or key < best[0]:
                    best = (key, i, extra)
                break  # first valid per class, then compare across classes
    if best is None:
        return None
    return best[1], best[2]


def run_em(c: Coloring, stages: int, config: Optional[EmConfig] = None):
    """Run the construction; returns (Transcript, B prefix)."""
    config = config or EmConfig()
    window = min(config.window, c.bound)
    state = State(CohCondition(F=(), I=0, reservoir=tuple(range(window)),
                               window_bound=window))
    limits: Dict[int, int] = {}
    for z in range(window):
        cl = limit_color(c, z, window - 1)
        if cl is not None:
            limits[z] = cl.color
    stab = [stabilization_point(c, z, window) for z in range(window)]
    t = run_stages(
        "em", coloring_digest(c), {
            "stages": stages, "window": window,
            "density_min": config.density_min,
            "subset_width": config.subset_width,
            "partition_cap": config.partition_cap,
            "k": c.k,
        }, state, lambda st, s: em_step(st, c, config, s, limits, stab),
        stages)
    final = state.condition
    t.extraction = {
        "B": list(final.F),
        "fallow": fallow_check(c, final.F).ok,
        "decided": state.decided,
        "blocked": list(state.blocked),
        "final_flags": list(em_clause_flags(c, final.F, final.reservoir,
                                            config.density_min)),
    }
    return t, tuple(final.F)
