"""Transitive-pattern (fallow) set construction from a stable coloring.

Conditions (F, reservoir) carry the clause flags (ii)-(vi): reservoir
density, separation, fallowness of F, one-step fallowness F ∪ {z}, and
tail-color constancy c(x, z) for x in F across the reservoir.  The stage question --
is there a finite stage of the reservoir on which every partition into k
pieces leaves some piece extendable for the current requirement? -- is
decided by searching for a "bad" partition of the whole window: piecewise
extendability is inherited by subsets, so a bad partition of the window
restricts to a bad partition of every finite stage, and conversely the
window itself is one of the stages.  The search assigns reservoir members
to pieces depth-first, pruning any piece that becomes extendable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..approx import Coloring
from ..machine import EMPTY_WINDOW, HALTED, run_program
from .base import (
    ABORT,
    CASE1,
    CASE2,
    SKIP,
    EmCondition,
    StageRecord,
    Transcript,
    condition_dict,
    _pair_value,
    fallow_check,
    find_halt_witness,
    limit_color,
    queries_oracle,
    restrict_to_piece,
    stabilization_point,
)
from .coh import _digest


@dataclass(frozen=True)
class EmConfig:
    window: int = 40
    density_min: int = 4
    subset_width: int = 8
    partition_cap: int = 3 ** 9
    extension_cap: int = 256


class PartitionCapExceeded(RuntimeError):
    pass


@lru_cache(maxsize=None)
def query_free_status(e: int, fuel_cap: int):
    """("halts", step) / ("diverges", cap) for query-free programs, else
    ("queries",).  A query-free program's bounded self-halting depends only
    on the fuel bound, which our convention ties to the oracle maximum."""
    if queries_oracle(e):
        return ("queries",)
    out = run_program(e, e, EMPTY_WINDOW, fuel_cap)
    if out.tag == HALTED:
        return ("halts", out.steps)
    return ("diverges", fuel_cap)


def coloring_digest(c: Coloring) -> str:
    return _digest({
        "k": c.k, "table": [list(r) for r in c.table or ()],
        "bound": c.bound, "declared_bound": c.declared_bound,
    })


def valid_em_extension(c: Coloring, F, E, limits) -> bool:
    """F ∪ E stays fallow now and against every later element: the actual
    triple condition on F ∪ E plus the limit-color condition
    lim(x) ∈ {c(x,y), lim(y)} for all pairs, which is what any future
    element beyond all stabilization points will see."""
    s = tuple(sorted(set(F) | set(E)))
    if not fallow_check(c, s).ok:
        return False
    for a in range(len(s)):
        for b in range(a + 1, len(s)):
            x, y = s[a], s[b]
            lx, ly = limits.get(x), limits.get(y)
            if lx is None or ly is None:
                return False
            if lx not in (c.value(x, y), ly):
                return False
    return True


def _find_bad_partition(members, k, compatible, cap):
    """A partition of `members` into k pieces with no piece extendable, or
    None.  Members that are singleton-extendable are assigned first, which
    collapses the search immediately whenever the answer is Yes."""
    if compatible(frozenset()):
        # extendability is monotone and the empty piece sits inside every
        # piece, so no partition can be bad
        return None
    useful = [z for z in members if compatible(frozenset((z,)))]
    rest = [z for z in members if z not in set(useful)]
    order = useful + rest
    visits = 0
    parts: List[set] = [set() for _ in range(k)]

    def rec(pos):
        nonlocal visits
        visits += 1
        if visits > cap:
            raise PartitionCapExceeded(str(cap))
        if pos == len(order):
            return [sorted(p) for p in parts]
        z = order[pos]
        seen_empty = False
        for j in range(k):
            if not parts[j]:
                if seen_empty:
                    continue  # symmetric to the previous empty piece
                seen_empty = True
            parts[j].add(z)
            if not compatible(frozenset(parts[j])):
                found = rec(pos + 1)
                if found is not None:
                    return found
            parts[j].discard(z)
        return None

    return rec(0)


@dataclass
class EmState:
    condition: EmCondition
    decided: Dict[str, Dict] = field(default_factory=dict)
    blocked: Tuple[str, ...] = ()


def _fallow_with(c: Coloring, elems, z) -> bool:
    """Triples through one extra element only; the base set is checked
    separately."""
    val = _pair_value(c)
    for a in range(len(elems)):
        for b in range(a + 1, len(elems)):
            x, y, w = sorted((elems[a], elems[b], z))
            if val(x, w) not in (val(x, y), val(y, w)):
                return False
    return True


def em_clause_flags(c: Coloring, F, reservoir, density_min) -> Tuple[str, ...]:
    flags = []
    max_f = max(F) if F else -1
    if sum(1 for z in reservoir if z > max_f) >= density_min:
        flags.append("ii-reservoir-dense")
    if not F or not reservoir or max_f < min(reservoir):
        flags.append("iii-separated")
    base_fallow = fallow_check(c, F).ok
    if base_fallow:
        flags.append("iv-fallow")
    if base_fallow and all(_fallow_with(c, F, z) for z in reservoir):
        flags.append("v-one-step-fallow")
    if all(
        len({c.value(x, z) for z in reservoir if z > x}) <= 1 for x in F
    ):
        flags.append("vi-tail-constant")
    return tuple(flags)


def initial_em_condition(c: Coloring, config: EmConfig) -> EmCondition:
    window = min(config.window, c.bound)
    members = tuple(range(window))
    return EmCondition(
        F=(), I=0, reservoir=members, window_bound=window,
        precondition_flags=em_clause_flags(c, (), members, config.density_min),
    )


def _next_em_requirement(state: EmState) -> Optional[str]:
    horizon = len(state.decided) + len(state.blocked) + len(state.condition.F)
    for code in range(2 * horizon + 4):
        if code % 2 == 0:
            label = f"E+_{code // 2 + 1}"
            if len(state.condition.F) >= code // 2 + 1:
                continue
        else:
            label = f"R_{code // 2}"
            if label in state.decided:
                continue
        if label not in state.blocked:
            return label
    return None


def em_step(state: EmState, c: Coloring, config: EmConfig,
            stage: int) -> Tuple[EmState, StageRecord]:
    cond = state.condition
    label = _next_em_requirement(state)
    if label is None:
        return state, StageRecord(stage, "-", SKIP, condition_dict(cond), {})
    kind, _, num = label.partition("_")
    n = int(num)
    window = cond.window_bound
    limits: Dict[int, int] = {}
    for z in range(window):
        cl = limit_color(c, z, window - 1)
        if cl is not None:
            limits[z] = cl.color

    def commit(new_f, cert, requirement, part_class):
        m = stabilization_point(c, new_f, window) if new_f else 0
        top = max(new_f) if new_f else -1
        survivors = tuple(z for z in cond.reservoir if z >= m and z > top)
        flags = em_clause_flags(c, new_f, survivors, config.density_min)
        new_cond = EmCondition(tuple(sorted(new_f)), cond.I + 1, survivors,
                               window, flags)
        cert = dict(cert)
        cert["m"] = m
        cert["class"] = part_class
        decided = dict(state.decided)
        decided[label] = {"stage": stage, **cert}
        rec = StageRecord(stage, requirement, CASE1, condition_dict(new_cond), cert)
        return EmState(new_cond, decided, state.blocked), rec

    if kind == "E+":
        need = n - len(cond.F)
        compat = _em_compat_e(c, cond.F, limits, need, config)
    else:
        compat = _em_compat_r(c, n, cond.F, limits, window, config)

    try:
        bad = _find_bad_partition(cond.reservoir, c.k, compat,
                                  config.partition_cap)
    except PartitionCapExceeded:
        cert = {"reason": "partition cap exceeded", "cap": config.partition_cap}
        blocked = state.blocked + (label,)
        rec = StageRecord(stage, label, ABORT, condition_dict(cond), cert)
        return EmState(cond, state.decided, blocked), rec

    if bad is None:
        # Case 1: some piece of every stage is extendable; pull the witness
        # from the limit classes themselves
        if kind == "E+":
            witness = _em_e_witness(c, cond, limits, need, config)
            if witness is not None:
                i, extra = witness
                return commit(tuple(sorted(set(cond.F) | set(extra))),
                              {"E": list(extra)}, label, i)
        else:
            for i in range(c.k):
                pool = tuple(z for z in cond.reservoir if limits.get(z) == i)
                w, search = find_halt_witness(
                    n, cond.F, pool, subset_width=config.subset_width,
                    extra_filter=lambda s: valid_em_extension(
                        c, cond.F, set(s) - set(cond.F), limits),
                )
                if w is not None:
                    cert = {"E": list(w.added), "steps": w.steps,
                            "use": w.use, "value": w.value,
                            "oracle": list(w.members), "answer": "yes",
                            "search": search}
                    return commit(w.members, cert, label, i)
        cert = {"reason": "question answered yes but no class witness found"}
        blocked = state.blocked + (label,)
        rec = StageRecord(stage, label, ABORT, condition_dict(cond), cert)
        return EmState(cond, state.decided, blocked), rec

    if kind == "E+":
        # size requirements are never forced negatively, only starved by
        # the finite window; stall without touching the reservoir
        cert = {"reason": "no extendable piece; requirement stalled",
                "partition": [list(p) for p in bad]}
        blocked = state.blocked + (label,)
        rec = StageRecord(stage, label, ABORT, condition_dict(cond), cert)
        return EmState(cond, state.decided, blocked), rec

    # Case 2: every piece of this whole-window partition is unextendable;
    # keep an infinite piece and record the negative decision
    kept, cert = restrict_to_piece(cond.reservoir, window, bad)
    new_cond = cond
    if kept is not None:
        flags = em_clause_flags(c, cond.F, kept, config.density_min)
        new_cond = EmCondition(cond.F, cond.I + 1, kept, window, flags)
    cert.update(answer="no", F_at_decision=list(cond.F),
                search={"subset_width": config.subset_width})
    decided = dict(state.decided)
    decided[label] = {"stage": stage, **cert}
    rec = StageRecord(stage, f"N_{n}", CASE2, condition_dict(new_cond), cert)
    return EmState(new_cond, decided, state.blocked), rec


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


def _em_compat_r(c, e, F, limits, window, config):
    status = query_free_status(e, window + 1)

    @lru_cache(maxsize=None)
    def compat(piece: frozenset) -> bool:
        if status[0] == "diverges":
            return False
        if status[0] == "halts":
            sigma = status[1]
            if sigma <= (max(F) + 1 if F else 1):
                return True  # the committed set alone is fuel enough
            return any(
                z >= sigma - 1 and valid_em_extension(c, F, (z,), limits)
                for z in piece
            )
        for i in range(c.k):
            pool = tuple(sorted(z for z in piece if limits.get(z) == i))
            w, _ = find_halt_witness(
                e, F, pool, subset_width=config.subset_width,
                extra_filter=lambda s: valid_em_extension(
                    c, F, set(s) - set(F), limits),
            )
            if w is not None:
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
    state = EmState(initial_em_condition(c, config))
    t = Transcript(
        kind="em",
        instance_hash=coloring_digest(c),
        config={
            "stages": stages, "window": state.condition.window_bound,
            "density_min": config.density_min,
            "subset_width": config.subset_width,
            "partition_cap": config.partition_cap,
            "k": c.k,
        },
    )
    for s in range(stages):
        state, rec = em_step(state, c, config, s)
        t.stages.append(rec)
        if not state.condition.valid():
            raise AssertionError("condition invariant broken")
    report = fallow_check(c, state.condition.F)
    t.extraction = {
        "B": list(state.condition.F),
        "fallow": report.ok,
        "decided": state.decided,
        "blocked": list(state.blocked),
        "final_flags": list(state.condition.precondition_flags),
    }
    return t, tuple(state.condition.F)
