"""Cohesive-set construction by reservoir forcing.

Conditions are pairs (F, reservoir).  The requirement stream interleaves three
families: D_n (confine the reservoir to one side of the n-th set), E_n
(grow F to size n), R_e/N_e (decide self-halting of program e relative to
the committed set).  Scheduling is round-robin D, E, R in increasing index
order ("least requirement first"); the alternative "committed-columns"
schedule, used by the pair-coloring pipeline, prioritizes D_x for already
committed x so that every later commitment lands on x's chosen side.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Optional, Sequence

from ..approx import SetPresentation
from ..omega_model import (INTERSECT_SIDE, select_side_mask, set_mask,
                           window_mask)
from ..transcript import (ABORT, CASE1, CASE2, D_RESTRICTION, E_EXTENSION,
                          StageRecord, family_digest, parse_label)
from .base import (
    SUBSET_WIDTH,
    State,
    committed,
    find_halt_witness,
    halt_cert,
    narrowed,
    run_stages,
    settle,
    start,
)


@dataclass(frozen=True)
class CohConfig:
    window: int = 512
    density_min: int = 8
    subset_width: int = SUBSET_WIDTH
    schedule: str = "least"  # "least" | "committed-columns"


def _next_requirement(state: State, family_size: int, stage: int,
                      schedule: str) -> str:
    """`State.cursor` is the round `t` (least) or the R index
    (committed-columns) last given out: F and `decided` only grow, and
    E_{t+1} is due at every round t >= |F|."""
    cond = state.condition
    if schedule == "committed-columns":
        for x in cond.F:
            if x < family_size and f"D_{x}" not in state.decided:
                return f"D_{x}"
        if stage % 2 == 0:
            return f"E_{len(cond.F) + 1}"
        while f"R_{state.cursor}" in state.decided:
            state.cursor += 1
        return f"R_{state.cursor}"
    for t in count(state.cursor):
        state.cursor = t
        if t < family_size and f"D_{t}" not in state.decided:
            return f"D_{t}"
        if len(cond.F) < t + 1:
            return f"E_{t + 1}"
        if f"R_{t}" not in state.decided:
            return f"R_{t}"


def coh_step(state: State, family: Sequence[SetPresentation],
             config: CohConfig, stage: int) -> StageRecord:
    cond = state.condition
    label = _next_requirement(state, len(family), stage, config.schedule)
    kind, n, _ = parse_label(label)

    if kind == "E":
        need = n - len(cond.F)
        added = cond.reservoir[:need]
        if len(added) < need:
            return settle(state, stage, label, ABORT, cond,
                          {"reason": "reservoir exhausted"})
        cert = {"added": list(added)}
        return settle(state, stage, label, E_EXTENSION,
                      committed(cond, added), cert, entry=cert)

    if kind == "R":
        witness, search = find_halt_witness(
            n, cond.F, cond.reservoir, subset_width=config.subset_width)
        if witness is not None:
            cert = halt_cert(witness, search, key="D")
            return settle(state, stage, label, CASE1,
                          committed(cond, witness.added), cert, entry=cert)
        cert = {
            "answer": "no", "search": search,
            "F_at_decision": list(cond.F),
            "reservoir_at_decision": list(cond.reservoir),
        }
        return settle(state, stage, label, CASE2, cond, cert, entry=cert)

    # D_n: confine the reservoir to one side of the n-th set
    if not cond.reservoir:
        cert = {"reason": "reservoir exhausted"}
        return settle(state, stage, label, ABORT, cond, cert,
                      entry={"aborted": True, **cert})
    # the reservoir and the n-th set as bitmasks of the window
    r_mask = window_mask(family[n].window.bits[:cond.window_bound])
    out = select_side_mask(set_mask(cond.reservoir), r_mask,
                           cond.window_bound)
    side_bit = 1 if out.side == INTERSECT_SIDE else 0
    survivors = tuple(x for x in cond.reservoir
                      if (r_mask >> x & 1) == side_bit)
    max_f = max(cond.F) if cond.F else -1
    density = sum(1 for x in survivors if x > max_f)
    cert = {
        "side": side_bit, "select_by": out.by,
        "count_intersect": out.count_intersect,
        "count_complement": out.count_complement,
        "density": density,
        "F_at_decision": list(cond.F),
    }
    if density < config.density_min:
        cert["reason"] = "density witness lost"
        return settle(state, stage, label, ABORT, cond, cert,
                      entry={"aborted": True, **cert})
    return settle(state, stage, label, D_RESTRICTION,
                  narrowed(cond, survivors), cert, entry=cert)


def run_coh(family: Sequence[SetPresentation], stages: int,
            config: Optional[CohConfig] = None):
    """Run the construction; returns (Transcript, C prefix)."""
    config = config or CohConfig()
    state = State(start(config.window))
    t = run_stages(
        "coh", family_digest(family, config.window), {
            "stages": stages, "window": config.window,
            "density_min": config.density_min,
            "subset_width": config.subset_width,
            "schedule": config.schedule,
        }, state, lambda st, s: coh_step(st, family, config, s), stages)
    t.extraction = {
        "C": list(state.condition.F),
        "final_reservoir": list(state.condition.reservoir),
        "decided": state.decided,
    }
    return t, tuple(state.condition.F)
