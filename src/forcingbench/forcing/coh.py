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
from typing import Optional, Sequence

from ..approx import SetPresentation
from ..selection import (INTERSECT_SIDE, select_side_mask, set_mask,
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
    next_free,
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
    """Least gives out, at round t, D_t, E_{t+1} while |F| <= t, and R_t.
    Committed-columns gives out D_x for the committed columns x, then at
    even stages E_{|F|+1}, which is never decided, and else R_e, where code
    e is R_e: the D and E labels come at the code the scan starts from."""
    F = state.condition.F

    def least(t):
        if t < family_size:
            yield f"D_{t}"
        if len(F) <= t:
            yield f"E_{t + 1}"
        yield f"R_{t}"

    def committed_columns(e):
        if e == state.cursor:  # where the scan starts
            for x in F:
                if x < family_size:
                    yield f"D_{x}"
            if stage % 2 == 0:
                yield f"E_{len(F) + 1}"
        yield f"R_{e}"
    return next_free(state, committed_columns
                     if schedule == "committed-columns" else least)


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
        cert = {"answer": "no", "search": search}
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
    # the condition invariant puts the whole reservoir past max F
    density = len(survivors)
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
    width = config.subset_width
    if not (type(width) is int and 0 <= width <= SUBSET_WIDTH):
        raise ValueError(f"CohConfig.subset_width {width!r} is not an "
                         f"integer from 0 to {SUBSET_WIDTH}")
    # a set reads nothing past its bound, so neither does the run
    window = min([config.window] + [r.window.bound for r in family])
    state = State(start(window))
    t = run_stages(
        "coh", family_digest(family, window), {
            "stages": stages, "window": window,
            "density_min": config.density_min,
            "subset_width": config.subset_width,
            "schedule": config.schedule,
        }, state, lambda st, s: coh_step(st, family, config, s), stages)
    t.extraction = {
        "C": list(state.condition.F),
        "decided": state.decided,
    }
    return t, tuple(state.condition.F)
