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

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..approx import SetPresentation
from ..machine import OracleWindow
from ..omega_model import INTERSECT_SIDE, select_side
from .base import (
    ABORT,
    CASE1,
    CASE2,
    D_RESTRICTION,
    E_EXTENSION,
    SKIP,
    CohCondition,
    StageRecord,
    Transcript,
    condition_dict,
    find_halt_witness,
)


@dataclass(frozen=True)
class CohConfig:
    window: int = 512
    density_min: int = 8
    subset_width: int = 8
    schedule: str = "least"  # "least" | "committed-columns"


@dataclass
class CohState:
    condition: CohCondition
    decided: Dict[str, Dict] = field(default_factory=dict)


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def family_digest(family: Sequence[SetPresentation], window: int) -> str:
    return _digest([list(r.window.bits[:window]) for r in family])


def initial_condition(window: int) -> CohCondition:
    return CohCondition(F=(), I=0, reservoir=tuple(range(window)),
                        window_bound=window)


def _next_requirement(state: CohState, family_size: int, stage: int,
                      schedule: str) -> Optional[str]:
    cond = state.condition
    if schedule == "committed-columns":
        for x in cond.F:
            if x < family_size and f"D_{x}" not in state.decided:
                return f"D_{x}"
        if stage % 2 == 0:
            return f"E_{len(cond.F) + 1}"
        e = 0
        while f"R_{e}" in state.decided:
            e += 1
        return f"R_{e}"
    for t in range(2 * stage + 2):
        if t < family_size and f"D_{t}" not in state.decided:
            return f"D_{t}"
        if len(cond.F) < t + 1:
            return f"E_{t + 1}"
        if f"R_{t}" not in state.decided:
            return f"R_{t}"
    return None


def coh_step(state: CohState, family: Sequence[SetPresentation],
             config: CohConfig, stage: int) -> Tuple[CohState, StageRecord]:
    cond = state.condition
    label = _next_requirement(state, len(family), stage, config.schedule)
    if label is None:
        return state, StageRecord(stage, "-", SKIP, condition_dict(cond), {})
    kind, _, num = label.partition("_")
    n = int(num)

    if kind == "E":
        need = n - len(cond.F)
        added = cond.reservoir[:need]
        if len(added) < need:
            rec = StageRecord(stage, label, ABORT, condition_dict(cond),
                              {"reason": "reservoir exhausted"})
            return state, rec
        new_f = tuple(sorted(cond.F + added))
        survivors = tuple(x for x in cond.reservoir if x > new_f[-1])
        new_cond = CohCondition(new_f, cond.I + 1, survivors, cond.window_bound)
        decided = dict(state.decided)
        decided[label] = {"added": list(added), "stage": stage}
        rec = StageRecord(stage, label, E_EXTENSION, condition_dict(new_cond),
                          {"added": list(added)})
        return CohState(new_cond, decided), rec

    if kind == "R":
        witness, search = find_halt_witness(
            n, cond.F, cond.reservoir, subset_width=config.subset_width)
        decided = dict(state.decided)
        if witness is not None:
            new_f = witness.members
            top = max(new_f) if new_f else -1
            survivors = tuple(x for x in cond.reservoir if x > top)
            new_cond = CohCondition(tuple(sorted(new_f)), cond.I + 1,
                                    survivors, cond.window_bound)
            cert = {
                "answer": "yes", "D": list(witness.added),
                "steps": witness.steps, "use": witness.use,
                "value": witness.value, "oracle": list(witness.members),
                "search": search,
            }
            decided[label] = {"answer": "yes", "stage": stage, **cert}
            rec = StageRecord(stage, label, CASE1, condition_dict(new_cond), cert)
            return CohState(new_cond, decided), rec
        cert = {
            "answer": "no", "search": search,
            "F_at_decision": list(cond.F),
            "reservoir_at_decision": list(cond.reservoir),
        }
        decided[label] = {"answer": "no", "stage": stage, **cert}
        rec = StageRecord(stage, f"N_{n}", CASE2, condition_dict(cond), cert)
        return CohState(cond, decided), rec

    # D_n: confine the reservoir to one side of the n-th set
    if not cond.reservoir:
        cert = {"reason": "reservoir exhausted"}
        decided = dict(state.decided)
        decided[label] = {"aborted": True, "stage": stage, **cert}
        rec = StageRecord(stage, label, ABORT, condition_dict(cond), cert)
        return CohState(cond, decided), rec
    r_bits = tuple(
        family[n].window.bits[x] if x < family[n].window.bound else 0
        for x in range(cond.window_bound)
    )
    out = select_side(
        OracleWindow.from_set(cond.reservoir, cond.window_bound).bits, r_bits)
    side_bit = 1 if out.side == INTERSECT_SIDE else 0
    survivors = tuple(x for x in cond.reservoir if r_bits[x] == side_bit)
    max_f = max(cond.F) if cond.F else -1
    density = sum(1 for x in survivors if x > max_f)
    cert = {
        "side": side_bit, "select_by": out.by,
        "count_intersect": out.count_intersect,
        "count_complement": out.count_complement,
        "density": density,
        "F_at_decision": list(cond.F),
    }
    decided = dict(state.decided)
    if density < config.density_min:
        cert["reason"] = "density witness lost"
        decided[label] = {"aborted": True, "stage": stage, **cert}
        rec = StageRecord(stage, label, ABORT, condition_dict(cond), cert)
        return CohState(cond, decided), rec
    new_cond = CohCondition(cond.F, cond.I + 1, survivors, cond.window_bound)
    decided[label] = {"side": side_bit, "stage": stage, **cert}
    rec = StageRecord(stage, label, D_RESTRICTION, condition_dict(new_cond), cert)
    return CohState(new_cond, decided), rec


def run_coh(family: Sequence[SetPresentation], stages: int,
            config: Optional[CohConfig] = None):
    """Run the construction; returns (Transcript, C prefix)."""
    config = config or CohConfig()
    state = CohState(initial_condition(config.window))
    t = Transcript(
        kind="coh",
        instance_hash=family_digest(family, config.window),
        config={
            "stages": stages, "window": config.window,
            "density_min": config.density_min,
            "subset_width": config.subset_width,
            "schedule": config.schedule,
        },
    )
    for s in range(stages):
        state, rec = coh_step(state, family, config, s)
        t.stages.append(rec)
        if not state.condition.valid():
            raise AssertionError("condition invariant broken")
    t.extraction = {
        "C": list(state.condition.F),
        "final_reservoir": list(state.condition.reservoir),
        "decided": state.decided,
    }
    return t, tuple(state.condition.F)
