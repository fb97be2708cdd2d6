"""Subset selection inside one part of a limit-computed k-partition.

Conditions are tuples (F^0, ..., F^{k-1}, reservoir).  Requirements carry
a color: code 2e addresses E_e (grow F^i to size e), code 2e+1 addresses
R_e (self-halting of program e relative to F^i), ordered lexicographically
by (code, color).  Each stage decides at most one requirement, so the
per-color decision counters, which this module keeps and writes into each
Case-1 and Case-2 certificate, sum to at most the number of stages run.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import List, Optional, Tuple

from ..approx import MalformedInstanceError
from .base import (
    CASE1,
    CASE2,
    PARTITION_CAP,
    SUBSET_WIDTH,
    StageRecord,
    State,
    Transcript,
    committed,
    force_step,
    halt_cert,
    halt_compat,
    halt_search,
    parse_label,
    partition_digest,
    run_stages,
    start,
)


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
class D2Config:
    window: int = 64


def _next_d2_requirement(state: State, k: int) -> str:
    """The least free label in (code, color) order, from the cursor on."""
    for code in count(state.cursor):
        kind = "E" if code % 2 == 0 else "R"
        for i in range(k):
            label = f"{kind}_{code // 2}^{i}"
            if label not in state.decided and label not in state.blocked:
                state.cursor = code
                return label


def d2_step(state: State, d: Delta2Partition, stage: int,
            part_of: Tuple[int, ...],
            counters: List[int]) -> StageRecord:
    """One stage; `part_of[z]` is the limit part of window member z, and
    `counters[i]` counts the requirements of color i decided so far."""
    cond = state.condition
    label = _next_d2_requirement(state, d.k)
    kind, e, color = parse_label(label)
    window = cond.window_bound
    f_color = cond.F_parts[color]
    pool = tuple(z for z in cond.reservoir if part_of[z] == color)

    if kind == "E":
        need = max(e - len(f_color), 0)

        def compat(piece) -> bool:
            # a met size (need 0) holds on the empty piece: no search
            return sum(1 for z in piece if part_of[z] == color) >= need

        def witness():
            extra = pool[:need]
            if len(extra) == need:
                return (committed(cond, extra, part=color),
                        {"E": list(extra), "answer": "yes"})
    else:
        search = halt_search(e, f_color)
        compat = halt_compat(
            e, f_color, window,
            lambda piece: (tuple(z for z in piece if part_of[z] == color),),
            lambda z: part_of[z] == color, search)

        def witness():
            w, record = search(pool)
            if w is not None:
                return (committed(cond, w.added, part=color),
                        halt_cert(w, record))

    rec = force_step(
        state, stage, label, d.k, compat, witness,
        {"F_at_decision": list(f_color), "pool_at_decision": list(pool)},
        "no piece holds enough of the part; stalled")
    if rec.branch in (CASE1, CASE2):
        counters[color] += 1
        if sum(counters) > stage + 1:  # one decision per stage at most
            raise AssertionError("counter budget exceeded")
        rec.certificates["counters"] = list(counters)
    return rec


class InconclusiveSelection(RuntimeError):
    pass


def select_color(t: Transcript, horizon: int) -> int:
    """Color with the most decided requirements at the horizon, least
    index first; its E decisions must all be positive."""
    k = t.config["k"]
    counts = [0] * k
    positive_e = [True] * k
    for rec in t.stages[:horizon]:
        if rec.branch not in (CASE1, CASE2):
            continue
        label = parse_label(rec.requirement)
        if label is None or label[2] is None:
            continue
        kind, _, i = label
        counts[i] += 1
        if kind == "E" and rec.branch == CASE2:
            positive_e[i] = False
    if not any(counts):
        raise InconclusiveSelection("no decided requirement at this horizon")
    for i in sorted(range(k), key=lambda i: (-counts[i], i)):
        if counts[i] and positive_e[i]:
            return i
    raise InconclusiveSelection(
        "every candidate color has a negatively decided size requirement")


def run_d2(d: Delta2Partition, stages: int, config: Optional[D2Config] = None):
    """Run the construction; returns (Transcript, (color, B prefix))."""
    if d.k < 1:
        raise MalformedInstanceError(f"{d.k} parts: no part to select")
    window = min((config or D2Config()).window, d.bound)
    state = State(start(window, parts=d.k))
    part_of = tuple(d.limit_part(z) for z in range(window))
    counters = [0] * d.k
    t = run_stages(
        "d2", partition_digest(d), {
            "stages": stages, "window": window,
            "subset_width": SUBSET_WIDTH, "partition_cap": PARTITION_CAP,
            "k": d.k,
        }, state, lambda st, s: d2_step(st, d, s, part_of, counters), stages)
    color = select_color(t, stages)
    b = state.condition.F_parts[color]
    t.extraction = {
        "color": color,
        "B": list(b),
        "F_parts": [list(p) for p in state.condition.F_parts],
        "counters": counters,
        "blocked": list(state.blocked),
    }
    return t, (color, b)
