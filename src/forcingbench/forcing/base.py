"""The construction the three set-construction engines share: the stage
skeleton and the witness and partition searches.  The transcript format
is `forcingbench.transcript` and the run trees are `machine`'s; the names
of both that were read from this module are re-exported here.

Case-2 side selection reads a reservoir and the partition's pieces as int
bitmasks of the window (bit x for member x).  This module builds every
condition a run holds: `start` the first, `narrowed` and `committed` each
later one, and only these two install a reservoir (and bump `I`).

"Infinite" always means: the window density witness meets a configured
count beyond the committed maximum.  Every acceptance of that surrogate is
recorded so an audit can demand more.

The stage engine: `run_stages` passes a run's `State` to the engine's step
once per stage, and every stage ends in `settle`, which records it, names
a Case-2 record N_e after its requirement R_e, and books the label as
decided or blocked.  EM and D2 share `force_step`: is there a finite stage
of the reservoir on which every partition into k pieces leaves some piece
extendable for the requirement?  A "bad" partition of the whole window
decides it: extendability (`compat`) is inherited by subsets, so a bad
partition of the window restricts to one of every finite stage, and the
window is itself a stage.  Without one (Case 1) a witness is committed;
with one (Case 2) an infinite piece of it is kept and the negative answer
recorded.  An engine hands `force_step` only its mathematics: the label
its schedule gives out, `compat`, a witness finder that returns the
committed condition, and the fields of a negative certificate.  The
committed sets, `decided` and `blocked` only grow, so no requirement code
below the first free one frees up again: every engine's schedule scans
from `State.cursor`, the code it last gave out.  Finitely many codes are
taken, so every stage meets a requirement.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..machine import (  # noqa: F401  (re-exports)
    HALTED, RUN_TREE_CAP, _RunTree, _run_tree, bounded_halt, finite_oracle,
    queries_oracle, query_free_status)
from ..transcript import (  # noqa: F401  (re-exports)
    ABORT, CASE1, CASE2, D_RESTRICTION, E_EXTENSION, SKIP, CohCondition,
    D2Condition, StageRecord, Transcript, condition_dict, digest, extends,
    parse_label)
from ..approx import Coloring, ColorLimit, settles_at, stable_color_limit
from ..omega_model import select_part_mask, set_mask

SUBSET_WIDTH = 8  # reservoir members whose subsets a witness search tries
PARTITION_CAP = 3 ** 9  # visits of one bad-partition search


def start(window: int, parts: Optional[int] = None):
    """A run's first condition: nothing committed (in each of `parts` parts,
    for D2) and the whole window [0, window) reserved."""
    reservoir = tuple(range(window))
    if parts is None:
        return CohCondition((), 0, reservoir, window)
    return D2Condition(((),) * parts, 0, reservoir, window)


# both condition kinds take (committed, I, reservoir, window_bound)
def narrowed(cond, reservoir):
    """`cond` with `reservoir`, a subset of its own, installed."""
    return type(cond)(cond.F_parts if isinstance(cond, D2Condition)
                      else cond.F, cond.I + 1, tuple(reservoir),
                      cond.window_bound)


def committed(cond, members, part: Optional[int] = None, floor: int = 0):
    """`cond` with `members` of its reservoir committed (to part `part`, for
    D2), and a reservoir installed of what lies above them and at or above
    `floor`; by the condition invariant, that is above every committed
    member."""
    if part is None:
        grown = tuple(sorted(set(cond.F).union(members)))
    else:
        parts = list(cond.F_parts)
        parts[part] = tuple(sorted(set(parts[part]).union(members)))
        grown = tuple(parts)
    low = max(max(members, default=-1) + 1, floor)
    reservoir = cond.reservoir
    return type(cond)(grown, cond.I + 1,
                      reservoir[bisect_left(reservoir, low):],
                      cond.window_bound)


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


class HaltWitness(NamedTuple):
    members: Tuple[int, ...]  # the full oracle set F ∪ D
    added: Tuple[int, ...]  # D, the reservoir part
    steps: int
    use: int
    value: int


def _subsets(head):
    """Every subset of `head`, each a tuple in `head`'s order, in increasing
    bitmask order (bit t for head[t]); each is one member longer than an
    earlier one."""
    subs = [()]
    yield ()
    for z in head:
        for i in range(len(subs)):
            sub = subs[i] + (z,)
            subs.append(sub)
            yield sub


def find_halt_witness(e, F, reservoir, subset_width: int = SUBSET_WIDTH,
                      extra_filter=None):
    """Bounded search for finite D inside the reservoir making program e
    self-halt over F ∪ D.

    Enumerates D over all subsets of the first `subset_width` reservoir
    members plus every singleton, in a fixed order (empty set first, then
    increasing bitmask / increasing singleton).  `extra_filter(F ∪ D)` can
    veto candidates (fallowness constraints).  A query-free program's
    outcome depends only on the fuel, so unless the largest available fuel
    makes it halt nothing does (asked before any veto: a smaller candidate
    the filter passes may halt too), and its candidates are the empty set
    and then each singleton, the last of which is that fuel again.  Returns
    (HaltWitness | None, search record); the fuel is the oracle bound
    itself, so the record names no fuel.

    F is sorted once per search.  When the reservoir increases from above
    F's maximum, as in every run, each F ∪ D is that sorted F followed by D.
    """
    record = {
        "subset_width": min(subset_width, len(reservoir)),
        "singletons": len(reservoir),
    }
    base = tuple(sorted(set(F)))
    above = (list(reservoir) == sorted(set(reservoir))
             and (not base or not reservoir or reservoir[0] > base[-1]))

    def oracle(added) -> Tuple[int, ...]:  # F ∪ D, sorted
        return (base + added if above
                else tuple(sorted(set(base).union(added))))

    if not queries_oracle(e):
        record["query_free"] = True
        if bounded_halt(e, oracle(tuple(reservoir[-1:]))).tag != HALTED:
            return None, record
        candidates = chain([()], ((z,) for z in reservoir))
    else:
        width = record["subset_width"]
        candidates = chain(_subsets(reservoir[:width]),
                           ((z,) for z in reservoir[width:]))
    for added in candidates:
        s = oracle(added)
        if extra_filter is None or extra_filter(s):
            out = bounded_halt(e, s)
            if out.tag == HALTED:
                return HaltWitness(s, tuple(sorted(added)), out.steps,
                                   out.use, out.value), record
    return None, record


def halt_cert(w: HaltWitness, search: Dict, key: str = "E") -> Dict:
    """A positive halting certificate; coh names the added set "D"."""
    return {"answer": "yes", key: list(w.added), "steps": w.steps,
            "use": w.use, "value": w.value, "oracle": list(w.members),
            "search": search}


def halt_search(e: int, F, extra_filter=None):
    """`find_halt_witness(e, F, pool, extra_filter=extra_filter)` as a
    function of the pool (a tuple), searched once per distinct pool: within
    one stage the predicate meets the empty pool in every piece that misses
    a class, and the witness step asks again about pools it asked."""
    memo: Dict[tuple, tuple] = {}

    def search(pool):
        found = memo.get(pool)
        if found is None:
            found = memo[pool] = find_halt_witness(e, F, pool,
                                                   extra_filter=extra_filter)
        return found

    return search


def halt_compat(e: int, F, window: int, pools, admits, search):
    """EM's and D2's compat for R_e: can a piece make e self-halt over F?
    A query-free program needs only fuel, from F or from a member z of the
    piece that `admits(z)`; otherwise `search` (a `halt_search` of e over F)
    runs in each of `pools(piece)` in turn.  The predicate is plain:
    `_find_bad_partition` asks it once per distinct piece."""
    status = query_free_status(e, window + 1)
    if status[0] == "queries":
        return lambda piece: any(search(pool)[0] is not None
                                 for pool in pools(piece))
    if status[0] == "diverges":
        return lambda piece: False
    sigma = status[1]
    if sigma <= (max(F) + 1 if F else 1):
        return lambda piece: True  # the committed set alone is fuel enough
    return lambda piece: any(z >= sigma - 1 and admits(z) for z in piece)


class PartitionCapExceeded(RuntimeError):
    pass


def _find_bad_partition(members, k, compatible, cap):
    """A partition of the sequence `members` into k pieces with no piece
    extendable, or None, by a depth-first search that prunes any piece that
    becomes extendable.  A singleton-extendable member answers Yes before
    the search: placed first, it would end the search at its first visit.
    This is the one memo of `compatible`: it is asked once per distinct
    piece, a tuple of members in the order of `members`, during the
    search, which is one stage.  The memo knows a piece by its bitmask
    over positions in `members`."""
    memo: Dict[int, bool] = {0: compatible(())}
    if memo[0]:
        # extendability is monotone and the empty piece sits inside every
        # piece, so no partition can be bad
        return None
    for t, z in enumerate(members):
        if compatible((z,)):
            if cap < 1:  # the one visit that would have found it
                raise PartitionCapExceeded(str(cap))
            return None
        memo[1 << t] = False
    visits = 0
    masks, pieces = [0] * k, [()] * k

    def rec(pos):
        nonlocal visits
        visits += 1
        if visits > cap:
            raise PartitionCapExceeded(str(cap))
        if pos == len(members):
            return [sorted(p) for p in pieces]
        z, bit = members[pos], 1 << pos
        seen_empty = False
        for j in range(k):
            mask, piece = masks[j], pieces[j]
            if not mask:
                if seen_empty:
                    continue  # symmetric to the previous empty piece
                seen_empty = True
            grown, more = mask | bit, piece + (z,)
            ok = memo.get(grown)
            if ok is None:
                ok = memo[grown] = compatible(more)
            if not ok:
                masks[j], pieces[j] = grown, more
                found = rec(pos + 1)
                if found is not None:
                    return found
                masks[j], pieces[j] = mask, piece
        return None

    return rec(0)


def restrict_to_piece(reservoir, window: int, partition):
    """Case 2 of EM and D2: no piece of `partition` is extendable, so keep
    the piece that side selection finds infinite inside the reservoir.
    Selection reads the reservoir and the pieces as bitmasks of the window.

    Returns (the piece ∩ reservoir, or None when the reservoir is empty and
    there is nothing to select from; the certificate).
    """
    cert = {"partition": [list(p) for p in partition],
            "reservoir_at_decision": list(reservoir)}
    if not reservoir:
        return None, cert
    pos, kept, _, outcomes = select_part_mask(
        set_mask(reservoir), window,
        [(set_mask(p), window) for p in partition])
    cert["selected_part"] = pos
    cert["selection"] = [o._asdict() for o in outcomes]
    return tuple(z for z in reservoir if kept >> z & 1), cert


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


@dataclass
class State:
    condition: "CohCondition | D2Condition"
    decided: Dict[str, Dict] = field(default_factory=dict)
    blocked: Dict[str, None] = field(default_factory=dict)  # in order
    cursor: int = 0  # where the engine's schedule resumes its scan


def settle(state: State, stage: int, label: str, branch: str, cond,
           cert: Dict, entry: Optional[Dict] = None,
           block: bool = False) -> StageRecord:
    """End a stage in condition `cond`, booking `label` as decided (`entry`
    plus the stage) or blocked.  The record names `label`, or for Case 2,
    where R_e is answered negatively, N_e."""
    state.condition = cond
    if entry is not None:
        state.decided[label] = {"stage": stage, **entry}
    if block:
        state.blocked[label] = None
    return StageRecord(stage, "N" + label[1:] if branch == CASE2 else label,
                       branch, condition_dict(cond), cert)


def run_stages(kind: str, instance_hash: str, config: Dict, state: State,
               step, stages: int) -> Transcript:
    """The transcript of `stages` calls of `step(state, stage)`."""
    t = Transcript(kind=kind, instance_hash=instance_hash, config=config)
    for s in range(stages):
        t.stages.append(step(state, s))
        if not state.condition.valid():
            raise AssertionError("condition invariant broken")
    return t


def force_step(state: State, stage: int, label: str, k: int, compat,
               witness, negative: Dict, stall: str) -> StageRecord:
    """One EM or D2 stage for `label`: `_find_bad_partition` asks the plain
    predicate `compat` about pieces of the reservoir, within PARTITION_CAP
    visits.  Case 1: `witness()` gives the committed (condition,
    certificate) or None.  Case 2: the kept piece is installed as the
    reservoir, and the certificate gets the `negative` fields and the
    search width.  A stalled size requirement is blocked with reason
    `stall`."""
    cond = state.condition

    def abort(cert):
        return settle(state, stage, label, ABORT, cond, cert, block=True)

    try:
        bad = _find_bad_partition(cond.reservoir, k, compat, PARTITION_CAP)
    except PartitionCapExceeded:
        return abort({"reason": "partition cap exceeded",
                      "cap": PARTITION_CAP})
    if bad is None:
        found = witness()
        if found is None:
            return abort({"reason":
                          "question answered yes but no class witness found"})
        new_cond, cert = found
        return settle(state, stage, label, CASE1, new_cond, cert, entry=cert)
    if label.startswith("E"):
        # size is never forced negatively, only starved by the window
        return abort({"reason": stall, "partition": [list(p) for p in bad]})
    kept, cert = restrict_to_piece(cond.reservoir, cond.window_bound, bad)
    cert = {**cert, "answer": "no", **negative,
            "search": {"subset_width": SUBSET_WIDTH}}
    return settle(state, stage, label, CASE2,
                  cond if kept is None else narrowed(cond, kept), cert,
                  entry=cert)
