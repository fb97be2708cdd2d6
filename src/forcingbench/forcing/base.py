"""Shared substrate and stage engine of the three set-construction engines.

A condition is a pair (finite committed set, reservoir).  A reservoir is
a plain sorted tuple of members of the run's window [0, window_bound);
Case-2 side selection reads it and the partition's pieces as int
bitmasks of the window (bit x for member x).  `I` numbers the reservoirs
a run has installed: 0 for the initial window, one more at every step
that installs a new reservoir.  This module builds every condition a run
holds: `start` the first, `narrowed` and `committed` each later one, and
only these two install a reservoir.  It also reads every requirement
label (`parse_label`).

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

import hashlib
import json
import re
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..machine import (EMPTY_WINDOW, HALTED, OP_QRY, OUT_OF_FUEL, Machine,
                       OracleWindow, RunOutcome, decode_program)
from ..approx import Coloring, ColorLimit, settles_at, stable_color_limit
from ..omega_model import select_part_mask, set_mask

CASE1 = "Case1"
CASE2 = "Case2"
E_EXTENSION = "E-extension"
D_RESTRICTION = "D-restriction"
ABORT = "abort"
SKIP = "skip"  # no run writes it: every stage meets a requirement

SUBSET_WIDTH = 8  # reservoir members whose subsets a witness search tries
PARTITION_CAP = 3 ** 9  # visits of one bad-partition search


def committed_below(committed, reservoir) -> bool:
    """The condition invariant: every committed member lies below every
    reservoir member."""
    return not committed or not reservoir or max(committed) < min(reservoir)


@dataclass(frozen=True)
class CohCondition:
    F: Tuple[int, ...]
    I: int  # number of reservoirs installed before this one in the run
    reservoir: Tuple[int, ...]  # sorted members inside the window
    window_bound: int

    def valid(self) -> bool:
        return committed_below(self.F, self.reservoir)


@dataclass(frozen=True)
class D2Condition:
    F_parts: Tuple[Tuple[int, ...], ...]
    I: int
    reservoir: Tuple[int, ...]
    window_bound: int

    def valid(self) -> bool:
        return all(committed_below(part, self.reservoir)
                   for part in self.F_parts)


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


_LABEL = re.compile(r"(D|E\+?|R|N)_(0|[1-9][0-9]*)(?:\^(0|[1-9][0-9]*))?")


def parse_label(label) -> Optional[Tuple[str, int, Optional[int]]]:
    """(kind, index, color) of a requirement label such as "D_3", "E+_2",
    "R_5" or, for D2, "N_5^1"; color is None without "^".  None for
    anything else, which no schedule gives out."""
    return _read_label(label) if isinstance(label, str) else None


@lru_cache(maxsize=4096)  # the same few labels recur in every run and audit
def _read_label(label: str):
    m = _LABEL.fullmatch(label)
    if m is None:
        return None
    kind, index, color = m.groups()
    return kind, int(index), None if color is None else int(color)


def condition_sets(d: Dict, parts: bool):
    """What the extension order compares of a condition in its transcript
    form (`condition_dict`): its window bound, committed set, reservoir set
    and, with `parts` (D2), each committed part's set, else None."""
    if parts:
        part_sets = tuple(set(p) for p in d["F_parts"])
        committed = set().union(*part_sets)
    else:
        part_sets, committed = None, set(d["F"])
    return d["window_bound"], committed, set(d["reservoir"]), part_sets


def extends_sets(p, q, report: Optional[List[str]] = None) -> bool:
    """The extension order on `condition_sets`: committed set grew only
    inside q's reservoir, part by part, and the reservoir shrank.
    Incomparable windows are reported and treated false."""
    wp, fp, rp, parts_p = p
    wq, fq, rq, parts_q = q
    if wp != wq:
        if report is not None:
            report.append(f"incomparable windows ({wp} vs {wq})")
        return False
    if not (fp >= fq and fp - fq <= rq and rp <= rq):
        return False
    # per-part growth must respect part identity
    return parts_p is None or all(a >= b for a, b in zip(parts_p, parts_q))


def extends(p, q, report: Optional[List[str]] = None) -> bool:
    """Extension order of conditions of one kind (see `extends_sets`)."""
    if type(p) is not type(q):
        raise TypeError("conditions of different kinds are incomparable")
    parts = isinstance(p, D2Condition)
    return extends_sets(condition_sets(condition_dict(p), parts),
                        condition_sets(condition_dict(q), parts), report)


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


def finite_oracle(members) -> OracleWindow:
    """Characteristic window of a finite set, bounded just past its max.
    Negative members are skipped: a forged transcript may hold them."""
    if not members:
        return OracleWindow((0,))
    bits = [0] * (max(members) + 1)
    for n in members:
        if n >= 0:
            bits[n] = 1
    return OracleWindow(tuple(bits))


# nodes a program's run tree may hold: a question that finds the tree at
# the cap drops it and grows it again, so memory stays bounded when a
# looping query program is asked about many distinct sets (one question
# adds at most one node per unit of its fuel)
RUN_TREE_CAP = 64


class _Node:
    """One segment of a run: `machine` runs with no oracle from its
    parent's query to its own first one, and `low` and `high` go on past
    that query with answer 0 and 1.  `stopped` keeps the outcome of a
    halted or starved segment."""

    __slots__ = ("machine", "low", "high", "stopped")

    def __init__(self, machine: Machine):
        self.machine = machine
        self.low = self.high = self.stopped = None


class _RunTree:
    """Program e's run on input e, split at its oracle queries: by the use
    principle an outcome depends only on the fuel and on the answers to
    the queries the run makes, and each path from the root is one such
    sequence of answers."""

    __slots__ = ("e", "program", "queries", "root", "nodes")

    def __init__(self, e: int):
        self.e = e
        self.program = decode_program(e)
        self.queries = any(ins.op == OP_QRY for ins in self.program.code)
        self.root, self.nodes = None, 0

    def outcome(self, fuel: int, members) -> RunOutcome:
        """The outcome of `run_program(e, e, w, fuel)` for the window w of
        bound `fuel` that holds `members`.  Each node's machine runs on
        only as far as the largest fuel asked of it; a query below the
        bound takes the branch of its bit, one at or above it starves."""
        if fuel < 1:
            raise ValueError("fuel must be >= 1")
        if self.root is None or self.nodes >= RUN_TREE_CAP:
            self.root = _Node(Machine(self.program, self.e, EMPTY_WINDOW))
            self.nodes = 1
        node = self.root
        while True:
            m = node.machine
            if m.steps < fuel and m.outcome_tag is None:
                m.run(fuel - m.steps)
            if m.outcome_tag is None or m.steps > fuel:
                return _out_of_fuel(fuel, m.max_query + 1)
            q = m.missing
            if q is None or q >= fuel:  # halted, or starved past the bound
                if node.stopped is None:
                    node.stopped = m.outcome()
                return node.stopped
            if q in members:
                if node.high is None:
                    node.high = _Node(m.answered(1))
                    self.nodes += 1
                node = node.high
            else:
                if node.low is None:
                    node.low = _Node(m.answered(0))
                    self.nodes += 1
                node = node.low


@lru_cache(maxsize=4096)
def _out_of_fuel(fuel: int, use: int) -> RunOutcome:
    return RunOutcome(OUT_OF_FUEL, steps=fuel, use=use)


@lru_cache(maxsize=4096)  # the bound of `decode_program`'s cache
def _run_tree(e: int) -> _RunTree:
    return _RunTree(e)


def bounded_halt(e: int, members):
    """Self-halting of program e with a finite-set oracle, fuel tied to the
    set's maximum: the use and step count both stay below the bound, so the
    outcome is preserved by any end-extension of the set.

    The answer is `run_program(e, e, finite_oracle(members), fuel)` for
    fuel the window's bound, read off program e's run tree, which this
    process keeps: one run with no oracle, split at each query into the
    two answers, so a question interprets only the steps that no earlier
    question on the tree did.  The walk takes the bit `q in members` at
    each query q below the bound, so negative members are skipped as
    `finite_oracle` skips them, and a set of negative members only has a
    bound, and fuel, below 1."""
    return _run_tree(e).outcome(max(members) + 1 if members else 1, members)


def queries_oracle(e: int) -> bool:
    """Whether the program text contains the oracle-query opcode at all;
    query-free programs halt independently of the committed set (only the
    fuel bound matters)."""
    return _run_tree(e).queries


def query_free_status(e: int, fuel_cap: int):
    """("halts", step) / ("diverges", cap) for query-free programs, else
    ("queries",).  A query-free program's bounded self-halting depends only
    on the fuel bound, which our convention ties to the oracle maximum.
    Read off the root of e's run tree, which such a program never leaves."""
    tree = _run_tree(e)
    if tree.queries:
        return ("queries",)
    out = tree.outcome(fuel_cap, ())
    if out.tag == HALTED:
        return ("halts", out.steps)
    return ("diverges", fuel_cap)


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
class StageRecord:
    stage: int
    requirement: str
    branch: str
    condition: Optional[Dict]  # None: the condition of the stage before
    certificates: Dict


TRANSCRIPT_VERSION = 2


class TranscriptFormatError(ValueError):
    """A written transcript whose structure `Transcript.from_dict` cannot
    read."""


@dataclass
class Transcript:
    """A run's record.  In memory every stage holds its condition; the
    written form (`to_dict`, format version 2) holds `null` for a condition
    equal to the last one written, and `from_dict` keeps that None."""

    kind: str
    instance_hash: str
    config: Dict
    stages: List[StageRecord] = field(default_factory=list)
    extraction: Dict = field(default_factory=dict)
    audits: List[Dict] = field(default_factory=list)
    version: int = TRANSCRIPT_VERSION

    def to_dict(self) -> Dict:
        stages, last = [], None
        for s in self.stages:
            d = {"stage": s.stage, "requirement": s.requirement,
                 "branch": s.branch, "condition": s.condition,
                 "certificates": s.certificates}
            if s.condition is not None:
                if s.condition == last:
                    d["condition"] = None
                last = s.condition
            stages.append(d)
        return {**vars(self), "stages": stages}

    @staticmethod
    def from_dict(d) -> "Transcript":
        """The one reader of a written transcript's structure: an object
        with every field, format version 2, `config` and `extraction`
        objects, and `stages` a list of objects with every `StageRecord`
        field.  Anything else raises TranscriptFormatError; what the fields
        hold is the auditor's to check."""
        if not isinstance(d, dict):
            raise TranscriptFormatError("top level must be an object")
        names = [f.name for f in fields(Transcript)]
        missing = [k for k in names if k not in d]
        if missing:
            raise TranscriptFormatError(
                f"missing fields: {', '.join(missing)}")
        if d["version"] != TRANSCRIPT_VERSION:
            raise TranscriptFormatError(
                f"transcript format version {d['version']!r} is not read "
                f"here, only version {TRANSCRIPT_VERSION}; "
                "tools/transcript_v1_to_v2.py converts a version 1 transcript")
        for key in ("config", "extraction"):
            if not isinstance(d[key], dict):
                raise TranscriptFormatError(f"{key} must be an object")
        if not isinstance(d["stages"], list):
            raise TranscriptFormatError("stages must be a list")
        read = itemgetter(*(f.name for f in fields(StageRecord)))
        stages = []
        for i, s in enumerate(d["stages"]):
            if not isinstance(s, dict):
                raise TranscriptFormatError(f"stage {i} is not an object")
            try:
                stages.append(StageRecord(*read(s)))
            except KeyError as exc:  # the first field in order it lacks
                raise TranscriptFormatError(
                    f"stage {i} has no {exc.args[0]!r} field") from None
        return Transcript(**{**{k: d[k] for k in names}, "stages": stages})


def condition_dict(cond) -> Dict:
    d = {"I": cond.I, "reservoir": list(cond.reservoir),
         "window_bound": cond.window_bound}
    if isinstance(cond, D2Condition):
        d["F_parts"] = [list(p) for p in cond.F_parts]
    else:
        d["F"] = list(cond.F)
    return d


def canonical_json(obj) -> str:
    """The canonical byte form: sorted keys, no whitespace, ASCII only.

    Nothing digested can be cyclic (a transcript is a tree that a run built
    or JSON loaded, an instance is tuples of ints), so the encoder skips its
    cycle check."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, check_circular=False)


def digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()


# the digest of its instance a run writes as `instance_hash`: of a
# coloring, of a `d2.Delta2Partition`, of a family of sets at a window
def coloring_digest(c: Coloring) -> str:
    return digest({
        "k": c.k, "table": [list(r) for r in c.table or ()],
        "bound": c.bound, "declared_bound": c.declared_bound,
    })


def partition_digest(d) -> str:
    return digest({
        "k": d.k, "table": [list(r) for r in d.table], "bound": d.bound,
        "promised_bound": d.promised_bound,
    })


def family_digest(family, window: int) -> str:
    return digest([list(r.window.bits[:window]) for r in family])


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
