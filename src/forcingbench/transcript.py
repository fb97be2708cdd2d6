"""The transcript format: what a run writes and an audit reads.

This module imports nothing from `forcingbench`, so no construction code
reaches the auditor through it.  A condition is a pair (finite committed
set, reservoir): coh's and EM's commit one set `F`, D2's one per part
(`F_parts`); a reservoir is a sorted tuple of members of the run's window
[0, window_bound).

Format version 3 writes a run's first condition whole (`condition_dict`).
Each later one extends the one before it, as in Mathias forcing: it
commits reservoir members above every committed one and keeps a subset of
the rest.  So it is written as its delta (`condition_delta`): `added`, the
members it commits (for D2, one list per part), and `removed`, the other
members it drops from the reservoir, each a strictly increasing list.  One
equal to the one before is `null`, and one that does not extend it (with
each committed set growing at its top only) is written whole.

The same run must hash to the same digest on every machine, so the JSON
form is fully canonical: sorted keys, no whitespace, plain integers.
`load_transcript` checks the digest and decodes the JSON, and
`Transcript.from_dict`, the one structural reader, the rest.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field, fields
from functools import lru_cache
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

CASE1 = "Case1"
CASE2 = "Case2"
E_EXTENSION = "E-extension"
D_RESTRICTION = "D-restriction"
ABORT = "abort"
SKIP = "skip"  # no run writes it: every stage meets a requirement

# reservoir members whose subsets a witness search tries: no run's subset
# width, nor any record's, passes it
SUBSET_WIDTH = 8


def committed_below(committed, reservoir) -> bool:
    """The condition invariant: every committed member lies below every
    reservoir member."""
    return not committed or not reservoir or max(committed) < min(reservoir)


@dataclass(frozen=True)
class CohCondition:
    F: Tuple[int, ...]
    reservoir: Tuple[int, ...]  # sorted members inside the window
    window_bound: int

    def valid(self) -> bool:
        return committed_below(self.F, self.reservoir)


@dataclass(frozen=True)
class D2Condition:
    F_parts: Tuple[Tuple[int, ...], ...]
    reservoir: Tuple[int, ...]
    window_bound: int

    def valid(self) -> bool:
        return all(committed_below(part, self.reservoir)
                   for part in self.F_parts)


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


def condition_sets(window_bound, parts, reservoir, d2: bool):
    """What the extension order compares of a condition whose committed
    sets are `parts` (coh's and EM's one set is one part): its window
    bound, committed set, reservoir set and, for D2 (`d2`), each committed
    part's set, else None."""
    part_sets = tuple(map(set, parts))
    return (window_bound, set().union(*part_sets), set(reservoir),
            part_sets if d2 else None)


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
    d2 = isinstance(p, D2Condition)
    p, q = ((c.window_bound, c.F_parts if d2 else (c.F,), c.reservoir)
            for c in (p, q))
    return extends_sets(condition_sets(*p, d2), condition_sets(*q, d2),
                        report)


@dataclass
class StageRecord:
    stage: int
    requirement: str
    branch: str
    condition: Optional[Dict]  # None: the condition of the stage before
    certificates: Dict


TRANSCRIPT_VERSION = 3


class TranscriptFormatError(ValueError):
    """A written transcript whose structure `Transcript.from_dict` cannot
    read."""


@dataclass
class Transcript:
    """A run's record.  Each stage holds its condition in the form format
    version 3 writes it: whole, as its delta from the condition before, or
    None for that condition unchanged.  The form is the same in memory and
    written, so an audit of either reads the same records."""

    kind: str
    instance_hash: str
    config: Dict
    stages: List[StageRecord] = field(default_factory=list)
    extraction: Dict = field(default_factory=dict)
    audits: List[Dict] = field(default_factory=list)
    version: int = TRANSCRIPT_VERSION

    def to_dict(self) -> Dict:
        """The written form: the records as they are, each a new dict."""
        return {**vars(self), "stages": [dict(vars(s)) for s in self.stages]}

    @staticmethod
    def from_dict(d) -> "Transcript":
        """The one reader of a written transcript's structure: an object
        with every field, format version 3, `config` and `extraction`
        objects, and `stages` a list of objects with every `StageRecord`
        field.  Anything else raises TranscriptFormatError; what the fields
        hold is the auditor's to check.  A condition is kept in the form
        written (whole, delta or None): rebuilding every condition whole
        here would cost what the shorter form saves in decoding."""
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
                "tools/transcript_v2_to_v3.py converts a version 2 transcript "
                "(tools/transcript_v1_to_v2.py a version 1 one to version 2)")
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
    """A condition written whole."""
    d = {"reservoir": list(cond.reservoir), "window_bound": cond.window_bound}
    if isinstance(cond, D2Condition):
        d["F_parts"] = [list(p) for p in cond.F_parts]
    else:
        d["F"] = list(cond.F)
    return d


def condition_delta(prev, cond) -> Optional[Dict]:
    """How `cond`, the condition after `prev` (None: no condition before
    it), is written: see the module docstring."""
    if prev is None:
        return condition_dict(cond)
    if cond == prev:
        return None
    d2 = isinstance(cond, D2Condition)
    old, new = (prev.F_parts, cond.F_parts) if d2 else ((prev.F,), (cond.F,))
    added = [p[len(o):] for o, p in zip(old, new)]
    reservoir, kept, taken = (set(prev.reservoir), set(cond.reservoir),
                              set().union(*added))
    if (cond.window_bound != prev.window_bound or len(old) != len(new)
            or not all(p[:len(o)] == o for o, p in zip(old, new))
            or not kept | taken <= reservoir or not kept.isdisjoint(taken)):
        return condition_dict(cond)
    return {"added": [list(a) for a in added] if d2 else list(added[0]),
            "removed": sorted(reservoir - kept - taken)}


def canonical_json(obj) -> str:
    """The canonical byte form: sorted keys, no whitespace, ASCII only.

    Nothing digested can be cyclic (a transcript is a tree that a run built
    or JSON loaded, an instance is tuples of ints), so the encoder skips its
    cycle check."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, check_circular=False)


def digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()


# the digest of its instance a run writes as `instance_hash`: of an
# `approx.Coloring`, a `d2.Delta2Partition`, or a family of sets at a window
def coloring_digest(c) -> str:
    return _kept(c, "coloring_digest", lambda: {
        "k": c.k, "table": [list(r) for r in c.table or ()],
        "bound": c.bound, "declared_bound": c.declared_bound,
    })


def partition_digest(d) -> str:
    return _kept(d, "partition_digest", lambda: {
        "k": d.k, "table": [list(r) for r in d.table], "bound": d.bound,
        "promised_bound": d.promised_bound,
    })


def _kept(instance, name: str, payload) -> str:
    """The digest of `payload()`, kept on the frozen instance under `name`
    once taken: it cannot go stale, and a new instance takes its own."""
    kept = vars(instance)
    if name not in kept:
        kept[name] = digest(payload())
    return kept[name]


def family_digest(family, window: int) -> str:
    return digest([list(r.window.bits[:window]) for r in family])


def transcript_hash(t: Transcript) -> str:
    return digest(t.to_dict())


def emit_transcript(t: Transcript, destination: str) -> tuple:
    """Write a transcript and return (path, sha256 of the bytes written)."""
    payload = canonical_json(t.to_dict()).encode("ascii")
    parent = os.path.dirname(os.path.abspath(destination))
    os.makedirs(parent, exist_ok=True)
    with open(destination, "wb") as fh:
        fh.write(payload)
    return destination, hashlib.sha256(payload).hexdigest()


def load_transcript(path: str, expect_hash: Optional[str] = None) -> Transcript:
    with open(path, "rb") as fh:
        payload = fh.read()
    if expect_hash is not None:
        got = hashlib.sha256(payload).hexdigest()
        if got != expect_hash:
            raise TranscriptFormatError(
                f"digest mismatch: file hashes to {got}, expected {expect_hash}")
    try:
        doc = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise TranscriptFormatError(
            f"not valid JSON at offset {exc.pos}: {exc.msg}") from exc
    return Transcript.from_dict(doc)
