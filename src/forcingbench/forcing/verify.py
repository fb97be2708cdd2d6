"""Independent transcript audit.

Everything here works from the transcript alone (plus the instance, when
supplied).  It reads the transcript through `forcingbench.transcript`,
the format's leaf module; an instance fact is a `forcingbench.brute`
checker's, and a halting claim replays through `machine.bounded_halt`, the
machine's semantics.  The one decision procedure it takes from the
constructions is their witness search, `base.find_halt_witness`, which
re-asks each negative decision.  Findings carry one of three grades:
certified (re-checked and exact), provisional (true as far as a bounded
re-check can see), refuted (contradicted by replay).

`_KINDS` is the one table of what each kind writes: its branches (coh's
Case1, Case2, E-extension, D-restriction and abort, EM's and D2's Case1,
Case2 and abort, and no stage of RT2's own), its `instance_hash` and its
extracted set's key (coh's `C`, RT2's `H`, EM's and D2's `B`).  No run
writes a skip: every stage meets a requirement.  `verify_transcript`
makes these passes, in this order of findings:

- a kind no run writes is refuted, with or without the instance;
- the record pass, before every other and for every kind, one pass over
  the stages: a record is refuted there, once, and read by no later pass,
  if its branch is not one its kind writes, its certificates are not a
  mapping, its `stage` is not its position, or its condition is one it
  cannot read into sets (not a mapping, or without the sets its kind
  writes).  Each condition read must be valid (its committed set stays
  below its reservoir) and extend the one before.  A condition `null`
  (None) is the one before it: transcript format version 2 writes a
  condition out only when it differs from the last one written.  A `null`
  at the first record read repeats nothing and is refuted.  Every kind
  but RT2 gets a certified finding for the chain.  The pass also keeps
  the condition in effect before each record read: the start condition
  of the window before the first, and none after a record it did not
  read;
- for RT2, the audits of its nested coh and D2 transcripts, each read by
  `Transcript.from_dict`; one it cannot read, or whose kind is not its
  slot's name, is one refuted finding;
- D2's decision counters are integers within the budget of their
  record's stage number;
- the run's window (`config["window"]`) is its first read record's
  window bound; if it is not, it is refuted, and the audit reads the
  smaller;
- with the instance: `instance_hash` is the digest a run of the
  transcript's kind writes of it (coh's family digest taken at the window
  read above); if it is not, or the kind is one no run writes, it is
  refuted, and no later check reads the instance.  A window past the
  bound of the coloring or partition (`brute.domain_bound`), which no
  run's window passes, is refuted, and the audit reads the bound;
- the extracted set (`B` for a kind no run writes) is a list of
  distinct naturals below the window; if it is not, it is refuted here,
  and neither the ledger nor the instance checks read it;
- every Case-1 certificate replays: its oracle lists a finite set of
  naturals below the window on which the program self-halts with the
  recorded steps, use and value (one it does not record is refuted);
  every Case-2 decision whose committed set and pool are lists of
  distinct naturals below the window, and whose recorded subset width
  lies within the run's, survives a wider witness search, and any other
  is refuted, as is a decided requirement whose name `parse_label`
  cannot read.  Each Case-2 and coh D-restriction record restates sets of
  the condition in effect before it: `F_at_decision` its committed set
  (D2's part of the record's color), and a Case-2
  `reservoir_at_decision` its reservoir, inside which D2's
  `pool_at_decision` lies; with the instance, that pool is the
  reservoir's members in the part (`brute.d2_part`).  A wrong
  restatement refutes the record, after the ledger and the instance
  checks, unless the chain, the re-search or one of them already did:
  the re-search reads the restated sets, which on every record left
  unrefuted are the chain's;
- the jump ledger, over the decided R/N records the main pass hands it
  with their parsed names and replays: each positive's oracle is a prefix
  of the extracted set, and each negative stays divergent on it;
- with the instance: EM's extracted set is fallow (and each aborted EM
  stage is reported provisional), D2's lies in the selected part, and
  the pipeline's set is monochromatic;
- last, the extraction is tied to the stages: coh, EM and D2 write
  `config["stages"]` records, and what they extract is what the last
  condition read commits (coh's `C` and EM's `B` its committed set, none
  when no condition was read; D2's `F_parts` its parts, with `B` the
  selected one).  An extracted set that an earlier check refuted is not
  compared again, so it is refuted once.

No set reaches a machine question unless it is a list of distinct
naturals below the window, so a forged member costs no more fuel than an
honest one.

Each fact is computed once per call: a stage's condition sets once, in
the record pass, which keeps only the last one's (a stage recording its
predecessor's condition reuses its verdicts), and a
certificate's replay once, which the ledger reuses.  Facts about programs
are kept per process (`machine.bounded_halt`'s run trees); nothing about
a transcript is.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..brute import d2_part, domain_bound, fallow_violation, off_color_pairs
from ..machine import HALTED, bounded_halt
from ..transcript import (
    ABORT,
    CASE1,
    CASE2,
    D_RESTRICTION,
    E_EXTENSION,
    Transcript,
    TranscriptFormatError,
    coloring_digest,
    committed_below,
    condition_sets,
    extends_sets,
    family_digest,
    parse_label,
    partition_digest,
)
from .base import find_halt_witness

CERTIFIED = "certified"
PROVISIONAL = "provisional"
REFUTED = "refuted"

class _Kind(NamedTuple):
    branches: Tuple[str, ...]  # the branches a run of the kind writes
    digest: Callable  # the `instance_hash` it writes of (instance, window)
    extracted: str  # the extraction key of its extracted set


_KINDS = {
    "coh": _Kind((CASE1, CASE2, E_EXTENSION, D_RESTRICTION, ABORT),
                 family_digest, "C"),
    "em": _Kind((CASE1, CASE2, ABORT), lambda c, _: coloring_digest(c), "B"),
    "d2": _Kind((CASE1, CASE2, ABORT), lambda d, _: partition_digest(d),
                "B"),
    "rt2": _Kind((), lambda c, _: coloring_digest(c), "H"),
}
_NO_KIND = _Kind((), lambda *_: None, "B")  # a kind no run writes


@dataclass
class AuditReport:
    findings: List[Dict] = field(default_factory=list)
    counts: Dict[str, int] = field(
        default_factory=lambda: {CERTIFIED: 0, PROVISIONAL: 0, REFUTED: 0})

    def add(self, grade: str, note: str, stage: Optional[int] = None,
            requirement: Optional[str] = None):
        self.findings.append({
            "grade": grade, "note": note, "stage": stage,
            "requirement": requirement,
        })
        self.counts[grade] += 1

    @property
    def ok(self) -> bool:
        return self.counts[REFUTED] == 0


# the condition in effect before a record that follows an unread one
_UNREAD = "unread"


def _check_chain(t: Transcript, report: AuditReport):
    """The record pass (see the module docstring): the records read, the
    condition in effect before each (None for the start condition,
    `_UNREAD` after a record whose condition was not read), and the last
    condition read (None for none).  A condition is read into its sets
    once; one that is None or repeats it keeps its verdicts, which follow
    the refutations of unread records."""
    branches = _KINDS.get(t.kind if isinstance(t.kind, str) else None,
                          _NO_KIND).branches
    parts = t.kind == "d2"
    records, befores, verdicts = [], [], []
    last = prev = valid = current = None
    for s, rec in enumerate(t.stages):
        fault = broken = None
        before = current
        if rec.branch not in branches:
            fault = "branch is not one its kind writes"
        elif not isinstance(rec.certificates, dict):
            fault = "certificates are not a mapping"
        elif type(rec.stage) is not int or rec.stage != s:
            fault = "stage number is not its position"
        elif rec.condition is not None and rec.condition != last:
            try:
                sets = condition_sets(rec.condition, parts)
                # D2's union lies below the reservoir iff each part does
                valid = committed_below(sets[1], sets[2])
            except (KeyError, TypeError):
                fault = "condition is malformed"
            else:
                notes = []
                if prev is not None and not extends_sets(sets, prev, notes):
                    broken = notes[0] if notes else "clause check"
                last, prev = rec.condition, sets
        if fault is not None:
            report.add(REFUTED, fault, rec.stage, rec.requirement)
            current = _UNREAD
            continue
        if not records and rec.condition is None:
            verdicts.append(("first stage repeats no earlier condition", rec))
        if valid is False:
            verdicts.append(("committed set reaches into the reservoir", rec))
        if broken is not None:
            verdicts.append(("extension order violated: " + broken, rec))
        if rec.condition is not None:
            current = rec.condition
        elif before is None:  # a null at the start repeats nothing
            current = _UNREAD
        records.append(rec)
        befores.append(before)
    for note, rec in verdicts:
        report.add(REFUTED, note, rec.stage, rec.requirement)
    if t.kind != "rt2":
        report.add(CERTIFIED, f"extension chain over {len(t.stages)} stages")
    return records, befores, last


def _restated_fault(rec, color, before, window: int, parts: bool,
                    part=None) -> Optional[str]:
    """What a Case-2 or D-restriction record restates wrongly of `before`,
    the condition in effect before it (None: the start condition of the
    window), or None.  `F_at_decision` is that condition's committed set,
    for D2 its part `color`, and a Case-2 `reservoir_at_decision` its
    reservoir.  D2's `pool_at_decision` lies inside that reservoir and, with
    the instance, is the reservoir's members in `part(color)`."""
    cert = rec.certificates
    r = cert.get("reservoir_at_decision")
    if before is None:  # nothing committed, and the whole window reserved
        committed = []
        same = (isinstance(r, list) and len(r) == window
                and r == list(range(window)))
    else:
        try:
            committed = before["F_parts"][color] if parts else before["F"]
        except (IndexError, KeyError, TypeError):
            return "restated committed set is no part of the condition's"
        same = r == before["reservoir"]
    if cert.get("F_at_decision") != committed:
        return "restated committed set is not the condition's before it"
    if rec.branch == D_RESTRICTION:
        return None
    if not same:
        return "restated reservoir is not the condition's before it"
    if not parts:
        return None
    pool = cert.get("pool_at_decision")
    if part is not None:
        members = part(color)
        if pool != [z for z in r if z in members]:
            return "negative decision's pool is not the reservoir's " \
                "members in its part"
    elif not (isinstance(pool, list) and set(map(type, pool)) <= {int}
              and set(pool) <= set(r)):
        return "negative decision's pool is not inside the reservoir"
    return None


def _tie_extraction(t: Transcript, last, b, report: AuditReport):
    """The run's records are `config["stages"]` many, and what it extracted
    is what the last condition read commits: coh's `C` and EM's `B` its
    committed set (none when no condition was read), D2's `F_parts` its
    parts and `B` the selected part.  `b` is the extracted set, or None
    when an earlier check refuted it, which then goes unchecked here.  Each
    check adds a finding only when it refutes."""
    if len(t.stages) != t.config.get("stages"):
        report.add(REFUTED, "record count differs from the run's stages")
    if b is None:
        return
    if t.kind == "d2":
        parts, color = t.extraction.get("F_parts"), t.extraction.get("color")
        if (last is None or not isinstance(parts, list)
                or parts != last["F_parts"] or type(color) is not int
                or not 0 <= color < len(parts) or b != parts[color]):
            report.add(REFUTED, "extracted parts are not the last "
                       "condition's committed parts")
    elif b != (last["F"] if last is not None else []):
        report.add(REFUTED,
                   "extracted set is not the last condition's committed set")


def _window(t: Transcript, records, report: AuditReport) -> int:
    """The run's window, `config["window"]`.  For coh, EM and D2 it is also
    the first read record's window bound: where the two differ, the
    transcript is refuted and the smaller is read.  One that is not an
    integer admits no member."""
    windows = [t.config.get("window")]
    if records and records[0].condition is not None:
        windows.append(records[0].condition["window_bound"])
        if windows[0] != windows[1]:
            report.add(REFUTED, "window differs from the first stage's "
                       "window bound")
    return min(w if type(w) is int else 0 for w in windows)


def _set_fault(xs, window: int, name: str,
               increasing: bool = False) -> Optional[str]:
    """None when `xs` is a list of distinct naturals below the window (in
    increasing order, with `increasing`), as every set of an honest run is;
    else what is wrong with it, naming it `name`."""
    if not (isinstance(xs, list) and set(map(type, xs)) <= {int}
            and len(set(xs)) == len(xs) and (not xs or min(xs) >= 0)
            and (not increasing or xs == sorted(xs))):
        return f"{name} is not " + ("an increasing list of naturals"
                                    if increasing
                                    else "a list of distinct naturals")
    if xs and max(xs) >= window:
        return f"{name} reaches past the window"
    return None


def _replay_positive(rec, e: int, window: int) -> Tuple[Tuple[str, str],
                                                        bool]:
    """((grade, note), whether the oracle lists a finite set) of a Case-1
    certificate for program e: its oracle must be a finite set of naturals
    below the window on which e self-halts exactly as recorded."""
    cert = rec.certificates
    oracle = cert.get("oracle")
    fault = _set_fault(oracle, window, "halting certificate oracle",
                       increasing=True)
    if fault is not None:
        # one past the window still lists a finite set
        return (REFUTED, fault), fault.endswith("window")
    out = bounded_halt(e, oracle)
    if (out.tag == HALTED and out.steps == cert.get("steps")
            and out.use == cert.get("use") and out.value == cert.get("value")):
        return (CERTIFIED, "halting certificate replays"), True
    return (REFUTED, "halting certificate does not replay"), True


def _recheck_negative(rec, e: int, report: AuditReport, audit_fuel: int,
                      window: int, max_width):
    """Widen the witness search of a Case-2 decision for program e by
    `audit_fuel`; the step/use bound stays tied to the oracle maximum (that
    bound is part of the claim being audited, not a budget).  Its recorded
    subset width must lie within the run's, `max_width`: the re-search
    costs 2^(width + audit_fuel) questions."""
    cert = rec.certificates
    # part-wise runs confine the question to the recorded pool; witnesses
    # from outside it would not answer the question that was asked
    pool = cert.get("pool_at_decision", cert.get("reservoir_at_decision"))
    committed = cert.get("F_at_decision")
    if (_set_fault(committed, window, "committed set") is not None
            or _set_fault(pool, window, "pool") is not None):
        report.add(REFUTED, "negative decision's committed set or pool is "
                   "not a list of distinct naturals below the window",
                   rec.stage, rec.requirement)
        return
    search = cert.get("search")
    width = search.get("subset_width") if isinstance(search, dict) else None
    if not (type(width) is int and type(max_width) is int
            and 0 <= width <= max_width):
        report.add(REFUTED, "negative decision's subset width is not an "
                   "integer from 0 to the run's", rec.stage, rec.requirement)
        return
    w, _ = find_halt_witness(
        e, tuple(committed), tuple(pool), subset_width=width + audit_fuel,
    )
    if w is None:
        report.add(PROVISIONAL, "negative decision unrefuted by wider search",
                   rec.stage, rec.requirement)
    else:
        report.add(REFUTED,
                   f"negative decision refuted by witness {list(w.added)}",
                   rec.stage, rec.requirement)


def _jump_ledger(entries, extracted, report: AuditReport,
                 color: Optional[int] = None):
    """The main pass's decided R/N entries, each (record, parsed label, the
    record's replay for a positive or None for a negative), against the
    extracted set: positives must replay on the extracted prefix verbatim,
    negatives must stay divergent on it.  For part-wise runs only the
    selected color's entries concern the extracted set.  Whether it
    refuted the extracted set."""
    ext, refuted = sorted(extracted), False
    for rec, (_, e, c), replay in entries:
        if color is not None and c != color:
            continue
        if replay is None:
            if bounded_halt(e, ext).tag == HALTED:
                report.add(REFUTED,
                           "negative decision halts on the extracted prefix",
                           rec.stage, rec.requirement)
                refuted = True
            else:
                report.add(PROVISIONAL, "extracted prefix stays divergent",
                           rec.stage, rec.requirement)
            continue
        oracle = rec.certificates.get("oracle")
        if oracle is None:
            continue
        verdict, listed = replay
        # a prefix check needs a finite set; the verdict refutes others
        if listed and ext[:bisect_right(
                ext, oracle[-1] if oracle else -1)] != oracle:
            report.add(REFUTED,
                       "extracted set disagrees with certificate oracle",
                       rec.stage, rec.requirement)
            refuted = True
            continue
        report.add(*verdict, rec.stage, rec.requirement)
    return refuted


def verify_transcript(t: Transcript, audit_fuel: int = 2,
                      instance=None) -> AuditReport:
    """Re-check a transcript.  `audit_fuel` widens the re-search of each
    negative decision: its subset width is the recorded one plus
    `audit_fuel`.  Positive certificates replay at the fuel bound they
    claim, which is part of the claim, not a budget.

    `instance` (the family, coloring or partition the run consumed) is
    checked against `instance_hash` and enables the semantic checks:
    fallowness for EM, part membership for D2, monochromaticity for the
    pair pipeline.
    """
    report = AuditReport()
    kind = _KINDS.get(t.kind if isinstance(t.kind, str) else None, _NO_KIND)
    if kind is _NO_KIND:
        report.add(REFUTED, "kind is not one a run writes")
    records, befores, last = _check_chain(t, report)
    if t.kind == "rt2":
        for nested in ("coh", "d2"):
            try:
                sub = Transcript.from_dict(t.extraction.get(nested))
            except TranscriptFormatError as exc:
                report.add(REFUTED, f"nested {nested} transcript: {exc}")
                continue
            if sub.kind != nested:
                report.add(REFUTED, f"nested {nested} transcript is of "
                           f"kind {sub.kind!r}")
                continue
            sub = verify_transcript(sub, audit_fuel)
            report.findings.extend(sub.findings)
            for g, n in sub.counts.items():
                report.counts[g] += n

    if t.kind == "d2":
        total = 0
        for rec in records:
            counters = rec.certificates.get("counters")
            if counters is None:
                continue
            if not (isinstance(counters, list)
                    and set(map(type, counters)) <= {int}):
                report.add(REFUTED, "decision counters are not a list of "
                           "integers", rec.stage, rec.requirement)
                continue
            if sum(counters) > rec.stage + 1:
                report.add(REFUTED, "decision counters exceed stage budget",
                           rec.stage, rec.requirement)
            total = sum(counters)
        report.add(CERTIFIED, f"counter budget respected (total {total})")

    window = _window(t, records, report)
    if instance is not None:
        try:
            expected = kind.digest(instance, window)
        except (TypeError, AttributeError):  # an instance of another kind
            expected = None
        if expected is None or t.instance_hash != expected:
            report.add(REFUTED, "instance_hash is not the instance's digest")
            instance = None  # the run did not read it: nothing to check
    top = None if instance is None else domain_bound(instance)
    if top is not None and window > top:
        report.add(REFUTED, f"window reaches past the instance's bound {top}")
        window = top
    # the ledger and the instance checks read the extracted set
    b = t.extraction.get(kind.extracted)
    fault = _set_fault(b, window, "extracted set")
    if fault is not None:
        report.add(REFUTED, fault)

    # D2's part of each color asked about, read once from the instance
    part = (lru_cache(maxsize=None)(lambda i: set(d2_part(instance, i)))
            if t.kind == "d2" and instance is not None else None)
    entries = []  # (record, parsed label, replay) of each decided R or N
    restated = []  # (fault, record) of each record restating a wrong set
    for rec, before in zip(records, befores):
        if rec.branch not in (CASE1, CASE2, D_RESTRICTION):
            continue
        label = parse_label(rec.requirement)
        if rec.branch != CASE1 and before is not _UNREAD:
            wrong = _restated_fault(
                rec, None if label is None else label[2], before, window,
                t.kind == "d2", part)
            if wrong is not None:
                restated.append((wrong, rec))
        if rec.branch == D_RESTRICTION:
            continue
        if label is None:
            report.add(REFUTED, "decided requirement's name is unreadable",
                       rec.stage, rec.requirement)
        elif rec.branch == CASE1 and label[0] == "R":
            replay = _replay_positive(rec, label[1], window)
            report.add(*replay[0], rec.stage, rec.requirement)
            entries.append((rec, label, replay))
        elif rec.branch == CASE2 and label[0] == "N":
            _recheck_negative(rec, label[1], report, audit_fuel, window,
                              t.config.get("subset_width"))
            entries.append((rec, label, None))

    color = t.extraction.get("color")
    refuted = fault is not None  # whether a check refuted the extracted set
    if not refuted:
        refuted = _jump_ledger(entries, b, report,
                               color if t.kind == "d2" else None)
    if fault is None and instance is not None:
        if t.kind == "d2" and color is not None:
            off = [x for x in b if x not in part(color)]
            if off:
                report.add(REFUTED, f"elements outside the selected part: {off}")
                refuted = True
            else:
                report.add(CERTIFIED,
                           f"extracted set inside part {color}")
        elif t.kind == "em":
            bad = fallow_violation(instance, b)
            if bad is None:
                report.add(CERTIFIED, f"extracted {len(b)}-element set fallow")
            else:
                report.add(REFUTED, f"fallow violation {bad}")
                refuted = True
        elif t.kind == "rt2":
            bad = list(islice(off_color_pairs(instance, b, color), 3))
            if bad:
                report.add(REFUTED, f"extracted pairs off-color: {bad}")
            else:
                report.add(CERTIFIED,
                           f"{len(b)}-element set monochromatic in color {color}")
    if t.kind == "em" and instance is not None:
        for rec in records:
            if rec.branch == ABORT:
                report.add(PROVISIONAL,
                           rec.certificates.get("reason", "stage aborted"),
                           rec.stage, rec.requirement)
    if restated:  # refuting each record that no other check refuted
        hit = [(f["stage"], f["requirement"]) for f in report.findings
               if f["grade"] == REFUTED]
        for wrong, rec in restated:
            if (rec.stage, rec.requirement) not in hit:
                report.add(REFUTED, wrong, rec.stage, rec.requirement)
    if t.kind in ("coh", "em", "d2"):
        _tie_extraction(t, last, None if refuted else b, report)
    return report
