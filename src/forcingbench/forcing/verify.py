"""Independent transcript audit.

Everything here works from the transcript alone (plus the instance, when
supplied): the construction code is never consulted.  Findings carry one
of three grades: certified (re-checked and exact), provisional (true as
far as a bounded re-check can see), refuted (contradicted by replay).

`verify_transcript` makes these passes, in this order of findings:

- the extension chain: every stage's condition is valid (its committed
  set stays below its reservoir) and extends the stage before's.  A stage
  whose condition is `null` (None) records the condition of the stage
  before it: transcript format version 2 writes a condition out only when
  it differs from the last one written.  A `null` at the first stage
  repeats nothing and is refuted;
- D2's decision counters stay within the stage budget;
- the extracted set is a list of distinct naturals below the run's
  window (`config["window"]`); if it is not, it is refuted here, and
  neither the ledger nor the instance checks read it;
- every Case-1 certificate replays: its oracle lists a finite set of
  naturals below the window on which the program self-halts with the
  recorded steps, use and value; every Case-2 decision whose committed
  set and pool are lists of distinct naturals below the window survives
  a wider witness search, and any other is refuted;
- the jump ledger: each positive's oracle is a prefix of the extracted
  set, and each negative stays divergent on the extracted set;
- with the instance: EM's extracted set is fallow (and each aborted EM
  stage is reported provisional), D2's lies in the selected part, and
  the pipeline's set is monochromatic, after the audits of its nested coh
  and D2 transcripts.

No set reaches a machine question unless it is a list of distinct
naturals below the window, so a forged member costs no more fuel than an
honest one.

Each fact is computed once per call: a stage's condition sets once (a
stage recording its predecessor's condition reuses its verdicts), and a
certificate's replay once, which the ledger reuses.  Facts about programs
are kept per process (`base.bounded_halt`'s run trees); nothing about a
transcript is.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..machine import HALTED
from .base import (
    ABORT,
    CASE1,
    CASE2,
    Transcript,
    bounded_halt,
    committed_below,
    condition_sets,
    extends_sets,
    fallow_check,
    find_halt_witness,
)

CERTIFIED = "certified"
PROVISIONAL = "provisional"
REFUTED = "refuted"


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


def _program_of(requirement: str) -> int:
    # "R_5", "N_5", "R_5^1", "N_5^0" -> 5
    return int(requirement.split("_")[1].split("^")[0])


def _check_chain(t: Transcript, report: AuditReport):
    """Validity of every stage's condition, and the extension order between
    each stage and the one before.  A stage recording its predecessor's
    condition, or None for it, repeats that verdict and extends it
    trivially; every other stage's sets are built once and compared as the
    next stage's `prev`.  A None with no stage before it is refuted once."""
    parts = t.kind == "d2"
    prev = prev_sets = None
    if t.stages and t.stages[0].condition is None:
        report.add(REFUTED, "first stage repeats no earlier condition",
                   t.stages[0].stage, t.stages[0].requirement)
    for rec in t.stages:
        extended = True
        if rec.condition is None:
            if prev is None:
                continue  # nothing to repeat; refuted above
        elif rec.condition != prev:
            sets, notes = condition_sets(rec.condition, parts), []
            # D2's union lies below the reservoir iff each of its parts does
            valid = committed_below(sets[1], sets[2])
            if prev_sets is not None:
                extended = extends_sets(sets, prev_sets, notes)
            prev, prev_sets = rec.condition, sets
        if not valid:
            report.add(REFUTED, "committed set reaches into the reservoir",
                       rec.stage, rec.requirement)
        if not extended:
            report.add(REFUTED,
                       "extension order violated: " + (notes[0] if notes
                                                       else "clause check"),
                       rec.stage, rec.requirement)
    report.add(CERTIFIED, f"extension chain over {len(t.stages)} stages")


_NOT_A_SET = (
    REFUTED, "halting certificate oracle is not an increasing list of naturals")
_ORACLE_PAST_WINDOW = (
    REFUTED, "halting certificate oracle reaches past the window")
_NOT_NATURALS = "extracted set is not a list of distinct naturals"
_PAST_WINDOW = "extracted set reaches past the window"
_NEGATIVE_NOT_SETS = ("negative decision's committed set or pool is not a "
                      "list of distinct naturals below the window")


def _window(t: Transcript) -> int:
    """The run's window; a forged one that is not an integer admits no
    member."""
    window = t.config.get("window")
    return window if type(window) is int else 0


def _lists_naturals(xs) -> bool:
    """Whether `xs` is a list of distinct naturals, as an extracted set is."""
    return (isinstance(xs, list) and set(map(type, xs)) <= {int}
            and len(set(xs)) == len(xs) and (not xs or min(xs) >= 0))


def _below(xs, window: int) -> bool:
    """Whether every member of the list of naturals `xs` lies below the
    window, as every set of an honest run does."""
    return not xs or max(xs) < window


def _lists_finite_set(oracle) -> bool:
    """Whether `oracle` lists naturals in strictly increasing order, as an
    honest certificate's oracle does."""
    return _lists_naturals(oracle) and oracle == sorted(oracle)


def _replay_positive(rec, window: int) -> Tuple[str, str]:
    """(grade, note) of a Case-1 certificate: its oracle must be a finite
    set of naturals below the window on which the program self-halts
    exactly as recorded."""
    cert = rec.certificates
    oracle = cert.get("oracle")
    if not _lists_finite_set(oracle):
        return _NOT_A_SET
    if not _below(oracle, window):
        return _ORACLE_PAST_WINDOW
    out = bounded_halt(_program_of(rec.requirement), oracle)
    if (out.tag == HALTED and out.steps == cert["steps"]
            and out.use == cert["use"] and out.value == cert["value"]):
        return CERTIFIED, "halting certificate replays"
    return REFUTED, "halting certificate does not replay"


def _recheck_negative(rec, report: AuditReport, audit_fuel: int,
                      window: int):
    # widen the witness search; the step/use bound stays tied to the oracle
    # maximum (that bound is part of the claim being audited, not a budget)
    cert = rec.certificates
    e = _program_of(rec.requirement)
    width = cert.get("search", {}).get("subset_width", 8)
    # part-wise runs confine the question to the recorded pool; witnesses
    # from outside it would not answer the question that was asked
    pool = cert.get("pool_at_decision", cert.get("reservoir_at_decision"))
    committed = cert.get("F_at_decision")
    if not (_lists_naturals(committed) and _below(committed, window)
            and _lists_naturals(pool) and _below(pool, window)):
        report.add(REFUTED, _NEGATIVE_NOT_SETS, rec.stage, rec.requirement)
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


def _jump_ledger(t: Transcript, extracted, report: AuditReport,
                 replays: Dict[int, Tuple[str, str]],
                 color: Optional[int] = None):
    """Decided R/N entries against the extracted set: positives must replay
    on the extracted prefix verbatim, negatives must stay divergent on it.
    A positive's replay is the main pass's verdict, `replays[i]` for stage
    record i.  For part-wise runs only the selected color's entries concern
    the extracted set."""
    ext = sorted(extracted)
    for i, rec in enumerate(t.stages):
        if color is not None:
            if "^" not in rec.requirement:
                continue
            if int(rec.requirement.split("^")[1]) != color:
                continue
        if rec.branch == CASE1 and rec.requirement.startswith("R"):
            oracle = rec.certificates.get("oracle")
            if oracle is None:
                continue
            # a prefix check needs a finite set; the verdict refutes others
            if replays[i] != _NOT_A_SET and ext[:bisect_right(
                    ext, oracle[-1] if oracle else -1)] != oracle:
                report.add(REFUTED,
                           "extracted set disagrees with certificate oracle",
                           rec.stage, rec.requirement)
                continue
            report.add(*replays[i], rec.stage, rec.requirement)
        elif rec.branch == CASE2 and rec.requirement.startswith("N"):
            e = _program_of(rec.requirement)
            out = bounded_halt(e, ext)
            if out.tag == HALTED:
                report.add(REFUTED,
                           "negative decision halts on the extracted prefix",
                           rec.stage, rec.requirement)
            else:
                report.add(PROVISIONAL,
                           "extracted prefix stays divergent",
                           rec.stage, rec.requirement)


def verify_transcript(t: Transcript, audit_fuel: int = 2,
                      instance=None) -> AuditReport:
    """Re-check a transcript.  `audit_fuel` widens the re-search of each
    negative decision: its subset width is the recorded one plus
    `audit_fuel`.  Positive certificates replay at the fuel bound they
    claim, which is part of the claim, not a budget.

    `instance` (the coloring or partition the run consumed) enables the
    semantic checks: fallowness for EM, part membership for D2,
    monochromaticity for the pair pipeline.
    """
    report = AuditReport()
    if t.kind == "rt2":
        for nested in ("coh", "d2"):
            sub = verify_transcript(
                Transcript.from_dict(t.extraction[nested]), audit_fuel)
            report.findings.extend(sub.findings)
            for g, n in sub.counts.items():
                report.counts[g] += n
        h = t.extraction["H"]
        color = t.extraction["color"]
        if not _lists_naturals(h):
            report.add(REFUTED, _NOT_NATURALS)
        elif not _below(h, _window(t)):
            report.add(REFUTED, _PAST_WINDOW)
        elif instance is not None:
            hs = sorted(h)  # the coloring is read on pairs x < y
            bad = [
                (x, y) for i, x in enumerate(hs) for y in hs[i + 1:]
                if instance.value(x, y) != color
            ]
            if bad:
                report.add(REFUTED, f"extracted pairs off-color: {bad[:3]}")
            else:
                report.add(CERTIFIED,
                           f"{len(h)}-element set monochromatic in color {color}")
        return report

    _check_chain(t, report)

    if t.kind == "d2":
        total = 0
        for s, rec in enumerate(t.stages):
            counters = rec.certificates.get("counters")
            if counters is not None:
                if sum(counters) > s + 1:
                    report.add(REFUTED, "decision counters exceed stage budget",
                               rec.stage, rec.requirement)
                total = sum(counters)
        report.add(CERTIFIED, f"counter budget respected (total {total})")

    # the ledger and the instance checks read the extracted set
    window = _window(t)
    b = t.extraction.get("C" if t.kind == "coh" else "B", [])
    listed = _lists_naturals(b)
    if not listed:
        report.add(REFUTED, _NOT_NATURALS)
    elif not _below(b, window):
        listed = False
        report.add(REFUTED, _PAST_WINDOW)

    replays: Dict[int, Tuple[str, str]] = {}
    for i, rec in enumerate(t.stages):
        if rec.branch == CASE1 and rec.requirement.startswith("R"):
            replays[i] = _replay_positive(rec, window)
            report.add(*replays[i], rec.stage, rec.requirement)
        elif rec.branch == CASE2 and rec.requirement.startswith("N"):
            _recheck_negative(rec, report, audit_fuel, window)

    if listed and t.kind == "d2":
        color = t.extraction.get("color")
        _jump_ledger(t, b, report, replays, color=color)
        if instance is not None and color is not None:
            off = [x for x in b if instance.limit_part(x) != color]
            if off:
                report.add(REFUTED, f"elements outside the selected part: {off}")
            else:
                report.add(CERTIFIED,
                           f"extracted set inside part {color}")
    elif listed:
        _jump_ledger(t, b, report, replays)
        if t.kind == "em" and instance is not None:
            fr = fallow_check(instance, b)
            if fr.ok:
                report.add(CERTIFIED, f"extracted {len(b)}-element set fallow")
            else:
                report.add(REFUTED, f"fallow violation {fr.violation}")
    if t.kind == "em" and instance is not None:
        for rec in t.stages:
            if rec.branch == ABORT:
                report.add(PROVISIONAL,
                           rec.certificates.get("reason", "stage aborted"),
                           rec.stage, rec.requirement)
    return report
