"""Independent transcript audit.

Everything here works from the transcript alone (plus the instance, when
supplied): the construction code is never consulted.  Findings carry one
of three grades: certified (re-checked and exact), provisional (true as
far as a bounded re-check can see), refuted (contradicted by replay).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..machine import HALTED
from .base import (
    ABORT,
    CASE1,
    CASE2,
    CohCondition,
    D2Condition,
    Transcript,
    bounded_halt,
    extends,
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


def _condition_from_dict(kind: str, d: Dict):
    rest = (d["I"], tuple(d["reservoir"]), d["window_bound"])
    if kind == "d2":
        return D2Condition(tuple(tuple(p) for p in d["F_parts"]), *rest)
    return CohCondition(tuple(d["F"]), *rest)


def _program_of(requirement: str) -> int:
    # "R_5", "N_5", "R_5^1", "N_5^0" -> 5
    return int(requirement.split("_")[1].split("^")[0])


def _check_chain(t: Transcript, report: AuditReport):
    prev = None
    for rec in t.stages:
        cond = _condition_from_dict(t.kind, rec.condition)
        if not cond.valid():
            report.add(REFUTED, "committed set reaches into the reservoir",
                       rec.stage, rec.requirement)
        if prev is not None:
            notes: List[str] = []
            if not extends(cond, prev, notes):
                report.add(REFUTED,
                           "extension order violated: " + (notes[0] if notes
                                                           else "clause check"),
                           rec.stage, rec.requirement)
        prev = cond
    report.add(CERTIFIED, f"extension chain over {len(t.stages)} stages")


def _replay_positive(rec, report: AuditReport):
    cert = rec.certificates
    out = bounded_halt(_program_of(rec.requirement), cert["oracle"])
    if (out.tag == HALTED and out.steps == cert["steps"]
            and out.use == cert["use"] and out.value == cert["value"]):
        report.add(CERTIFIED, "halting certificate replays",
                   rec.stage, rec.requirement)
    else:
        report.add(REFUTED, "halting certificate does not replay",
                   rec.stage, rec.requirement)


def _recheck_negative(rec, report: AuditReport, audit_fuel: int):
    # widen the witness search; the step/use bound stays tied to the oracle
    # maximum (that bound is part of the claim being audited, not a budget)
    cert = rec.certificates
    e = _program_of(rec.requirement)
    width = cert.get("search", {}).get("subset_width", 8)
    # part-wise runs confine the question to the recorded pool; witnesses
    # from outside it would not answer the question that was asked
    pool = cert.get("pool_at_decision", cert["reservoir_at_decision"])
    w, _ = find_halt_witness(
        e, tuple(cert["F_at_decision"]), tuple(pool),
        subset_width=width + audit_fuel,
    )
    if w is None:
        report.add(PROVISIONAL, "negative decision unrefuted by wider search",
                   rec.stage, rec.requirement)
    else:
        report.add(REFUTED,
                   f"negative decision refuted by witness {list(w.added)}",
                   rec.stage, rec.requirement)


def _jump_ledger(t: Transcript, extracted, report: AuditReport,
                 color: Optional[int] = None):
    """Decided R/N entries against the extracted set: positives must replay
    on the extracted prefix verbatim, negatives must stay divergent on it.
    For part-wise runs only the selected color's entries concern the
    extracted set."""
    ext = sorted(extracted)
    for rec in t.stages:
        if color is not None:
            if "^" not in rec.requirement:
                continue
            if int(rec.requirement.split("^")[1]) != color:
                continue
        if rec.branch == CASE1 and rec.requirement.startswith("R"):
            oracle = rec.certificates.get("oracle")
            if oracle is None:
                continue
            top = max(oracle) if oracle else -1
            prefix = [x for x in ext if x <= top]
            if prefix != sorted(oracle):
                report.add(REFUTED,
                           "extracted set disagrees with certificate oracle",
                           rec.stage, rec.requirement)
                continue
            _replay_positive(rec, report)
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
        if instance is not None:
            bad = [
                (x, y) for i, x in enumerate(h) for y in h[i + 1:]
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

    for rec in t.stages:
        if rec.branch == CASE1 and rec.requirement.startswith("R"):
            _replay_positive(rec, report)
        elif rec.branch == CASE2 and rec.requirement.startswith("N"):
            _recheck_negative(rec, report, audit_fuel)

    if t.kind == "coh":
        _jump_ledger(t, t.extraction.get("C", []), report)
    elif t.kind == "em":
        _jump_ledger(t, t.extraction.get("B", []), report)
        if instance is not None:
            b = t.extraction.get("B", [])
            fr = fallow_check(instance, b)
            if fr.ok:
                report.add(CERTIFIED, f"extracted {len(b)}-element set fallow")
            else:
                report.add(REFUTED, f"fallow violation {fr.violation}")
            for rec in t.stages:
                if rec.branch == ABORT:
                    report.add(PROVISIONAL,
                               rec.certificates.get("reason", "stage aborted"),
                               rec.stage, rec.requirement)
    elif t.kind == "d2":
        color = t.extraction.get("color")
        b = t.extraction.get("B", [])
        _jump_ledger(t, b, report, color=color)
        if instance is not None and color is not None:
            off = [x for x in b if instance.limit_part(x) != color]
            if off:
                report.add(REFUTED, f"elements outside the selected part: {off}")
            else:
                report.add(CERTIFIED,
                           f"extracted set inside part {color}")
    return report
