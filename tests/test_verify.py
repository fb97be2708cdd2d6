"""Audit behavior on honest and deliberately damaged transcripts."""

import copy

from forcingbench.approx import SetPresentation
from forcingbench.forcing import run_coh, run_em, verify_transcript
from forcingbench.forcing.base import CASE1, Transcript
from forcingbench.forcing.coh import CohConfig
from forcingbench.harness import gen_stable_coloring

from conditions import expand, rewrite


def _coh_run():
    family = [
        SetPresentation.from_set(range(0, 64, 2), 64),
        SetPresentation.from_set(range(0, 64, 3), 64),
    ]
    return run_coh(family, 40, config=CohConfig(window=64, density_min=4))


def _reload(t: Transcript) -> Transcript:
    return Transcript.from_dict(copy.deepcopy(t.to_dict()))


def _forged(t: Transcript, forge) -> Transcript:
    """`forge` applied to a copy of the transcript in which every stage
    holds its condition whole, then written in format 3 again and read
    back: a forged condition means what it says, and the auditor reads the
    written form, in which a condition is its delta from the one before,
    None when repeated, and whole when it does not extend it."""
    bad = copy.deepcopy(t)
    expand(bad)
    forge(bad)
    rewrite(bad)
    return _reload(bad)


def test_honest_transcript_not_refuted():
    t, _ = _coh_run()
    report = verify_transcript(t, audit_fuel=2)
    assert report.ok
    assert report.counts["certified"] > 0


def test_corrupted_condition_overlap_refuted():
    t, _ = _coh_run()

    def forge(bad):
        # push a reservoir element into the committed set of a late stage
        for rec in reversed(bad.stages):
            if rec.condition.get("reservoir"):
                rec.condition["F"].append(rec.condition["reservoir"][0])
                break
    report = verify_transcript(_forged(t, forge), audit_fuel=2)
    assert not report.ok
    notes = [f["note"] for f in report.findings if f["grade"] == "refuted"]
    assert any("reservoir" in n or "extension" in n for n in notes)


def test_growing_reservoir_refuted():
    t, _ = _coh_run()

    def forge(bad):
        last = bad.stages[-1]
        last.condition["reservoir"].append(last.condition["window_bound"] - 1)
        last.condition["reservoir"].sort()
    report = verify_transcript(_forged(t, forge), audit_fuel=2)
    assert not report.ok


def test_forged_halting_certificate_refuted():
    t, _ = _coh_run()
    bad = _reload(t)
    forged = False
    for rec in bad.stages:
        if rec.branch == CASE1 and rec.requirement.startswith("R"):
            rec.certificates["steps"] += 1
            forged = True
            break
    assert forged, "run produced no positive halting decision to forge"
    report = verify_transcript(bad, audit_fuel=2)
    notes = [f["note"] for f in report.findings if f["grade"] == "refuted"]
    assert any("replay" in n for n in notes)


def test_tampered_extraction_refuted():
    t, _ = _coh_run()
    bad = _reload(t)
    oracle = None
    for rec in bad.stages:
        if rec.branch == CASE1 and rec.requirement.startswith("R"):
            oracle = rec.certificates.get("oracle")
            break
    assert oracle, "run produced no replayable positive decision"
    # drop a certificate element from the claimed cohesive set
    bad.extraction["C"] = [x for x in bad.extraction["C"] if x != oracle[0]]
    report = verify_transcript(bad, audit_fuel=2)
    notes = [f["note"] for f in report.findings if f["grade"] == "refuted"]
    assert any("disagrees" in n for n in notes)


def test_em_fallow_violation_refuted():
    c = gen_stable_coloring(0)
    t, b = run_em(c, 200)
    report = verify_transcript(t, audit_fuel=2, instance=c)
    assert report.ok
    # find a triple breaking fallowness and claim it was extracted
    from oracles import is_fallow
    from itertools import combinations
    broken = None
    for cand in combinations(range(c.bound), 3):
        if not is_fallow(c, cand):
            broken = cand
            break
    if broken is None:
        return  # nothing to inject for this seed
    bad = _reload(t)
    bad.extraction["B"] = list(broken)
    report = verify_transcript(bad, audit_fuel=2, instance=c)
    notes = [f["note"] for f in report.findings if f["grade"] == "refuted"]
    assert any("fallow" in n for n in notes)


def test_audit_fuel_widens_negative_search():
    t, _ = _coh_run()
    r1 = verify_transcript(t, audit_fuel=0)
    r2 = verify_transcript(t, audit_fuel=4)
    assert r1.counts["refuted"] == 0
    assert r2.counts["refuted"] == 0
