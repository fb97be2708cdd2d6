"""Each record's requirement is one its branch decides.

A Case-2 record answers R_e negatively and is named N_e; Case 1 meets an
R, or EM's E+ or D2's E; a D-restriction meets a D and an E-extension an
E; an abort names a label of its kind's schedule, never an N.  A forger
who renames a negative to a positive or size label used to take it out
of the re-search and the jump ledger, and nothing was refuted: EM seed 0
audited 106/89/0 against 106/185/0 honest, and the renamed D2 seed 0 came
out all certified.  Now each renamed record is refuted once, at the
record, and no other finding changes.
"""

import json

import pytest

from forcingbench.forcing import rt2_pipeline, run_d2, run_em
from forcingbench.forcing import verify_transcript
from forcingbench.forcing.pipeline import column_family
from forcingbench.harness import (gen_coloring, gen_d2_partition,
                                  gen_stable_coloring)
from forcingbench.transcript import CASE2, Transcript


@pytest.fixture(scope="module")
def runs():
    """Each kind's written seed-0 transcript and the instance it reads."""
    s, d, c = gen_stable_coloring(0), gen_d2_partition(0), gen_coloring(0)
    rt2 = rt2_pipeline(c, 60)[1].to_dict()
    return {
        "em": (run_em(s, 200)[0].to_dict(), s),
        "d2": (run_d2(d, 300)[0].to_dict(), d),
        "coh": (rt2["extraction"]["coh"], column_family(c)),
    }


def _audit(doc, instance):
    return verify_transcript(Transcript.from_dict(doc), instance=instance)


def _relabelled(doc, branch, old, new):
    """A copy of `doc` in which each `branch` record whose requirement
    starts with `old` starts with `new` instead, and the stage numbers of
    the records renamed."""
    forged = json.loads(json.dumps(doc))
    renamed = set()
    for rec in forged["stages"]:
        if rec["branch"] == branch and rec["requirement"].startswith(old):
            rec["requirement"] = new + rec["requirement"][len(old):]
            renamed.add(rec["stage"])
    return forged, renamed


def _check_refuted_only_at(doc, instance, forged, renamed):
    assert renamed
    honest, report = _audit(doc, instance), _audit(forged, instance)
    assert honest.counts["refuted"] == 0
    refuted = [f for f in report.findings if f["grade"] == "refuted"]
    assert sorted(f["stage"] for f in refuted) == sorted(renamed)
    assert {f["note"] for f in refuted} == {
        "requirement is not one its branch decides"}
    # every finding of another record, and of the run, is the honest one
    assert ([f for f in report.findings if f["stage"] not in renamed]
            == [f for f in honest.findings if f["stage"] not in renamed])
    return report


@pytest.mark.parametrize("kind,new", [("em", "R_"), ("em", "E+_"),
                                      ("d2", "E_"), ("d2", "R_")])
def test_renamed_negatives_refuted_at_each_record(runs, kind, new):
    doc, instance = runs[kind]
    forged, renamed = _relabelled(doc, CASE2, "N_", new)
    report = _check_refuted_only_at(doc, instance, forged, renamed)
    # the renamed records leave the re-search and the ledger
    assert not [f for f in report.findings
                if f["stage"] in renamed and f["grade"] != "refuted"]


def test_em_seed_0_counts(runs):
    doc, instance = runs["em"]
    forged, renamed = _relabelled(doc, CASE2, "N_", "R_")
    assert len(renamed) == 48
    assert _audit(forged, instance).counts == {
        "certified": 106, "provisional": 89, "refuted": 48}


def test_d2_seed_0_forgery_is_not_certified(runs):
    doc, instance = runs["d2"]
    forged, renamed = _relabelled(doc, CASE2, "N_", "E_")
    assert len(renamed) == 68
    assert _audit(forged, instance).counts["refuted"] == 68


@pytest.mark.parametrize("with_instance", [True, False])
def test_em_abort_renamed_to_a_negative_refuted(runs, with_instance):
    doc, instance = runs["em"]
    instance = instance if with_instance else None
    first = next(r for r in doc["stages"] if r["branch"] == "abort")
    forged = json.loads(json.dumps(doc))
    rec = forged["stages"][first["stage"]]
    rec["requirement"] = "N_" + rec["requirement"].split("_", 1)[1]
    _check_refuted_only_at(doc, instance, forged, {first["stage"]})


def test_coh_d_restriction_renamed_to_a_size_label_refuted(runs):
    doc, instance = runs["coh"]
    first = next(r for r in doc["stages"] if r["branch"] == "D-restriction")
    forged = json.loads(json.dumps(doc))
    rec = forged["stages"][first["stage"]]
    rec["requirement"] = "E" + rec["requirement"][1:]
    _check_refuted_only_at(doc, instance, forged, {first["stage"]})


@pytest.mark.parametrize("branch", [[], {}, ["Case2"], 7, None])
def test_a_branch_that_is_not_a_string_is_refuted_once(runs, branch):
    doc, instance = runs["em"]
    forged = json.loads(json.dumps(doc))
    forged["stages"][3]["branch"] = branch
    refuted = [f for f in _audit(forged, instance).findings
               if f["grade"] == "refuted" and f["stage"] == 3]
    assert [f["note"] for f in refuted] == [
        "branch is not one its kind writes"]
