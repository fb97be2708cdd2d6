"""A transcript is tied to the instance it was made from, and RT2's nested
transcripts to their slots.

`instance_hash` used to be written and never read: EM seed 0's transcript
audited 106/185/0 with it forged to "x" or null, or against another
coloring.  Given an instance, the auditor now refutes a transcript whose
hash is not the instance's digest.  RT2's nested `coh` and `d2` slots used
to audit whatever transcript they held; one whose kind is not its slot's
name is now refuted.
"""

import copy

import pytest

from forcingbench.approx import SetPresentation
from forcingbench.forcing import verify_transcript
from forcingbench.harness import gen_coloring, gen_stable_coloring

from test_forged_oracles import d2_run, em_run  # noqa: F401  (fixtures)
from test_transcript_shape import rt2_run  # noqa: F401  (fixture)
from test_verify import _coh_run, _reload

HASH_NOTE = "instance_hash is not the instance's digest"


def _refuted_notes(report):
    return [f["note"] for f in report.findings if f["grade"] == "refuted"]


def _with_hash(t, value):
    bad = _reload(t)
    bad.instance_hash = value
    return bad


@pytest.mark.parametrize("value", ["x", None])
def test_forged_instance_hash_refuted(em_run, d2_run, rt2_run, value):
    for t, instance in (em_run, d2_run[:2], rt2_run):
        assert verify_transcript(t, audit_fuel=2, instance=instance).ok
        report = verify_transcript(_with_hash(t, value), audit_fuel=2,
                                   instance=instance)
        assert _refuted_notes(report) == [HASH_NOTE]


def test_another_instance_refuted(em_run, rt2_run):
    for (t, _), other in ((em_run, gen_stable_coloring(1)),
                          (rt2_run, gen_coloring(1))):
        report = verify_transcript(t, audit_fuel=2, instance=other)
        assert HASH_NOTE in _refuted_notes(report)


def test_instance_of_another_kind_refuted_not_raised(em_run, d2_run):
    (t_em, c), (t_d2, d) = em_run, d2_run[:2]
    for t, instance in ((t_em, d), (t_d2, c), (t_em, [])):
        report = verify_transcript(t, audit_fuel=2, instance=instance)
        assert _refuted_notes(report) == [HASH_NOTE]


def _coh():
    t, _ = _coh_run()
    family = [SetPresentation.from_set(range(0, 64, 2), 64),
              SetPresentation.from_set(range(0, 64, 3), 64)]
    return t, family


def test_coh_family_hashed_at_the_audited_window():
    t, family = _coh()
    assert verify_transcript(t, audit_fuel=2, instance=family).ok
    report = verify_transcript(t, audit_fuel=2, instance=family[:1])
    assert _refuted_notes(report) == [HASH_NOTE]
    # a forged window is refuted, and the family is hashed at the window
    # read: the first stage's 64 below a larger one, 0 for a non-integer
    for window, differs in (("x", True), (None, True), (10 ** 9, False)):
        bad = _reload(t)
        bad.config["window"] = window
        report = verify_transcript(bad, audit_fuel=2, instance=family)
        assert not report.ok
        assert (HASH_NOTE in _refuted_notes(report)) == differs


def _nested(t, forge):
    bad = _reload(t)
    bad.extraction = copy.deepcopy(bad.extraction)
    forge(bad.extraction)
    return bad


def _copy_d2(x):
    x["coh"] = x["d2"]


def _swap(x):
    x["coh"], x["d2"] = x["d2"], x["coh"]


@pytest.mark.parametrize("forge", [_copy_d2, _swap], ids=["copy", "swap"])
def test_nested_transcript_of_another_kind_refuted(rt2_run, forge):
    t, c = rt2_run
    report = verify_transcript(_nested(t, forge), audit_fuel=2, instance=c)
    notes = _refuted_notes(report)
    assert "nested coh transcript is of kind 'd2'" in notes
    if forge is _swap:
        assert "nested d2 transcript is of kind 'coh'" in notes
