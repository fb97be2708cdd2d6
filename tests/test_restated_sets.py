"""A negative decision restates the sets it was asked on, and the auditor
ties them to the chain of conditions it read.

A Case-2 record (EM, D2 or coh), or a coh D-restriction record, restates
`F_at_decision`, the committed set of the condition in effect before it
(D2's part of the record's color), and a Case-2 record restates
`reservoir_at_decision`, that condition's reservoir; before the first
record, that condition is the start condition of the run's window.  D2's
`pool_at_decision` lies inside that reservoir and, with the instance, is
the reservoir's members in the part.  A record that restates a wrong set
is refuted at its stage, once, also when the set is well formed: before,
a forger could make every negative pass by restating an empty pool.
"""

import pytest

from forcingbench import programs
from forcingbench.forcing import rt2_pipeline, verify_transcript
from forcingbench.forcing.base import (CASE2, D_RESTRICTION, State,
                                       Transcript, force_step, run_stages,
                                       start)
from forcingbench.harness import gen_coloring

from test_forged_oracles import d2_run, em_run  # noqa: F401  (fixtures)
from test_verify import _coh_run, _reload


@pytest.fixture(scope="module", params=("plain", "nested"))
def coh_run(request):
    """A coh run with Case-2 records on non-empty reservoirs, and the one
    nested in RT2 seed 0's transcript."""
    if request.param == "plain":
        return _coh_run()[0]
    t = rt2_pipeline(gen_coloring(0), 60)[1]
    return Transcript.from_dict(t.extraction["coh"])


def _forged(t, branch, key, forge):
    """A copy of `t` with `forge` applied to `key` of every `branch` record
    that `forge` changes, and the stages it changed."""
    bad, stages = _reload(t), []
    for rec in bad.stages:
        if rec.branch == branch and key in rec.certificates:
            old = rec.certificates[key]
            new = forge(old)
            if new is not None and new != old:
                rec.certificates[key] = new
                stages.append(rec.stage)
    assert stages
    return bad, stages


def _refuted(report):
    return [f["stage"] for f in report.findings if f["grade"] == "refuted"]


def _assert_refuted_once_each(t, instance, branch, key, forge):
    honest = verify_transcript(t, audit_fuel=2, instance=instance).counts
    assert honest["refuted"] == 0
    bad, stages = _forged(t, branch, key, forge)
    report = verify_transcript(bad, audit_fuel=2, instance=instance)
    assert sorted(_refuted(report)) == stages
    return report


def _emptied(xs):
    return []


def _proper_subset(xs):
    return xs[:-1] if xs else None


def _grown(xs):
    return xs + [xs[-1] + 1] if xs else [0]


@pytest.mark.parametrize("forge", (_emptied, _proper_subset, _grown))
@pytest.mark.parametrize("key", ("F_at_decision", "reservoir_at_decision"))
def test_em_restated_set_refuted(em_run, key, forge):
    t, c = em_run
    report = _assert_refuted_once_each(t, c, CASE2, key, forge)
    if forge is _grown:
        return  # a grown set may also reach past the window, refuted so
    notes = {f["note"] for f in report.findings if f["grade"] == "refuted"}
    assert notes == {"restated committed set is not the condition's before "
                     "it" if key == "F_at_decision" else
                     "restated reservoir is not the condition's before it"}


@pytest.mark.parametrize("with_instance", (True, False))
@pytest.mark.parametrize("forge", (_emptied, _proper_subset, _grown))
@pytest.mark.parametrize("key", ("F_at_decision", "reservoir_at_decision"))
def test_d2_restated_set_refuted(d2_run, key, forge, with_instance):
    t, d, _ = d2_run
    _assert_refuted_once_each(t, d if with_instance else None, CASE2, key,
                              forge)


@pytest.mark.parametrize("forge", (_emptied, _proper_subset))
def test_d2_pool_outside_its_part_refuted_with_the_instance(d2_run, forge):
    t, d, _ = d2_run
    report = _assert_refuted_once_each(t, d, CASE2, "pool_at_decision",
                                       forge)
    assert {f["note"] for f in report.findings
            if f["grade"] == "refuted"} == {
        "negative decision's pool is not the reservoir's members in its part"}
    # without the instance a pool inside the reservoir is all it can check
    bad, _ = _forged(t, CASE2, "pool_at_decision", forge)
    assert verify_transcript(bad, audit_fuel=2).counts["refuted"] == 0


def test_d2_pool_outside_the_reservoir_refuted_without_the_instance(d2_run):
    t = d2_run[0]
    window = t.config["window"]
    bad, stages = _reload(t), []
    for rec in bad.stages:
        cert = rec.certificates
        if rec.branch == CASE2 and len(cert["reservoir_at_decision"]) < window:
            outside = min(set(range(window))
                          - set(cert["reservoir_at_decision"]))
            cert["pool_at_decision"] = cert["pool_at_decision"] + [outside]
            stages.append(rec.stage)
    assert stages
    report = verify_transcript(bad, audit_fuel=2)
    assert sorted(_refuted(report)) == stages
    assert {f["note"] for f in report.findings
            if f["grade"] == "refuted"} == {
        "negative decision's pool is not inside the reservoir"}


@pytest.mark.parametrize("forge", (_emptied, _proper_subset, _grown))
@pytest.mark.parametrize("branch,key", (
    (CASE2, "F_at_decision"), (CASE2, "reservoir_at_decision"),
    (D_RESTRICTION, "F_at_decision")))
def test_coh_restated_set_refuted(coh_run, branch, key, forge):
    if key == "reservoir_at_decision" and not any(
            rec.certificates.get(key) for rec in coh_run.stages):
        forge = _grown  # every reservoir at a decision is empty
    _assert_refuted_once_each(coh_run, None, branch, key, forge)


def test_a_missing_restated_set_refuted(em_run, d2_run):
    for t, instance, key in ((em_run[0], em_run[1], "F_at_decision"),
                             (d2_run[0], d2_run[1], "pool_at_decision")):
        bad, stages = _reload(t), []
        for rec in bad.stages:
            if rec.branch == CASE2:
                del rec.certificates[key]
                stages.append(rec.stage)
        report = verify_transcript(bad, audit_fuel=2, instance=instance)
        assert sorted(_refuted(report)) == stages


def _first_negative_run(reservoir=None, committed=None):
    """A one-stage EM-kind transcript whose only record is a Case-2
    decision for a program that never halts, over the window [0, 6): its
    condition before is the start condition."""
    state = State(start(6))
    e = programs.LOOP.index

    def step(state, stage):
        cond = state.condition
        return force_step(state, stage, f"R_{e}", 2, lambda piece: False,
                          lambda: None, {"F_at_decision": list(cond.F)},
                          "stalled")

    t = run_stages("em", "x", {"stages": 1, "window": 6, "subset_width": 8},
                   state, step, 1)
    t.extraction = {"B": []}
    cert = t.stages[0].certificates
    if reservoir is not None:
        cert["reservoir_at_decision"] = reservoir
    if committed is not None:
        cert["F_at_decision"] = committed
    return t


def test_first_record_restates_the_start_condition():
    honest = _first_negative_run()
    assert honest.stages[0].branch == CASE2
    assert honest.stages[0].certificates["reservoir_at_decision"] == \
        list(range(6))
    assert verify_transcript(honest, audit_fuel=2).counts["refuted"] == 0
    for forged in (_first_negative_run(reservoir=[0, 1, 2, 3, 4]),
                   _first_negative_run(reservoir=list(range(7))),
                   _first_negative_run(committed=[0])):
        report = verify_transcript(forged, audit_fuel=2)
        assert _refuted(report) == [0]
