"""A negative decision is asked on the sets of the chain of conditions the
auditor read, and a set a record restates is tied to that chain.

A Case-2 record (EM, D2 or coh) is asked on the committed set of the
condition in effect before it (D2's part of the record's color) and on
its reservoir; before the first record, that condition is the start
condition of the run's window.  Format 3 writes those sets once, in the
chain, so a forgery of them is a forgery of the condition of the stage
before the record, their source, and is refuted there or at the record.
A coh D-restriction record restates `F_at_decision`, the committed set
before it, and D2's `pool_at_decision` lies inside the reservoir and,
with the instance, is the reservoir's members in the part.  A record that
restates a wrong set is refuted at its stage, once, also when the set is
well formed: before, a forger could make every negative pass by restating
an empty pool.
"""

import copy
import dataclasses


import pytest

from forcingbench import programs
from forcingbench.forcing import rt2_pipeline, verify_transcript
from forcingbench.forcing.base import (CASE2, D_RESTRICTION, State,
                                       Transcript, force_step, run_stages,
                                       start)
from forcingbench.harness import gen_coloring
from forcingbench.transcript import parse_label

from conditions import whole, written
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


def _forged_sources(t, key, forge):
    """Per Case-2 record i after the first stage whose source `forge`
    changes: (a copy of `t` in which `forge` is applied to stage i - 1's
    whole condition's set that `key` names, as format 3 writes it, i).
    `F_at_decision` names its committed set (D2: the part of the record's
    colour), and `reservoir_at_decision` its reservoir.  Only stages i - 1
    and i are written otherwise."""
    chain = whole(t.stages)
    for i, rec in enumerate(t.stages):
        if rec.branch != CASE2 or not i:
            continue
        cond = copy.deepcopy(chain[i - 1])
        xs = (cond["reservoir"] if key == "reservoir_at_decision"
              else cond["F_parts"][parse_label(rec.requirement)[2]]
              if t.kind == "d2" else cond["F"])
        new = forge(list(xs))
        if new is None or new == xs:
            continue
        xs[:] = new
        bad = copy.copy(t)
        bad.stages = list(t.stages)
        for j, c in zip((i - 1, i), written([*chain[i - 2:i - 1], cond,
                                             chain[i]])[-2:]):
            bad.stages[j] = dataclasses.replace(t.stages[j], condition=c)
        yield bad, i


def _assert_sources_refuted(t, instance, key, forge):
    """Each forged source of `_forged_sources` is refuted at its stage or
    at the record's."""
    honest = verify_transcript(t, audit_fuel=2, instance=instance).counts
    assert honest["refuted"] == 0
    forged = 0
    for bad, i in _forged_sources(t, key, forge):
        report = verify_transcript(bad, audit_fuel=2, instance=instance)
        assert {i - 1, i} & set(_refuted(report)), i
        forged += 1
    assert forged


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
    _assert_sources_refuted(t, c, key, forge)


@pytest.mark.parametrize("with_instance", (True, False))
@pytest.mark.parametrize("forge", (_emptied, _proper_subset, _grown))
@pytest.mark.parametrize("key", ("F_at_decision", "reservoir_at_decision"))
def test_d2_restated_set_refuted(d2_run, key, forge, with_instance):
    t, d, _ = d2_run
    _assert_sources_refuted(t, d if with_instance else None, key, forge)


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
    bad, stages, conditions = _reload(t), [], whole(t.stages)
    for rec in bad.stages:
        cert = rec.certificates
        reservoir = (conditions[rec.stage - 1]["reservoir"] if rec.stage
                     else range(window))
        if rec.branch == CASE2 and len(reservoir) < window:
            outside = min(set(range(window)) - set(reservoir))
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
    if branch == D_RESTRICTION:
        _assert_refuted_once_each(coh_run, None, branch, key, forge)
        return
    conditions = whole(coh_run.stages)
    if key == "reservoir_at_decision" and not any(
            conditions[rec.stage - 1]["reservoir"] for rec in coh_run.stages
            if rec.branch == CASE2 and rec.stage):
        forge = _grown  # every reservoir at a decision is empty
    _assert_sources_refuted(coh_run, None, key, forge)


def test_a_missing_restated_set_refuted(em_run, d2_run):
    t, instance = d2_run[:2]
    bad, stages = _reload(t), []
    for rec in bad.stages:
        if rec.branch == CASE2:
            del rec.certificates["pool_at_decision"]
            stages.append(rec.stage)
    report = verify_transcript(bad, audit_fuel=2, instance=instance)
    assert sorted(_refuted(report)) == stages
    # EM's committed set, missing from the condition that writes it last
    # before a negative: that condition cannot be read
    t, c = em_run
    sources = {max(j for j in range(rec.stage)
                   if t.stages[j].condition is not None)
               for rec in t.stages if rec.branch == CASE2 and rec.stage}
    assert sources
    for j in sorted(sources):
        bad = _reload(t)
        cond = bad.stages[j].condition
        del cond["added" if "added" in cond else "F"]
        report = verify_transcript(bad, audit_fuel=2, instance=c)
        assert [f["note"] for f in report.findings if f["grade"] == "refuted"
                and f["stage"] == j] == ["condition is malformed"]


def _first_negative_run(reservoir=None, committed=None):
    """A one-stage EM-kind transcript whose only record is a Case-2
    decision for a program that never halts, over the window [0, 6): its
    condition before is the start condition, whose sources are the run's
    window, forged to the top of `reservoir` plus one, and the first
    condition, whose committed set is forged to `committed`."""
    state = State(start(6))
    e = programs.LOOP.index

    def step(state, stage):
        return force_step(state, stage, f"R_{e}", 2, lambda piece: False,
                          lambda: None, {}, "stalled")

    t = run_stages("em", "x", {"stages": 1, "window": 6, "subset_width": 8},
                   state, step, 1)
    t.extraction = {"B": []}
    if reservoir is not None:
        t.config["window"] = reservoir[-1] + 1
    if committed is not None:
        t.stages[0].condition["F"] = committed
    return t


def test_first_record_restates_the_start_condition():
    honest = _first_negative_run()
    assert honest.stages[0].branch == CASE2
    assert honest.stages[0].condition == {
        "F": [], "reservoir": list(range(6)), "window_bound": 6}
    assert verify_transcript(honest, audit_fuel=2).counts["refuted"] == 0
    for forged, stage in ((_first_negative_run(reservoir=[0, 1, 2, 3, 4]),
                           None),
                          (_first_negative_run(reservoir=list(range(7))),
                           None),
                          (_first_negative_run(committed=[0]), 0)):
        report = verify_transcript(forged, audit_fuel=2)
        assert stage in _refuted(report)
