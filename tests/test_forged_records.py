"""Forged requirement names, search records and windows come out refuted,
never a crash or a long search.

A requirement name the auditor cannot read names no program and no color;
an unreadable one used to raise where the auditor took its program or its
color apart.  A negative certificate's subset width sets the cost of its
wider re-search (2^(width + audit_fuel) questions), so a width past the
run's made the audit stall, and a search record that was not a mapping
raised.  The window bounds every set the auditor runs a program on; a
forged `config["window"]` larger than the run's let a large member cost
fuel as long as its value.
"""

import dataclasses

import pytest

from forcingbench.forcing import base, verify_transcript
from forcingbench.forcing.base import Transcript

from test_forged_oracles import (  # noqa: F401  (fixtures)
    _first_negative,
    _positives,
    _refuted_at,
    d2_run,
    em_run,
    fuels,
)
from test_verify import _reload


def _renamed(t: Transcript, index: int, name: str) -> Transcript:
    bad = _reload(t)
    bad.stages[index] = dataclasses.replace(bad.stages[index],
                                            requirement=name)
    return bad


def test_em_unreadable_positive_name_refuted(em_run):
    t, c = em_run
    i = _positives(t)[0]
    report = verify_transcript(_renamed(t, i, "R_x"), audit_fuel=2,
                               instance=c)
    assert _refuted_at(report, dataclasses.replace(t.stages[i],
                                                   requirement="R_x"))
    assert report.counts["refuted"] == 1


def test_em_unreadable_negative_name_refuted(em_run):
    t, c = em_run
    i = _first_negative(t)
    report = verify_transcript(_renamed(t, i, "N_"), audit_fuel=2,
                               instance=c)
    assert [(f["stage"], f["requirement"]) for f in report.findings
            if f["grade"] == "refuted"] == [(t.stages[i].stage, "N_")]


def test_d2_unreadable_color_refuted(d2_run):
    # a positive of the selected color: the jump ledger filters by color
    t, d, color = d2_run
    i = next(i for i in _positives(t)
             if t.stages[i].requirement.endswith(f"^{color}"))
    report = verify_transcript(_renamed(t, i, "R_3^x"), audit_fuel=2,
                               instance=d)
    refuted = [f for f in report.findings if f["grade"] == "refuted"]
    assert [(f["stage"], f["requirement"]) for f in refuted] == [
        (t.stages[i].stage, "R_3^x")]


def _forged_search(t: Transcript, search, pool=None) -> Transcript:
    bad = _reload(t)
    cert = bad.stages[_first_negative(t)].certificates
    cert["search"] = search
    if pool is not None:
        cert["F_at_decision"] = []
        key = ("pool_at_decision" if "pool_at_decision" in cert
               else "reservoir_at_decision")
        cert[key] = pool
    return bad


@pytest.mark.parametrize("search", ["x", None, [], {},
                                    {"subset_width": "8"},
                                    {"subset_width": True},
                                    {"subset_width": -1},
                                    {"subset_width": 9},
                                    {"subset_width": 12}], ids=repr)
@pytest.mark.parametrize("kind", ("em", "d2"))
def test_forged_search_record_refuted_before_the_search(
        em_run, d2_run, monkeypatch, kind, search):
    t, instance = em_run if kind == "em" else d2_run[:2]
    bad = _forged_search(t, search, pool=list(range(20, 40)))
    widths = []
    find = base.find_halt_witness

    def recorded(e, F, reservoir, subset_width=8, extra_filter=None):
        widths.append(subset_width)
        return find(e, F, reservoir, subset_width, extra_filter)

    monkeypatch.setattr("forcingbench.forcing.verify.find_halt_witness",
                        recorded)
    report = verify_transcript(bad, audit_fuel=2, instance=instance)
    assert _refuted_at(report, t.stages[_first_negative(t)])
    assert max(widths) <= t.config["subset_width"] + 2


@pytest.mark.parametrize("kind", ("em", "d2"))
def test_widths_up_to_the_runs_are_searched(em_run, d2_run, kind):
    t, instance = em_run if kind == "em" else d2_run[:2]
    i = _first_negative(t)
    for width in (0, t.config["subset_width"]):
        report = verify_transcript(
            _forged_search(t, {"subset_width": width}), audit_fuel=2,
            instance=instance)
        assert not _refuted_at(report, t.stages[i])


@pytest.mark.parametrize("kind", ("em", "d2"))
def test_window_past_the_first_stage_refuted(em_run, d2_run, fuels, kind):
    t, instance = em_run if kind == "em" else d2_run[:2]
    window = t.config["window"]
    bad = _reload(t)
    bad.config["window"] = 10 ** 6
    bad.extraction["B"] = [10 ** 6 - 1]
    report = verify_transcript(bad, audit_fuel=2, instance=instance)
    refuted = [f["note"] for f in report.findings if f["grade"] == "refuted"]
    assert refuted == ["window differs from the first stage's window bound",
                       "extracted set reaches past the window"]
    assert fuels[0] <= window


@pytest.mark.parametrize("forged", [1, "40", None])
def test_window_unlike_the_first_stage_refuted(em_run, forged):
    t, c = em_run
    bad = _reload(t)
    bad.config["window"] = forged
    report = verify_transcript(bad, audit_fuel=2, instance=c)
    assert "window differs from the first stage's window bound" in [
        f["note"] for f in report.findings if f["grade"] == "refuted"]


def test_honest_transcripts_keep_their_window(em_run, d2_run):
    for t, instance in (em_run, d2_run[:2]):
        report = verify_transcript(t, audit_fuel=2, instance=instance)
        assert report.counts["refuted"] == 0
        assert t.stages[0].condition["window_bound"] == t.config["window"]


@pytest.mark.parametrize("name", [5, None, "E+_x", "R_05"], ids=repr)
def test_em_any_unreadable_decided_name_refuted(em_run, name):
    t, c = em_run
    for i in (_positives(t)[0], _first_negative(t)):
        report = verify_transcript(_renamed(t, i, name), audit_fuel=2,
                                   instance=c)
        assert [(f["stage"], f["requirement"]) for f in report.findings
                if f["grade"] == "refuted"] == [(t.stages[i].stage, name)]
