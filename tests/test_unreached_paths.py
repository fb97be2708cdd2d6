"""Paths no honest seed-0 run reaches: the auditor's refutations of forged
negatives, counters and parts, the stage engine's two aborts, and the
refusals of an instance no stage can run on.

Every refutation here is forged from a seed-0 transcript, or from a
one-stage run that restates its chain's sets, and must come out refuted
with its own note.  The aborts drive `base.force_step` with a
synthetic predicate and witness: a search that hits its cap, or a witness
step that finds nothing after the predicate answered yes, must end the
stage as an abort with a reason and block its requirement.
"""

import dataclasses

import pytest

from forcingbench import programs
from forcingbench.approx import MalformedInstanceError, SetPresentation
from forcingbench.forcing import (base, run_coh, run_d2, run_em,
                                  verify_transcript)
from forcingbench.forcing.base import (ABORT, CASE2, SKIP, State,
                                       force_step, run_stages, start)
from forcingbench.harness import (gen_coloring, gen_d2_partition,
                                  gen_stable_coloring)
from forcingbench.machine import assemble

from test_forged_oracles import d2_run, em_run  # noqa: F401
from test_verify import _reload


def _notes(report, rec):
    return [f["note"] for f in report.findings
            if f["grade"] == "refuted" and f["stage"] == rec.stage
            and f["requirement"] == rec.requirement]


def _negative_run(program, window: int, width: int = base.SUBSET_WIDTH,
                  extracted=()):
    """A one-stage EM-kind transcript over the window [0, window) whose only
    record is a Case-2 decision for `program`, restating the chain's sets
    and recording subset width `width`, that extracts `extracted`."""
    def step(state, stage):
        return force_step(state, stage, f"R_{program.index}", 2,
                          lambda piece: False, lambda: None,
                          {"F_at_decision": list(state.condition.F)},
                          "stalled")

    t = run_stages("em", "x", {"stages": 1, "window": window,
                               "subset_width": base.SUBSET_WIDTH},
                   State(start(window)), step, 1)
    t.extraction = {"B": list(extracted)}
    rec = t.stages[0]
    assert rec.branch == CASE2
    rec.certificates["search"]["subset_width"] = width
    return t, rec


def test_negative_refuted_by_witness_in_its_pool():
    t, rec = _negative_run(programs.halt_if_member(3), 6)
    report = verify_transcript(t, audit_fuel=2)
    assert _notes(report, rec) == [
        "negative decision refuted by witness [3]"]  # found in the pool


def test_negative_halting_on_the_extracted_prefix_refuted():
    # halts only on an oracle holding both 5 and 6: the re-search of width
    # 0 + 2 misses it, and only the jump ledger, on B = [5, 6], sees it
    both = assemble("set r0 5\nqry r0\njz r0 spin\nset r0 6\nqry r0\n"
                    "jz r0 spin\nhalt r0\nspin: jmp spin")
    t, rec = _negative_run(both, 8, width=0, extracted=[5, 6])
    report = verify_transcript(t, audit_fuel=2)
    assert _notes(report, rec) == [
        "negative decision halts on the extracted prefix"]


def test_d2_counters_past_the_stage_budget_refuted(d2_run):
    t, d, _ = d2_run
    bad = _reload(t)
    rec = next(r for r in bad.stages if "counters" in r.certificates)
    rec.certificates["counters"] = [rec.stage + 2] + \
        [0] * (len(rec.certificates["counters"]) - 1)
    report = verify_transcript(bad, audit_fuel=2, instance=d)
    assert "decision counters exceed stage budget" in _notes(report, rec)


def test_d2_elements_outside_the_selected_part_refuted(d2_run):
    t, d, color = d2_run
    bad = _reload(t)
    assert bad.extraction["B"]
    # the extracted set, all of the selected part, under another color
    bad.extraction["color"] = (color + 1) % d.k
    report = verify_transcript(bad, audit_fuel=2, instance=d)
    assert any(f["grade"] == "refuted"
               and f["note"].startswith("elements outside the selected part")
               for f in report.findings)


def test_em_skip_record_refuted(em_run):
    t, c = em_run
    honest = verify_transcript(t, audit_fuel=2, instance=c).counts
    bad = _reload(t)
    rec = next(r for r in bad.stages if r.branch == ABORT)
    rec.branch = SKIP
    report = verify_transcript(bad, audit_fuel=2, instance=c)
    assert _notes(report, rec) == ["branch is not one its kind writes"]
    # the abort is no longer reported, and the skip is refuted in its place
    assert report.counts == {
        "certified": honest["certified"],
        "provisional": honest["provisional"] - 1, "refuted": 1}


def test_runs_write_no_skip_record(em_run, d2_run):
    coh_t, _ = run_coh([SetPresentation.from_set(range(0, 128, 2), 128)], 40)
    for t in (em_run[0], d2_run[0], coh_t):
        assert SKIP not in {r.branch for r in t.stages}


def _stage(compat, witness):
    """One R_3 stage over the window [0, 6), split into two pieces."""
    state = State(start(6))
    rec = force_step(state, 0, "R_3", 2, compat, witness, {}, "stalled")
    return state, rec


def test_partition_cap_exceeded_aborts(monkeypatch):
    # no piece is extendable, so the search runs past a cap of one visit
    monkeypatch.setattr(base, "PARTITION_CAP", 1)
    state, rec = _stage(lambda piece: False, lambda: None)
    assert rec.branch == ABORT
    assert rec.certificates == {"reason": "partition cap exceeded", "cap": 1}
    assert list(state.blocked) == ["R_3"] and not state.decided
    assert state.condition == start(6)


def test_yes_without_a_witness_aborts():
    state, rec = _stage(lambda piece: True, lambda: None)
    assert rec.branch == ABORT
    assert rec.certificates == {
        "reason": "question answered yes but no class witness found"}
    assert list(state.blocked) == ["R_3"] and not state.decided


@pytest.mark.parametrize("coloring", [
    gen_coloring(0, k=3),
    dataclasses.replace(gen_stable_coloring(0), declared_bound=None),
])
def test_em_refuses_a_coloring_without_a_declared_bound(coloring):
    with pytest.raises(MalformedInstanceError, match="declared_bound"):
        run_em(coloring, 10)


def test_d2_refuses_a_partition_into_no_parts():
    d = dataclasses.replace(gen_d2_partition(0), k=0)
    with pytest.raises(MalformedInstanceError, match="0 parts"):
        run_d2(d, 10)

