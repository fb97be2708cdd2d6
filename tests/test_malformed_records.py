"""Malformed stage records come out refuted or rejected, never a crash.

The auditor reads a record by its branch, so a branch its kind never
writes used to hide the record's certificate from every check.  A Case-1
certificate missing a recorded field, a condition the chain check cannot
read, certificates that are not a mapping and D2 counters that are not
integers used to raise.  `load_transcript` now names the stage and the
field a stage lacks, and the CLI prints that instead of a bare key.  Last,
a query-free program's witness search no longer gives up when the filter
vetoes its largest candidate while a smaller one halts.
"""

import dataclasses
import json

import pytest

from forcingbench.forcing import base, verify_transcript
from forcingbench.forcing.base import ABORT, D_RESTRICTION, E_EXTENSION
from forcingbench.harness.cli import main
from forcingbench.harness.transcripts import (TranscriptFormatError,
                                              emit_transcript, load_transcript)

from test_forged_oracles import (  # noqa: F401  (fixtures)
    _positives,
    _refuted_at,
    d2_run,
    em_run,
)
from test_verify import _coh_run, _reload


def _refuted(report, rec) -> bool:
    return report.counts["refuted"] > 0 and _refuted_at(report, rec)


@pytest.mark.parametrize("branch", ["Case3", E_EXTENSION, D_RESTRICTION, 3])
def test_em_branch_it_never_writes_refuted(em_run, branch):
    t, c = em_run
    i = _positives(t)[0]
    bad = _reload(t)
    bad.stages[i] = dataclasses.replace(bad.stages[i], branch=branch)
    assert _refuted(verify_transcript(bad, audit_fuel=2, instance=c),
                    bad.stages[i])


def test_d2_branch_it_never_writes_refuted(d2_run):
    t, d, _ = d2_run
    i = _positives(t)[0]
    bad = _reload(t)
    bad.stages[i] = dataclasses.replace(bad.stages[i], branch=E_EXTENSION)
    assert _refuted(verify_transcript(bad, audit_fuel=2, instance=d),
                    bad.stages[i])


def test_coh_branch_it_never_writes_refuted():
    t, _ = _coh_run()
    i = next(i for i, rec in enumerate(t.stages)
             if rec.branch == D_RESTRICTION)
    bad = _reload(t)
    bad.stages[i] = dataclasses.replace(bad.stages[i], branch="Case3")
    assert _refuted(verify_transcript(bad, audit_fuel=2), bad.stages[i])


@pytest.mark.parametrize("key", ["steps", "use", "value"])
def test_case1_certificate_missing_field_refuted(em_run, key):
    t, c = em_run
    i = _positives(t)[0]
    bad = _reload(t)
    del bad.stages[i].certificates[key]
    assert _refuted(verify_transcript(bad, audit_fuel=2, instance=c),
                    t.stages[i])


def _written_condition(t) -> int:
    # a later stage whose condition the written form spells out
    return next(i for i, rec in enumerate(t.stages)
                if i > 0 and rec.condition is not None)


MALFORMED_CONDITIONS = [
    [],
    "x",
    {"I": 1, "reservoir": [5], "window_bound": 40},
    {"F": [], "I": 1, "window_bound": 40},
    {"F": [], "I": 1, "reservoir": [5]},
    {"F": 3, "I": 1, "reservoir": [5], "window_bound": 40},
    {"F": [[1]], "I": 1, "reservoir": [5], "window_bound": 40},
    {"F": ["a"], "I": 1, "reservoir": [5], "window_bound": 40},
]


@pytest.mark.parametrize("condition", MALFORMED_CONDITIONS)
def test_em_malformed_condition_refuted(em_run, condition):
    t, c = em_run
    bad = _reload(t)
    i = _written_condition(bad)
    bad.stages[i] = dataclasses.replace(bad.stages[i], condition=condition)
    assert _refuted(verify_transcript(bad, audit_fuel=2, instance=c),
                    bad.stages[i])


def test_d2_condition_without_parts_refuted(d2_run):
    t, d, _ = d2_run
    bad = _reload(t)
    i = _written_condition(bad)
    cond = {k: v for k, v in bad.stages[i].condition.items()
            if k != "F_parts"}
    bad.stages[i] = dataclasses.replace(bad.stages[i], condition=cond)
    assert _refuted(verify_transcript(bad, audit_fuel=2, instance=d),
                    bad.stages[i])


@pytest.mark.parametrize("certificates", [[], "x", None])
def test_em_certificates_not_a_mapping_refuted(em_run, certificates):
    t, c = em_run
    aborted = next(i for i, rec in enumerate(t.stages) if rec.branch == ABORT)
    for i in (_positives(t)[0], aborted):
        bad = _reload(t)
        bad.stages[i] = dataclasses.replace(bad.stages[i],
                                            certificates=certificates)
        assert _refuted(verify_transcript(bad, audit_fuel=2, instance=c),
                        t.stages[i])


@pytest.mark.parametrize("counters", ["x", 5, ["a", 1], [None]])
def test_d2_counters_not_integers_refuted(d2_run, counters):
    t, d, _ = d2_run
    i = _positives(t)[0]
    bad = _reload(t)
    bad.stages[i].certificates["counters"] = counters
    assert _refuted(verify_transcript(bad, audit_fuel=2, instance=d),
                    t.stages[i])


def _stage_written_without(tmp_path, em_run, key):
    t, _ = em_run
    path, _ = emit_transcript(t, str(tmp_path / "t.json"))
    with open(path) as fh:
        doc = json.load(fh)
    if key is None:
        doc["stages"][3] = ["not", "an", "object"]
    else:
        del doc["stages"][3][key]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def test_load_rejects_stage_not_an_object(tmp_path, em_run):
    path = _stage_written_without(tmp_path, em_run, None)
    with pytest.raises(TranscriptFormatError, match="stage 3 is not an object"):
        load_transcript(path)


@pytest.mark.parametrize("key", ["stage", "requirement", "branch",
                                 "condition", "certificates"])
def test_load_rejects_stage_without_field(tmp_path, em_run, key):
    path = _stage_written_without(tmp_path, em_run, key)
    with pytest.raises(TranscriptFormatError,
                       match=f"stage 3 has no '{key}' field"):
        load_transcript(path)


def test_cli_names_the_stage_and_the_field(tmp_path, em_run, capsys):
    path = _stage_written_without(tmp_path, em_run, "certificates")
    assert main(["verify", path]) == 2
    assert capsys.readouterr().err == \
        "error: stage 3 has no 'certificates' field\n"


def test_cli_refutes_a_branch_it_never_writes(tmp_path, capsys):
    inst, out = str(tmp_path / "c.yaml"), str(tmp_path / "t.json")
    assert main(["gen", "stable-coloring", "--seed", "0", "--out", inst]) == 0
    assert main(["run-em", inst, "--stages", "200", "--out", out]) < 2
    with open(out) as fh:
        doc = json.load(fh)
    first = next(s for s in doc["stages"] if s["branch"] == "Case1")
    first["branch"] = "Case3"
    with open(out, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify", out, "--instance", inst]) == 2


def test_query_free_witness_below_a_vetoed_top():
    # program 434 reads no oracle and halts at step 4, so fuel 4, the
    # bound of {3}, is enough; the filter vetoes only the top member 7
    assert base.query_free_status(434, 20) == ("halts", 4)
    w, record = base.find_halt_witness(
        434, (), (3, 4, 5, 6, 7), extra_filter=lambda s: 7 not in s)
    assert record["query_free"]
    assert w is not None and w.added == (3,) and w.steps == 4
