"""A transcript's structure is read in one place, `Transcript.from_dict`,
and each record's shape in one auditor pass.

A top level whose `config` or `extraction` is not an object, or which
lacks `audits`, used to pass `load_transcript` and then raise in the
auditor or the loader; it is now rejected at load with the field named.
RT2's nested transcripts used to skip the load checks and raise on a
malformed stage or a missing extraction field; they now go through
`from_dict`, and what it rejects comes out refuted.  A record whose
`stage` is not its position, and a transcript of a kind no run writes,
used to audit as honest; both come out refuted.
"""

import json

import pytest

from forcingbench.forcing import rt2_pipeline, verify_transcript
from forcingbench.harness import gen_coloring
from forcingbench.harness.cli import main
from forcingbench.harness.transcripts import (TranscriptFormatError,
                                              emit_transcript, load_transcript)

from test_forged_oracles import (  # noqa: F401  (fixtures)
    _refuted_at,
    d2_run,
    em_run,
)


@pytest.fixture(scope="module")
def rt2_run():
    c = gen_coloring(0)
    return rt2_pipeline(c, 60)[1], c


def _written(tmp_path, t, forge) -> str:
    """`t` written out, forged by `forge` on its JSON document, and
    written back; the path."""
    path, _ = emit_transcript(t, str(tmp_path / "t.json"))
    with open(path) as fh:
        doc = json.load(fh)
    forge(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _set(key, value):
    def forge(doc):
        doc[key] = value
    return forge


@pytest.mark.parametrize("key", ["config", "extraction"])
def test_load_rejects_a_top_level_field_not_an_object(tmp_path, em_run, key):
    path = _written(tmp_path, em_run[0], _set(key, []))
    with pytest.raises(TranscriptFormatError,
                       match=f"^{key} must be an object$"):
        load_transcript(path)


def test_load_names_missing_audits(tmp_path, em_run, capsys):
    path = _written(tmp_path, em_run[0], lambda doc: doc.pop("audits"))
    with pytest.raises(TranscriptFormatError,
                       match="^missing fields: audits$"):
        load_transcript(path)
    assert main(["verify", path]) == 2
    assert capsys.readouterr().err == "error: missing fields: audits\n"


def _rt2_refuted(tmp_path, rt2_run, forge):
    t, c = rt2_run
    report = verify_transcript(load_transcript(_written(tmp_path, t, forge)),
                               audit_fuel=2, instance=c)
    return report.counts["refuted"] > 0


@pytest.mark.parametrize("key", ["H", "color", "coh", "d2"])
def test_rt2_extraction_without_a_field_refuted(tmp_path, rt2_run, key):
    assert _rt2_refuted(tmp_path, rt2_run,
                        lambda doc: doc["extraction"].pop(key))


@pytest.mark.parametrize("nested", ["coh", "d2"])
def test_rt2_nested_stage_not_an_object_refuted(tmp_path, rt2_run, nested):
    def forge(doc):
        doc["extraction"][nested]["stages"][3] = "x"
    assert _rt2_refuted(tmp_path, rt2_run, forge)


@pytest.mark.parametrize("nested", ["coh", "d2"])
def test_rt2_nested_stage_without_branch_refuted(tmp_path, rt2_run, nested):
    def forge(doc):
        del doc["extraction"][nested]["stages"][3]["branch"]
    assert _rt2_refuted(tmp_path, rt2_run, forge)


def test_rt2_nested_refusal_is_one_finding(tmp_path, rt2_run):
    t, c = rt2_run

    def forge(doc):
        doc["extraction"]["d2"]["stages"][3] = "x"
    report = verify_transcript(load_transcript(_written(tmp_path, t, forge)),
                               audit_fuel=2, instance=c)
    assert [f["note"] for f in report.findings if f["grade"] == "refuted"] \
        == ["nested d2 transcript: stage 3 is not an object"]


@pytest.mark.parametrize("number", ["x", 7, 2, None, 3.0])
def test_em_stage_number_not_its_position_refuted(tmp_path, em_run, number):
    t, c = em_run
    path = _written(tmp_path, t,
                    lambda doc: doc["stages"][3].update(stage=number))
    bad = load_transcript(path)
    report = verify_transcript(bad, audit_fuel=2, instance=c)
    assert report.counts["refuted"] > 0
    assert _refuted_at(report, bad.stages[3])


@pytest.mark.parametrize("number", ["x", 7, 2])
def test_d2_stage_number_not_its_position_refuted(tmp_path, d2_run, number):
    t, d, _ = d2_run
    path = _written(tmp_path, t,
                    lambda doc: doc["stages"][3].update(stage=number))
    bad = load_transcript(path)
    assert _refuted_at(verify_transcript(bad, audit_fuel=2, instance=d),
                       bad.stages[3])


@pytest.mark.parametrize("kind", ["x", None, []])
def test_kind_no_run_writes_refuted(tmp_path, em_run, kind):
    t, c = em_run
    bad = load_transcript(_written(tmp_path, t, _set("kind", kind)))
    report = verify_transcript(bad, audit_fuel=2, instance=c)
    assert all(_refuted_at(report, rec) for rec in bad.stages)


def test_cli_refutes_a_kind_no_run_writes(tmp_path, capsys):
    inst, out = str(tmp_path / "c.yaml"), str(tmp_path / "t.json")
    assert main(["gen", "stable-coloring", "--seed", "0", "--out", inst]) == 0
    assert main(["run-em", inst, "--stages", "200", "--out", out]) < 2
    with open(out) as fh:
        doc = json.load(fh)
    doc["kind"] = "x"
    with open(out, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify", out, "--instance", inst]) == 2
    assert "refuted: 0" not in capsys.readouterr().out
