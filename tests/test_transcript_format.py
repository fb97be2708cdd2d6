"""Transcript format versions 2 and 3.

A written transcript leaves out what it already says: a stage's condition
equal to the last one written is `null`, EM and D2 extractions keep no
`decided` copy of their certificates, and search records name no fuel
scale (version 2); a condition after the first is its delta from the one
before (version 3).  The version 1 fixtures under `fixtures/v1/` were
written by the last version 1 code for the criterion-5 coh family and for
`rt2-0`; the converters in `tools/`, one after the other, must map each to
what the constructions write now.
"""

import json
import sys
from pathlib import Path

import pytest

from forcingbench.forcing import verify_transcript
from forcingbench.forcing.base import Transcript
from forcingbench.harness import canonical_json, load_transcript
from forcingbench.harness.cli import main
from forcingbench.harness.transcripts import TranscriptFormatError

from test_transcript_hashes import GOLDEN, _run
from test_verify import _reload

ROOT = Path(__file__).resolve().parents[1]
V1 = Path(__file__).with_name("fixtures") / "v1"
sys.path.insert(0, str(ROOT / "tools"))

import transcript_v1_to_v2  # noqa: E402
import transcript_v2_to_v3  # noqa: E402

from conditions import whole  # noqa: E402


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def golden(request):
    return (request.param, *_run(request.param))


@pytest.mark.parametrize("name", ("coh", "rt2-0"))
def test_converted_v1_fixture_equals_current_output(name):
    v1 = json.loads((V1 / f"{name}.json").read_bytes())
    assert v1["version"] == 1
    t, _ = _run(name)
    v3 = transcript_v2_to_v3.convert(transcript_v1_to_v2.convert(v1))
    assert (transcript_v2_to_v3.canonical(v3)
            == canonical_json(t.to_dict()).encode("ascii"))


def test_converter_refuses_version_2():
    t, _ = _run("rt2-0")
    with pytest.raises(ValueError):
        transcript_v1_to_v2.convert(t.to_dict())


def test_round_trip_of_the_written_form(golden):
    _, t, _ = golden
    d = json.loads(canonical_json(t.to_dict()))
    assert d["version"] == 3
    assert Transcript.from_dict(d).to_dict() == d


def test_written_form_omits_repeats(golden):
    _, t, _ = golden
    d = t.to_dict()
    docs = ([d["extraction"]["coh"], d["extraction"]["d2"]]
            if d["kind"] == "rt2" else [d])
    for doc in docs:
        conditions = whole(doc["stages"])
        written = [c for s, c in zip(doc["stages"], conditions)
                   if s["condition"] is not None]
        assert "window_bound" in doc["stages"][0]["condition"]
        assert all("added" in s["condition"] for s in doc["stages"][1:]
                   if s["condition"] is not None)
        assert all(a != b for a, b in zip(written, written[1:]))
        assert "fuel_scale" not in canonical_json(doc)
        assert ("decided" in doc["extraction"]) == (doc["kind"] == "coh")


def test_written_form_audits_as_in_memory(golden):
    # a null condition reads as the condition of the stage before
    _, t, instance = golden
    assert (verify_transcript(_reload(t), audit_fuel=2,
                              instance=instance).findings
            == verify_transcript(t, audit_fuel=2,
                                 instance=instance).findings)


@pytest.mark.parametrize("name", ("coh", "em-0", "d2-0"))
def test_null_first_condition_refuted_once(name):
    t, instance = _run(name)
    d = t.to_dict()
    d["stages"][0]["condition"] = None
    report = verify_transcript(Transcript.from_dict(d), audit_fuel=2,
                               instance=instance)
    refuted = [f for f in report.findings if f["grade"] == "refuted"]
    assert [(f["note"], f["stage"]) for f in refuted] == [
        ("first stage repeats no earlier condition", 0)]


def test_load_refuses_version_1():
    with pytest.raises(TranscriptFormatError, match="version 1 is not read"):
        load_transcript(str(V1 / "rt2-0.json"))


def test_cli_verify_exits_2_on_version_1(capsys):
    assert main(["verify", str(V1 / "rt2-0.json")]) == 2
    assert "version 1" in capsys.readouterr().err


def test_converted_fixture_verifies(tmp_path, capsys):
    v2, out = tmp_path / "rt2-0-v2.json", tmp_path / "rt2-0.json"
    assert transcript_v1_to_v2.main([str(V1 / "rt2-0.json"),
                                     "--out", str(v2)]) == 0
    assert main(["verify", str(v2)]) == 2
    assert "tools/transcript_v2_to_v3.py" in capsys.readouterr().err
    assert transcript_v2_to_v3.main([str(v2), "--out", str(out)]) == 0
    inst = tmp_path / "p.yaml"
    assert main(["gen", "coloring", "--seed", "0", "--out", str(inst)]) == 0
    assert main(["verify", str(out), "--instance", str(inst)]) in (0, 1)
    assert "refuted: 0" in capsys.readouterr().out
