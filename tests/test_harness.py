"""Instance files, generators, brute oracles, transcript IO, CLI."""

import json

import pytest

from forcingbench import programs
from forcingbench.approx import MalformedInstanceError
from forcingbench.forcing import run_coh
from forcingbench.forcing.coh import CohConfig
from forcingbench.harness import (
    Instance,
    brute_oracle,
    canonical_json,
    emit_transcript,
    gen_coloring,
    gen_d2_partition,
    gen_delta2,
    gen_program_pairs,
    gen_stable_coloring,
    gen_table_tree,
    load_instance,
    load_transcript,
    monochromatic,
    parse_instance,
    transcript_hash,
)
from forcingbench.harness.cli import main
from forcingbench.harness.instances import (
    coloring_to_doc,
    dump_instance,
    partition_to_doc,
)
from forcingbench.harness.oracles import BruteForceCapError
from forcingbench.harness.transcripts import TranscriptFormatError
from forcingbench.machine import disassemble
from forcingbench.approx import SetPresentation

from oracles import max_homogeneous


def test_generators_deterministic():
    assert gen_stable_coloring(5) == gen_stable_coloring(5)
    assert gen_d2_partition(5) == gen_d2_partition(5)
    assert gen_coloring(5) == gen_coloring(5)
    assert gen_program_pairs(5, 10) == gen_program_pairs(5, 10)
    assert gen_table_tree(5).levels == gen_table_tree(5).levels


def test_gen_stable_coloring_honors_bound():
    c = gen_stable_coloring(11)
    for x in range(c.bound):
        for y in range(max(c.declared_bound, x + 1), c.bound):
            assert c.value(x, y) == c.declared_limits[x]


def test_gen_delta2_ground_truth():
    d, limits = gen_delta2(3)
    for n in range(64):
        assert d.value(n, d.promised_bound) == limits[n]


def test_instance_round_trip_coloring():
    c = gen_stable_coloring(2)
    text = dump_instance(coloring_to_doc(c))
    inst = parse_instance(text)
    assert inst.kind == "StableColoring"
    assert inst.payload == c


def test_instance_round_trip_partition():
    d = gen_d2_partition(2)
    text = dump_instance(partition_to_doc(d))
    inst = parse_instance(text)
    assert inst.kind == "Delta2Partition"
    assert inst.payload == d


def test_instance_rejects_broken_declared_bound():
    c = gen_stable_coloring(2)
    doc = coloring_to_doc(c)
    # flip one color past the declared bound
    x = 0
    j = max(doc["declared_bound"] - x - 1, 0)
    doc["table"][x][j] = (doc["table"][x][j] + 1) % doc["k"]
    with pytest.raises(MalformedInstanceError, match="declared bound violated"):
        parse_instance(dump_instance(doc))


def test_instance_rejects_ragged_table():
    doc = {"kind": "Coloring", "k": 2, "bound": 3, "table": [[0, 1], [0, 1]]}
    with pytest.raises(MalformedInstanceError, match="rows"):
        parse_instance(dump_instance(doc))


def test_instance_rejects_unknown_kind():
    with pytest.raises(MalformedInstanceError, match="unknown instance kind"):
        parse_instance("kind: Widget")


def test_instance_program_set():
    text = """
kind: RFamily
sets:
  - program: |
      loop: jz r0 yes
      dec r0
      jz r0 no
      dec r0
      jmp loop
      yes: set r0 1
      halt r0
      no: set r0 0
      halt r0
    bound: 8
    budget: 64
  - members: [1, 2, 3]
    bound: 8
"""
    inst = parse_instance(text)
    assert inst.kind == "RFamily"
    assert len(inst.payload) == 2


def test_instance_long_program_set():
    # 29 instructions: the program's pairing index would square its code
    # once per instruction, so loading must not ask for it
    text = "\n".join(
        ["kind: RFamily", "sets:", "  - program: |"]
        + ["      " + line for line in
           disassemble(programs.mod_member_decider(12)).splitlines()]
        + ["    bound: 64", "    budget: 512"])
    inst = parse_instance(text)
    assert inst.payload[0].window.members() == tuple(range(0, 64, 12))


def test_transcript_emit_load_round_trip(tmp_path):
    family = [SetPresentation.from_set(range(0, 32, 2), 32)]
    t, _ = run_coh(family, 20, config=CohConfig(window=32, density_min=4))
    dest = tmp_path / "t.json"
    path, digest = emit_transcript(t, str(dest))
    assert digest == transcript_hash(t)
    clone = load_transcript(path, expect_hash=digest)
    assert clone.to_dict() == t.to_dict()


def test_transcript_corruption_diagnostics(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(TranscriptFormatError, match="not valid JSON"):
        load_transcript(str(p))
    p.write_text(json.dumps({"kind": "coh"}))
    with pytest.raises(TranscriptFormatError, match="missing fields"):
        load_transcript(str(p))


def test_canonical_json_stable():
    a = canonical_json({"b": 1, "a": [2, 3]})
    b = canonical_json({"a": [2, 3], "b": 1})
    assert a == b == '{"a":[2,3],"b":1}'


def test_brute_homogeneous_matches_twin():
    c = gen_coloring(4, bound=14)
    rep = brute_oracle("homogeneous", c, bound=14)
    twin = max_homogeneous(c, 14)
    assert rep.size == len(twin)
    assert monochromatic(c, rep.witness) is not None


def test_brute_homogeneous_cap_refusal():
    c = gen_coloring(4)
    with pytest.raises(BruteForceCapError):
        brute_oracle("homogeneous", c, bound=c.bound)


def test_brute_d2_subset():
    d = gen_d2_partition(6)
    rep = brute_oracle("d2_subset", d, color=1)
    assert set(rep.witness) == {n for n in range(d.bound)
                                if d.declared_limits[n] == 1}


def test_cli_end_to_end(tmp_path, capsys):
    inst = tmp_path / "c.yaml"
    out = tmp_path / "t.json"
    assert main(["gen", "d2-partition", "--seed", "1",
                 "--out", str(inst)]) == 0
    code = main(["run-d2", str(inst), "--stages", "150", "--out", str(out)])
    assert code in (0, 1)
    assert out.exists()
    code = main(["verify", str(out), "--instance", str(inst)])
    assert code in (0, 1)
    captured = capsys.readouterr()
    assert "refuted: 0" in captured.out


def test_cli_error_exit(tmp_path):
    assert main(["run-d2", str(tmp_path / "missing.yaml")]) == 2
