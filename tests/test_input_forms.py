"""Input forms that no other test and no manifest run reads: a partition
without a promised bound, a tree given by excluded patterns, a family set
given as bits, an instance that is not YAML, a transcript whose digest is
not the expected one, and a D2 transcript whose every candidate color
lost a size requirement.

Each is driven through the public entry point a user would call, and its
result is checked against what the same data gives in its usual form.
"""

import dataclasses

import pytest

from forcingbench.approx import MalformedInstanceError
from forcingbench.forcing import run_coh, run_d2, run_em, verify_transcript
from forcingbench.forcing.base import CASE1, CASE2, StageRecord, Transcript
from forcingbench.forcing.d2 import InconclusiveSelection, select_color
from forcingbench.harness import (emit_transcript, gen_d2_partition,
                                  gen_stable_coloring, load_transcript,
                                  parse_instance)
from forcingbench.harness.cli import main
from forcingbench.harness.transcripts import TranscriptFormatError
from forcingbench.trees import ExcludedSubstringTree


def test_partition_without_promised_bound_reads_each_rows_last_value():
    d = gen_d2_partition(0)
    bare = dataclasses.replace(d, promised_bound=None)
    # every generated row ends in its limit, so the last value is exact
    assert [bare.limit_part(n) for n in range(bare.bound)] == \
        [row[-1] for row in bare.table] == list(d.declared_limits)
    t, (color, b) = run_d2(bare, 60)
    report = verify_transcript(t, instance=bare)
    assert report.counts["refuted"] == 0
    assert (color, b) == run_d2(d, 60)[1]


def test_tree_of_excluded_patterns_through_low_basis(tmp_path, capsys):
    path = tmp_path / "tree.yaml"
    path.write_text("kind: Tree\nexcluded:\n  - [1, 1]\n  - [0, 0, 0]\n")
    tree = parse_instance(path.read_text()).payload
    assert tree == ExcludedSubstringTree(((1, 1), (0, 0, 0)))
    assert main(["low-basis", str(path), "--depth", "8"]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("path: ")
    bits = line[len("path: "):]
    assert len(bits) == 8 and "11" not in bits and "000" not in bits


def test_family_set_given_as_bits(tmp_path, capsys):
    bits = [1, 0, 1, 1, 0, 0, 1, 0] * 4
    members = [x for x, v in enumerate(bits) if v]
    as_bits, as_members = (
        parse_instance("kind: RFamily\nsets:\n  - " + entry).payload
        for entry in (f"bits: {bits}\n",
                      f"members: {members}\n    bound: {len(bits)}\n"))
    assert as_bits[0].window.bits == tuple(bits) == \
        as_members[0].window.bits
    t_bits, c_bits = run_coh(as_bits, 10)
    t_members, c_members = run_coh(as_members, 10)
    assert c_bits == c_members and t_bits.to_dict() == t_members.to_dict()
    path = tmp_path / "fam.yaml"
    path.write_text(f"kind: RFamily\nsets:\n  - bits: {bits}\n")
    assert main(["run-coh", str(path), "--window", "32",
                 "--density-min", "4", "--stages", "10"]) < 2
    assert "refuted: 0" in capsys.readouterr().out


@pytest.mark.parametrize("source", ["kind: [", "kind: Tree\n  levels: : ]"])
def test_yaml_syntax_error_refused(source):
    with pytest.raises(MalformedInstanceError, match="instance syntax"):
        parse_instance(source)


def test_yaml_syntax_error_through_the_cli(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("kind: [")
    assert main(["run-em", str(path)]) == 2
    assert "error: instance syntax" in capsys.readouterr().err


def test_load_transcript_refuses_a_wrong_digest(tmp_path):
    c = gen_stable_coloring(0)
    t, _ = run_em(c, 20)
    path, digest = emit_transcript(t, str(tmp_path / "t.json"))
    assert load_transcript(path, expect_hash=digest).to_dict() == t.to_dict()
    wrong = ("0" if digest[0] != "0" else "1") + digest[1:]
    with pytest.raises(TranscriptFormatError, match="digest mismatch") as exc:
        load_transcript(path, expect_hash=wrong)
    assert digest in str(exc.value) and wrong in str(exc.value)


def _d2_transcript(decisions):
    t = Transcript(kind="d2", instance_hash="", config={"k": 2})
    t.stages = [StageRecord(s, label, branch, None, {})
                for s, (label, branch) in enumerate(decisions)]
    return t


def test_select_color_refuses_when_every_color_lost_a_size_requirement():
    t = _d2_transcript([("E_0^0", CASE2), ("R_0^1", CASE1),
                        ("E_1^1", CASE2), ("R_1^0", CASE1)])
    with pytest.raises(InconclusiveSelection,
                       match="every candidate color has a negatively "
                             "decided size requirement"):
        select_color(t, len(t.stages))
    # up to the second stage, color 1 has not yet lost its E requirement
    assert select_color(t, 2) == 1
