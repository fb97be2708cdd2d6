"""Every command that reads an instance refuses one of the wrong kind with
exit code 2 and a one-line message naming both kinds."""

import pytest

from forcingbench.harness.cli import main

CASES = [
    ("run-coh", "coloring", "an RFamily", "Coloring"),
    ("run-em", "coloring", "a StableColoring", "Coloring"),
    ("run-d2", "coloring", "a Delta2Partition", "Coloring"),
    ("run-rt2", "stable-coloring", "a Coloring", "StableColoring"),
    ("low-basis", "coloring", "a Tree", "Coloring"),
    ("build-model", "coloring", "an RFamily", "Coloring"),
]


@pytest.mark.parametrize("command,what,needs,got", CASES)
def test_wrong_instance_kind(tmp_path, capsys, command, what, needs, got):
    inst = tmp_path / "inst.yaml"
    assert main(["gen", what, "--seed", "3", "--out", str(inst)]) == 0
    capsys.readouterr()
    assert main([command, str(inst)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{command} needs {needs} instance, got {got}\n"
    assert captured.out == ""
