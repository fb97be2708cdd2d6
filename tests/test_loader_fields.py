"""The instance loader names the field it refuses.

A field of the wrong type (a number where a list belongs, text, a float or
a bool where an integer belongs, a YAML alias that makes a list contain
itself) is a
`MalformedInstanceError` naming the field, not a bare `TypeError` or
`ValueError`.  A payload that contradicts itself where no declared bound
makes the loader check it is refused too: a declared limit that is no
color or part below k, and a tree node that is not a 0/1 string as long
as its level.
"""

import re

import pytest

from forcingbench.approx import MalformedInstanceError
from forcingbench.harness import gen_coloring, parse_instance
from forcingbench.harness.cli import main
from forcingbench.harness.instances import coloring_to_doc, dump_instance

COLORING = "kind: Coloring\nk: 2\nbound: 3\ntable: [[0, 1], [1], []]\n"
PARTITION = "kind: Delta2Partition\nk: 2\nbound: 2\ntable: [[0], [1, 1]]\n"


@pytest.mark.parametrize("source, field", [
    ("kind: Coloring\nk: 2\nbound: 3\ntable: 5\n", "table"),
    ("kind: Coloring\nk: x\nbound: 3\ntable: [[0, 1], [1], []]\n", "k"),
    ("kind: Coloring\nk: 2\nbound: .inf\ntable: []\n", "bound"),
    ("kind: Coloring\nk: 2.5\nbound: 3\ntable: [[0, 1], [1], []]\n", "k"),
    ("kind: Coloring\nk: '2'\nbound: 3\ntable: [[0, 1], [1], []]\n", "k"),
    ("kind: Coloring\nk: 2\nbound: 3\ntable: [[0, 1.5], [1], []]\n",
     "table row 0"),
    ("kind: Coloring\nk: 2\nbound: 3\ntable: [[0, true], [1], []]\n",
     "table row 0"),
    ("kind: Coloring\nk: 2\nbound: 3\ntable: [[0, 1], 7, []]\n",
     "table row 1"),
    ("kind: Coloring\nk: 2\nbound: 3\ntable: [[0, a], [1], []]\n",
     "table row 0"),
    (COLORING + "declared_limits: 3\n", "declared_limits"),
    (COLORING + "declared_limits: [0, [1], 0]\n", "declared_limits"),
    ("kind: StableColoring\nk: 2\nbound: 3\ntable: [[0, 1], [1], []]\n"
     "declared_bound: [2]\n", "declared_bound"),
    (PARTITION + "promised_bound: x\n", "promised_bound"),
    ("kind: Delta2Partition\nk: 2\nbound: 1\ntable: [5]\n", "table row 0"),
    ("kind: RFamily\nsets: [3]\n", "sets entry 0"),
    ("kind: RFamily\nsets: 3\n", "sets"),
    ("kind: RFamily\nsets:\n  - members: 4\n    bound: 8\n", "members"),
    ("kind: RFamily\nsets:\n  - members: [0, 2]\n    bound: [8]\n", "bound"),
    ("kind: RFamily\nsets:\n  - bits: [1, x]\n", "bits"),
    ("kind: RFamily\nsets:\n  - program: 5\n    bound: 4\n", "program"),
    ("kind: RFamily\nsets:\n  - program: 'halt r0'\n    bound: 4\n"
     "    budget: x\n", "budget"),
    ("kind: Tree\nlevels: 3\n", "levels"),
    ("kind: Tree\nlevels: [[[]], 4]\n", "level 1"),
    ("kind: Tree\nexcluded: [[1, x]]\n", "excluded pattern"),
], ids=["table", "k", "bound-inf", "k-float", "k-text", "color-float",
        "color-bool", "row", "color", "limits", "limit-list",
        "declared-bound", "promised-bound", "partition-row", "sets-entry",
        "sets", "members", "family-bound", "bits", "program", "budget",
        "levels", "level", "excluded"])
def test_wrong_type_names_the_field(source, field):
    with pytest.raises(MalformedInstanceError,
                       match=rf"(^|of ){re.escape(field)} must be"):
        parse_instance(source)


@pytest.mark.parametrize("source, field", [
    ("kind: RFamily\nsets: &s [{members: *s, bound: 4}]\n", "members"),
    ("kind: Delta2Partition\nk: 2\nbound: 1\ntable: &t [*t]\n",
     "table row 0"),
    ("kind: Tree\nlevels: &l [*l]\n", "a node at level 0"),
], ids=["family", "partition", "tree"])
def test_alias_cycle_refused(source, field):
    with pytest.raises(MalformedInstanceError,
                       match=rf"of {re.escape(field)} must be an integer"):
        parse_instance(source)


@pytest.mark.parametrize("source", [
    COLORING + "declared_limits: [5, 5, 5]\n",
    COLORING + "declared_limits: [0, -1, 0]\n",
    PARTITION + "declared_limits: [0, 2]\n",
], ids=["coloring", "coloring-negative", "partition"])
def test_declared_limit_out_of_range_refused(source):
    with pytest.raises(MalformedInstanceError,
                       match="declared limit .* out of range"):
        parse_instance(source)


@pytest.mark.parametrize("levels", [
    "[[[0, 1]]]",                  # a node of length 2 at level 0
    "[[[]], [[0], [1, 0]]]",       # one of length 2 at level 1
    "[[[]], [[2]]]",               # a bit that is not 0 or 1
], ids=["depth-2-at-0", "depth-2-at-1", "bit-2"])
def test_tree_node_off_its_level_refused(levels):
    with pytest.raises(MalformedInstanceError,
                       match="is not a 0/1 string of length"):
        parse_instance(f"kind: Tree\nlevels: {levels}\n")


def test_cli_names_the_field(tmp_path, capsys):
    tree = tmp_path / "tree.yaml"
    tree.write_text("kind: Tree\nlevels: [[[0, 1]]]\n")
    assert main(["low-basis", str(tree)]) == 2
    assert "node [0, 1] at level 0" in capsys.readouterr().err
    coloring = tmp_path / "c.yaml"
    coloring.write_text("kind: Coloring\nk: x\nbound: 1\ntable: [[]]\n")
    assert main(["run-rt2", str(coloring)]) == 2
    assert "k must be an integer" in capsys.readouterr().err


def test_well_formed_limits_and_trees_still_load():
    c = parse_instance(COLORING + "declared_limits: [0, 1, 1]\n").payload
    assert c.declared_limits == (0, 1, 1)
    tree = parse_instance("kind: Tree\nlevels: [[[]], [[0], [1]], [[1, 0]]]\n")
    assert tree.payload.levels == (((),), ((0,), (1,)), ((1, 0),))
    doc = coloring_to_doc(gen_coloring(3), kind="Coloring")
    assert parse_instance(dump_instance(doc)).payload == gen_coloring(3)
