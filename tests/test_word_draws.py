"""Word-level draws, the tree module loaded on demand, and oracle refusals.

`generators._draws(rng, k, n)` takes a round of values for 1 <= k <= 255
from the high bytes of one `getrandbits(32 * m)`; long runs, where a round
spans thousands of words and several rounds follow each other, must still
equal n calls of `randrange(k)` and leave the same state.  Importing the
engines and the harness loads no `forcingbench.trees`, which is loaded
only to make or read a tree.  `brute_oracle` refuses an option its
instance cannot answer with `OracleRangeError`, naming the parameter and
its range, and the CLI prints that as `oracle <kind> needs --<option> ...`
and exits 2.
"""

import os
import random
import subprocess
import sys
import textwrap

import pytest

from forcingbench.approx import SetPresentation
from forcingbench.harness import (
    OracleRangeError,
    brute_oracle,
    gen_coloring,
    gen_d2_partition,
    gen_stable_coloring,
)
from forcingbench.harness import generators as g
from forcingbench.harness.cli import main
from forcingbench.harness.instances import (coloring_to_doc, dump_instance,
                                            partition_to_doc)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


@pytest.mark.parametrize("n", [1000, 5000])
@pytest.mark.parametrize("k", [1, 2, 3, 127, 128, 255, 256])
def test_long_draws_equal_randrange_and_leave_the_same_state(k, n):
    for seed in range(2):
        bulk, calls = random.Random(seed), random.Random(seed)
        assert g._draws(bulk, k, n) == [calls.randrange(k) for _ in range(n)]
        assert bulk.getstate() == calls.getstate()
        # the stream goes on from the same place
        assert bulk.random() == calls.random()


def _python(code, tmp_path):
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)


def test_engines_and_harness_load_no_trees_until_a_tree_is_made(tmp_path):
    out = _python("""
        import sys
        import forcingbench.forcing, forcingbench.harness
        assert "forcingbench.trees" not in sys.modules, "imported trees"
        from forcingbench.harness import gen_coloring, gen_table_tree
        gen_coloring(0)
        assert "forcingbench.trees" not in sys.modules, "gen_coloring"
        from forcingbench.trees import TableTree
        assert isinstance(gen_table_tree(3), TableTree)
    """, tmp_path)
    assert out.returncode == 0, out.stderr


def test_a_tree_document_still_loads_and_runs_low_basis(tmp_path):
    out = _python("""
        import sys
        import forcingbench.harness
        from forcingbench.harness import gen_table_tree, parse_instance
        from forcingbench.harness.instances import dump_instance, tree_to_doc
        assert "forcingbench.trees" not in sys.modules
        doc = dump_instance(tree_to_doc(gen_table_tree(3)))
        back = parse_instance(doc)
        assert back.kind == "Tree" and back.payload == gen_table_tree(3)
        back = parse_instance("kind: Tree\\nexcluded: [[1, 1]]\\n")
        assert type(back.payload).__name__ == "ExcludedSubstringTree"
        open("tt.yaml", "w").write(doc)
        from forcingbench.harness.cli import main
        sys.exit(main(["low-basis", "tt.yaml", "--depth", "8"]))
    """, tmp_path)
    assert out.returncode == 0, out.stderr


def _family(bound=10):
    return [SetPresentation.from_set((0, 2, 4, 6, 8), bound),
            SetPresentation.from_set((1, 3, 5), bound + 2)]


# each refusal: the oracle, its instance, its options and the CLI's option
REFUSALS = {
    "bound-negative": ("homogeneous", lambda: gen_coloring(3, bound=10),
                       {"bound": -3}, ["--bound", "-3"],
                       "--bound from 0 to the coloring's bound 10"),
    "bound-high": ("homogeneous", lambda: gen_coloring(3, bound=10),
                   {"bound": 11}, ["--bound", "11"],
                   "--bound from 0 to the coloring's bound 10"),
    "members-high": ("cohesive_check", _family,
                     {"members": [1, 3, 5, 40, 42]},
                     ["--members", "1", "3", "5", "40", "42"],
                     "--members below the family's least bound 10"),
    "members-none": ("cohesive_check", _family, {}, [],
                     "--members of naturals"),
    "color-high": ("d2_subset", lambda: gen_d2_partition(3),
                   {"color": 7}, ["--color", "7"], "--color from 0 to 1"),
    "color-negative": ("d2_subset", lambda: gen_d2_partition(3),
                       {"color": -1}, ["--color", "-1"],
                       "--color from 0 to 1"),
    "fallow-past-bound": ("fallow", lambda: gen_stable_coloring(3),
                          {"members": [3, 99]}, ["--members", "3", "99"],
                          "--members below the coloring's bound 40"),
    "fallow-negative": ("fallow", lambda: gen_stable_coloring(3),
                        {"members": [-1, 3, 5]},
                        ["--members", "-1", "3", "5"],
                        "--members of naturals"),
}


def _instance_file(tmp_path, instance):
    path = tmp_path / "i.yaml"
    if isinstance(instance, list):
        path.write_text("kind: RFamily\nsets:\n"
                        "  - members: [0, 2, 4, 6, 8]\n    bound: 10\n"
                        "  - members: [1, 3, 5]\n    bound: 12\n")
    elif hasattr(instance, "promised_bound"):
        path.write_text(dump_instance(partition_to_doc(instance)))
    else:
        path.write_text(dump_instance(coloring_to_doc(instance, "Coloring")))
    return str(path)


@pytest.mark.parametrize("case", REFUSALS)
def test_brute_oracle_refuses_what_it_cannot_answer(case):
    kind, make, options, _, needs = REFUSALS[case]
    with pytest.raises(OracleRangeError) as info:
        brute_oracle(kind, make(), **options)
    assert isinstance(info.value, ValueError)
    assert info.value.needs == needs[2:]
    assert str(info.value) == f"oracle {kind} needs {needs[2:]}"


@pytest.mark.parametrize("case", REFUSALS)
def test_cli_prints_the_refusal_and_exits_2(case, tmp_path, capsys):
    kind, make, _, argv, needs = REFUSALS[case]
    path = _instance_file(tmp_path, make())
    assert main(["oracle", kind, path, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"oracle {kind} needs {needs}\n"


def test_in_range_calls_answer_as_before():
    c = gen_coloring(3, bound=10)
    rep = brute_oracle("homogeneous", c, bound=10)
    assert rep.size == len(rep.witness) >= 2
    assert brute_oracle("homogeneous", c, bound=0).size == 0
    assert brute_oracle("homogeneous", c).size == rep.size
    rep = brute_oracle("cohesive_check", _family(), members=[1, 3, 9])
    assert rep.size == 3 and set(rep.detail) == {0, 1}
    d = gen_d2_partition(3)
    parts = [set(brute_oracle("d2_subset", d, color=i).witness)
             for i in range(d.k)]
    assert set().union(*parts) == set(range(d.bound))
    assert not parts[0] & parts[1]
    s = gen_stable_coloring(3)
    rep = brute_oracle("fallow", s, members=[0, 1, 39])
    assert rep.size == 3 and rep.detail["ok"] == (rep.witness is None)
    assert brute_oracle("fallow", s, members=[]).detail == {"ok": True}
