"""The auditor's instance checks are `forcingbench.brute`'s checkers.

`forcingbench.brute` imports nothing from `forcing` or `harness`, and
`verify.py` takes from `forcing.base` only the data model, the branch
names, the digests, the label reader, the set rules, `bounded_halt` (the
machine's semantics) and `find_halt_witness` (the witness search that
re-asks each negative decision); it reads no instance itself.  The
fallowness scan, which reads each pair once through `Coloring.value`,
agrees with a from-scratch triple loop and with the construction's
`fallow_check`; the off-color pair scan gives the RT2 audit its first three
off-color pairs, also on a program-presented coloring; and the `oracle`
command refuses, with exit 2 and a reason, what its checkers cannot read:
an instance of another kind, and missing or negative members.
"""

import ast
import copy
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from forcingbench import brute, programs
from forcingbench.approx import Coloring
from forcingbench.forcing import em, rt2_pipeline, run_em, verify
from forcingbench.forcing import verify_transcript
from forcingbench.forcing.base import (
    State,
    Transcript,
    fallow_check,
    halt_compat,
    halt_search,
    query_free_status,
    start,
)
from forcingbench.harness import gen_stable_coloring, transcript_hash
from forcingbench.harness.cli import main

from oracles import is_fallow
from test_triple_scans import brute_least_triple

SRC = os.path.dirname(os.path.dirname(os.path.abspath(brute.__file__)))

# what `verify.py` may take from `forcing.base`
ALLOWED_FROM_BASE = {
    # the data model and the branch names
    "Transcript", "TranscriptFormatError", "StageRecord",
    "CASE1", "CASE2", "E_EXTENSION", "D_RESTRICTION", "ABORT",
    # the digests a run writes as `instance_hash`
    "coloring_digest", "family_digest", "partition_digest",
    # the label reader and the set rules
    "parse_label", "committed_below", "condition_sets", "extends_sets",
    # the machine's semantics, and the witness search
    "bounded_halt", "find_halt_witness",
}


def _tree(module):
    with open(module.__file__, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _from_imports(module):
    return [n for n in ast.walk(_tree(module))
            if isinstance(n, ast.ImportFrom)]


def test_verify_takes_only_the_allowed_names_from_base():
    names = {a.name for n in _from_imports(verify)
             if n.level == 1 and n.module == "base" for a in n.names}
    assert "fallow_check" not in names
    assert names <= ALLOWED_FROM_BASE, names - ALLOWED_FROM_BASE
    assert {"fallow_violation", "off_color_pairs", "d2_part"} <= {
        a.name for n in _from_imports(verify)
        if n.level == 2 and n.module == "brute" for a in n.names}


def test_verify_reads_no_instance_itself():
    # no pair loop of its own: the instance reaches only the digests and
    # the brute checkers, and no coloring or partition is read in verify.py
    tree = _tree(verify)
    read = [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id == "instance"]
    assert read == []
    called = {n.func.attr for n in ast.walk(tree) if isinstance(n, ast.Call)
              and isinstance(n.func, ast.Attribute)}
    assert not called & {"value", "limit_part", "member"}


def test_brute_imports_nothing_from_forcing_or_harness():
    for n in _from_imports(brute):
        assert (n.level, n.module) in {(0, "__future__"), (0, "typing"),
                                       (1, "approx")}, ast.dump(n)
    # and nothing it imports does either
    code = ("import json, sys, forcingbench.brute; "
            "print(json.dumps(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    loaded = json.loads(out.stdout)
    assert "forcingbench.brute" in loaded
    assert not [m for m in loaded if m.startswith(
        ("forcingbench.forcing", "forcingbench.harness"))]


# -- the fallowness scan ---------------------------------------------------

@st.composite
def colorings_and_members(draw):
    """A table coloring and a list of its members, repeats allowed."""
    k = draw(st.integers(1, 3))
    bound = draw(st.integers(1, 12))
    table = tuple(
        tuple(draw(st.integers(0, k - 1)) for _ in range(x + 1, bound))
        for x in range(bound))
    members = draw(st.lists(st.integers(0, bound - 1), max_size=16))
    return Coloring(k=k, table=table, bound=bound), members


def _agrees(c, members):
    least = brute.fallow_violation(c, members)
    assert least == brute_least_triple(c, set(members))
    assert (least is None) == is_fallow(c, set(members))
    assert least == fallow_check(c, sorted(set(members))).violation


@settings(max_examples=300, deadline=None)
@given(colorings_and_members())
def test_fallow_violation_on_table_colorings(case):
    _agrees(*case)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 9), max_size=10))
def test_fallow_violation_on_a_program_coloring(members):
    # c(x, y) = cantor(x, y) mod 3, computed by a machine program
    c = Coloring(k=3, program=programs.mod_decider(3), budget=4096)
    _agrees(c, members)


def test_fallow_violation_is_fallow_checks_least_triple_on_em_outputs():
    # em-fallow's shape: k = 3, window 40, 200 stages; each output is
    # fallow, and one more member of the window often breaks it
    broken = 0
    for seed in range(4):
        c = gen_stable_coloring(seed, k=3, bound=40)
        _, b = run_em(c, 200)
        assert brute.fallow_violation(c, b) is None
        for z in sorted(set(range(40)) - set(b)):
            s = (*b, z)
            least = brute.fallow_violation(c, s)
            assert least == fallow_check(c, sorted(s)).violation
            broken += least is not None
    assert broken > 20


# -- the off-color pair scan -----------------------------------------------

def test_monochromatic_is_the_off_color_scan():
    c = Coloring(k=2, program=programs.mod_decider(2), budget=4096, bound=24)
    for members in ([], [3], [3, 3], [0, 1, 5, 9], [0, 1, 2], [4, 2, 2, 9]):
        elems = sorted(set(members))
        colors = {c.value(x, y) for i, x in enumerate(elems)
                  for y in elems[i + 1:]}
        want = None if len(colors) > 1 else (colors.pop() if colors else 0)
        assert brute.monochromatic(c, members) == want, members


@pytest.fixture(scope="module")
def program_rt2():
    c = Coloring(k=2, program=programs.mod_decider(2), budget=4096, bound=24)
    h, t = rt2_pipeline(c, 40)
    return c, h, t


def test_program_presented_rt2_audits_clean(program_rt2):
    # the pipeline's non-table path: every pair is read through the machine
    c, h, t = program_rt2
    assert h == (0, 1, 5, 9, 13, 17, 21)
    assert transcript_hash(t) == (
        "d6aa3df8ce0bbb6834d3f3265ddcb284e7a323638b334e1a37afc28a105eb700")
    report = verify_transcript(t, instance=c)
    assert report.counts == {"certified": 31, "provisional": 29,
                             "refuted": 0}
    assert {"grade": "certified", "stage": None, "requirement": None,
            "note": "7-element set monochromatic in color 0"
            } in report.findings


def test_rt2_audit_names_the_first_three_off_color_pairs(program_rt2):
    c, h, t = program_rt2
    d = copy.deepcopy(t.to_dict())
    d["extraction"]["H"] = [7, 2, 3, 4, *h]
    report = verify_transcript(Transcript.from_dict(d), instance=c)
    elems = sorted(set(d["extraction"]["H"]))
    off = [(x, y) for i, x in enumerate(elems) for y in elems[i + 1:]
           if c.value(x, y) != t.extraction["color"]]
    assert len(off) > 3
    notes = [f["note"] for f in report.findings if f["grade"] == "refuted"]
    assert notes == [f"extracted pairs off-color: {off[:3]}"]


# -- `_EmRun.admits`, through halt_compat's fuel-from-a-piece branch ---------

def test_admits_answers_what_valid_em_extension_does():
    e = programs.halt_at_step(5).index
    window = 40
    assert query_free_status(e, window + 1) == ("halts", 5)
    asked = 0
    for seed in range(3):
        c = gen_stable_coloring(seed, k=3, bound=window)
        limits = em._EmRun(c, window).ext.limits
        # every F below 4 that a run could hold: 5 steps need fuel from z >= 4
        for F in [(), (0,), (1,), (0, 1), (0, 2), (1, 3), (0, 1, 3)]:
            if not em.valid_em_extension(c, (), F, limits):
                continue
            run = em._EmRun(c, window)  # its memo follows one growing F
            run.F = F
            compat = halt_compat(e, F, window, run.classes, run.admits,
                                 halt_search(e, F, run.keeps_fallow))
            for z in range(window):
                want = em.valid_em_extension(c, F, (z,), limits)
                assert run.admits(z) == want, (seed, F, z)
                assert compat((z,)) == (z >= 4 and want), (seed, F, z)
                asked += 1
    assert asked > 300


def test_an_r_stage_reaches_admits(monkeypatch):
    calls = []
    admits = em._EmRun.admits

    def counted(self, z):
        calls.append(z)
        return admits(self, z)

    monkeypatch.setattr(em._EmRun, "admits", counted)
    c = gen_stable_coloring(0, k=3, bound=40)
    e = programs.halt_at_step(5).index
    run = em._EmRun(c, 40)
    state = State(start(40))
    state.cursor = 2 * e + 1  # the schedule gives out R_e
    rec = run.step(state, 0)
    assert calls
    assert rec.requirement == f"R_{e}" and rec.branch == "Case1"
    assert max(rec.certificates["oracle"]) >= 4


# -- the oracle command ------------------------------------------------------

@pytest.fixture
def instances(tmp_path):
    paths = {}
    for what in ("stable-coloring", "d2-partition"):
        paths[what] = str(tmp_path / f"{what}.yaml")
        assert main(["gen", what, "--seed", "3", "--out", paths[what]]) == 0
    paths["rfamily"] = str(tmp_path / "rfamily.yaml")
    with open(paths["rfamily"], "w", encoding="utf-8") as fh:
        fh.write("kind: RFamily\nsets:\n  - members: [0, 2, 4, 6]\n"
                 "    bound: 8\n")
    return paths


@pytest.mark.parametrize("argv,err", [
    (["cohesive_check", "stable-coloring", "--members", "1", "2"],
     "oracle cohesive_check needs an RFamily instance, got StableColoring"),
    (["fallow", "stable-coloring"],
     "oracle fallow needs --members of naturals"),
    (["fallow", "stable-coloring", "--members", "-1", "3", "5"],
     "oracle fallow needs --members of naturals"),
    (["cohesive_check", "rfamily", "--members", "2", "-3"],
     "oracle cohesive_check needs --members of naturals"),
    (["fallow", "d2-partition", "--members", "1"],
     "oracle fallow needs a Coloring or StableColoring instance, "
     "got Delta2Partition"),
    (["homogeneous", "d2-partition"],
     "oracle homogeneous needs a Coloring or StableColoring instance, "
     "got Delta2Partition"),
    (["d2_subset", "stable-coloring"],
     "oracle d2_subset needs a Delta2Partition instance, "
     "got StableColoring"),
])
def test_oracle_refuses_what_it_cannot_read(instances, capsys, argv, err):
    capsys.readouterr()
    kind, what, *rest = argv
    assert main(["oracle", kind, instances[what], *rest]) == 2
    captured = capsys.readouterr()
    assert captured.err == err + "\n"
    assert captured.out == ""


def test_oracle_counts_a_repeated_member_once(instances, capsys):
    capsys.readouterr()
    path = instances["stable-coloring"]
    assert main(["oracle", "fallow", path, "--members", "3", "3", "5"]) == 0
    repeated = capsys.readouterr().out
    assert main(["oracle", "fallow", path, "--members", "5", "3"]) == 0
    assert capsys.readouterr().out == repeated
    assert '"size": 2' in repeated
