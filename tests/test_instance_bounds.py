"""What lies past an instance's bound is refused or refuted, not read.

With the instance, the auditor refutes a window forged past the bound of
the coloring or partition a run read (no run's window passes it), and
reads the bound instead, before any instance check reads a member: the
audit used to raise `OracleInsufficientError` there.  `verify --instance`
then exits 2 with a `refuted:` count, not `error:`.  The `oracle` command
refuses, with exit 2 and a reason naming the option, a `--members` entry
past the coloring's bound and a `--color` that names no part.
"""

import copy
import json

import pytest

from forcingbench import brute
from forcingbench.approx import SetPresentation
from forcingbench.forcing import rt2_pipeline, verify_transcript
from forcingbench.harness import emit_transcript, gen_coloring
from forcingbench.harness.cli import main
from forcingbench.transcript import Transcript

from test_forged_oracles import d2_run, em_run  # noqa: F401  (fixtures)
from test_verify import _reload


def _widened(t, window, member, key="B", part=None):
    """A copy of `t` whose window, and every condition's window bound, is
    `window`, with `member` added to the extracted set `key` and to the
    last condition's committed set (part `part`, for D2)."""
    bad = _reload(t)
    bad.config["window"] = window
    last = None
    for rec in bad.stages:
        if rec.condition is not None:
            rec.condition["window_bound"] = window
            last = rec.condition
    if last is not None:
        (last["F"] if part is None else last["F_parts"][part]).append(member)
    if part is not None:
        bad.extraction["F_parts"][part].append(member)
    else:
        bad.extraction[key].append(member)
    return bad


def _refuted_notes(report):
    return [f["note"] for f in report.findings if f["grade"] == "refuted"]


def test_em_window_past_the_coloring_refuted(em_run):
    t, c = em_run
    assert t.config["window"] == c.bound == 40
    report = verify_transcript(_widened(t, 50, 42), audit_fuel=2, instance=c)
    notes = _refuted_notes(report)
    assert "window reaches past the instance's bound 40" in notes
    assert "extracted set reaches past the window" in notes
    # without the instance the window is the transcript's own
    report = verify_transcript(_widened(t, 50, 42), audit_fuel=2)
    assert not [n for n in _refuted_notes(report) if "bound 40" in n]


def test_rt2_window_past_the_coloring_refuted():
    c = gen_coloring(0)
    t = rt2_pipeline(c, 60)[1]
    bad = copy.deepcopy(t)
    bad.config["window"] = 58
    bad.extraction["H"].append(50)
    report = verify_transcript(bad, audit_fuel=2, instance=c)
    assert _refuted_notes(report) == [
        "window reaches past the instance's bound 48",
        "extracted set reaches past the window"]


def test_d2_window_past_the_partition_refuted(d2_run):
    t, d, color = d2_run
    report = verify_transcript(
        _widened(t, d.bound + 6, d.bound + 2, part=color), audit_fuel=2,
        instance=d)
    assert f"window reaches past the instance's bound {d.bound}" in \
        _refuted_notes(report)


def test_honest_windows_stay_within_the_bound(em_run, d2_run):
    for t, instance in (em_run, d2_run[:2]):
        assert t.config["window"] <= brute.domain_bound(instance)
        report = verify_transcript(t, audit_fuel=2, instance=instance)
        assert report.counts["refuted"] == 0


def test_domain_bound_of_each_instance_kind(em_run, d2_run):
    assert brute.domain_bound(em_run[1]) == em_run[1].bound
    assert brute.domain_bound(d2_run[1]) == d2_run[1].bound
    family = [SetPresentation.from_set(range(0, 16, 2), 16)]
    assert brute.domain_bound(family) is None


def test_cli_verify_refutes_a_forged_window(tmp_path, capsys):
    c_path = str(tmp_path / "c.yaml")
    t_path = str(tmp_path / "t.json")
    assert main(["gen", "stable-coloring", "--seed", "3", "--out",
                 c_path]) == 0
    assert main(["run-em", c_path, "--stages", "200", "--out",
                 t_path]) in (0, 1)
    with open(t_path, encoding="ascii") as fh:
        doc = json.load(fh)
    forged = _widened(Transcript.from_dict(doc), 50, 42)
    emit_transcript(forged, t_path)
    capsys.readouterr()
    assert main(["verify", t_path, "--instance", c_path]) == 2
    captured = capsys.readouterr()
    assert "error:" not in captured.err
    assert "refuted: window reaches past the instance's bound 40" in \
        captured.out.splitlines()
    count = [line for line in captured.out.splitlines()
             if line.startswith("refuted: ") and line[9:].isdigit()]
    assert len(count) == 1 and int(count[0][9:]) > 0


@pytest.fixture
def instances(tmp_path):
    paths = {}
    for what in ("stable-coloring", "d2-partition"):
        paths[what] = str(tmp_path / f"{what}.yaml")
        assert main(["gen", what, "--seed", "3", "--out", paths[what]]) == 0
    return paths


@pytest.mark.parametrize("argv,err", [
    (["fallow", "stable-coloring", "--members", "3", "99"],
     "oracle fallow needs --members below the coloring's bound 40"),
    (["fallow", "stable-coloring", "--members", "40"],
     "oracle fallow needs --members below the coloring's bound 40"),
    (["d2_subset", "d2-partition", "--color", "7"],
     "oracle d2_subset needs --color from 0 to 1"),
    (["d2_subset", "d2-partition", "--color", "2"],
     "oracle d2_subset needs --color from 0 to 1"),
    (["d2_subset", "d2-partition", "--color", "-1"],
     "oracle d2_subset needs --color from 0 to 1"),
])
def test_oracle_refuses_an_out_of_range_option(instances, capsys, argv, err):
    capsys.readouterr()
    kind, what, *rest = argv
    assert main(["oracle", kind, instances[what], *rest]) == 2
    captured = capsys.readouterr()
    assert captured.err == err + "\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["fallow", "stable-coloring", "--members", "3", "39"],
    ["d2_subset", "d2-partition", "--color", "1"],
])
def test_oracle_answers_at_the_edge_of_the_range(instances, capsys, argv):
    kind, what, *rest = argv
    assert main(["oracle", kind, instances[what], *rest]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == kind
