"""Claims a transcript's config and extraction make, and out-of-range
oracle options, come out refuted or refused, never a long search.

The re-search of a negative decision costs 2^(width + audit_fuel)
questions, and its width was bounded by `config["subset_width"]`, which a
transcript can forge: width 20 made one EM audit take seconds, about
twice as long per unit of width.  The audit now refutes a run's width
past `SUBSET_WIDTH` once and bounds every record's width by it; a record
whose restated sets are not the chain's is refuted before any search.
EM's `fallow` claim and its `iv-fallow` flag are checked against the
instance.
"""

import time

import pytest

from forcingbench.approx import Coloring
from forcingbench.forcing import CohConfig, run_coh, verify_transcript
from forcingbench.harness import gen_coloring
from forcingbench.harness.cli import main
from forcingbench.harness.instances import coloring_to_doc, dump_instance
from forcingbench.harness.transcripts import emit_transcript
from forcingbench.transcript import SUBSET_WIDTH, coloring_digest

from test_forged_oracles import d2_run, em_run  # noqa: F401  (fixtures)
from test_verify import _reload

RUN_WIDTH = "run's subset width is not an integer from 0 to 8"
RECORD_WIDTH = ("negative decision's subset width is not an integer from 0 "
                "to the run's")


def _forged_width(t, stage: int, pool_key: str, width: int = 20):
    """The width forgery: the run's and one negative's subset width set to
    `width`, its committed set emptied and its pool the first 40 naturals,
    so that a search of that width would find no witness for a long time."""
    bad = _reload(t)
    bad.config["subset_width"] = width
    cert = bad.stages[stage].certificates
    cert["search"]["subset_width"] = width
    cert["F_at_decision"] = []
    cert["reservoir_at_decision"] = list(range(40))
    cert[pool_key] = list(range(40))
    return bad


def _refuted(report):
    return [(f["stage"], f["requirement"], f["note"])
            for f in report.findings if f["grade"] == "refuted"]


@pytest.mark.parametrize("kind", ("em", "d2"))
def test_forged_run_width_refuted_quickly(em_run, d2_run, kind):
    if kind == "em":
        (t, instance), stage, key = em_run, 59, "reservoir_at_decision"
    else:
        (t, instance, _), stage, key = d2_run, 118, "pool_at_decision"
    rec = t.stages[stage]
    assert rec.branch == "Case2" and rec.requirement.startswith("N_29")
    bad = _forged_width(t, stage, key)
    began = time.perf_counter()
    report = verify_transcript(bad, audit_fuel=2, instance=instance)
    assert time.perf_counter() - began < 1.0
    refuted = _refuted(report)
    assert refuted[0] == (None, None, RUN_WIDTH)
    assert [r for r in refuted if r[0] is None] == [refuted[0]]
    # its emptied committed set is not the chain's: refuted unsearched
    assert (stage, rec.requirement, "restated committed set is not the "
            "condition's before it") in refuted


@pytest.mark.parametrize("kind", ("em", "d2"))
def test_forged_widths_on_an_honest_restatement_refuted_quickly(
        em_run, d2_run, kind):
    # the negative with the widest pool, its sets restated as the chain's
    t, instance = em_run if kind == "em" else d2_run[:2]
    key = "reservoir_at_decision" if kind == "em" else "pool_at_decision"
    rec = max((r for r in t.stages if r.branch == "Case2"),
              key=lambda r: len(r.certificates[key]))
    assert len(rec.certificates[key]) > SUBSET_WIDTH  # wider than honest
    bad = _reload(t)
    bad.config["subset_width"] = 20
    bad.stages[rec.stage].certificates["search"]["subset_width"] = 20
    began = time.perf_counter()
    report = verify_transcript(bad, audit_fuel=2, instance=instance)
    assert time.perf_counter() - began < 1.0
    refuted = _refuted(report)
    assert refuted == [(None, None, RUN_WIDTH),
                       (rec.stage, rec.requirement, RECORD_WIDTH)]


@pytest.mark.parametrize("width", (-1, SUBSET_WIDTH + 1, "8", True, None))
def test_run_width_outside_the_format_refuted_once(em_run, width):
    t, c = em_run
    bad = _reload(t)
    if width is None:
        del bad.config["subset_width"]
    else:
        bad.config["subset_width"] = width
    report = verify_transcript(bad, audit_fuel=2, instance=c)
    assert [r for r in _refuted(report) if r[0] is None] == [
        (None, None, RUN_WIDTH)]


def test_honest_widths_refute_nothing(em_run, d2_run):
    for t, instance in (em_run, d2_run[:2]):
        assert t.config["subset_width"] == SUBSET_WIDTH
        report = verify_transcript(t, audit_fuel=2, instance=instance)
        assert report.counts["refuted"] == 0


def test_verify_exits_2_on_the_forged_width(em_run, tmp_path, capsys):
    t, c = em_run
    path, _ = emit_transcript(_forged_width(t, 59, "reservoir_at_decision"),
                              str(tmp_path / "t.json"))
    inst = tmp_path / "c.yaml"
    inst.write_text(dump_instance(coloring_to_doc(c)))
    began = time.perf_counter()
    assert main(["verify", path, "--instance", str(inst)]) == 2
    assert time.perf_counter() - began < 5.0
    out = capsys.readouterr().out
    assert f"refuted: {RUN_WIDTH}" in out
    assert "refuted: 0" not in out.splitlines()


@pytest.mark.parametrize("width", (-1, SUBSET_WIDTH + 1, 20, "6"))
def test_run_coh_refuses_a_width_outside_the_format(width):
    family = []
    with pytest.raises(ValueError, match="CohConfig.subset_width"):
        run_coh(family, 1, config=CohConfig(subset_width=width))


@pytest.mark.parametrize("forge", ("fallow", "flag"))
def test_forged_fallow_claims_refuted(em_run, forge):
    t, c = em_run
    assert t.extraction["fallow"] is True
    assert "iv-fallow" in t.extraction["final_flags"]
    bad = _reload(t)
    if forge == "fallow":
        bad.extraction["fallow"] = False
        note = "fallow claim is not whether the extracted set is fallow"
    else:
        bad.extraction["final_flags"].remove("iv-fallow")
        note = ("final flag iv-fallow disagrees with whether the extracted "
                "set is fallow")
    assert _refuted(verify_transcript(bad, audit_fuel=2)) == []
    assert _refuted(verify_transcript(bad, audit_fuel=2, instance=c)) == [
        (None, None, note)]


@pytest.mark.parametrize("claim", (1, "true", None))
def test_fallow_claim_must_be_the_bool(em_run, claim):
    t, c = em_run
    bad = _reload(t)
    bad.extraction["fallow"] = claim
    assert _refuted(verify_transcript(bad, audit_fuel=2, instance=c)) == [
        (None, None, "fallow claim is not whether the extracted set is "
         "fallow")]


def test_fallow_claims_of_an_unfallow_set_must_say_so(em_run):
    # B = {0, 1, 2} under a coloring where c(0, 2) is neither c(0, 1) nor
    # c(1, 2): the honest claims would be False and no iv-fallow flag
    t, c = em_run
    table = [list(row) for row in c.table]
    table[0][0], table[1][0], table[0][1] = 0, 1, 2
    bad_c = Coloring(k=3, table=tuple(tuple(r) for r in table), bound=c.bound,
                     declared_bound=c.declared_bound)
    bad = _reload(t)
    bad.instance_hash = coloring_digest(bad_c)
    bad.extraction["B"] = [0, 1, 2]
    report = verify_transcript(bad, audit_fuel=2, instance=bad_c)
    notes = [r[2] for r in _refuted(report)]
    assert "fallow violation (0, 1, 2)" in notes
    assert "fallow claim is not whether the extracted set is fallow" in notes
    assert ("final flag iv-fallow disagrees with whether the extracted set "
            "is fallow") in notes


@pytest.fixture
def small_instances(tmp_path):
    c10 = tmp_path / "c10.yaml"
    c10.write_text(dump_instance(coloring_to_doc(gen_coloring(0, bound=10),
                                                 kind="Coloring")))
    family = tmp_path / "f.yaml"
    family.write_text("kind: RFamily\nsets:\n"
                      "  - members: [0, 2, 4, 6, 8]\n    bound: 10\n"
                      "  - members: [1, 3, 5]\n    bound: 12\n")
    return str(c10), str(family)


@pytest.mark.parametrize("argv, option", [
    (["homogeneous", "C", "--bound", "15"],
     "--bound from 0 to the coloring's bound 10"),
    (["homogeneous", "C", "--bound", "-3"],
     "--bound from 0 to the coloring's bound 10"),
    (["cohesive_check", "F", "--members", "1", "3", "5", "40", "42"],
     "--members below the family's least bound 10"),
    (["cohesive_check", "F", "--members", "1", "10"],
     "--members below the family's least bound 10"),
], ids=("bound-high", "bound-negative", "members-high", "members-at-bound"))
def test_oracle_refuses_an_out_of_range_option(small_instances, capsys,
                                               argv, option):
    c10, family = small_instances
    argv = [{"C": c10, "F": family}.get(a, a) for a in argv]
    assert main(["oracle", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"oracle {argv[0]} needs {option}\n"


@pytest.mark.parametrize("argv", [
    ["homogeneous", "C", "--bound", "10"],
    ["homogeneous", "C", "--bound", "0"],
    ["homogeneous", "C"],
    ["cohesive_check", "F", "--members", "1", "3", "9"],
])
def test_oracle_accepts_options_in_range(small_instances, capsys, argv):
    c10, family = small_instances
    assert main(["oracle", *[{"C": c10, "F": family}.get(a, a)
                             for a in argv]]) == 0
    assert capsys.readouterr().err == ""
