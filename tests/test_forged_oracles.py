"""A forged certificate oracle comes out refuted, never certified or a crash.

An honest oracle lists the naturals of a finite set in increasing order.
An oracle of negative numbers only used to make the replay raise (its
window bound, and so the fuel, fell below 1), and so did one with a
member that is not an integer; a negative member beside others was
dropped silently, so the replay could still match.  The same holds for
every other set the audit runs a program on, and for a member at or past
the run's window.
"""

import pytest

from forcingbench.forcing import (
    base,
    rt2_pipeline,
    run_d2,
    run_em,
    verify_transcript,
)
from forcingbench.forcing.base import CASE1, CASE2, Transcript
from forcingbench.harness import (
    gen_coloring,
    gen_d2_partition,
    gen_stable_coloring,
)
from forcingbench.transcript import parse_label

from test_verify import _reload

FORGED_ORACLES = ([-3], [-1, 5], [2, 2], ["5"])


@pytest.fixture(scope="module")
def em_run():
    c = gen_stable_coloring(0)
    return run_em(c, 200)[0], c


@pytest.fixture(scope="module")
def d2_run():
    d = gen_d2_partition(0)
    t, (color, _) = run_d2(d, 300)
    return t, d, color


def _forge(t: Transcript, index: int, oracle) -> Transcript:
    bad = _reload(t)
    bad.stages[index].certificates["oracle"] = list(oracle)
    return bad


def _refuted_at(report, rec) -> bool:
    return any(f["grade"] == "refuted" and f["stage"] == rec.stage
               and f["requirement"] == rec.requirement
               for f in report.findings)


def _positives(t: Transcript):
    return [i for i, rec in enumerate(t.stages)
            if rec.branch == CASE1 and rec.requirement.startswith("R")]


@pytest.mark.parametrize("oracle", FORGED_ORACLES)
def test_em_forged_oracle_refuted(em_run, oracle):
    t, c = em_run
    i = _positives(t)[0]
    report = verify_transcript(_forge(t, i, oracle), audit_fuel=2,
                               instance=c)
    assert _refuted_at(report, t.stages[i])


@pytest.mark.parametrize("oracle", FORGED_ORACLES)
def test_d2_forged_oracle_refuted(d2_run, oracle):
    # a certificate of a color that was not selected: the jump ledger skips
    # it, so only the replay itself can refute it
    t, d, color = d2_run
    i = next(i for i in _positives(t)
             if not t.stages[i].requirement.endswith(f"^{color}"))
    report = verify_transcript(_forge(t, i, oracle), audit_fuel=2,
                               instance=d)
    assert _refuted_at(report, t.stages[i])


def test_honest_oracles_still_certified(em_run, d2_run):
    for t, instance in (em_run, d2_run[:2]):
        assert verify_transcript(t, audit_fuel=2,
                                 instance=instance).counts["refuted"] == 0


FORGED_EXTRACTIONS = ([-5], ["a", 3], [3, None])


@pytest.mark.parametrize("with_instance", (False, True),
                         ids=("alone", "instance"))
@pytest.mark.parametrize("extraction", FORGED_EXTRACTIONS, ids=repr)
@pytest.mark.parametrize("kind", ("em", "d2"))
def test_forged_extraction_refuted(em_run, d2_run, kind, extraction,
                                   with_instance):
    # such an extraction used to reach the jump ledger, where a window of
    # bound 0 or a sort of mixed types raised
    t, instance = em_run if kind == "em" else d2_run[:2]
    bad = _reload(t)
    bad.extraction["B"] = list(extraction)
    honest = verify_transcript(t, audit_fuel=2,
                               instance=instance if with_instance else None)
    report = verify_transcript(bad, audit_fuel=2,
                               instance=instance if with_instance else None)
    refuted = [f for f in report.findings if f["grade"] == "refuted"]
    assert [f["note"] for f in refuted] == [
        "extracted set is not a list of distinct naturals"]
    # everything before the ledger is as on the honest transcript
    at = report.findings.index(refuted[0])
    assert report.findings[:at] == honest.findings[:at]


# Every set the auditor feeds a machine question must list distinct
# naturals below the run's window: a negative certificate's committed set
# and pool, a positive's oracle and the extracted set.  A member that is
# not a natural used to raise in the witness search, and a large one
# cost fuel and a bit window as long as its value.
FORGED_SETS = (["a", 3], [-1], [3, 3], [100000], "x", None)


def _first_negative(t: Transcript) -> int:
    return next(i for i, rec in enumerate(t.stages)
                if rec.branch == CASE2 and rec.requirement.startswith("N"))


@pytest.fixture
def fuels(monkeypatch):
    """The largest fuel any run tree is asked for while the test runs."""
    seen = [0]
    outcome = base._RunTree.outcome

    def recorded(tree, fuel, members):
        seen[0] = max(seen[0], fuel)
        return outcome(tree, fuel, members)

    monkeypatch.setattr(base._RunTree, "outcome", recorded)
    return seen


def _forged_source(t: Transcript, i: int, key: str, forged):
    """(a copy of `t` whose set that `key` names, of the condition in effect
    before record i, is `forged` where that condition is written, whole, or
    missing when `forged` is None; that record).  `F_at_decision` names
    the committed set (D2: the part of record i's colour), and
    `reservoir_at_decision` the reservoir."""
    bad = _reload(t)
    j = max(j for j in range(i) if t.stages[j].condition is not None)
    cond = bad.stages[j].condition
    assert "window_bound" in cond  # written whole
    if key == "reservoir_at_decision":
        key = "reservoir"
    elif t.kind == "d2":
        key, cond = parse_label(t.stages[i].requirement)[2], cond["F_parts"]
    else:
        key = "F"
    if forged is None:
        del cond[key]
    else:
        cond[key] = forged
    return bad, bad.stages[j]


@pytest.mark.parametrize("forged", FORGED_SETS, ids=repr)
@pytest.mark.parametrize("key", ("F_at_decision", "reservoir_at_decision"))
def test_em_forged_negative_certificate_refuted(em_run, fuels, key, forged):
    # the sets the negative is asked on, forged where the chain writes them
    t, c = em_run
    bad, source = _forged_source(t, _first_negative(t), key, forged)
    report = verify_transcript(bad, audit_fuel=2, instance=c)
    assert _refuted_at(report, source)
    assert fuels[0] <= t.config["window"]


@pytest.mark.parametrize("forged", FORGED_SETS[:4], ids=repr)
@pytest.mark.parametrize("key", ("F_at_decision", "pool_at_decision"))
def test_d2_forged_negative_certificate_refuted(d2_run, fuels, key, forged):
    t, d, _ = d2_run
    i = _first_negative(t)
    if key == "pool_at_decision":  # the one set a Case-2 record restates
        bad, rec = _reload(t), t.stages[i]
        bad.stages[i].certificates[key] = forged
    else:
        bad, rec = _forged_source(t, i, key, forged)
    report = verify_transcript(bad, audit_fuel=2, instance=d)
    assert _refuted_at(report, rec)
    assert fuels[0] <= t.config["window"]


@pytest.mark.parametrize("kind", ("em", "d2"))
def test_oracle_past_the_window_refuted(em_run, d2_run, fuels, kind):
    t = em_run[0] if kind == "em" else d2_run[0]
    window = t.config["window"]
    for oracle in ([window], [0, window - 1, window], [100000]):
        i = _positives(t)[0]
        report = verify_transcript(_forge(t, i, oracle), audit_fuel=2)
        assert _refuted_at(report, t.stages[i])
        assert fuels[0] <= window


@pytest.mark.parametrize("kind", ("em", "d2"))
def test_extraction_past_the_window_refuted(em_run, d2_run, fuels, kind):
    t, instance = em_run if kind == "em" else d2_run[:2]
    window = t.config["window"]
    for extraction in ([window], [3, 100000]):
        bad = _reload(t)
        bad.extraction["B"] = extraction
        report = verify_transcript(bad, audit_fuel=2, instance=instance)
        refuted = [f["note"] for f in report.findings
                   if f["grade"] == "refuted"]
        assert refuted == ["extracted set reaches past the window"]
        assert fuels[0] <= window


def test_rt2_forged_h_refuted_or_checked_without_raising():
    c = gen_coloring(0)
    t = rt2_pipeline(c, 60)[1]
    h = t.extraction["H"]
    bad = _reload(t)
    bad.extraction["H"] = h + [c.bound]
    report = verify_transcript(bad, audit_fuel=2, instance=c)
    assert report.findings[-1]["note"] == "extracted set reaches past the window"
    # an unsorted set is read pair by pair, smaller member first
    bad.extraction["H"] = list(reversed(h))
    report = verify_transcript(bad, audit_fuel=2, instance=c)
    assert report.findings[-1]["grade"] == "certified"
