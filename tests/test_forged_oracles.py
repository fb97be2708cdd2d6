"""A forged certificate oracle comes out refuted, never certified or a crash.

An honest oracle lists the naturals of a finite set in increasing order.
An oracle of negative numbers only used to make the replay raise (its
window bound, and so the fuel, fell below 1), and so did one with a
member that is not an integer; a negative member beside others was
dropped silently, so the replay could still match.
"""

import pytest

from forcingbench.forcing import run_d2, run_em, verify_transcript
from forcingbench.forcing.base import CASE1, Transcript
from forcingbench.harness import gen_d2_partition, gen_stable_coloring

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
