"""The audit asks each negative on the chain's own sets.

Mathias forcing decides every requirement along one chain of conditions,
and the auditor's wider re-search of a negative decision re-asks one of
those decisions.  It asks it on the sets of the condition in effect before
the record, the last condition the record pass read: its committed set
(D2: the part of the record's colour) and its reservoir (D2: the pool of
the reservoir's members in that part).  A record restates those sets; a
restatement that differs is refuted once, at that record, which then gets
no re-search and no jump-ledger finding.  A record the pass refused to read
does not hide its successor's restatement: that is compared with the last
condition read.
"""

import pytest

from forcingbench.brute import d2_part
from forcingbench.forcing import verify, verify_transcript
from forcingbench.forcing.base import CASE1, CASE2, Transcript
from forcingbench.transcript import parse_label

from test_forged_oracles import d2_run, em_run  # noqa: F401  (fixtures)
from test_verify import _coh_run, _reload

RESTATED_F = "restated committed set is not the condition's before it"


@pytest.fixture(scope="module")
def coh_run():
    return _coh_run()[0]


@pytest.fixture
def runs(em_run, d2_run, coh_run):
    """kind: (transcript, instance)."""
    return {"em": em_run, "d2": d2_run[:2], "coh": (coh_run, None)}


@pytest.fixture
def searched(monkeypatch):
    """The (program, committed set, pool) of each re-search, in order."""
    calls = []
    find = verify.find_halt_witness

    def recorded(e, F, reservoir, subset_width=8, extra_filter=None):
        calls.append((e, list(F), list(reservoir)))
        return find(e, F, reservoir, subset_width, extra_filter)

    monkeypatch.setattr(verify, "find_halt_witness", recorded)
    return calls


def _negatives(t: Transcript):
    return [rec for rec in t.stages if rec.branch == CASE2
            and rec.requirement.startswith("N")]


def _chain_sets(t: Transcript, instance):
    """(program, committed set, pool) of each negative, read off the
    condition of the stage before it in memory, where every stage holds its
    condition (the start condition of the window before the first)."""
    out = []
    for rec in _negatives(t):
        _, e, color = parse_label(rec.requirement)
        if rec.stage:
            before = t.stages[rec.stage - 1].condition
            committed = (before["F_parts"][color] if t.kind == "d2"
                         else before["F"])
            pool = before["reservoir"]
        else:
            committed, pool = [], list(range(t.config["window"]))
        if t.kind == "d2":
            members = set(d2_part(instance, color))
            pool = [z for z in pool if z in members]
        out.append((e, committed, pool))
    return out


def _as_floats(t: Transcript) -> Transcript:
    """A copy of `t` whose negatives restate their sets as floats: equal to
    the chain's, but no list of naturals a search could read."""
    bad = _reload(t)
    for rec in _negatives(bad):
        cert = rec.certificates
        for key in ("F_at_decision", "reservoir_at_decision",
                    "pool_at_decision"):
            if key in cert:
                cert[key] = [float(z) for z in cert[key]]
    return bad


@pytest.mark.parametrize("kind", ("em", "d2", "coh"))
def test_each_honest_negative_is_searched_on_its_chain_sets(runs, searched,
                                                            kind):
    t, instance = runs[kind]
    want = _chain_sets(t, instance)
    assert want and any(pool for _, _, pool in want)
    honest = verify_transcript(_reload(t), audit_fuel=2, instance=instance)
    assert honest.counts["refuted"] == 0
    assert searched == want
    # the search reads the chain's lists, not the record's restatement
    searched.clear()
    report = verify_transcript(_as_floats(t), audit_fuel=2,
                               instance=instance)
    assert report.findings == honest.findings
    assert searched == want


@pytest.mark.parametrize("kind", ("em", "d2", "coh"))
def test_wrong_restatement_refuted_once_and_not_searched(runs, searched,
                                                         kind):
    t, instance = runs[kind]
    verify_transcript(t, audit_fuel=2, instance=instance)
    calls = len(searched)
    bad = _reload(t)
    rec = next(r for r in _negatives(bad) if r.certificates["F_at_decision"])
    rec.certificates["F_at_decision"] = []
    searched.clear()
    report = verify_transcript(bad, audit_fuel=2, instance=instance)
    at = [f for f in report.findings
          if (f["stage"], f["requirement"]) == (rec.stage, rec.requirement)]
    assert at == [{"grade": "refuted", "note": RESTATED_F,
                   "stage": rec.stage, "requirement": rec.requirement}]
    assert len(searched) == calls - 1
    assert report.counts["refuted"] == 1


def test_unread_record_leaves_the_next_restatement_checked(em_run):
    # a Case-1 record that commits, refused by the record pass, and the
    # next negative, which restates the condition that record committed
    t, c = em_run
    i, j = next((i, j) for i, rec in enumerate(t.stages)
                if rec.branch == CASE1 and i
                and rec.condition["F"] != t.stages[i - 1].condition["F"]
                for j in [next(n.stage for n in _negatives(t)
                               if n.stage > i)]
                if all(s.condition["F"] == rec.condition["F"]
                       for s in t.stages[i:j]))
    bad = _reload(t)
    bad.stages[i].branch = "Case3"
    report = verify_transcript(bad, audit_fuel=2, instance=c)
    refuted = [(f["stage"], f["note"]) for f in report.findings
               if f["grade"] == "refuted"]
    assert refuted == [(i, "branch is not one its kind writes"),
                       (j, RESTATED_F)]
