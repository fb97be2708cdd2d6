"""The auditor's extension-chain pass against a plain reference.

The reference rebuilds every stage's condition as a `CohCondition` or
`D2Condition`, asks `valid()` and `extends(cond, prev)` stage by stage.  On random mutations of honest coh,
EM and D2 stage chains, both must give the same findings in the same order.
The chain is mutated whole, where every stage holds its condition, and
written in format 3 again (`conditions.rewrite`), where a condition is its
delta from the one before, None when repeated, and whole where it does not
extend it.  The auditor reads the written form; the reference reads each
stage's whole condition, and the written form only for its set rule: a
written list (whole, or a delta's) that is not strictly increasing
naturals below the window, or a delta that breaks the extension, is
refuted once, before every verdict, and leaves the chain unread until a
condition written whole.
"""

import copy
import random

import pytest

from forcingbench.forcing import run_d2, run_em
from forcingbench.forcing.base import (
    CohCondition,
    D2Condition,
    Transcript,
    extends,
)
from forcingbench.forcing.verify import (
    CERTIFIED,
    REFUTED,
    AuditReport,
    _check_chain,
)
from forcingbench.harness import gen_d2_partition, gen_stable_coloring

from conditions import expand, rewrite
from test_verify import _coh_run, _reload

TRIALS = 40


def _condition_from_dict(kind: str, d):
    rest = (tuple(d["reservoir"]), d["window_bound"])
    if kind == "d2":
        return D2Condition(tuple(tuple(p) for p in d["F_parts"]), *rest)
    return CohCondition(tuple(d["F"]), *rest)


def _increasing(xs, window) -> bool:
    return (all(type(x) is int and 0 <= x < window for x in xs)
            and all(a < b for a, b in zip(xs, xs[1:])))


def _unreadable(kind: str, written, prev) -> str:
    """Why the reference cannot read a written condition, or ''."""
    if "added" not in written:
        lists = (written["F_parts"] if kind == "d2" else [written["F"]]
                 ) + [written["reservoir"]]
        if not all(_increasing(xs, written["window_bound"]) for xs in lists):
            return ("condition's sets are not increasing lists of naturals "
                    "below its window bound")
        return ""
    adds = written["added"] if kind == "d2" else [written["added"]]
    parts = prev.F_parts if kind == "d2" else (prev.F,)
    if not all(_increasing(xs, prev.window_bound)
               for xs in adds + [written["removed"]]):
        return ("condition's delta is not increasing lists of naturals "
                "below the window")
    if any(z not in prev.reservoir or any(z <= x for x in part)
           for a, part in zip(adds, parts) for z in a):
        return ("added member is not in the reservoir before it, above its "
                "committed set")
    if any(z not in prev.reservoir for z in written["removed"]):
        return "removed member is not in the reservoir before it"
    return ""


def _reference_chain(t: Transcript, whole, report: AuditReport):
    """`t` written in format 3, and `whole`, each stage's whole condition."""
    prev, unread, verdicts = None, False, []
    for rec, d in zip(t.stages, whole):
        written, notes = rec.condition, []
        if written is not None and not (unread and "added" in written):
            fault = _unreadable(t.kind, written, prev)
            if fault:
                report.add(REFUTED, fault, rec.stage, rec.requirement)
                unread = True
                continue
            cond = _condition_from_dict(t.kind, d)
            if prev is not None and not unread and not extends(cond, prev,
                                                               notes):
                notes.append("clause check")
            prev, unread = cond, False
        if not unread and not prev.valid():
            verdicts.append(("committed set reaches into the reservoir", rec))
        if notes:
            verdicts.append(("extension order violated: " + notes[0], rec))
    for note, rec in verdicts:
        report.add(REFUTED, note, rec.stage, rec.requirement)
    report.add(CERTIFIED, f"extension chain over {len(t.stages)} stages")


RUNS = {
    "coh": lambda: _coh_run()[0],
    "em": lambda: run_em(gen_stable_coloring(0), 200)[0],
    "d2": lambda: run_d2(gen_d2_partition(0), 300)[0],
}


def _committed_lists(d):
    return d["F_parts"] if "F_parts" in d else [d["F"]]


def _repeat(t: Transcript, i: int, n: int):
    """Make the `n` stages after stage `i` record its condition."""
    for rec in t.stages[i + 1:i + 1 + n]:
        rec.condition.clear()
        rec.condition.update(copy.deepcopy(t.stages[i].condition))


def _mutate(rng: random.Random, t: Transcript):
    """One random change to one stage's condition, in place."""
    i = rng.randrange(len(t.stages))
    d = t.stages[i].condition
    part = rng.choice(_committed_lists(d))
    res = d["reservoir"]
    how = rng.randrange(8)
    if how == 0 and i > 0:  # repeat the stage before
        d.clear()
        d.update(copy.deepcopy(t.stages[i - 1].condition))
    elif how == 1:  # the next few stages repeat this one
        _repeat(t, i, rng.randint(1, 4))
    elif how == 2 and res:  # commit a reservoir member, keep it reserved,
        part.append(rng.choice(res))  # and maybe repeat that
        part.sort()
        _repeat(t, i, rng.randint(0, 3))
    elif how == 3 and part:  # drop a committed member
        part.remove(rng.choice(part))
    elif how == 4:  # grow the reservoir
        res.append(rng.randrange(d["window_bound"] + 2))
        res[:] = sorted(set(res))
    elif how == 5 and res:  # shrink the reservoir
        res.remove(rng.choice(res))
    elif how == 6:  # move the window
        d["window_bound"] += rng.choice((-1, 1))
    elif how == 7 and "F_parts" in d and len(d["F_parts"]) > 1:
        a, b = rng.sample(range(len(d["F_parts"])), 2)
        d["F_parts"][a], d["F_parts"][b] = d["F_parts"][b], d["F_parts"][a]


@pytest.fixture(scope="module", params=sorted(RUNS))
def honest(request):
    return RUNS[request.param]()


def test_honest_chain_matches_reference(honest):
    want, whole = AuditReport(), copy.deepcopy(honest)
    expand(whole)
    _reference_chain(honest, [r.condition for r in whole.stages], want)
    for t in (honest, _reload(honest)):
        got = AuditReport()
        _check_chain(t, got)
        assert got.findings == want.findings


def test_mutated_chains_match_reference(honest):
    rng = random.Random(f"chain-{honest.kind}")
    refuting = 0
    for _ in range(TRIALS):
        t = copy.deepcopy(honest)
        expand(t)
        for _ in range(rng.randint(1, 8)):
            _mutate(rng, t)
        whole = [rec.condition for rec in t.stages]
        rewrite(t)
        got, want = AuditReport(), AuditReport()
        _check_chain(_reload(t), got)
        _reference_chain(t, whole, want)
        assert got.findings == want.findings
        refuting += want.counts[REFUTED] > 0
    assert refuting > TRIALS // 4  # the mutations reach the refutations
