"""The auditor's extension-chain pass against a plain reference.

The reference rebuilds every stage's condition as a `CohCondition` or
`D2Condition`, asks `valid()` and `extends(cond, prev)` stage by stage.  On random mutations of honest coh,
EM and D2 stage chains, both must give the same findings in the same order.
The reference reads the chain in memory, where every stage holds its
condition; the auditor reads it written out and read back, where a
repeated condition is None.
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

from test_verify import _coh_run, _reload

TRIALS = 40


def _condition_from_dict(kind: str, d):
    rest = (d["I"], tuple(d["reservoir"]), d["window_bound"])
    if kind == "d2":
        return D2Condition(tuple(tuple(p) for p in d["F_parts"]), *rest)
    return CohCondition(tuple(d["F"]), *rest)


def _reference_chain(t: Transcript, report: AuditReport):
    prev = None
    for rec in t.stages:
        cond = _condition_from_dict(t.kind, rec.condition)
        if not cond.valid():
            report.add(REFUTED, "committed set reaches into the reservoir",
                       rec.stage, rec.requirement)
        if prev is not None:
            notes = []
            if not extends(cond, prev, notes):
                report.add(REFUTED,
                           "extension order violated: " + (notes[0] if notes
                                                           else "clause check"),
                           rec.stage, rec.requirement)
        prev = cond
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
    want = AuditReport()
    _reference_chain(honest, want)
    for t in (honest, _reload(honest)):
        got = AuditReport()
        _check_chain(t, got)
        assert got.findings == want.findings


def test_mutated_chains_match_reference(honest):
    rng = random.Random(f"chain-{honest.kind}")
    refuting = 0
    for _ in range(TRIALS):
        t = copy.deepcopy(honest)
        for _ in range(rng.randint(1, 8)):
            _mutate(rng, t)
        got, want = AuditReport(), AuditReport()
        _check_chain(_reload(t), got)
        _reference_chain(t, want)
        assert got.findings == want.findings
        refuting += want.counts[REFUTED] > 0
    assert refuting > TRIALS // 4  # the mutations reach the refutations
