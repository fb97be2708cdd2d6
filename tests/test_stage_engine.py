"""The shared stage engine: D2's per-color decision counters and the guard
between condition kinds."""

from collections import Counter

import pytest

from forcingbench.forcing import run_d2
from forcingbench.forcing.base import (
    CASE1,
    CASE2,
    CohCondition,
    D2Condition,
    extends,
)
from forcingbench.harness import gen_d2_partition


def _color(requirement: str) -> int:
    return int(requirement.split("^")[1])


@pytest.mark.parametrize("seed", range(10))
def test_d2_counters_count_decisions_per_color(seed):
    d = gen_d2_partition(seed)
    t, _ = run_d2(d, 300)
    seen = Counter()
    for rec in t.stages:
        counters = rec.certificates.get("counters")
        if rec.branch in (CASE1, CASE2):
            seen[_color(rec.requirement)] += 1
            assert counters == [seen[i] for i in range(d.k)], rec.stage
        else:
            assert counters is None, rec.stage
    assert t.extraction["counters"] == [seen[i] for i in range(d.k)]


def test_extends_rejects_conditions_of_different_kinds():
    d2 = D2Condition(((0,), ()), (3, 4, 5), 8)
    coh = CohCondition((0,), (3, 4, 5), 8)
    with pytest.raises(TypeError):
        extends(d2, coh)
    with pytest.raises(TypeError):
        extends(coh, d2)
