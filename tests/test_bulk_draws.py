"""Bulk draws in the instance generators equal one-at-a-time draws.

`generators._draws(rng, k, n)` stands in for n calls of `rng.randrange(k)`:
it must give the same values and leave the generator in the same state.
Each generator that draws through it is compared with a copy of its
one-call-at-a-time loop, written out here as the reference, on the same
seed string; equal output and equal final state mean every later
instance drawn from the same stream is unchanged too.
"""

import random

import pytest

from forcingbench.approx import Coloring, Delta2Presentation
from forcingbench.forcing.d2 import Delta2Partition
from forcingbench.harness import generators as g

SEEDS = range(30)
Random = random.Random  # the reference loops' own, never the spy below


@pytest.mark.parametrize("n", [0, 1, 2, 9, 100])
def test_draws_equal_randrange_for_every_small_k(n):
    for k in range(1, 256):
        for seed in range(3):
            bulk, calls = random.Random(seed), random.Random(seed)
            assert g._draws(bulk, k, n) == [calls.randrange(k)
                                            for _ in range(n)], (k, seed)
            assert bulk.getstate() == calls.getstate(), (k, seed)


def test_draws_equal_randrange_for_wide_k():
    for k in (256, 1000, 2**31 - 1, 2**32, 2**32 + 1, 10**20):
        bulk, calls = random.Random(k), random.Random(k)
        assert g._draws(bulk, k, 50) == [calls.randrange(k) for _ in range(50)]
        assert bulk.getstate() == calls.getstate()


@pytest.mark.parametrize("k", [0, -1])
def test_empty_range_refused_as_randrange_refuses_it(k):
    with pytest.raises(ValueError):
        random.Random(0).randrange(k)
    with pytest.raises(ValueError):
        g._draws(random.Random(0), k, 1)
    assert g._draws(random.Random(0), k, 0) == []


# the reference loops: one randrange call per value, in the order the
# generators drew them before `_draws`

def ref_delta2(seed):
    rng = Random(("delta2", seed).__repr__())
    bound = rng.randrange(2, g.BOUND_MAX + 1)
    limits = tuple(rng.randrange(2) for _ in range(g.N_RANGE))
    table = []
    for n in range(g.N_RANGE):
        noise = [rng.randrange(2) for _ in range(bound)]
        table.append(tuple(noise) + (limits[n],) * (g.COLUMNS - bound))
    out = Delta2Presentation(table=tuple(table), promised_bound=bound), limits
    return out, rng.getstate()


def ref_stable_coloring(seed, k=3, bound=40):
    rng = Random(("stable-coloring", seed, k, bound).__repr__())
    stab = rng.randrange(2, g.STAB_MAX + 1)
    limits = tuple(rng.randrange(k) for _ in range(bound))
    table = []
    for x in range(bound):
        row = []
        for y in range(x + 1, bound):
            if y < stab:
                row.append(rng.randrange(k))
            else:
                row.append(limits[x])
        table.append(tuple(row))
    out = Coloring(k=k, table=tuple(table), bound=bound,
                   declared_bound=stab, declared_limits=limits)
    return out, rng.getstate()


def ref_d2_partition(seed, k=2, bound=64):
    rng = Random(("d2-partition", seed, k, bound).__repr__())
    stab = rng.randrange(2, g.STAB_MAX + 1)
    limits = tuple(rng.randrange(k) for _ in range(bound))
    table = []
    for n in range(bound):
        row = [rng.randrange(k) for _ in range(stab)] + [limits[n]]
        table.append(tuple(row))
    out = Delta2Partition(k=k, table=tuple(table), bound=bound,
                          promised_bound=stab, declared_limits=limits)
    return out, rng.getstate()


def ref_coloring(seed, k=2, bound=48):
    rng = Random(("coloring", seed, k, bound).__repr__())
    table = tuple(
        tuple(rng.randrange(k) for _ in range(x + 1, bound))
        for x in range(bound)
    )
    return Coloring(k=k, table=table, bound=bound), rng.getstate()


class _Spy(Random):
    """A Random whose final state the test can read after a generator ran."""

    last = None

    def __init__(self, x=None):
        super().__init__(x)
        _Spy.last = self


@pytest.fixture
def spy(monkeypatch):
    monkeypatch.setattr(g.random, "Random", _Spy)
    return lambda: _Spy.last.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_generators_equal_reference_loops_at_defaults(seed, spy):
    for gen, ref in ((g.gen_delta2, ref_delta2),
                     (g.gen_stable_coloring, ref_stable_coloring),
                     (g.gen_d2_partition, ref_d2_partition),
                     (g.gen_coloring, ref_coloring)):
        made = gen(seed)
        assert (made, spy()) == ref(seed), gen.__name__


# k = 1 rejects half its draws; a bound below STAB_MAX can fall under the
# drawn stab, and then a stable coloring's noise stops at the bound
@pytest.mark.parametrize("k, bound", [(1, 1), (1, 10), (2, 2), (3, 10),
                                      (5, 24), (4, 33), (7, 40)])
def test_generators_equal_reference_loops_off_defaults(k, bound, spy):
    for seed in SEEDS:
        for gen, ref in ((g.gen_stable_coloring, ref_stable_coloring),
                         (g.gen_d2_partition, ref_d2_partition),
                         (g.gen_coloring, ref_coloring)):
            made = gen(seed, k=k, bound=bound)
            assert (made, spy()) == ref(seed, k=k, bound=bound), \
                (gen.__name__, seed)
