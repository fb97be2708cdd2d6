"""Free-set construction for stable colorings."""

from itertools import product

import pytest

from forcingbench.approx import Coloring
from forcingbench.forcing import run_em, verify_transcript
from forcingbench.forcing.base import CASE2
from forcingbench.forcing.em import (
    EmConfig,
    PartitionCapExceeded,
    _find_bad_partition,
    em_clause_flags,
    valid_em_extension,
)
from forcingbench.harness import gen_stable_coloring
from forcingbench.harness.transcripts import transcript_hash

from oracles import is_fallow


def _mod3_coloring(bound=40):
    c = Coloring.from_function(3, bound, lambda x, y: x % 3)
    return Coloring(k=3, table=c.table, bound=bound, declared_bound=1)


def test_run_em_mod3():
    t, b = run_em(_mod3_coloring(), 150)
    assert len(b) >= 5
    assert is_fallow(_mod3_coloring(), b)
    assert t.extraction["fallow"]


def test_em_bound_above_window():
    # the coloring runs past the window of 40, so the window's last column
    # has a limit color and can be committed with no pair above it inside
    # the window
    for seed in range(5):
        c = gen_stable_coloring(seed, bound=64)
        t, b = run_em(c, 200)
        assert t.config["window"] == 40 and c.bound == 64
        assert is_fallow(c, b), seed
        report = verify_transcript(t, audit_fuel=2, instance=c)
        assert report.counts["refuted"] == 0, seed


def test_em_generated_instances_fallow():
    for seed in range(3):
        c = gen_stable_coloring(seed)
        t, b = run_em(c, 200)
        assert len(b) >= 2, f"seed {seed}"
        assert is_fallow(c, b), f"seed {seed}"
        report = verify_transcript(t, audit_fuel=2, instance=c)
        assert report.counts["refuted"] == 0, f"seed {seed}"


def test_em_no_negative_size_requirements():
    t, _ = run_em(gen_stable_coloring(1), 200)
    for rec in t.stages:
        if rec.requirement.startswith("E") and rec.branch == CASE2:
            pytest.fail("size requirement decided negatively")


def test_find_bad_partition_matches_enumeration():
    members = (3, 5, 8, 11, 13)
    k = 3

    def compatible(piece):
        # a piece is fine when it keeps at least two odd members
        return sum(1 for z in piece if z % 2 == 1) >= 2

    got = _find_bad_partition(members, k, compatible, cap=3 ** 9)
    brute_exists = False
    for assign in product(range(k), repeat=len(members)):
        pieces = [frozenset(m for m, a in zip(members, assign) if a == i)
                  for i in range(k)]
        if all(not compatible(p) for p in pieces):
            brute_exists = True
            break
    assert (got is not None) == brute_exists
    if got is not None:
        assert all(not compatible(frozenset(p)) for p in got)
        covered = sorted(x for p in got for x in p)
        assert covered == sorted(members)


def test_find_bad_partition_empty_piece_shortcut():
    # when the empty piece is compatible, monotonicity rules out any bad
    # partition without search
    got = _find_bad_partition((1, 2, 3), 2, lambda piece: True, cap=1)
    assert got is None


def test_find_bad_partition_cap():
    members = tuple(range(12))

    def compatible(piece):
        return len(piece) >= 13  # never satisfied, forces a full search

    with pytest.raises(PartitionCapExceeded):
        _find_bad_partition(members, 3, compatible, cap=10)


def test_valid_em_extension():
    c = _mod3_coloring()
    limits = {x: x % 3 for x in range(c.bound)}
    # 0 and 3 share a limit class, so adjoining 3 stays one step from fallow
    assert valid_em_extension(c, (0,), (3,), limits)
    flags = em_clause_flags(c, (0, 3), tuple(range(4, 20)), 4)
    assert "iv-fallow" in flags


def test_em_deterministic():
    c = gen_stable_coloring(7)
    t1, _ = run_em(c, 120)
    t2, _ = run_em(c, 120)
    assert transcript_hash(t1) == transcript_hash(t2)
