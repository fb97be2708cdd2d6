"""Shared condition / certificate machinery."""

import pytest
from hypothesis import given, settings, strategies as st

from forcingbench import programs
from forcingbench.approx import Coloring
from forcingbench.forcing.base import (
    CohCondition,
    D2Condition,
    bounded_halt,
    extends,
    fallow_check,
    find_halt_witness,
    finite_oracle,
    limit_color,
    queries_oracle,
    stabilization_point,
    StageRecord,
    Transcript,
)
from forcingbench.machine import HALTED


def test_finite_oracle_window():
    w = finite_oracle([2, 5])
    assert w.bits == (0, 0, 1, 0, 0, 1)
    assert finite_oracle([]).bits == (0,)


def test_bounded_halt_end_extension_stable():
    # a halting outcome must survive adding larger elements: both the
    # step count and the use stay below the old bound
    e = programs.halt_if_member(3).index
    base = (1, 3, 6)
    out = bounded_halt(e, base)
    assert out.tag == HALTED
    for extra in (9, 20, 33):
        again = bounded_halt(e, base + (extra,))
        assert (again.tag, again.steps, again.use, again.value) == \
            (out.tag, out.steps, out.use, out.value)


def test_queries_oracle_flags():
    assert not queries_oracle(programs.HALT_ZERO.index)
    assert not queries_oracle(programs.LOOP.index)
    assert queries_oracle(programs.halt_if_member(0).index)


def test_find_halt_witness_positive():
    e = programs.halt_if_member(4).index
    w, record = find_halt_witness(e, (1,), (4, 6, 9))
    assert w is not None
    assert 4 in w.members
    assert bounded_halt(e, w.members).tag == HALTED
    assert record["subset_width"] == 3


def test_find_halt_witness_exhausts():
    e = programs.LOOP.index
    w, record = find_halt_witness(e, (), (1, 2, 3, 4))
    assert w is None
    assert record["query_free"]


def test_find_halt_witness_matches_enumeration():
    # the structured search agrees with plain subset enumeration
    from itertools import combinations
    e = programs.halt_if_member(7).index
    reservoir = (2, 4, 7, 9)
    w, _ = find_halt_witness(e, (), reservoir, subset_width=4)
    brute = None
    for size in range(len(reservoir) + 1):
        for added in combinations(reservoir, size):
            if bounded_halt(e, added).tag == HALTED:
                brute = added
                break
        if brute is not None:
            break
    assert (w is not None) == (brute is not None)
    if w is not None:
        assert bounded_halt(e, w.members).tag == HALTED


def test_extends_coh():
    q = CohCondition((0,), 0, (2, 3, 5, 8), 10)
    p = CohCondition((0, 3), 0, (5, 8), 10)
    assert extends(p, q)
    assert extends(q, q)
    # growth outside the old reservoir is rejected
    bad = CohCondition((0, 4), 0, (5, 8), 10)
    assert not extends(bad, q)
    # reservoir cannot grow
    bad = CohCondition((0,), 0, (2, 3, 5, 8, 9), 10)
    assert not extends(bad, q)
    notes = []
    assert not extends(CohCondition((0,), 0, (2,), 12), q, notes)
    assert "incomparable" in notes[0]


def test_extends_d2_part_identity():
    q = D2Condition(((0,), ()), 0, (3, 4, 5), 8)
    p = D2Condition(((0,), (3,)), 0, (4, 5), 8)
    assert extends(p, q)
    # moving a committed element across parts is not an extension
    swapped = D2Condition(((), (0, 3)), 0, (4, 5), 8)
    assert not extends(swapped, q)


def test_condition_validity():
    assert CohCondition((1, 2), 0, (3, 4), 8).valid()
    assert not CohCondition((5,), 0, (3,), 8).valid()
    assert D2Condition(((1,), (2,)), 0, (3,), 8).valid()
    assert not D2Condition(((1,), (4,)), 0, (3,), 8).valid()


def test_fallow_check_reports_least_triple():
    table = {(0, 1): 0, (0, 2): 1, (1, 2): 2}
    c = Coloring.from_function(3, 3, lambda x, y: table[(x, y)])
    rep = fallow_check(c, [0, 1, 2])
    assert not rep.ok
    assert rep.violation == (0, 1, 2)
    const = Coloring.from_function(2, 6, lambda x, y: 1)
    assert fallow_check(const, range(6)).ok


def test_limit_color_uses_declared_bound():
    c = Coloring.from_function(2, 10, lambda x, y: 0 if y >= 4 else 1)
    c = Coloring(k=2, table=c.table, bound=10, declared_bound=4)
    lim = limit_color(c, 1, budget=10)
    assert lim.color == 0
    # the last column has no pair above it inside the window
    assert limit_color(c, 9, budget=10) is None


def test_stabilization_point_exact():
    c = Coloring.from_function(2, 12, lambda x, y: 1 if y < 5 else 0)
    assert max(stabilization_point(c, x, 12) for x in (0, 1)) == 5
    const = Coloring.from_function(2, 8, lambda x, y: 1)
    assert stabilization_point(const, 0, 8) == 1
    # the top columns of the window: one pair above, then none; the
    # coloring reaches past the window, and no pair at or past it is read
    wide = Coloring.from_function(2, 16, lambda x, y: 1 if y < 12 else 0)
    assert stabilization_point(wide, 10, 12) == 11
    assert stabilization_point(wide, 11, 12) == 11
    assert max(stabilization_point(wide, x, 12) for x in (0, 11)) == 11
    assert stabilization_point(c, 11, 12) == 11


def test_transcript_round_trip():
    t = Transcript(kind="coh", instance_hash="ab", config={"stages": 3})
    t.stages.append(StageRecord(0, "E_1", "E-extension",
                                {"F": [0], "I": 0, "reservoir": [1],
                                 "window_bound": 4},
                                {"added": [0]}))
    t.extraction = {"C": [0]}
    clone = Transcript.from_dict(t.to_dict())
    assert clone.to_dict() == t.to_dict()


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=40), max_size=8),
       st.sets(st.integers(min_value=41, max_value=80), max_size=4),
       st.integers(min_value=0, max_value=7))
def test_bounded_halt_extension_property(base, extension, which):
    """Any halting verdict is preserved by end extensions of the oracle set."""
    e = [programs.HALT_ZERO, programs.LOOP, programs.HALT_IFF_EVEN,
         programs.halt_if_member(2), programs.halt_if_member(11),
         programs.halt_if_member(5), programs.ECHO,
         programs.halt_at_step(9)][which].index
    out = bounded_halt(e, base)
    if out.tag == HALTED:
        again = bounded_halt(e, sorted(base | extension))
        assert again.tag == HALTED
        assert (again.steps, again.use, again.value) == \
            (out.steps, out.use, out.value)
