"""The triple scans that read color rows, against from-scratch twins.

A run of EM answers every extension question from its `_Extensions` memo,
which scans only what F gained since it last looked at a member.  Here
every answer is also computed by `valid_em_extension` on the same (F, E),
and the two must agree on whole runs and on random chains of growing F.
In a run a member is asked about only while it sits in the reservoir,
beyond the stabilization points of F, where no later member of F can
spoil its verdict; the random chains ask about any member.  `fallow_check` reads each pair's
color once into rows; a plain triple loop over `c.value` must report the
same verdict and the same least triple.
"""

import pytest
from hypothesis import given, settings, strategies as st

from forcingbench import programs
from forcingbench.approx import Coloring
from forcingbench.forcing import em, run_em
from forcingbench.forcing.base import color_rows, fallow_check
from forcingbench.harness import gen_stable_coloring


def memo_twin(monkeypatch, c):
    """Patch the memo so every answer is checked against
    `valid_em_extension`; returns the list of (F, E) it was asked."""
    fast = em._Extensions.allows
    asked = []

    def both(self, F, E):
        got = fast(self, F, E)
        want = em.valid_em_extension(c, F, E, self.limits)
        assert got == want, (len(asked), F, E, got, want)
        asked.append((tuple(F), tuple(E)))
        return got

    monkeypatch.setattr(em._Extensions, "allows", both)
    return asked


# seeds 6 and 25 ask about two or more new members at once; 0-4 never do
@pytest.mark.parametrize("seed, bound", [(s, 40) for s in (0, 1, 2, 3, 4)]
                         + [(6, 40), (25, 40), (0, 64), (1, 64)])
def test_memo_matches_valid_em_extension(monkeypatch, seed, bound):
    c = gen_stable_coloring(seed, bound=bound)
    asked = memo_twin(monkeypatch, c)
    run_em(c, 200)
    assert asked
    if seed in (6, 25):
        assert any(len(set(E) - set(F)) > 1 for F, E in asked)


@st.composite
def growth_chains(draw):
    """(coloring, limits, a chain of F's each grown only by members that
    keep it a valid extension, and the questions asked at each F)."""
    k = draw(st.integers(2, 3))
    bound = draw(st.integers(2, 11))
    table = tuple(
        tuple(draw(st.integers(0, k - 1)) for _ in range(x + 1, bound))
        for x in range(bound))
    c = Coloring(k=k, table=table, bound=bound)
    column = st.sampled_from((None,) + tuple(range(k)) * 3)
    limits = {x: lim for x in range(bound)
              if (lim := draw(column)) is not None}
    members = st.integers(0, bound - 1)
    F, chain = (), []
    for _ in range(draw(st.integers(1, 6))):
        questions = draw(st.lists(st.sets(members, min_size=1, max_size=3),
                                  max_size=6))
        chain.append((F, questions))
        grow = draw(st.sets(members, max_size=2))
        if em.valid_em_extension(c, F, grow, limits):
            F = F + tuple(sorted(grow - set(F)))
    return c, limits, chain


@settings(max_examples=300, deadline=None)
@given(growth_chains())
def test_memo_matches_valid_em_extension_as_F_grows(case):
    c, limits, chain = case
    ext = em._Extensions(color_rows(c, range(c.bound)), limits)
    for F, questions in chain:
        for E in questions:
            assert ext.allows(F, E) == em.valid_em_extension(c, F, E, limits)


def brute_least_triple(c, s):
    """The least x < y < z of s with c(x,z) outside {c(x,y), c(y,z)}."""
    elems = sorted(s)
    for a, x in enumerate(elems):
        for b in range(a + 1, len(elems)):
            y = elems[b]
            for z in elems[b + 1:]:
                if c.value(x, z) not in (c.value(x, y), c.value(y, z)):
                    return (x, y, z)
    return None


def same_as_brute(c, s):
    rep = fallow_check(c, s)
    least = brute_least_triple(c, s)
    assert rep.ok == (least is None)
    assert rep.violation == least


@st.composite
def colorings_and_sets(draw):
    k = draw(st.integers(1, 3))
    bound = draw(st.integers(1, 12))
    table = tuple(
        tuple(draw(st.integers(0, k - 1)) for _ in range(x + 1, bound))
        for x in range(bound))
    s = draw(st.sets(st.integers(0, bound - 1)))
    return Coloring(k=k, table=table, bound=bound), s


@settings(max_examples=300, deadline=None)
@given(colorings_and_sets())
def test_fallow_check_matches_brute_force(case):
    same_as_brute(*case)


@settings(max_examples=20, deadline=None)
@given(st.sets(st.integers(0, 9), max_size=7))
def test_fallow_check_on_program_coloring(s):
    # c(x, y) = cantor(x, y) mod 3, computed by a machine program
    c = Coloring(k=3, program=programs.mod_decider(3), budget=4096)
    same_as_brute(c, s)
