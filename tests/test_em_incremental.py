"""EM's incremental fallowness check against the full definition, and the
precondition it relies on: every committed F is fallow and meets the
limit-color condition."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from forcingbench.approx import Coloring
from forcingbench.forcing import run_em
from forcingbench.forcing.em import valid_em_extension
from forcingbench.harness import gen_stable_coloring
from forcingbench.harness.transcripts import transcript_hash

from conditions import whole
from oracles import is_fallow

SRC = Path(__file__).resolve().parents[1] / "src"


def limit_consistent(c, s, limits):
    """lim(x) ∈ {c(x,y), lim(y)} on every pair x < y of s."""
    s = sorted(s)
    for i, x in enumerate(s):
        for y in s[i + 1:]:
            lx, ly = limits.get(x), limits.get(y)
            if lx is None or ly is None or lx not in (c.value(x, y), ly):
                return False
    return True


def full_definition(c, s, limits):
    return is_fallow(c, s) and limit_consistent(c, s, limits)


@st.composite
def extensions(draw, size):
    """(coloring, fallow limit-consistent F grown greedily, E disjoint from
    F with `size` elements, limits), with some columns lacking a limit."""
    k = draw(st.integers(2, 3))
    bound = draw(st.integers(size + 1, 11))
    table = tuple(
        tuple(draw(st.integers(0, k - 1)) for _ in range(x + 1, bound))
        for x in range(bound))
    c = Coloring(k=k, table=table, bound=bound)
    column = st.sampled_from((None,) + tuple(range(k)) * 3)
    limits = {x: lim for x in range(bound)
              if (lim := draw(column)) is not None}
    order = draw(st.permutations(range(bound)))
    f_size = draw(st.integers(0, bound - size))
    F = []
    for x in order:
        if len(F) == f_size:
            break
        if full_definition(c, F + [x], limits):
            F.append(x)
    rest = [x for x in range(bound) if x not in F]
    E = draw(st.lists(st.sampled_from(rest), min_size=size, max_size=size,
                      unique=True))
    return c, tuple(sorted(F)), tuple(E), limits


@pytest.mark.parametrize("size", [1, 2, 3, 4])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_incremental_check_matches_full_definition(size, data):
    c, F, E, limits = data.draw(extensions(size))
    assert full_definition(c, F, limits)  # the precondition
    assert valid_em_extension(c, F, E, limits) == \
        full_definition(c, F + E, limits)


def test_triple_of_new_elements_only():
    # every triple through one new element and F is fine; only the triple
    # (1, 2, 3) of three new elements breaks fallowness
    colors = {(0, 1): 0, (0, 2): 0, (0, 3): 0,
              (1, 2): 0, (1, 3): 1, (2, 3): 0}
    c = Coloring.from_function(2, 4, lambda x, y: colors[x, y])
    limits = {x: 0 for x in range(4)}
    assert valid_em_extension(c, (0,), (1, 2), limits)
    assert valid_em_extension(c, (0,), (2, 3), limits)
    assert not is_fallow(c, (1, 2, 3))
    assert not valid_em_extension(c, (0,), (1, 2, 3), limits)
    assert not valid_em_extension(c, (), (1, 2, 3), limits)


@pytest.mark.parametrize("seed", range(10))
def test_committed_sets_meet_the_precondition(seed):
    c = gen_stable_coloring(seed)
    limits = dict(enumerate(c.declared_limits))
    t, _ = run_em(c, 200)
    for stage, cond in enumerate(whole(t.stages)):
        F = cond["F"]
        assert is_fallow(c, F), f"stage {stage}"
        assert limit_consistent(c, F, limits), f"stage {stage}"


def _fresh_em_hash(seed: int) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = ("from forcingbench.forcing import run_em\n"
            "from forcingbench.harness import gen_stable_coloring, "
            "transcript_hash\n"
            f"print(transcript_hash(run_em(gen_stable_coloring({seed}), "
            "200)[0]))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return out.stdout.strip()


def test_no_run_cache_leaks_into_the_next_run():
    c1, c2 = gen_stable_coloring(3), gen_stable_coloring(4)
    first = transcript_hash(run_em(c1, 200)[0])
    run_em(c2, 200)
    again = transcript_hash(run_em(c1, 200)[0])
    assert first == again == _fresh_em_hash(3)
