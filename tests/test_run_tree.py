"""`bounded_halt` and `query_free_status` read a per-process run tree per
program; every answer must be the one a fresh interpreter run gives.

The reference is the definition the tree replaced: `run_program` from
step 0 on input e, against `finite_oracle(members)` with fuel its bound.
Questions come in shuffled order, so a node's machine is asked at fuels
above and below the one it has reached, and trees are asked again after
they were evicted or dropped at their node cap.
"""

import random

import pytest

from forcingbench.forcing import base
from forcingbench.forcing.base import (
    RUN_TREE_CAP,
    bounded_halt,
    finite_oracle,
    queries_oracle,
    query_free_status,
)
from forcingbench.machine import (
    EMPTY_WINDOW,
    HALTED,
    OP_QRY,
    ORACLE_INSUFFICIENT,
    Machine,
    OracleWindow,
    assemble,
    decode_program,
    run_program,
)

from test_machine_loop import _small_program

# queries 0, 1, 2, ... for ever: one new node per query below the bound
COUNTER = assemble("set r1 0\nl: set r2 0\nadd r2 r1\nqry r2\ninc r1\njmp l")


def _fields(out):
    return (out.tag, out.value, out.steps, out.use, out.missing)


def _reference(e, members):
    window = finite_oracle(members)
    return run_program(e, e, window, window.bound)


def _assert_same(e, members):
    got, want = bounded_halt(e, members), _reference(e, members)
    assert _fields(got) == _fields(want), (e, members)


def _questions(rng, programs, count):
    out = []
    for _ in range(count):
        top = rng.randint(1, 45)
        members = sorted(rng.sample(range(top), rng.randint(0, min(top, 6))))
        out.append((rng.choice(programs), members))
    rng.shuffle(out)
    return out


def test_random_programs_and_sets_match_fresh_runs():
    rng = random.Random(130)
    programs = [_small_program(rng) for _ in range(300)] + list(range(200))
    for e, members in _questions(rng, programs, 20000):
        _assert_same(e, members)


def test_fuels_asked_out_of_order():
    # one program, every fuel from 1 to 60, in a shuffled order, with the
    # set {0, 2, 4, ...} cut at the fuel's bound
    rng = random.Random(131)
    for e in (COUNTER.index, 29, 59, 48) + tuple(
            _small_program(rng) for _ in range(40)):
        fuels = list(range(1, 61))
        rng.shuffle(fuels)
        for fuel in fuels:
            _assert_same(e, [n for n in range(0, fuel - 1, 2)] + [fuel - 1])


def test_empty_and_negative_member_sets():
    rng = random.Random(132)
    for e in [_small_program(rng) for _ in range(100)] + list(range(100)):
        _assert_same(e, ())
        _assert_same(e, [])
        _assert_same(e, [-4, 3, 7])
        for members in ([-1], [-3, -2]):
            with pytest.raises(ValueError, match="fuel must be >= 1"):
                _reference(e, members)
            with pytest.raises(ValueError, match="fuel must be >= 1"):
                bounded_halt(e, members)


def test_program_asked_again_after_eviction():
    rng = random.Random(133)
    e = COUNTER.index
    sets = [sorted(rng.sample(range(30), 6)) for _ in range(5)]
    for members in sets:
        _assert_same(e, members)
    tree = base._run_tree(e)
    for other in range(10**6, 10**6 + 4096):
        bounded_halt(other, [3])
    assert base._run_tree(e) is not tree  # evicted, and grown again
    for members in reversed(sets):
        _assert_same(e, members)


def test_tree_past_its_node_cap_is_dropped_and_grows_again():
    rng = random.Random(134)
    e = COUNTER.index
    tree = base._run_tree(e)
    roots = set()
    for _ in range(400):
        members = sorted(rng.sample(range(60), 12))
        _assert_same(e, members)
        # one question adds at most one node per step of its fuel
        assert tree.nodes <= RUN_TREE_CAP + max(members) + 1
        roots.add(id(tree.root))
    assert len(roots) > 1


def _parent_query_free_status(e, fuel_cap):
    if any(ins.op == OP_QRY for ins in decode_program(e).code):
        return ("queries",)
    out = run_program(e, e, EMPTY_WINDOW, fuel_cap)
    if out.tag == HALTED:
        return ("halts", out.steps)
    return ("diverges", fuel_cap)


def test_query_free_status_matches_its_definition():
    rng = random.Random(135)
    cases = [(e, cap) for e in range(300) for cap in range(1, 131)]
    rng.shuffle(cases)
    for e, cap in cases:
        assert query_free_status(e, cap) == _parent_query_free_status(e, cap)
        assert queries_oracle(e) == (query_free_status(e, cap) == ("queries",))


def _starved(rng):
    """A machine on input x stopped at a query past its window, or None."""
    e, x = _small_program(rng), rng.randrange(12)
    bits = tuple(rng.randrange(2) for _ in range(rng.randrange(6)))
    m = Machine(decode_program(e), x, OracleWindow(bits))
    m.run(rng.randint(1, 60))
    if m.outcome_tag != ORACLE_INSUFFICIENT:
        return None
    return e, x, bits, m


def test_answered_machine_runs_as_a_window_holding_the_bit():
    rng = random.Random(136)
    compared = 0
    while compared < 2000:
        case = _starved(rng)
        if case is None:
            continue
        e, x, bits, m = case
        q = m.missing
        for bit in (0, 1):
            fuel = m.steps + rng.randint(0, 80)
            resumed = m.answered(bit)
            resumed.run(fuel - resumed.steps)
            got = resumed.outcome()
            # the window the run takes: `bits`, then zeros up to the
            # answered index, which holds `bit`
            wider = bits + (0,) * (q - len(bits)) + (bit,)
            want = run_program(e, x, OracleWindow(wider), fuel)
            if got.tag == ORACLE_INSUFFICIENT and got.missing < len(wider):
                # the resumed machine still has only `bits`; the wider
                # window answers that query, so it can only run further
                assert want.steps >= got.steps
                continue
            assert _fields(got) == _fields(want), (e, x, bits, bit, fuel)
            compared += 1
        assert m.outcome_tag == ORACLE_INSUFFICIENT  # the original is kept


def test_answered_needs_a_starved_machine():
    m = Machine(decode_program(assemble("halt r0").index), 3, EMPTY_WINDOW)
    with pytest.raises(ValueError):
        m.answered(1)
    m.run(1)
    assert m.outcome_tag == HALTED
    with pytest.raises(ValueError):
        m.answered(0)
