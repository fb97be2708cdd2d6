"""The machine's run loop against a slow reference interpreter.

The reference below is written from the `forcingbench.machine` module
docstring alone: its own list decoding, one instruction per fuel unit, a
pc past the end of the code idling for ever, registers named mod 4, and
the use as one more than the largest oracle index queried.  It shares no
code with the machine, so a fast path that changes any outcome field
(`tag`, `value`, `steps`, `use`, `missing`) shows up here.
"""

import random
from math import isqrt

from hypothesis import given, settings, strategies as st

from forcingbench.forcing.base import D2Condition, extends
from forcingbench.machine import (
    HALTED,
    ORACLE_INSUFFICIENT,
    OUT_OF_FUEL,
    EMPTY_WINDOW,
    Machine,
    OracleWindow,
    RunOutcome,
    assemble,
    decode_program,
    fuel_sweep,
    run_program,
)
from forcingbench.pairing import encode_list


def _cantor(a, b):
    return (a + b) * (a + b + 1) // 2 + b


def _uncantor(z):
    s = (isqrt(8 * z + 1) - 1) // 2
    y = z - s * (s + 1) // 2
    return s - y, y


def _ref_decode(index):
    """[(op, a, b)]: list code n+1 is [head] + tail with (head, tail) =
    uncantor(n); an instruction code is 8 * cantor(a, b) + op."""
    code = []
    while index:
        head, index = _uncantor(index - 1)
        a, b = _uncantor(head // 8)
        code.append((head % 8, a, b))
    return code


def _ref_run(index, x, bits, fuel):
    code = _ref_decode(index)
    regs = [x, 0, 0, 0]
    pc, steps, top = 0, 0, -1
    while steps < fuel:
        steps += 1
        if pc >= len(code):
            continue  # idle
        op, a, b = code[pc]
        pc += 1
        if op == 0:
            return RunOutcome(HALTED, regs[a % 4], steps, top + 1)
        if op == 1:
            regs[a % 4] = b
        elif op == 2:
            regs[a % 4] += 1
        elif op == 3:
            regs[a % 4] = max(regs[a % 4] - 1, 0)
        elif op == 4:
            regs[a % 4] += regs[b % 4]
        elif op == 5:
            if regs[a % 4] == 0:
                pc = b
        elif op == 6:
            pc = a
        else:
            n = regs[a % 4]
            if n >= len(bits):
                return RunOutcome(ORACLE_INSUFFICIENT, None, steps, top + 1,
                                  missing=n)
            top = max(top, n)
            regs[a % 4] = bits[n]
    return RunOutcome(OUT_OF_FUEL, None, steps, top + 1)


def _small_program(rng):
    """Index of a random program with small operands, so that jumps land
    inside the code and queries inside small windows."""
    size = rng.randint(1, 7)
    return encode_list([8 * _cantor(rng.randrange(6), rng.randrange(size + 2))
                        + rng.randrange(8) for _ in range(size)])


def _random_case(rng):
    e = _small_program(rng) if rng.random() < 0.7 else rng.randrange(10**9)
    x = rng.randrange(12)
    bits = tuple(rng.randrange(2) for _ in range(rng.randrange(24)))
    return e, x, bits, rng.randint(1, 150)


def _same(e, x, bits, fuel):
    want = _ref_run(e, x, bits, fuel)
    got = run_program(e, x, OracleWindow(bits), fuel)
    assert (got.tag, got.value, got.steps, got.use, got.missing) == (
        want.tag, want.value, want.steps, want.use, want.missing), (e, x, bits, fuel)


def test_run_program_matches_reference_sweep():
    rng = random.Random(20)
    for _ in range(3000):
        _same(*_random_case(rng))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_run_program_matches_reference(seed):
    _same(*_random_case(random.Random(seed)))


def test_idle_program_burns_all_fuel():
    # index 0 is the empty program; `jmp 9` leaves a 1-instruction code
    for program, fuel in ((0, 1), (0, 57), (assemble("jmp 9"), 2),
                          (assemble("set r0 3\njz r1 40"), 500),
                          (assemble("jmp 5"), 10**6)):
        out = run_program(program, 0, EMPTY_WINDOW, fuel)
        assert out.tag == OUT_OF_FUEL and out.steps == fuel
        assert (out.use, out.value, out.missing) == (0, None, None)


def test_run_resumes_like_single_steps():
    rng = random.Random(21)
    for _ in range(300):
        e, x, bits, fuel = _random_case(rng)
        window = OracleWindow(bits)
        stepped = Machine(decode_program(e), x, window)
        for _ in range(fuel):
            stepped.step()
        chunked = Machine(decode_program(e), x, window)
        left = fuel
        while left:
            chunk = rng.randint(1, left)
            chunked.run(chunk)
            left -= chunk
        assert chunked.outcome() == stepped.outcome()
        assert (chunked.pc, chunked.regs) == (stepped.pc, stepped.regs)


def test_oracle_starvation():
    # query 2 (inside), then the input (outside the 5-bit window)
    prog = assemble("set r1 2\nqry r1\nqry r0\nhalt r0")
    out = run_program(prog, 9, OracleWindow((0, 0, 1, 0, 0)), 50)
    assert out.tag == ORACLE_INSUFFICIENT
    assert (out.missing, out.use, out.steps, out.value) == (9, 3, 3, None)
    out = run_program(prog, 4, OracleWindow((0, 0, 1, 0, 1)), 50)
    assert (out.tag, out.value, out.use, out.steps) == (HALTED, 1, 5, 4)
    # the empty window starves the first query
    out = run_program(assemble("qry r0"), 0, EMPTY_WINDOW, 3)
    assert (out.tag, out.missing, out.use, out.steps) == (ORACLE_INSUFFICIENT, 0, 0, 1)


def test_fuel_sweep_matches_fresh_runs():
    rng = random.Random(22)
    for _ in range(60):
        e, x, bits, _ = _random_case(rng)
        window = OracleWindow(bits)
        for k, out in enumerate(fuel_sweep(e, x, window, 40), start=1):
            assert out == run_program(e, x, window, k)


def test_repeated_decode_keeps_index():
    rng = random.Random(23)
    indices = [rng.randrange(10**12) for _ in range(50)] + list(range(200))
    for _ in range(3):
        for n in indices:
            assert decode_program(n).index == n
    assert decode_program(12345) == decode_program(12345)


def test_from_set_duplicates_and_out_of_range():
    rng = random.Random(24)
    for _ in range(300):
        bound = rng.randrange(20)
        members = [rng.randrange(-5, 30) for _ in range(rng.randrange(15))]
        members += members[: rng.randrange(len(members) + 1)]  # duplicates
        want = tuple(1 if n in set(members) else 0 for n in range(bound))
        assert OracleWindow.from_set(members, bound).bits == want
        assert OracleWindow.from_set(iter(members), bound).bits == want
    assert OracleWindow.from_set([3, 3, -1, 7], 0).bits == ()


def _ref_extends(p, q):
    """The extension order read off the definition, one element at a time."""
    if p.window_bound != q.window_bound:
        return False
    committed_p = [x for part in p.F_parts for x in part]
    committed_q = [x for part in q.F_parts for x in part]
    for x in committed_q:
        if x not in committed_p:
            return False
    for x in committed_p:
        if x not in committed_q and x not in q.reservoir:
            return False
    for x in p.reservoir:
        if x not in q.reservoir:
            return False
    for mine, theirs in zip(p.F_parts, q.F_parts):
        for x in theirs:
            if x not in mine:
                return False
    return True


def _random_d2(rng, window):
    parts = tuple(tuple(sorted(rng.sample(range(window), rng.randrange(4))))
                  for _ in range(2))
    reservoir = tuple(sorted(rng.sample(range(window), rng.randrange(window))))
    return D2Condition(parts, reservoir, window)


def test_extends_d2_against_plain_sets():
    rng = random.Random(25)
    agree = {True: 0, False: 0}
    for _ in range(2000):
        window = rng.choice((12, 12, 12, 14))
        q = _random_d2(rng, 12)
        if rng.random() < 0.6:
            # grow a part inside q's reservoir and shrink the reservoir,
            # then perturb some of the time
            parts = [set(part) for part in q.F_parts]
            for z in rng.sample(q.reservoir, min(len(q.reservoir), rng.randrange(3))):
                parts[rng.randrange(2)].add(z)
            if rng.random() < 0.2:
                parts.reverse()
            if rng.random() < 0.2:
                parts[rng.randrange(2)].add(rng.randrange(12))
            reservoir = [z for z in q.reservoir if rng.random() < 0.7]
            if rng.random() < 0.2:
                reservoir.append(rng.randrange(12))
            p = D2Condition(tuple(tuple(sorted(part)) for part in parts),
                            tuple(sorted(set(reservoir))), window)
        else:
            p = _random_d2(rng, window)
        want = _ref_extends(p, q)
        assert extends(p, q) == want, (p, q)
        agree[want] += 1
    assert min(agree.values()) > 200  # both answers are exercised
