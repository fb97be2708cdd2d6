"""Seeded instance generators.

Every generator derives all randomness from its seed argument and emits
its own ground truth (limit tables, stabilization bounds), so exactness
checks against generated instances need no search.  Declared bounds are
honored by construction and re-audited by the instance loader.  The module
constants fix what no caller varies; no seed string names them.

Each generator draws its ``rng.randrange(k)`` values in one call of
``_draws`` and slices its rows from the list.  ``_draws`` yields the same
values and leaves the generator in the same state as the calls would, so
an instance is the same for its seed whichever way it is drawn.
``randrange(k)`` takes the top b = ``k.bit_length()`` bits of one 32-bit
Mersenne Twister word and draws again while the value is k or more.  For
1 <= k <= 255, b is at most 8, so ``_draws`` takes a round of m values from
one ``getrandbits(32 * m)``: CPython (3.10 to 3.13 alike) fills that
number with m words from the same ``genrand_uint32`` calls whose top bits
``getrandbits(b)`` returns, low word first, so each value is the high byte
of one word shifted down, and ``bytes.translate`` maps the high bytes and
deletes those whose value is k or more.  A k outside 1..255 is
drawn one ``getrandbits(b)`` at a time.  The ``randrange(2, ...)`` draws of
a bound, ``gen_program_pairs`` (two ranges in turn) and ``gen_table_tree``
(``random()``) draw one call at a time.  ``forcingbench.trees`` is imported
only by ``gen_table_tree``, so making any other instance never loads it.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import accumulate, repeat
from typing import TYPE_CHECKING, List, Sequence, Tuple

from ..approx import Coloring, Delta2Partition, Delta2Presentation

if TYPE_CHECKING:
    from ..trees import TableTree

N_RANGE, BOUND_MAX, COLUMNS = 64, 32, 96  # gen_delta2's rows, noise, length
STAB_MAX = 32  # the largest stabilization point of a stable instance
INDEX_BOUND, INPUT_BOUND = 1 << 16, 64  # gen_program_pairs' ranges
KEEP = 0.8  # the chance that gen_table_tree keeps each child


@lru_cache(maxsize=None)
def _high_bytes(k: int) -> Tuple[bytes, bytes]:
    """``bytes.translate`` arguments taking a word's high byte to its top
    ``k.bit_length()`` bits, with the bytes whose value is k or more deleted."""
    shift = 8 - k.bit_length()
    table = bytes(v >> shift for v in range(256))
    return table, bytes(v for v in range(256) if table[v] >= k)


def _draws(rng: random.Random, k: int, n: int) -> List[int]:
    """n values of ``rng.randrange(k)``, drawn as CPython draws them: the bit
    length of k in random bits, drawn again while the value is k or more.
    A round draws no more values than are still needed, so the state ends
    where n calls would leave it."""
    if k < 1 and n > 0:
        raise ValueError(f"empty range for randrange({k})")
    out: List[int] = []
    if k < 256:
        table, rejected = _high_bytes(k)
        while len(out) < n:
            m = n - len(out)
            words = rng.getrandbits(32 * m).to_bytes(4 * m, "little")
            out += words[3::4].translate(table, rejected)
        return out
    bits = k.bit_length()
    while len(out) < n:
        out += [v for v in map(rng.getrandbits, repeat(bits, n - len(out)))
                if v < k]
    return out


def _rows(values: Sequence[int], widths) -> Tuple[Tuple[int, ...], ...]:
    """Consecutive slices of values, one of each width in turn."""
    ends = list(accumulate(widths))
    return tuple(tuple(values[end - w:end]) for w, end in zip(widths, ends))


def gen_delta2(seed: int) -> Tuple[Delta2Presentation, Tuple[int, ...]]:
    """A 0/1 limit approximation plus its ground-truth limit row."""
    rng = random.Random(("delta2", seed).__repr__())
    bound = rng.randrange(2, BOUND_MAX + 1)
    limits, *noise = _rows(_draws(rng, 2, N_RANGE * (1 + bound)),
                           [N_RANGE] + [bound] * N_RANGE)
    table = tuple(row + (limits[n],) * (COLUMNS - bound)
                  for n, row in enumerate(noise))
    return Delta2Presentation(table=table, promised_bound=bound), limits


def gen_stable_coloring(seed: int, k: int = 3, bound: int = 40) -> Coloring:
    """Pair coloring whose columns settle below a declared bound; the limit
    colors ride along as ground truth."""
    rng = random.Random(("stable-coloring", seed, k, bound).__repr__())
    stab = rng.randrange(2, STAB_MAX + 1)
    top = min(stab, bound)  # row x draws its colors at y < top
    widths = [max(top - x - 1, 0) for x in range(bound)]
    limits, *noise = _rows(_draws(rng, k, bound + sum(widths)),
                           [bound] + widths)
    table = tuple(row + (limits[x],) * (bound - max(top, x + 1))
                  for x, row in enumerate(noise))
    return Coloring(k=k, table=table, bound=bound,
                    declared_bound=stab, declared_limits=limits)


def gen_d2_partition(seed: int, k: int = 2,
                     bound: int = 64) -> Delta2Partition:
    rng = random.Random(("d2-partition", seed, k, bound).__repr__())
    stab = rng.randrange(2, STAB_MAX + 1)
    limits, *noise = _rows(_draws(rng, k, bound * (1 + stab)),
                           [bound] + [stab] * bound)
    table = tuple(row + (limits[n],) for n, row in enumerate(noise))
    return Delta2Partition(k=k, table=table, bound=bound,
                           promised_bound=stab, declared_limits=limits)


def gen_coloring(seed: int, k: int = 2, bound: int = 48) -> Coloring:
    rng = random.Random(("coloring", seed, k, bound).__repr__())
    widths = range(bound - 1, -1, -1)  # row x holds c(x, y) for x < y < bound
    table = _rows(_draws(rng, k, bound * (bound - 1) // 2), widths)
    return Coloring(k=k, table=table, bound=bound)


def gen_program_pairs(seed: int, count: int) -> List[Tuple[int, int]]:
    rng = random.Random(("programs", seed).__repr__())
    return [(rng.randrange(INDEX_BOUND), rng.randrange(INPUT_BOUND))
            for _ in range(count)]


def gen_table_tree(seed: int, depth: int = 12) -> TableTree:
    """Random downward-closed table tree guaranteed to survive to depth."""
    from ..trees import TableTree

    rng = random.Random(("table-tree", seed, depth).__repr__())
    levels = [{()}]
    for _ in range(depth):
        nxt = set()
        for node in sorted(levels[-1]):
            for b in (0, 1):
                if rng.random() < KEEP:
                    nxt.add(node + (b,))
        if not nxt:
            node = rng.choice(sorted(levels[-1]))
            nxt = {node + (rng.randrange(2),)}
        levels.append(nxt)
    return TableTree.from_level_sets(levels)
