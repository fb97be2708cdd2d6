"""Seeded instance generators.

Every generator derives all randomness from its seed argument and emits
its own ground truth (limit tables, stabilization bounds), so exactness
checks against generated instances need no search.  Declared bounds are
honored by construction and re-audited by the instance loader.  The module
constants fix what no caller varies; no seed string names them.

Each run of ``rng.randrange(k)`` calls is drawn in bulk by ``_draws``, which
yields the same values and leaves the generator in the same state as the
calls would, so an instance is the same for its seed whichever way it is
drawn.  The ``randrange(2, ...)`` draws of a bound, ``gen_program_pairs``
(two ranges in turn) and ``gen_table_tree`` (``random()``) draw one at a time.
"""

from __future__ import annotations

import random
from itertools import islice, repeat
from typing import List, Tuple

from ..approx import Coloring, Delta2Presentation
from ..forcing.d2 import Delta2Partition
from ..trees import TableTree

N_RANGE, BOUND_MAX, COLUMNS = 64, 32, 96  # gen_delta2's rows, noise, length
STAB_MAX = 32  # the largest stabilization point of a stable instance
INDEX_BOUND, INPUT_BOUND = 1 << 16, 64  # gen_program_pairs' ranges
KEEP = 0.8  # the chance that gen_table_tree keeps each child


def _draws(rng: random.Random, k: int, n: int) -> List[int]:
    """n values of ``rng.randrange(k)``, drawn as CPython draws them: the bit
    length of k in random bits, drawn again while the value is k or more.
    A round draws no more values than are still needed, so the state ends
    where n calls would leave it."""
    if k < 1 and n > 0:
        raise ValueError(f"empty range for randrange({k})")
    bits, out = k.bit_length(), []
    while len(out) < n:
        out += [v for v in map(rng.getrandbits, repeat(bits, n - len(out)))
                if v < k]
    return out


def gen_delta2(seed: int) -> Tuple[Delta2Presentation, Tuple[int, ...]]:
    """A 0/1 limit approximation plus its ground-truth limit row."""
    rng = random.Random(("delta2", seed).__repr__())
    bound = rng.randrange(2, BOUND_MAX + 1)
    limits = tuple(_draws(rng, 2, N_RANGE))
    noise = iter(_draws(rng, 2, N_RANGE * bound))
    table = tuple(tuple(islice(noise, bound)) + (limits[n],) * (COLUMNS - bound)
                  for n in range(N_RANGE))
    return Delta2Presentation(table=table, promised_bound=bound), limits


def gen_stable_coloring(seed: int, k: int = 3, bound: int = 40) -> Coloring:
    """Pair coloring whose columns settle below a declared bound; the limit
    colors ride along as ground truth."""
    rng = random.Random(("stable-coloring", seed, k, bound).__repr__())
    stab = rng.randrange(2, STAB_MAX + 1)
    limits = tuple(_draws(rng, k, bound))
    top = min(stab, bound)  # row x draws its colors at y < top
    table = tuple(tuple(_draws(rng, k, top - x - 1))
                  + (limits[x],) * (bound - max(top, x + 1))
                  for x in range(bound))
    return Coloring(k=k, table=table, bound=bound,
                    declared_bound=stab, declared_limits=limits)


def gen_d2_partition(seed: int, k: int = 2,
                     bound: int = 64) -> Delta2Partition:
    rng = random.Random(("d2-partition", seed, k, bound).__repr__())
    stab = rng.randrange(2, STAB_MAX + 1)
    limits = tuple(_draws(rng, k, bound))
    noise = iter(_draws(rng, k, bound * stab))
    table = tuple(tuple(islice(noise, stab)) + (limits[n],)
                  for n in range(bound))
    return Delta2Partition(k=k, table=table, bound=bound,
                           promised_bound=stab, declared_limits=limits)


def gen_coloring(seed: int, k: int = 2, bound: int = 48) -> Coloring:
    rng = random.Random(("coloring", seed, k, bound).__repr__())
    colors = iter(_draws(rng, k, bound * (bound - 1) // 2))
    table = tuple(tuple(islice(colors, bound - x - 1)) for x in range(bound))
    return Coloring(k=k, table=table, bound=bound)


def gen_program_pairs(seed: int, count: int) -> List[Tuple[int, int]]:
    rng = random.Random(("programs", seed).__repr__())
    return [(rng.randrange(INDEX_BOUND), rng.randrange(INPUT_BOUND))
            for _ in range(count)]


def gen_table_tree(seed: int, depth: int = 12) -> TableTree:
    """Random downward-closed table tree guaranteed to survive to depth."""
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
