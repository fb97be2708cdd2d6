"""Seeded instance generators.

Every generator derives all randomness from its seed argument and emits
its own ground truth (limit tables, stabilization bounds), so exactness
checks against generated instances need no search.  Declared bounds are
honored by construction and re-audited by the instance loader.  The module
constants fix what no caller varies; no seed string names them.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ..approx import Coloring, Delta2Presentation
from ..forcing.d2 import Delta2Partition
from ..trees import TableTree

N_RANGE, BOUND_MAX, COLUMNS = 64, 32, 96  # gen_delta2's rows, noise, length
STAB_MAX = 32  # the largest stabilization point of a stable instance
INDEX_BOUND, INPUT_BOUND = 1 << 16, 64  # gen_program_pairs' ranges
KEEP = 0.8  # the chance that gen_table_tree keeps each child


def gen_delta2(seed: int) -> Tuple[Delta2Presentation, Tuple[int, ...]]:
    """A 0/1 limit approximation plus its ground-truth limit row."""
    rng = random.Random(("delta2", seed).__repr__())
    bound = rng.randrange(2, BOUND_MAX + 1)
    limits = tuple(rng.randrange(2) for _ in range(N_RANGE))
    table = []
    for n in range(N_RANGE):
        noise = [rng.randrange(2) for _ in range(bound)]
        table.append(tuple(noise) + (limits[n],) * (COLUMNS - bound))
    return Delta2Presentation(table=tuple(table), promised_bound=bound), limits


def gen_stable_coloring(seed: int, k: int = 3, bound: int = 40) -> Coloring:
    """Pair coloring whose columns settle below a declared bound; the limit
    colors ride along as ground truth."""
    rng = random.Random(("stable-coloring", seed, k, bound).__repr__())
    stab = rng.randrange(2, STAB_MAX + 1)
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
    return Coloring(k=k, table=tuple(table), bound=bound,
                    declared_bound=stab, declared_limits=limits)


def gen_d2_partition(seed: int, k: int = 2,
                     bound: int = 64) -> Delta2Partition:
    rng = random.Random(("d2-partition", seed, k, bound).__repr__())
    stab = rng.randrange(2, STAB_MAX + 1)
    limits = tuple(rng.randrange(k) for _ in range(bound))
    table = []
    for n in range(bound):
        row = [rng.randrange(k) for _ in range(stab)] + [limits[n]]
        table.append(tuple(row))
    return Delta2Partition(k=k, table=tuple(table), bound=bound,
                           promised_bound=stab, declared_limits=limits)


def gen_coloring(seed: int, k: int = 2, bound: int = 48) -> Coloring:
    rng = random.Random(("coloring", seed, k, bound).__repr__())
    table = tuple(
        tuple(rng.randrange(k) for _ in range(x + 1, bound))
        for x in range(bound)
    )
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
