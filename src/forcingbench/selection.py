"""Side selection, a leaf module: on which side of a set, or in which part
of a partition, a window stays infinite.  It is one rule on int bitmasks
(`select_side_mask`, and `select_part_mask` over a partition), read off
with `int.bit_count` and `int.bit_length`; `select_side` and `select_part`
apply it to bit tuples.  The constructions in `forcing/` call it on
bitmasks of their reservoirs and partitions, and `omega_model` on the
decided windows of model rows."""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

INTERSECT_SIDE = "intersect"
COMPLEMENT_SIDE = "complement"


class PreconditionViolation(RuntimeError):
    """A documented operation precondition failed; reported, never silent."""


class SelectOutcome(NamedTuple):
    side: str  # INTERSECT_SIDE | COMPLEMENT_SIDE
    by: str  # "search": the tail search stopped; "default": it ran out
    count_intersect: int
    count_complement: int


def window_mask(bits) -> int:
    """The int bitmask of a bit window: bit x set when `bits[x]` is."""
    return int("".join("1" if b else "0" for b in reversed(bits)) or "0", 2)


def set_mask(members) -> int:
    """The int bitmask of a set of naturals: bit x set for member x."""
    mask = 0
    for x in members:
        mask |= 1 << x
    return mask


def select_side_mask(wi: int, wj: int, bound: int,
                     fuel: Optional[int] = None) -> SelectOutcome:
    """The selection rule of `select_side`, on windows i and j given as int
    bitmasks (bit x is member x) and compared below `bound`.  Only the last
    member of window i on each side of window j decides where the tail
    search stops, so the counts and the search are read off the two sides'
    masks with `int.bit_count` and `int.bit_length`."""
    if fuel is not None and fuel < 0:
        raise PreconditionViolation(f"negative fuel {fuel}")
    wi &= (1 << bound) - 1
    if not wi:
        raise PreconditionViolation("window i empty")
    inter, comp = wi & wj, wi & ~wj
    # the complement side clears at n0, once the last intersection point is
    # behind, and the intersect side at n1, once the last complement point is
    n0, n1 = inter.bit_length(), comp.bit_length()
    cap = bound // 2 if fuel is None else min(fuel, bound // 2)
    searched = min(n0, n1) <= cap
    return SelectOutcome(
        INTERSECT_SIDE if searched and n0 > n1 else COMPLEMENT_SIDE,
        "search" if searched else "default",
        inter.bit_count(), comp.bit_count())


def select_part_mask(wi: int, bound: int, parts: Sequence[Tuple[int, int]],
                     fuel: Optional[int] = None):
    """Walk a partition of window i (a bitmask of length `bound`) with
    repeated side selection; each part is a (bitmask, length) pair, and
    each step compares below the least length met so far.

    Asks `select_side_mask` against each part in turn, descending into the
    complement remainder on a complement answer; the final part absorbs
    whatever remains.  Returns (part position, bitmask of the selected
    remainder, its length, select outcomes).
    """
    if not parts:
        raise PreconditionViolation("empty partition")
    if fuel is not None and fuel < 0:
        raise PreconditionViolation(f"negative fuel {fuel}")
    cur = wi & ((1 << bound) - 1)
    outcomes: List[SelectOutcome] = []
    for t, (p, length) in enumerate(parts):
        bound = min(bound, length)
        if t == len(parts) - 1:
            break
        out = select_side_mask(cur, p, bound, fuel)
        outcomes.append(out)
        if out.side == INTERSECT_SIDE:
            break
        cur &= ~p
    return t, cur & p & ((1 << bound) - 1), bound, outcomes


def select_side(wi: Tuple[int, ...], wj: Tuple[int, ...],
                fuel: Optional[int] = None) -> SelectOutcome:
    """Pick the side of window j on which window i stays infinite
    (window-scale); windows are bit tuples compared on their common prefix.

    Realizes the partial tail search: find the least n below half the
    window (and below `fuel`, when given) past which window i avoids one
    side of window j; default to the complement side on exhaustion, where
    both sides hold members, so no natural fuel chooses an empty side.  The
    tuples are read as int bitmasks, on which `select_side_mask` is the one
    implementation of this rule; an empty window i or a negative fuel
    raises PreconditionViolation.
    """
    return select_side_mask(window_mask(wi), window_mask(wj),
                            min(len(wi), len(wj)), fuel)


def select_part(wi: Tuple[int, ...], parts: Sequence[Tuple[int, ...]],
                fuel: Optional[int] = None):
    """`select_part_mask` on bit tuples: `parts` are bit windows covering
    window i.  Returns (part position, bits of the selected remainder,
    select outcomes)."""
    pos, kept, bound, outcomes = select_part_mask(
        window_mask(wi), len(wi),
        [(window_mask(p), len(p)) for p in parts], fuel)
    return pos, tuple(kept >> x & 1 for x in range(bound)), outcomes
