"""Brute-force checkers of instance facts, shared by the auditor and the
reference oracles.  This module imports nothing from `forcing` or
`harness`, so no decision code of the constructions reaches them.
Members are a set: a repeated member counts once."""

from typing import Dict, Iterator, Optional, Sequence, Tuple

from .approx import Coloring, SetPresentation


def off_color_pairs(c: Coloring, members, color) -> Iterator[Tuple[int, int]]:
    """The pairs x < y of the members not of color `color`, in order."""
    elems = sorted(set(members))
    return ((x, y) for i, x in enumerate(elems) for y in elems[i + 1:]
            if c.value(x, y) != color)


def monochromatic(c: Coloring, s) -> Optional[int]:
    """The single color taken on all pairs of s, or None (0 for no pair)."""
    elems = sorted(set(s))
    color = c.value(elems[0], elems[1]) if len(elems) > 1 else 0
    return None if next(off_color_pairs(c, elems, color), None) else color


def fallow_violation(c: Coloring, members) -> Optional[Tuple[int, int, int]]:
    """The least triple x < y < z of the members with c(x, z) outside
    {c(x, y), c(y, z)}, or None.  Each pair is read once, by
    `Coloring.value`, into rows[a][d] = c(elems[a], elems[d]); a pair
    (x, y) with c(x, z) = c(x, y) for every later z is passed over."""
    elems = sorted(set(members))
    n = len(elems)
    rows = [[None] * (a + 1) + [c.value(x, y) for y in elems[a + 1:]]
            for a, x in enumerate(elems)]
    for a, to_x in enumerate(rows):
        for b in range(a + 1, n):
            xy, to_y = to_x[b], rows[b]
            if to_x[b + 1:].count(xy) < n - b - 1:
                for d in range(b + 1, n):
                    if to_x[d] != xy and to_x[d] != to_y[d]:
                        return elems[a], elems[b], elems[d]
    return None


def domain_bound(instance) -> Optional[int]:
    """The bound below which a coloring or a `Delta2Partition` has values,
    which no run's window passes; None for a family of sets."""
    return getattr(instance, "bound", None)


def d2_part(d, color: int) -> Tuple[int, ...]:
    """The n below a `Delta2Partition`'s bound whose row reads `color` at
    the promised stabilization stage, or at its last when none is promised."""
    out = []
    for n in range(d.bound):
        row = d.table[n]
        if d.promised_bound is not None:
            s = min(d.promised_bound, len(row) - 1)
        else:
            s = len(row) - 1
        if row[s] == color:
            out.append(n)
    return tuple(out)


def cohesive_exceptions(family: Sequence[SetPresentation], members) -> Dict:
    """For each family set, the side C lands on and the straggler elements.

    The side is whichever of R, complement(R) holds more of C; exceptions
    are the members on the other side.
    """
    detail = {}
    elems = sorted(set(members))
    for idx, r in enumerate(family):
        inside = [x for x in elems if x < r.window.bound and r.member(x)]
        outside = [x for x in elems if x < r.window.bound and not r.member(x)]
        if len(inside) >= len(outside):
            side, exceptions = "set", outside
        else:
            side, exceptions = "complement", inside
        detail[idx] = {"side": side, "exceptions": tuple(exceptions)}
    return detail
