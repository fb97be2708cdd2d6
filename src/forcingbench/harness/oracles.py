"""Brute-force reference oracles.

These are deliberately independent of the staged constructions: direct
enumeration and table lookups only, so their answers can be frozen into
tests as ground truth.  Each search re-verifies its own witness before
reporting it.  The checkers of a fact about given members are
`forcingbench.brute`'s, which the auditor calls too.  An option the
instance cannot answer (a member past its bound, a part it lacks) is
refused with `OracleRangeError` before any search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..approx import Coloring
from ..brute import (
    cohesive_exceptions,
    d2_part,
    fallow_violation,
    monochromatic,
)

HOMOGENEOUS_CAP = 20


class BruteForceCapError(RuntimeError):
    """Raised instead of silently attempting an exponential search."""


class OracleRangeError(ValueError):
    """An option outside the range the instance can answer; `needs` names
    the parameter and its range, as in "color from 0 to 1"."""

    def __init__(self, kind: str, needs: str):
        super().__init__(f"oracle {kind} needs {needs}")
        self.needs = needs


def _members_below(kind: str, members, top: int, what: str) -> None:
    if members is None or not all(isinstance(m, int) and m >= 0
                                  for m in members):
        raise OracleRangeError(kind, "members of naturals")
    if max(members, default=-1) >= top:
        raise OracleRangeError(kind, f"members below {what} {top}")


@dataclass
class OracleReport:
    kind: str
    method: str
    size: Optional[int] = None
    optimum: Optional[int] = None
    witness: Optional[Tuple] = None
    detail: Dict = field(default_factory=dict)


def _max_homogeneous(c: Coloring, bound: int) -> Tuple[int, Tuple[int, ...]]:
    if bound > HOMOGENEOUS_CAP:
        raise BruteForceCapError(
            f"homogeneous search over {bound} elements exceeds the "
            f"cap of {HOMOGENEOUS_CAP}; shrink the window")
    best: List[int] = []

    def grow(color: int, chosen: List[int], nxt: int):
        nonlocal best
        if len(chosen) + (bound - nxt) <= len(best):
            return
        if nxt == bound:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        if all(c.value(x, nxt) == color for x in chosen):
            chosen.append(nxt)
            grow(color, chosen, nxt + 1)
            chosen.pop()
        grow(color, chosen, nxt + 1)

    for color in range(c.k):
        grow(color, [], 0)
    return len(best), tuple(best)


def brute_oracle(kind: str, instance, bound: Optional[int] = None,
                 color: int = 0, members=None) -> OracleReport:
    if kind == "homogeneous":
        n = bound if bound is not None else instance.bound
        if not (isinstance(n, int) and 0 <= n <= instance.bound):
            raise OracleRangeError(kind, f"bound from 0 to the coloring's "
                                         f"bound {instance.bound}")
        size, witness = _max_homogeneous(instance, n)
        assert monochromatic(instance, witness) is not None or size < 2
        return OracleReport(kind=kind, method="branch-and-bound",
                            size=size, optimum=size, witness=witness)
    if kind == "fallow":
        _members_below(kind, members, instance.bound, "the coloring's bound")
        bad = fallow_violation(instance, members)
        return OracleReport(kind=kind, method="triple-scan",
                            size=len(set(members)), witness=bad,
                            detail={"ok": bad is None})
    if kind == "d2_subset":
        if not (isinstance(color, int) and 0 <= color < instance.k):
            raise OracleRangeError(kind, f"color from 0 to {instance.k - 1}")
        witness = d2_part(instance, color)
        method = ("promised-column" if instance.promised_bound is not None
                  else "tail-value")
        return OracleReport(kind=kind, method=method,
                            size=len(witness), witness=witness,
                            detail={"color": color})
    if kind == "cohesive_check":
        least = min((r.window.bound for r in instance), default=0)
        _members_below(kind, members, least, "the family's least bound")
        detail = cohesive_exceptions(instance, members)
        worst = max((len(v["exceptions"]) for v in detail.values()), default=0)
        return OracleReport(kind=kind, method="two-sided-count",
                            size=len(set(members)), optimum=worst,
                            detail=detail)
    raise ValueError(f"unknown oracle kind {kind!r}")
