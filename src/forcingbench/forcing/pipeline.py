"""Homogeneous-set extraction for pair colorings: confinement first, then
part selection.

The coloring's columns R_x = {y > x : c(x, y) = 1} feed the cohesive
construction under the committed-columns schedule, so every element
committed after column x is decided lands on x's chosen side.  The
decided sides then form an already-stable partition of the committed
prefix, handed to the limit-partition construction; the selected part maps
back to a monochromatic set, which is verified exhaustively before return.
"""

from __future__ import annotations

from ..approx import Coloring, MalformedInstanceError, SetPresentation
from ..machine import OracleWindow
from ..transcript import Transcript, coloring_digest
from .coh import CohConfig, run_coh
from .d2 import D2Config, Delta2Partition, run_d2


class PipelineInconclusive(RuntimeError):
    pass


# the nested coh run's density count and witness-search width, and the
# nested D2 run's stage count
DENSITY_MIN = 2
SUBSET_WIDTH = 6
D2_STAGES = 40


def column_family(c: Coloring):
    """The columns R_x = {y > x : c(x, y) = 1} over the window, read
    straight from the table when there is one, with `Coloring.value`'s
    colour-range check."""
    fam = []
    for x in range(c.bound):
        row = (c.table[x] if c.table is not None
               else [c.value(x, y) for y in range(x + 1, c.bound)])
        if row and max(row) >= c.k:
            j = next(j for j, v in enumerate(row) if v >= c.k)
            raise MalformedInstanceError(
                f"color {row[j]} out of range at ({x}, {x + 1 + j})")
        bits = (0,) * (x + 1) + tuple(1 if v == 1 else 0 for v in row)
        fam.append(SetPresentation(OracleWindow(bits)))
    return fam


def rt2_pipeline(c: Coloring, stages: int):
    """Returns (H, Transcript): H monochromatic for c, checked pair by pair."""
    if c.k != 2:
        raise ValueError("the pair pipeline handles 2 colors")
    coh_cfg = CohConfig(
        window=c.bound, density_min=DENSITY_MIN, subset_width=SUBSET_WIDTH,
        schedule="committed-columns",
    )
    t_coh, committed = run_coh(column_family(c), stages, coh_cfg)
    decided = t_coh.extraction["decided"]
    sides = {}
    for x in committed:
        info = decided.get(f"D_{x}")
        if info is not None and "side" in info:
            sides[x] = info["side"]
    # a column is stable when every later committed element sits on its side
    stable_cols = [x for x in sorted(sides)
                   if all(c.value(x, y) == sides[x]
                          for y in committed if y > x)]
    if not stable_cols:
        raise PipelineInconclusive(
            "no committed column reached stability on the window")
    induced = Delta2Partition(
        k=2, table=tuple((sides[x],) for x in stable_cols),
        bound=len(stable_cols), promised_bound=0)
    t_d2, (color, b) = run_d2(induced, D2_STAGES,
                              D2Config(window=len(stable_cols)))
    h = sorted(stable_cols[j] for j in b)
    # greedy closure over the window, re-checking every pair; the committed
    # prefix goes first so the construction's own elements are preferred
    candidates = sorted(set(committed) - set(h)) + \
        sorted(set(range(c.bound)) - set(committed) - set(h))
    for y in candidates:
        if all(c.value(min(x, y), max(x, y)) == color for x in h):
            h.append(y)
            h.sort()
    for a in range(len(h)):
        for bb in range(a + 1, len(h)):
            if c.value(h[a], h[bb]) != color:
                raise PipelineInconclusive(
                    f"extracted set not monochromatic at ({h[a]}, {h[bb]})")
    t = Transcript(
        kind="rt2",
        instance_hash=coloring_digest(c),
        config={
            "stages": stages, "d2_stages": D2_STAGES,
            "window": c.bound, "density_min": DENSITY_MIN,
            "subset_width": SUBSET_WIDTH,
        },
    )
    t.extraction = {
        "C": list(committed),
        "sides": {str(x): sides[x] for x in sorted(sides)},
        "stable_columns": list(stable_cols),
        "color": color,
        "H": list(h),
        "coh": t_coh.to_dict(),
        "d2": t_d2.to_dict(),
    }
    return tuple(h), t
