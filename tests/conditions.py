"""Every stage's condition whole, and the chain written back in format 3.

Format 3 writes a run's first condition whole and each later one as its
delta from the one before.  A test that reads or forges a condition reads
or forges it whole, on `whole`'s list, and `rewrite` writes the chain
again as a run would have written it: a forged condition that no longer
extends the one before is written whole, and the auditor reads it so.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from transcript_v2_to_v3 import delta  # noqa: E402


def whole(stages):
    """The condition of each stage (records or written dicts), whole: a
    new dict per stage, with `F`, or `F_parts` for D2, `reservoir` and
    `window_bound`."""
    out, last = [], None
    for s in stages:
        c = s["condition"] if isinstance(s, dict) else s.condition
        if c is None:
            c = last
        elif "added" in c:
            d2 = "F_parts" in last
            parts = last["F_parts"] if d2 else [last["F"]]
            adds = c["added"] if d2 else [c["added"]]
            parts = [p + a for p, a in zip(parts, adds)]
            gone = set(c["removed"]).union(*adds)
            c = {"reservoir": [z for z in last["reservoir"] if z not in gone],
                 "window_bound": last["window_bound"],
                 **({"F_parts": parts} if d2 else {"F": parts[0]})}
        last = c
        # a copy whose lists a forgery may change
        out.append({k: [list(p) for p in v] if k == "F_parts"
                    else list(v) if isinstance(v, list) else v
                    for k, v in c.items()})
    return out


def written(conditions):
    """How format 3 writes each of a chain of whole conditions in turn."""
    out, last = [], None
    for c in conditions:
        out.append(c if last is None else delta(last, c))
        last = c
    return out


def expand(t):
    """Give every stage of the transcript `t` its condition whole."""
    for rec, c in zip(t.stages, whole(t.stages)):
        rec.condition = c


def rewrite(t):
    """Write the whole conditions of `t`'s stages in format 3 again."""
    for rec, c in zip(t.stages, written([r.condition for r in t.stages])):
        rec.condition = c
