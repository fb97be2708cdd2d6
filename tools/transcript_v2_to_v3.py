"""Convert a transcript from format version 2 to version 3.

Version 3 writes each condition as its change from the one before and
leaves out what the chain of conditions already says:

- a stage's `condition`, after the first one written, becomes its delta
  from the last one written when it extends it: `added`, the members it
  commits above every committed one (for D2, one list per part), and
  `removed`, the other members it drops from the reservoir.  One equal to
  the last one written is `null`, and one that does not extend it stays
  whole;
- a condition's `I`, the count of reservoirs installed before it;
- a Case-2 certificate's `F_at_decision` and `reservoir_at_decision`,
  which restate the condition before it (a D-restriction keeps its
  `F_at_decision`, and D2 its `pool_at_decision`), also in coh's
  `extraction.decided`;
- `extraction.blocked` of EM and D2 transcripts, which lists the aborted
  labels, and `extraction.final_reservoir` of coh transcripts.

An RT2 transcript's nested coh and D2 transcripts are converted the same
way.  The output is canonical JSON (sorted keys, no whitespace, ASCII), so
a converted transcript equals, byte for byte, what the constructions write
for the same run.  The conversion works on the JSON alone and imports
nothing from the package.

    python3 tools/transcript_v2_to_v3.py old.json              # to stdout
    python3 tools/transcript_v2_to_v3.py old.json --out new.json

Exits 2 when the input is not a version 2 transcript.
"""

from __future__ import annotations

import argparse
import json
import sys

RESTATED = ("F_at_decision", "reservoir_at_decision")


def delta(last: dict, cond: dict):
    """`cond` (whole, without `I`) as version 3 writes it after `last`."""
    if cond == last:
        return None
    d2 = "F_parts" in cond
    old, new = ((last["F_parts"], cond["F_parts"]) if d2
                else ([last["F"]], [cond["F"]]))
    added = [p[len(o):] for o, p in zip(old, new)]
    reservoir, kept, taken = (set(last["reservoir"]), set(cond["reservoir"]),
                              set().union(*added))
    if (cond["window_bound"] != last["window_bound"] or len(old) != len(new)
            or not all(p[:len(o)] == o for o, p in zip(old, new))
            or not kept | taken <= reservoir or not kept.isdisjoint(taken)):
        return cond
    return {"added": added if d2 else added[0],
            "removed": sorted(reservoir - kept - taken)}


def convert(doc: dict) -> dict:
    """The version 3 form of a version 2 transcript dict (not modified)."""
    if not isinstance(doc, dict) or doc.get("version") != 2:
        raise ValueError("not a version 2 transcript")
    out = json.loads(json.dumps(doc))  # a deep copy of plain JSON
    out["version"] = 3
    last = None
    for stage in out["stages"]:
        if stage["branch"] == "Case2":
            for key in RESTATED:
                stage["certificates"].pop(key, None)
        cond = stage["condition"]
        if cond is None:
            continue
        cond.pop("I", None)
        stage["condition"] = cond if last is None else delta(last, cond)
        last = cond
    ext = out["extraction"]
    ext.pop("blocked", None)
    ext.pop("final_reservoir", None)
    for entry in ext.get("decided", {}).values():
        if entry.get("answer") == "no":
            for key in RESTATED:
                entry.pop(key, None)
    if out["kind"] == "rt2":
        for nested in ("coh", "d2"):
            ext[nested] = convert(ext[nested])
    return out


def canonical(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True).encode("ascii")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("transcript", help="a version 2 transcript file")
    ap.add_argument("--out", default=None,
                    help="write here instead of to standard output")
    args = ap.parse_args(argv)
    with open(args.transcript, "rb") as fh:
        raw = fh.read()
    try:  # invalid JSON raises a ValueError too
        payload = canonical(convert(json.loads(raw)))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out is None:
        sys.stdout.buffer.write(payload)
    else:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
