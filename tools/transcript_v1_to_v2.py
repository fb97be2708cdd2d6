"""Convert a transcript from format version 1 to version 2.

Version 2 leaves out what a version 1 transcript says twice:

- `extraction.decided` of EM and D2 transcripts, which repeats every
  decided stage's certificate (coh keeps its own);
- the constant `"fuel_scale": 1` of every witness-search record;
- a stage's `condition` when it equals the last condition written out,
  which becomes `null`.

An RT2 transcript's nested coh and D2 transcripts are converted the same
way.  The output is canonical JSON (sorted keys, no whitespace, ASCII), so
a converted transcript equals, byte for byte, what the constructions write
for the same run.  The conversion works on the JSON alone and imports
nothing from the package.

    python3 tools/transcript_v1_to_v2.py old.json              # to stdout
    python3 tools/transcript_v1_to_v2.py old.json --out new.json

Exits 2 when the input is not a version 1 transcript.
"""

from __future__ import annotations

import argparse
import json
import sys


def convert(doc: dict) -> dict:
    """The version 2 form of a version 1 transcript dict (not modified)."""
    if not isinstance(doc, dict) or doc.get("version") != 1:
        raise ValueError("not a version 1 transcript")
    out = json.loads(json.dumps(doc))  # a deep copy of plain JSON
    out["version"] = 2
    last = None
    for stage in out["stages"]:
        stage["certificates"].get("search", {}).pop("fuel_scale", None)
        if stage["condition"] == last:
            stage["condition"] = None
        else:
            last = stage["condition"]
    ext = out["extraction"]
    if out["kind"] in ("em", "d2"):
        ext.pop("decided", None)
    for entry in ext.get("decided", {}).values():
        entry.get("search", {}).pop("fuel_scale", None)
    if out["kind"] == "rt2":
        for nested in ("coh", "d2"):
            ext[nested] = convert(ext[nested])
    return out


def canonical(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True).encode("ascii")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("transcript", help="a version 1 transcript file")
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
