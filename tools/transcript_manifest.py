"""Check that the constructions still write the same transcripts.

Runs the acceptance-family corpus: the criterion-5 coh family, EM seeds
0-99, D2 seeds 0-49 and RT2 seeds 0-249.  Each run is audited, and its
canonical transcript hash and audit counts are compared with the committed
manifest `transcript_manifest.json` beside this file.  The manifest also
keeps a short digest of every stage, so a changed transcript is reported
with its first differing stage.

    python3 tools/transcript_manifest.py          # check every family
    python3 tools/transcript_manifest.py --write  # regenerate the manifest

Exits 1 when any entry differs.  `--write` regenerates the manifest; that
is a declared behaviour change and every changed hash belongs in
CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from forcingbench import programs  # noqa: E402
from forcingbench.approx import SetPresentation  # noqa: E402
from forcingbench.forcing import (  # noqa: E402
    CohConfig,
    rt2_pipeline,
    run_coh,
    run_d2,
    run_em,
    verify_transcript,
)
from forcingbench.harness import (  # noqa: E402
    canonical_json,
    gen_coloring,
    gen_d2_partition,
    gen_stable_coloring,
    transcript_hash,
)

MANIFEST = Path(__file__).with_name("transcript_manifest.json")
FAMILIES = {"coh": range(1), "em": range(100), "d2": range(50),
            "rt2": range(250)}
STAGE_HEX = 4  # hex digits kept per stage digest


def run_case(family: str, seed: int):
    """(transcript, instance to audit against) of one corpus entry."""
    if family == "coh":
        sets = [
            SetPresentation.from_set(range(0, 128, 2), 128),
            SetPresentation.from_set(range(0, 128, 3), 128),
            SetPresentation.from_set([x for x in range(128) if x % 5 < 2],
                                     128),
            SetPresentation.from_program(programs.EVENS_DECIDER.index, 128,
                                         512),
        ]
        return run_coh(sets, 60, config=CohConfig(window=128,
                                                  density_min=8))[0], None
    if family == "em":
        c = gen_stable_coloring(seed)
        return run_em(c, 200)[0], c
    if family == "d2":
        d = gen_d2_partition(seed)
        return run_d2(d, 300)[0], d
    c = gen_coloring(seed)
    return rt2_pipeline(c, 60)[1], c


def stage_sections(doc):
    """The stage lists of a transcript dict: its own, or for RT2 those of
    its nested coh and D2 transcripts."""
    if doc["kind"] == "rt2":
        return {name: doc["extraction"][name]["stages"]
                for name in ("coh", "d2")}
    return {"stages": doc["stages"]}


def entry(family: str, seed: int):
    try:
        t, instance = run_case(family, seed)
    except Exception as exc:  # a run that raises is recorded, not skipped
        return {"error": f"{type(exc).__name__}: {exc}"}
    counts = verify_transcript(t, audit_fuel=2, instance=instance).counts
    sections = {
        name: "".join(
            hashlib.sha256(canonical_json(s).encode("ascii"))
            .hexdigest()[:STAGE_HEX] for s in stages)
        for name, stages in stage_sections(t.to_dict()).items()}
    return {"hash": transcript_hash(t),
            "audit": [counts["certified"], counts["provisional"],
                      counts["refuted"]],
            "stages": sections}


def first_difference(want, got) -> str:
    if "error" in want or "error" in got:
        return f"error {want.get('error')!r} -> {got.get('error')!r}"
    for name, digests in want["stages"].items():
        other = got["stages"].get(name, "")
        n_want, n_got = len(digests) // STAGE_HEX, len(other) // STAGE_HEX
        for i in range(min(n_want, n_got)):
            a = digests[i * STAGE_HEX:(i + 1) * STAGE_HEX]
            b = other[i * STAGE_HEX:(i + 1) * STAGE_HEX]
            if a != b:
                return f"first differing stage: {name}[{i}]"
        if n_want != n_got:
            return f"{name}: {n_want} stages -> {n_got}"
    if want["hash"] != got["hash"]:
        return "stages agree; the header or extraction differs"
    return f"audit counts {want['audit']} -> {got['audit']}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true",
                    help="regenerate the manifest instead of checking it")
    args = ap.parse_args(argv)
    got = {f"{f}-{s}": entry(f, s) for f in FAMILIES for s in FAMILIES[f]}
    if args.write:
        MANIFEST.write_text("{\n" + ",\n".join(
            f"{json.dumps(name)}: {json.dumps(got[name], sort_keys=True)}"
            for name in sorted(got)) + "\n}\n")
        print(f"wrote {len(got)} entries to {MANIFEST.name}")
        return 0
    want = json.loads(MANIFEST.read_text())
    bad = 0
    for name, have in got.items():
        if want.get(name) != have:
            bad += 1
            print(f"MISMATCH {name}: "
                  + (first_difference(want[name], have) if name in want
                     else "not in the manifest"))
    print(f"{len(got) - bad} of {len(got)} transcripts match the manifest")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
