"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/steady.py --workload em-fallow --seeds 1 2 3 4 5

Runs ``run.py --seconds <run_seconds> --trace 0`` once per seed, one run at
a time, as a benchmark runner calls it, and prints for each end-to-end
metric its median and the distance between its first and third quartile as
a share of the median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import measure
from run import HERE, ROOT, WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    values: dict = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, cwd=ROOT, check=True)
        result = json.loads(proc.stdout.decode("ascii").strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs not correct", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed} ({time.monotonic() - started:.1f} s): "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
    for m in bench["end_to_end"]:
        vs = values[m["name"]]
        s = measure.spread(vs) if len(vs) > 1 else 0.0
        print(f"{args.workload} {m['name']} median {statistics.median(vs):.6g} "
              f"spread {s:.4f} bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
