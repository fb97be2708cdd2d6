"""Benchmark of the forcingbench workbench.

    python3 perfbench/run.py --workload em-fallow --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the program is imported from ``src/``.
Each run starts single-threaded worker processes one at a time, each a
fresh interpreter, so every run starts from the same process state. Within
a worker, ops run in a closed loop: the next starts when the previous one
has finished.

``--trace 0`` measures the end-to-end metrics. Fresh workers, one after
another, run as many ops as take about ``--seconds`` (``run_seconds`` of
``BENCHMARK.json`` by default) at the seed commit: on rt2-batch each worker
runs one batch of the same calls, on the other workloads each goes on with
the inputs where the one before stopped. ``setup_s`` is the median over
the workers of the time from spawning one to its first op. ``--trace 1``
runs a fixed number of ops twice, untraced and then traced, and reports the
per-layer metrics from the traced run and the tracing overhead from the
pair.

Every op's output is checked after its timer stops. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Other records of the run go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import measure

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
# d2-part is no workload of its own: with four workloads the runs a
# benchmark runner makes allow about 25 s a run, too short to average out
# the swings in speed of a shared 2-vCPU VM. Its construction is still timed
# inside rt2-batch (each pipeline runs run_d2) and its transcripts are part
# of audit-replay's corpus (workloads.py).
WORKLOADS = ("em-fallow", "rt2-batch", "audit-replay")
# Leading ops whose records form the equivalence digest; every run of the
# seed commit gets this far.
DIGEST_OPS = {"em-fallow": 16, "rt2-batch": 400, "audit-replay": 100}
# Ops in each half of a traced run, about half of run_seconds at the seed
# commit. rt2-batch goes past the 304th call, where the shared coded model
# fills today; the batch is not cut to stay below that edge.
TRACE_OPS = {"em-fallow": 16, "rt2-batch": 400, "audit-replay": 250}
# rt2-batch runs as batches of this many calls, each in a fresh worker.
# The shared coded model fills at the 305th call today, and every later call
# of a worker fails; one long worker would spend all but its first seconds
# on failures, and its ops_per_s would not follow the cost of a call. The
# batch goes past that edge, so the failures still show. A run holds one
# batch for every BATCH_S of --seconds, so the number of ops attempted and
# failed depends on --seconds and the seed alone, not on how fast the
# machine was.
BATCH_OPS = {"rt2-batch": 400}
BATCH_S = 3.0  # about one batch's wall time at the seed commit on 2 vCPUs
# The other workloads' timed ops run in SLICES fresh workers one after
# another, each going on with the inputs where the one before stopped. On
# the same inputs one process can run a third faster or slower than the
# next, often for its whole life; pooling the ops of several workers
# averages that out. A run holds round(--seconds * rate)
# ops, the rate being about the seed commit's ops per second on 2 vCPUs, so
# the ops and where the workers split them depend on --seconds and the seed
# alone. That split must not move: transcripts today depend on what ran
# earlier in the process (ROADMAP item 1), so an op that starts a worker
# can produce another transcript than the same op later in a worker.
SLICES = 5
RUN_OPS_PER_S = {"em-fallow": 2.2, "audit-replay": 80.0}
SETUP_RUNS = 5  # fresh workers whose set-up time gives the median setup_s
RUN_LIMIT_S = 170.0  # one run, all its workers included


class WorkerFailed(RuntimeError):
    pass


def spawn(cfg: dict, deadline: float) -> dict:
    """Run one worker to its end and return its report."""
    cfg = dict(cfg, root=ROOT)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
            stdout=subprocess.PIPE, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{cfg['mode']} worker overran the run's time limit") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{cfg['mode']} worker exited with code {proc.returncode}")
    report = json.loads(proc.stdout.decode("ascii").strip().splitlines()[-1])
    if "ready" in report:
        report["setup_s"] = report["ready"] - spawned
    return report


class Run:
    """One benchmark run of one workload; collects what it prints and keeps."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.corpus = None  # audit-replay's transcript directory
        self.plan: list = []  # generator seeds of the workers' first inputs
        self.attempted = self.failed = 0
        self.problems: list = []
        self.lines: list = []
        self.record = {"workload": workload, "seed": seed, "seconds": seconds,
                       "trace": int(trace), "nproc": os.cpu_count(),
                       "python": platform.python_version()}

    def say(self, name: str, value, unit: str = "", note: str = "") -> None:
        self.lines.append(" ".join(str(x) for x in (self.workload, name, value, unit, note) if x))

    def worker(self, **cfg) -> dict:
        base = {"workload": self.workload, "seed": self.seed, "skip": 0, "ops": None,
                "trace": False, "corpus": self.corpus, "plan": self.plan}
        return spawn(dict(base, **cfg), self.deadline)

    def execute(self) -> dict:
        try:
            if self.workload == "audit-replay":
                self.corpus = os.path.join(OUT, f"corpus-{self.seed}")
                shutil.rmtree(self.corpus, ignore_errors=True)
                os.makedirs(self.corpus)
                self.worker(mode="corpus")
            else:
                self.plan = self.worker(mode="plan")["plan"]
            return self.traced() if self.trace else self.timed()
        finally:
            if self.corpus is not None:
                shutil.rmtree(self.corpus, ignore_errors=True)

    def timed(self) -> dict:
        batch = BATCH_OPS.get(self.workload)
        if batch is None:
            mains = []
            for ops in slices(round(self.seconds * RUN_OPS_PER_S[self.workload])):
                mains.append(self.worker(mode="fixed", ops=ops,
                                         skip=sum(r["attempted"] for r in mains)))
            main = merge(mains, records=[x for r in mains for x in r["records"]])
        else:
            mains = [self.worker(mode="fixed", ops=batch)
                     for _ in range(batches(self.seconds))]
            if any(r["records"] != mains[0]["records"] for r in mains):
                self.problems.append("two batches of the same inputs gave different outputs")
            main = merge(mains, records=mains[0]["records"])
        # every timed worker is a fresh one too; add set-up-only workers
        # until there are SETUP_RUNS
        setups = [self.worker(mode="setup") for _ in range(SETUP_RUNS - len(mains))]
        workers = setups + mains
        self.check_workers(workers)
        lat = main["latencies"]
        completed = len(lat)
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in workers),
            "ops_per_s": completed / main["wall_s"],
            "op_p50_s": statistics.median(lat) if lat else 0.0,
            "op_tail_s": 0.0,
            "peak_rss_mb": main["peak_rss_mb"],
        }
        self.say("setup_s", f"{metrics['setup_s']:.4f}", "s",
                 f"(median of {len(workers)} fresh workers)")
        workers_note = (f", {len(mains)} workers" if batch is None
                    else f", {len(mains)} batches of {batch}")
        self.say("ops_per_s", f"{metrics['ops_per_s']:.4f}", "1/s",
                 f"({completed} ops in {main['wall_s']:.2f} s{workers_note})")
        self.say("op_p50_s", f"{metrics['op_p50_s']:.6f}", "s")
        if lat:
            value, pct, n = measure.tail_latency(lat)
            metrics["op_tail_s"] = value
            self.say("op_tail_s", f"{value:.6f}", "s", f"(p{pct:.1f} of {n} completed ops)")
            self.record["tail"] = {"percentile": pct, "samples": n}
        self.report_failures(main)
        self.say("peak_rss_mb", f"{metrics['peak_rss_mb']:.2f}", "MB")
        self.check_digest(main["records"])
        self.record.update(setup_samples=[r["setup_s"] for r in workers],
                           latencies=lat)
        return metrics

    def traced(self) -> dict:
        ops = TRACE_OPS[self.workload]
        plain = self.worker(mode="fixed", ops=ops)
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans-{self.workload}.csv")
        traced = self.worker(mode="fixed", ops=ops, trace=True, spans=spans)
        self.check_workers([plain, traced])
        if traced["records"] != plain["records"]:
            self.problems.append("traced ops produced other outputs than untraced ops")
        self.report_failures(traced)
        done = len(traced["latencies"])
        plain_rate = done / plain["wall_s"]
        traced_rate = done / traced["wall_s"]
        overhead = plain_rate / traced_rate - 1.0
        self.say("ops_per_s", f"{plain_rate:.4f}", "1/s", f"untraced, {ops} ops")
        self.say("ops_per_s", f"{traced_rate:.4f}", "1/s", f"traced, {ops} ops")
        self.say("trace.overhead", f"{overhead:.4f}", "ratio",
                 f"({traced['spans']} spans, written to {os.path.relpath(spans, ROOT)})")
        for name, value in traced["layers"].items():
            self.say(name, "absent" if name in traced["absent"] else f"{value:.6g}")
        metrics = dict(traced["layers"], **{"trace.overhead": overhead})
        self.check_digest(traced["records"])
        self.record.update(overhead=overhead, absent=traced["absent"],
                           untraced_ops_per_s=plain_rate, traced_ops_per_s=traced_rate)
        return metrics

    def check_workers(self, reports) -> None:
        if len({r["inputs_digest"] for r in reports}) != 1:
            self.problems.append("the same seed made different inputs in two workers")
        if any(r.get("wrong_outputs") for r in reports):
            self.problems.append("some op produced a wrong output; its traceback is in "
                                 f"{os.path.relpath(OUT, ROOT)}/results")

    def report_failures(self, report) -> None:
        attempted, failed = report["attempted"], sum(report["failures"].values())
        self.attempted, self.failed = attempted, failed
        kinds = " ".join(f"{k}={n}" for k, n in sorted(report["failures"].items()))
        self.say("failed_ratio", f"{failed / attempted:.6f}", "ratio",
                 f"({failed} of {attempted} attempted ops failed{': ' + kinds if kinds else ''})")
        self.record.update(failed_ratio=failed / attempted, failures=report["failures"],
                           tracebacks=report["tracebacks"])

    def check_digest(self, records) -> None:
        """Compare the leading ops' records with earlier runs of this seed."""
        n = DIGEST_OPS[self.workload]
        mine = records[:n]
        digest = measure.digest(mine)
        partial = "" if len(mine) == n else f", only {len(mine)} ops ran"
        self.say("digest", digest, "", f"(first {n} ops{partial})")
        self.record.update(digest=digest, digest_ops=len(mine), records=records)
        # traced runs run their ops in one worker, timed runs in several
        path = os.path.join(OUT, "digests",
                            f"{self.workload}-{self.seed}-trace{int(self.trace)}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                earlier = json.load(fh)
            first = measure.first_difference(earlier, mine)
            if first is not None:
                self.problems.append(f"op {first} differs from an earlier run of this seed")
            if len(earlier) >= len(mine):
                return
        with open(path, "w", encoding="ascii") as fh:
            json.dump(mine, fh)


def slices(ops: int) -> list:
    """Ops of each of the SLICES workers of one run of `ops` ops."""
    ops = max(ops, SLICES)
    return [ops // SLICES + (k < ops % SLICES) for k in range(SLICES)]


def batches(seconds: int) -> int:
    """Batches in one rt2-batch run of `seconds`."""
    return max(1, round(seconds / BATCH_S))


def merge(reports, records) -> dict:
    """One report of the ops of several workers that ran one after another."""
    failures: dict = {}
    for r in reports:
        for kind, n in r["failures"].items():
            failures[kind] = failures.get(kind, 0) + n
    return {
        "attempted": sum(r["attempted"] for r in reports),
        "failures": failures,
        "tracebacks": dict(kv for r in reversed(reports) for kv in r["tracebacks"].items()),
        "latencies": [x for r in reports for x in r["latencies"]],
        "wall_s": sum(r["wall_s"] for r in reports),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        "records": records,
    }


def run_one(workload: str, seed: int, seconds: int, trace: bool, bench: dict) -> dict:
    run = Run(workload, seed, seconds, trace)
    run.say("run", f"seed {seed}", "", f"nproc {os.cpu_count()} python "
            f"{platform.python_version()} trace {int(trace)}")
    metrics = run.execute()
    for p in run.problems:
        run.say("PROBLEM", p)
    wanted = bench["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    run.record["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{workload}-{seed}-trace{int(trace)}.json"),
              "w", encoding="ascii") as fh:
        json.dump(run.record, fh)
    return {
        "lines": run.lines,
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    # Benchmark runners pass the measured time of a run; it is run_seconds
    # of BENCHMARK.json, which is also the default.
    ap.add_argument("--seconds", type=int, default=None,
                    help="measured time of one run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind like an error, so the running worker is killed and
    # waited for rather than left behind
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for w in names:
        try:
            results[w] = run_one(w, args.seed, seconds, bool(args.trace), bench)
        except WorkerFailed as exc:
            print(f"error: {w}: {exc}", file=sys.stderr)
            return 2
        print("\n".join(results[w].pop("lines")), flush=True)
    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}/{k}": v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
