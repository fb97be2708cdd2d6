"""One benchmark worker: set up, run ops in a closed loop, report as JSON.

``run.py`` starts each worker in a fresh interpreter, one at a time, so
every run starts from the same process state. The worker takes one JSON
argument and prints one JSON object as its last line of standard output.

Modes:
  plan    print the workload's first generator seeds (``Workload.plan``)
  setup   set up, report when the first op could start, exit
  fixed   set up, then run exactly ``ops`` ops, from input ``skip`` on
  corpus  write the audit-replay transcripts into ``corpus``
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import resource
import sys
import time


def _load_program(root: str):
    import forcingbench
    src = os.path.join(root, "src", "")
    if not os.path.abspath(forcingbench.__file__).startswith(src):
        raise SystemExit(f"forcingbench was imported from {forcingbench.__file__}, "
                         f"not from {src}")
    # load every module the boundaries live in before any is patched
    import forcingbench.forcing  # noqa: F401
    import forcingbench.harness  # noqa: F401


def main(argv) -> int:
    cfg = json.loads(argv[1])
    _load_program(cfg["root"])
    import measure
    import tracing
    import workloads

    spec = workloads.WORKLOADS[cfg["workload"]]
    seed = cfg["seed"]
    if cfg["mode"] == "corpus":
        workloads.write_corpus(seed, cfg["corpus"])
        print(json.dumps({"corpus": cfg["corpus"]}))
        return 0
    if cfg["mode"] == "plan":
        print(json.dumps({"plan": list(itertools.islice(spec.gen_seeds(seed), spec.plan))}))
        return 0

    tracer, absent = None, []
    if cfg["trace"]:
        tracer = tracing.Tracer()
        absent = tracing.install(tracer)
    if spec.make is None:
        made = workloads.audit_inputs(cfg["corpus"])
        inputs = itertools.islice(itertools.cycle(made), cfg["skip"], None)
    else:
        stream = spec.inputs(seed, cfg["plan"])
        made = list(itertools.islice(stream, spec.pool))
        inputs = itertools.islice(itertools.chain(made, stream), cfg["skip"], None)
    shared_model = getattr(sys.modules.get("forcingbench.forcing.coh"),
                           "default_inner_model", None)
    if shared_model is not None:
        shared_model()
    ready = time.monotonic()
    out = {"ready": ready,
           "inputs_digest": hashlib.sha256(repr(made).encode()).hexdigest()}
    if cfg["mode"] == "setup":
        print(json.dumps(out))
        return 0

    decided: dict = {}

    def tally(x, output):
        for kind, (n, stages) in workloads.decided_counts(output.transcript).items():
            a, b = decided.get(kind, (0, 0))
            decided[kind] = (a + n, b + stages)

    def check(x, output):
        return workloads.record(output), spec.check(x, output)

    def before_op(i):
        tracer.op_id = i

    res = measure.closed_loop(
        inputs, spec.op, check,
        n_ops=cfg["ops"],
        before_op=before_op if tracer is not None else None,
        after_op=tally if tracer is not None else None)
    out.update(
        attempted=res.attempted, latencies=res.latencies,
        failures=dict(res.failures), tracebacks=res.tracebacks,
        records=res.records, wall_s=res.wall_s, wrong_outputs=res.wrong_outputs,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        decided=decided)
    if tracer is not None:
        out["layers"], out["absent"] = tracing.layer_metrics(tracer, absent, decided)
        out["spans"] = len(tracer.start)
        tracer.write(cfg["spans"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
