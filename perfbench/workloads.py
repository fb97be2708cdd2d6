"""The workloads: their inputs, their op, and the check of each op's output.

Every input comes from ``forcingbench.harness.generators`` under seeds drawn
from the benchmark's ``--seed``; the program sees only the generated inputs.
On the construction workloads no input repeats within a worker. Ops call
the program through module attributes at call time, so a tracer installed
after import sees every call.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from forcingbench import forcing, programs
from forcingbench.approx import SetPresentation
from forcingbench.harness import generators, oracles, transcripts

EM_PARAMS = {"k": 3, "window": 40, "stages": 200}
D2_PARAMS = {"k": 2, "window": 64, "stages": 300}
RT2_PARAMS = {"k": 2, "window": 48, "stages": 60}
COH_STAGES = 60

# EM cost falls steeply with the coloring's stabilization bound (about 1.5 s
# per instance at 2, 0.06 s at 32 on one core), and that bound alone explains
# most of the spread between instances. Each EM input is drawn until its
# bound equals the next value of this order, so every run holds the same mix
# of bounds as the generator's own uniform draw over 2..32, without its
# sampling noise. The order is bit-reversed, so any prefix spreads evenly.
STAB_MAX = 32  # gen_stable_coloring's default stab_max
STAB_ORDER = tuple(2 + p for p in sorted(range(STAB_MAX - 1),
                                         key=lambda p: int(f"{p:05b}"[::-1], 2)))
MAX_DRAWS = 4096  # per EM input; the draw succeeds with probability 1/31


def _seeds(workload: str, seed: int) -> Iterator[int]:
    rng = random.Random(f"perfbench:{workload}:{seed}")
    while True:
        yield rng.getrandbits(32)


def make_em(s: int):
    return generators.gen_stable_coloring(s, k=EM_PARAMS["k"], bound=EM_PARAMS["window"])


def make_d2(s: int):
    return generators.gen_d2_partition(s, k=D2_PARAMS["k"], bound=D2_PARAMS["window"])


def make_rt2(s: int):
    return generators.gen_coloring(s, k=RT2_PARAMS["k"], bound=RT2_PARAMS["window"])


def em_seeds(seed: int) -> Iterator[int]:
    """Generator seeds whose colorings' stabilization bounds follow STAB_ORDER."""
    seeds = _seeds("em-fallow", seed)
    for target in itertools.cycle(STAB_ORDER):
        for _ in range(MAX_DRAWS):
            s = next(seeds)
            if make_em(s).declared_bound == target:
                yield s
                break
        else:
            raise RuntimeError(f"no coloring with stabilization bound {target} "
                               f"in {MAX_DRAWS} draws")


def d2_seeds(seed: int) -> Iterator[int]:
    return _seeds("d2-part", seed)


def rt2_seeds(seed: int) -> Iterator[int]:
    return _seeds("rt2-batch", seed)


def coh_family() -> Tuple[List, "forcing.CohConfig"]:
    """The four-set family and configuration of acceptance criterion 5."""
    family = [
        SetPresentation.from_set(range(0, 128, 2), 128),
        SetPresentation.from_set(range(0, 128, 3), 128),
        SetPresentation.from_set([x for x in range(128) if x % 5 < 2], 128),
        SetPresentation.from_program(programs.EVENS_DECIDER.index, 128, 512),
    ]
    return family, forcing.CohConfig(window=128, density_min=8)


@dataclass
class Output:
    transcript: object
    result: object  # what the construction extracted
    digest: str  # sha256 of the canonical transcript
    audit: object  # AuditReport


def _counts(audit) -> str:
    c = audit.counts
    return f"{c['certified']}/{c['provisional']}/{c['refuted']}"


def _finish(t, result, instance) -> Output:
    # what `forcingbench run-*` does after the construction
    digest = transcripts.transcript_hash(t)
    return Output(t, result, digest, forcing.verify_transcript(t, instance=instance))


def em_op(c) -> Output:
    t, b = forcing.run_em(c, EM_PARAMS["stages"])
    return _finish(t, b, c)


def d2_op(d) -> Output:
    t, (color, b) = forcing.run_d2(d, D2_PARAMS["stages"])
    return _finish(t, (color, b), d)


def rt2_op(c) -> Output:
    h, t = forcing.rt2_pipeline(c, RT2_PARAMS["stages"])
    return _finish(t, h, c)


def _audit_problem(out: Output) -> Optional[str]:
    refuted = out.audit.counts["refuted"]
    return f"{refuted} refuted findings" if refuted else None


def em_check(c, out: Output) -> Optional[str]:
    rep = oracles.brute_oracle("fallow", c, members=out.result)
    return _audit_problem(out) or (None if rep.detail["ok"] else
                                   f"not fallow: triple {rep.witness}")


def d2_check(d, out: Output) -> Optional[str]:
    color, b = out.result
    part = set(oracles.brute_oracle("d2_subset", d, color=color).witness)
    outside = sorted(set(b) - part)
    return _audit_problem(out) or (f"outside part {color}: {outside}" if outside else None)


def rt2_check(c, out: Output) -> Optional[str]:
    mono = oracles.monochromatic(c, out.result)
    return _audit_problem(out) or (None if mono is not None else "not monochromatic")


# -- audit-replay ---------------------------------------------------------

CORPUS = {"em-fallow": 8, "d2-part": 8, "rt2-batch": 8}  # transcripts per kind


@dataclass
class CorpusEntry:
    path: str
    instance: object  # None for the coh family, whose audit needs none
    sha256: str
    counts: str  # audit counts when the transcript was made


def write_corpus(seed: int, directory: str) -> None:
    """Make and store the transcripts that audit-replay loads.

    They are what the code under test produces for the construction
    workloads' first inputs under this seed, plus the coh family's.
    """
    manifest = []

    def store(t, workload, gen_seed, out_audit):
        path = os.path.join(directory, f"{len(manifest):03d}-{t.kind}.json")
        _, sha = transcripts.emit_transcript(t, path)
        manifest.append({"file": os.path.basename(path), "workload": workload,
                         "gen_seed": gen_seed, "sha256": sha, "counts": _counts(out_audit)})

    for workload, n in CORPUS.items():
        spec = WORKLOADS[workload]
        for index, s in enumerate(itertools.islice(spec.gen_seeds(seed), n)):
            x = spec.make(s)
            out = spec.op(x)
            problem = spec.check(x, out)
            if problem is not None:
                raise RuntimeError(f"{workload} input {index}: {problem}")
            store(out.transcript, workload, s, out.audit)
    family, cfg = coh_family()
    t, _ = forcing.run_coh(family, COH_STAGES, config=cfg)
    audit = forcing.verify_transcript(t)
    if audit.counts["refuted"]:
        raise RuntimeError("coh family transcript refuted")
    store(t, None, None, audit)
    with open(os.path.join(directory, "manifest.json"), "w", encoding="ascii") as fh:
        json.dump(manifest, fh)


def audit_inputs(directory: str) -> List[CorpusEntry]:
    """The corpus entries, each with its instance made again from its generator seed."""
    with open(os.path.join(directory, "manifest.json"), encoding="ascii") as fh:
        manifest = json.load(fh)
    return [CorpusEntry(os.path.join(directory, e["file"]),
                        None if e["workload"] is None else
                        WORKLOADS[e["workload"]].make(e["gen_seed"]),
                        e["sha256"], e["counts"])
            for e in manifest]


def audit_op(entry: CorpusEntry) -> Output:
    # what `forcingbench verify <transcript> --instance <file>` does
    t = transcripts.load_transcript(entry.path)
    return Output(t, None, entry.sha256, forcing.verify_transcript(t, instance=entry.instance))


def audit_check(entry: CorpusEntry, out: Output) -> Optional[str]:
    got = _counts(out.audit)
    return _audit_problem(out) or (None if got == entry.counts else
                                   f"audit counts {got}, {entry.counts} when made")


@dataclass(frozen=True)
class Workload:
    name: str
    # The benchmark's seed to an endless stream of distinct generator seeds,
    # and a generator seed to its input; None on audit-replay.
    gen_seeds: Optional[Callable[[int], Iterator[int]]]
    make: Optional[Callable[[int], object]]
    op: Callable
    check: Callable
    # Inputs made at set-up, about as many as one run uses at the seed
    # commit; later ones are made between ops, outside the op's timer.
    pool: int
    # Generator seeds looked up before any worker starts, so that no worker
    # searches the stream (em-fallow's search draws 31 colorings per input).
    plan: int

    def inputs(self, seed: int, plan: Sequence[int] = ()) -> Iterator:
        """Endless distinct inputs: those of the planned generator seeds,
        then those of the rest of the stream."""
        rest = itertools.islice(self.gen_seeds(seed), len(plan), None)
        return map(self.make, itertools.chain(plan, rest))


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("em-fallow", em_seeds, make_em, em_op, em_check,
                 pool=2 * len(STAB_ORDER), plan=6 * len(STAB_ORDER)),
        # not run on its own (see run.WORKLOADS); it makes audit-replay's
        # d2 transcripts
        Workload("d2-part", d2_seeds, make_d2, d2_op, d2_check, pool=0, plan=0),
        Workload("rt2-batch", rt2_seeds, make_rt2, rt2_op, rt2_check, pool=400, plan=400),
        Workload("audit-replay", None, None, audit_op, audit_check, pool=0, plan=0),
    )
}


def record(out: Output) -> str:
    """One op's line in the equivalence digest: transcript hash and verdicts."""
    return f"{out.digest}:{_counts(out.audit)}"


def decided_counts(t) -> Dict[str, Tuple[int, int]]:
    """Per engine: (Case1 + Case2 stages, all stages) in a transcript,
    counting the nested coh and d2 runs of an rt2 transcript."""
    found: Dict[str, Tuple[int, int]] = {}

    def add(kind, branches):
        n = sum(1 for b in branches if b in ("Case1", "Case2"))
        a, b = found.get(kind, (0, 0))
        found[kind] = (a + n, b + len(branches))

    if t.kind == "rt2":
        for inner in (t.extraction["coh"], t.extraction["d2"]):
            add(inner["kind"], [s["branch"] for s in inner["stages"]])
    else:
        add(t.kind, [s.branch for s in t.stages])
    return found
