"""The closed loop that times ops, and the statistics taken from it."""

from __future__ import annotations

import hashlib
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
# Coarse steps, so that the change in sample count that a noisy machine or a
# faster commit causes does not move a workload to another percentile. There
# is no step above p90: audit-replay cycles through a few dozen stored
# transcripts, so its top 1% of ops would be repeats of the one costliest
# transcript of the seed, not a tail of many samples.
TAIL_PERCENTILES = (90.0, 75.0, 50.0)


@dataclass
class LoopResult:
    attempted: int = 0
    latencies: List[float] = field(default_factory=list)  # completed ops only
    failures: Counter = field(default_factory=Counter)  # by exception type or check
    tracebacks: Dict[str, str] = field(default_factory=dict)  # first one per type
    records: List[str] = field(default_factory=list)  # one per attempted op
    wall_s: float = 0.0
    wrong_outputs: int = 0  # ops whose output or audit was wrong

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


CHECK_FAILED = "OpFailed"  # failure kind of an op that returned a wrong output
RAISED = "raised:"  # record of an op that raised, before the exception type


def closed_loop(inputs: Iterable, op: Callable, check: Callable, n_ops: int,
                before_op: Optional[Callable[[int], None]] = None,
                after_op: Optional[Callable] = None) -> LoopResult:
    """Run ops back to back on the inputs in turn.

    The next op starts only when the previous one has finished. The loop
    stops after `n_ops` ops. `op(input)`
    returns an output; `check(input, output)` runs after the op's timer has
    stopped and returns (record, problem or None). An op that raises, or
    whose check reports a problem, counts as failed and the loop goes on.
    """
    res = LoopResult()
    inputs = iter(inputs)
    clock = time.perf_counter
    start = clock()
    i = 0
    while i < n_ops:
        x = next(inputs)
        if before_op is not None:
            before_op(i)
        t0 = clock()
        try:
            out = op(x)
        except Exception as exc:  # an op's failure must not stop the batch
            kind = type(exc).__name__
            res.failures[kind] += 1
            res.tracebacks.setdefault(kind, traceback.format_exc())
            res.records.append(RAISED + kind)
        else:
            latency = clock() - t0
            record, problem = check(x, out)
            if problem is None:
                res.latencies.append(latency)
                res.records.append(record)
                if after_op is not None:
                    after_op(x, out)
            else:
                res.failures[CHECK_FAILED] += 1
                res.tracebacks.setdefault(CHECK_FAILED, f"op {i}: {problem}")
                res.records.append(f"{record}:wrong")
                res.wrong_outputs += 1
        i += 1
    res.attempted = i
    res.wall_s = clock() - start
    return res


def tail_latency(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """The highest of TAIL_PERCENTILES with at least `beyond` samples above it.

    Returns (value, percentile, sample count), the value by nearest rank.
    With too few samples for any of them, returns the maximum as the 100th.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    for p in TAIL_PERCENTILES:
        k = -(-round(p * 100) * n // 10000) - 1  # ceil(p/100 * n) - 1, exactly
        if n - 1 - k >= beyond:
            return xs[k], p, n
    return xs[-1], 100.0, n


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def first_difference(earlier: Sequence[str], later: Sequence[str]) -> Optional[int]:
    """The first op whose record changed between two runs of the same inputs.

    An op that raised in the earlier run is not compared: a commit that
    fixes a failure changes that op's record, but no transcript that existed
    before. Ops that only one of the runs reached are not compared either.
    """
    for i, (a, b) in enumerate(zip(earlier, later)):
        if a != b and not a.startswith(RAISED):
            return i
    return None


def digest(records: Sequence[str]) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(r.encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()
