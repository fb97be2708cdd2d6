"""Spans at the program's module boundaries, recorded from outside the program.

A boundary is a function of a ``forcingbench`` module. Installing a tracer
replaces every attribute of every loaded ``forcingbench.*`` module that is
bound to the boundary's function object, so a name imported elsewhere with
``from x import f`` is wrapped too. A boundary that no longer exists is
reported as absent instead of failing the run.

Spans stay in memory, in flat arrays, until the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (span name, module, attribute). Two functions may share a span name; the
# span then counts as one layer and nested calls of it as recursion.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("machine.run_program", "forcingbench.machine", "run_program"),
    ("pairing.decode_list", "forcingbench.pairing", "decode_list"),
    ("base.fallow_check", "forcingbench.forcing.base", "fallow_check"),
    ("base.find_halt_witness", "forcingbench.forcing.base", "find_halt_witness"),
    ("base.bounded_halt", "forcingbench.forcing.base", "bounded_halt"),
    ("base.limit_color", "forcingbench.forcing.base", "limit_color"),
    ("em.run_em", "forcingbench.forcing.em", "run_em"),
    ("em.valid_em_extension", "forcingbench.forcing.em", "valid_em_extension"),
    # The bad-partition search has no public entry; EM defines it and D2
    # imports it by name, so this is its cross-module entry.
    ("em.find_bad_partition", "forcingbench.forcing.em", "_find_bad_partition"),
    ("d2.run_d2", "forcingbench.forcing.d2", "run_d2"),
    ("coh.run_coh", "forcingbench.forcing.coh", "run_coh"),
    ("pipeline.rt2_pipeline", "forcingbench.forcing.pipeline", "rt2_pipeline"),
    ("omega_model.derived_index", "forcingbench.omega_model", "derived_index"),
    ("omega_model.select", "forcingbench.omega_model", "pi2_select"),
    ("omega_model.select", "forcingbench.omega_model", "select_infinite_part"),
    ("omega_model.build_model", "forcingbench.omega_model", "build_model"),
    ("verify", "forcingbench.forcing.verify", "verify_transcript"),
    ("transcripts.load", "forcingbench.harness.transcripts", "load_transcript"),
    ("transcripts.hash", "forcingbench.harness.transcripts", "transcript_hash"),
)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _count_steps(tracer, args, kwargs, result):
    tracer.counts["machine.steps"] += result.steps


def _count_elems(tracer, args, kwargs, result):
    s = _arg(args, kwargs, 1, "s")
    tracer.counts["base.fallow_check.elems"] += len(s) if hasattr(s, "__len__") else 0


def _count_hits(tracer, args, kwargs, result):
    tracer.counts["base.find_halt_witness.hits"] += result[0] is not None


def _keep_model(tracer, args, kwargs, result):
    m = _arg(args, kwargs, 0, "m")
    tracer.models[id(m)] = m


def _count_findings(tracer, args, kwargs, result):
    if not tracer.inside("verify"):
        for grade, n in result.counts.items():
            tracer.counts[f"verify.findings.{grade}"] += n


def _count_bytes(tracer, args, kwargs, result):
    tracer.counts["transcripts.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


# Counters read from a boundary's arguments or result after the span closes.
HOOKS: Dict[str, Callable] = {
    "machine.run_program": _count_steps,
    "base.fallow_check": _count_elems,
    "base.find_halt_witness": _count_hits,
    "omega_model.derived_index": _keep_model,
    "verify": _count_findings,
    "transcripts.load": _count_bytes,
}


class Tracer:
    """Records one span per boundary call: name, start, end, parent, op id."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1  # -1 marks set-up, before the first op
        self.counts: Counter = Counter()
        self.models: Dict[int, object] = {}
        self._stack: List[int] = []

    def inside(self, span_name: str) -> bool:
        """Whether a span of this name is open below the current one."""
        nid = self._ids[span_name]
        return any(self.name[i] == nid for i in self._stack)

    def wrap(self, span_name: str, fn: Callable, hook: Optional[Callable] = None):
        nid = self._ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        clock, stack = self.clock, self._stack
        name, start, end, parent, op = self.name, self.start, self.end, self.parent, self.op

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def spans(self) -> List[Tuple[str, float, float, int]]:
        names = self.names
        return [(names[n], s, e, p) for n, s, e, p in
                zip(self.name, self.start, self.end, self.parent)]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("name,start,end,parent,op\n")
            names = self.names
            fh.writelines(
                f"{names[n]},{s:.9f},{e:.9f},{p},{o}\n" for n, s, e, p, o in
                zip(self.name, self.start, self.end, self.parent, self.op))


def install(tracer: Tracer, boundaries=BOUNDARIES, hooks=HOOKS) -> List[str]:
    """Wrap every boundary in every loaded ``forcingbench`` module.

    Returns the span names of boundaries that do not exist.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "forcingbench" or n.startswith("forcingbench."))]
    absent = []
    for span_name, mod_name, attr in boundaries:
        mod = sys.modules.get(mod_name)
        orig = getattr(mod, attr, None) if mod is not None else None
        if not callable(orig):
            absent.append(span_name)
            continue
        traced = tracer.wrap(span_name, orig, hooks.get(span_name))
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, traced)
    return absent


def span_stats(spans: Sequence[Tuple[str, float, float, int]]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, busy time and self time.

    `spans` holds (name, start, end, parent index or -1). Self time is a
    span's duration minus the time its direct children cover. Busy time
    counts only spans with no ancestor of the same name, so a recursive
    call is not counted twice.
    """
    child = [0.0] * len(spans)
    for name, s, e, p in spans:
        if p >= 0:
            child[p] += e - s
    stats: Dict[str, Dict[str, float]] = {}
    for i, (name, s, e, p) in enumerate(spans):
        st = stats.get(name)
        if st is None:
            st = stats[name] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        st["calls"] += 1
        st["self_s"] += (e - s) - child[i]
        j = p
        while j >= 0 and spans[j][0] != name:
            j = spans[j][3]
        if j < 0:
            st["busy_s"] += e - s
    return stats


def layer_metrics(tracer: Tracer, absent: Sequence[str],
                  decided: Dict[str, Tuple[int, int]]) -> Tuple[Dict[str, float], List[str]]:
    """The per-layer metrics of a traced run, and those whose boundary is absent.

    `decided` maps an engine to (Case1 + Case2 stages, all stages) read
    from the transcripts the run produced or loaded.
    """
    st = span_stats(tracer.spans())
    c = tracer.counts

    def get(span: str, key: str) -> float:
        return st.get(span, {}).get(key, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def decided_ratio(kind: str) -> float:
        return ratio(*decided.get(kind, (0, 0)))

    machine_busy = get("machine.run_program", "busy_s")
    table = {  # metric: (span it is measured at, value)
        "machine.run_program.calls": ("machine.run_program", get("machine.run_program", "calls")),
        "machine.steps": ("machine.run_program", c["machine.steps"]),
        "machine.busy_s": ("machine.run_program", machine_busy),
        "machine.steps_per_s": ("machine.run_program", ratio(c["machine.steps"], machine_busy)),
        "pairing.decode_list.calls": ("pairing.decode_list", get("pairing.decode_list", "calls")),
        "pairing.decode_list.busy_s": ("pairing.decode_list", get("pairing.decode_list", "busy_s")),
        "base.fallow_check.calls": ("base.fallow_check", get("base.fallow_check", "calls")),
        "base.fallow_check.elems": ("base.fallow_check", c["base.fallow_check.elems"]),
        "base.fallow_check.busy_s": ("base.fallow_check", get("base.fallow_check", "busy_s")),
        "base.find_halt_witness.calls": ("base.find_halt_witness",
                                         get("base.find_halt_witness", "calls")),
        "base.find_halt_witness.busy_s": ("base.find_halt_witness",
                                          get("base.find_halt_witness", "busy_s")),
        "base.find_halt_witness.hit_ratio": ("base.find_halt_witness", ratio(
            c["base.find_halt_witness.hits"], get("base.find_halt_witness", "calls"))),
        "base.bounded_halt.calls": ("base.bounded_halt", get("base.bounded_halt", "calls")),
        "base.limit_color.calls": ("base.limit_color", get("base.limit_color", "calls")),
        "base.limit_color.busy_s": ("base.limit_color", get("base.limit_color", "busy_s")),
        "em.run_em.self_s": ("em.run_em", get("em.run_em", "self_s")),
        "em.valid_em_extension.calls": ("em.valid_em_extension",
                                        get("em.valid_em_extension", "calls")),
        "em.valid_em_extension.busy_s": ("em.valid_em_extension",
                                         get("em.valid_em_extension", "busy_s")),
        "em.find_bad_partition.calls": ("em.find_bad_partition",
                                        get("em.find_bad_partition", "calls")),
        "em.find_bad_partition.busy_s": ("em.find_bad_partition",
                                         get("em.find_bad_partition", "busy_s")),
        "d2.run_d2.self_s": ("d2.run_d2", get("d2.run_d2", "self_s")),
        "coh.run_coh.self_s": ("coh.run_coh", get("coh.run_coh", "self_s")),
        "pipeline.rt2_pipeline.self_s": ("pipeline.rt2_pipeline",
                                         get("pipeline.rt2_pipeline", "self_s")),
        "omega_model.derived_index.calls": ("omega_model.derived_index",
                                            get("omega_model.derived_index", "calls")),
        "omega_model.derived_index.busy_s": ("omega_model.derived_index",
                                             get("omega_model.derived_index", "busy_s")),
        "omega_model.select.calls": ("omega_model.select", get("omega_model.select", "calls")),
        "omega_model.select.busy_s": ("omega_model.select", get("omega_model.select", "busy_s")),
        "omega_model.derived_rows": ("omega_model.derived_index", sum(
            len(getattr(m, "derived", ())) for m in tracer.models.values())),
        "omega_model.build_model.busy_s": ("omega_model.build_model",
                                           get("omega_model.build_model", "busy_s")),
        "verify.busy_s": ("verify", get("verify", "busy_s")),
        "verify.self_s": ("verify", get("verify", "self_s")),
        "verify.findings.certified": ("verify", c["verify.findings.certified"]),
        "verify.findings.provisional": ("verify", c["verify.findings.provisional"]),
        "verify.findings.refuted": ("verify", c["verify.findings.refuted"]),
        "transcripts.load.busy_s": ("transcripts.load", get("transcripts.load", "busy_s")),
        "transcripts.bytes": ("transcripts.load", c["transcripts.bytes"]),
        "transcripts.hash.busy_s": ("transcripts.hash", get("transcripts.hash", "busy_s")),
        "em.decided_ratio": (None, decided_ratio("em")),
        "d2.decided_ratio": (None, decided_ratio("d2")),
        "coh.decided_ratio": (None, decided_ratio("coh")),
    }
    values = {name: value for name, (_, value) in table.items()}
    missing = sorted(name for name, (span, _) in table.items() if span in absent)
    return values, missing
