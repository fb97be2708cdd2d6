"""Tests of the benchmark's own logic: statistics, spans, failures, inputs."""

import itertools
import json
import os
import sys
import types

import pytest

import measure
import run
import tracing
import workloads


def test_tail_percentile_follows_sample_count():
    assert measure.tail_latency(range(100)) == (89, 90.0, 100)
    assert measure.tail_latency(range(99))[1:] == (75.0, 99)
    assert measure.tail_latency(range(40)) == (29, 75.0, 40)
    assert measure.tail_latency(range(39))[1:] == (50.0, 39)
    assert measure.tail_latency(range(20))[1:] == (50.0, 20)
    assert measure.tail_latency(range(304))[1:] == (90.0, 304)
    assert measure.tail_latency(range(10000)) == (8999, 90.0, 10000)
    value, pct, n = measure.tail_latency([3.0, 1.0, 2.0])
    assert (value, pct, n) == (3.0, 100.0, 3)  # too few samples: the maximum
    assert measure.tail_latency(range(19)) == (18, 100.0, 19)
    with pytest.raises(ValueError):
        measure.tail_latency([])


def test_tail_leaves_at_least_ten_samples_beyond():
    for n in (20, 57, 304, 999, 2427, 10001):
        xs = [float(i) for i in range(n)]
        value, pct, _ = measure.tail_latency(xs)
        beyond = sum(1 for x in xs if x > value)
        assert beyond >= measure.TAIL_BEYOND
        assert sum(1 for x in xs if x <= value) >= pct / 100 * n


def test_self_time_of_nested_and_recursive_spans():
    spans = [
        ("verify", 0.0, 10.0, -1),
        ("verify", 1.0, 5.0, 0),  # recursive call inside the first
        ("machine", 2.0, 4.0, 1),
        ("machine", 6.0, 7.0, 0),
    ]
    st = tracing.span_stats(spans)
    assert st["verify"]["calls"] == 2
    assert st["verify"]["busy_s"] == 10.0  # the outermost span only
    assert st["verify"]["self_s"] == (10.0 - 4.0 - 1.0) + (4.0 - 2.0)
    assert st["machine"] == {"calls": 2, "busy_s": 3.0, "self_s": 3.0}


@pytest.fixture
def fake_program(monkeypatch):
    """Two modules of a program, the second importing a function by name."""
    a = types.ModuleType("forcingbench.fake_a")
    b = types.ModuleType("forcingbench.fake_b")

    def leaf(x):
        return x + 1

    def walk(n):
        return a.leaf(n) if n == 0 else a.walk(n - 1)

    a.leaf, a.walk = leaf, walk
    b.leaf = leaf
    monkeypatch.setitem(sys.modules, a.__name__, a)
    monkeypatch.setitem(sys.modules, b.__name__, b)
    return a, b


def test_install_wraps_names_imported_elsewhere_and_marks_absent(fake_program):
    a, b = fake_program
    ticks = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    absent = tracing.install(tracer, boundaries=(
        ("fake.leaf", "forcingbench.fake_a", "leaf"),
        ("fake.walk", "forcingbench.fake_a", "walk"),
        ("fake.gone", "forcingbench.fake_a", "removed_in_a_refactor"),
        ("fake.nomodule", "forcingbench.fake_missing", "f"),
    ), hooks={})
    assert absent == ["fake.gone", "fake.nomodule"]
    assert b.leaf is a.leaf  # the name imported into b is wrapped too
    assert b.leaf(1) == 2
    assert a.walk(2) == 1
    st = tracing.span_stats(tracer.spans())
    assert st["fake.leaf"]["calls"] == 2
    assert st["fake.walk"]["calls"] == 3
    # walk(2) -> walk(1) -> walk(0) -> leaf: only the outermost walk is busy time
    outer = next(s for s in tracer.spans() if s[0] == "fake.walk")
    assert st["fake.walk"]["busy_s"] == outer[2] - outer[1]


def test_layer_metrics_mark_metrics_of_absent_boundaries():
    tracer = tracing.Tracer()
    _, missing = tracing.layer_metrics(tracer, ["em.find_bad_partition"], {})
    assert missing == ["em.find_bad_partition.busy_s", "em.find_bad_partition.calls"]


def test_failed_ops_are_counted_and_the_loop_continues():
    def op(x):
        if x == 2:
            raise ZeroDivisionError("boom")
        return x

    def check(x, out):
        return f"r{out}", ("wrong" if out == 3 else None)

    res = measure.closed_loop([1, 2, 3, 4], op, check, n_ops=4)
    assert res.attempted == 4
    assert res.failures == {"ZeroDivisionError": 1, "OpFailed": 1}
    assert res.failed == 2
    assert res.wrong_outputs == 1
    assert len(res.latencies) == 2
    assert res.records == ["r1", "raised:ZeroDivisionError", "r3:wrong", "r4"]
    assert "boom" in res.tracebacks["ZeroDivisionError"]


def test_digest_comparison_ignores_ops_that_used_to_raise():
    earlier = ["a", "raised:UnrealizedOperatorError", "c"]
    assert measure.first_difference(earlier, ["a", "b", "c"]) is None
    assert measure.first_difference(earlier, ["a", "b", "d"]) == 2
    assert measure.first_difference(earlier, ["a", "raised:KeyError", "c", "d"]) is None
    assert measure.first_difference(["a", "b"], ["a", "raised:KeyError"]) == 1


def test_ops_of_a_run_depend_on_its_seconds_alone():
    # where the workers split a run's ops must not move from run to run
    assert run.slices(55) == [11, 11, 11, 11, 11]
    assert run.slices(2001) == [401, 400, 400, 400, 400]
    assert run.slices(2) == [1, 1, 1, 1, 1]
    assert run.batches(25) == 8 and run.batches(1) == 1


@pytest.mark.parametrize("name", ["em-fallow", "d2-part", "rt2-batch"])
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    spec = workloads.WORKLOADS[name]

    def first(seed):
        return list(itertools.islice(spec.inputs(seed), 4))

    assert first(7) == first(7)
    assert first(7) != first(8)
    assert len({repr(x) for x in first(7)}) == 4


@pytest.mark.parametrize("name", ["em-fallow", "d2-part", "rt2-batch"])
def test_planned_inputs_are_the_stream_s_inputs(name):
    spec = workloads.WORKLOADS[name]
    plan = list(itertools.islice(spec.gen_seeds(5), 3))
    assert (list(itertools.islice(spec.inputs(5, plan), 6))
            == list(itertools.islice(spec.inputs(5), 6)))


def test_planned_em_inputs_need_no_search(monkeypatch):
    spec = workloads.WORKLOADS["em-fallow"]
    plan = list(itertools.islice(spec.gen_seeds(5), 4))
    calls = []
    gen = workloads.generators.gen_stable_coloring
    monkeypatch.setattr(workloads.generators, "gen_stable_coloring",
                        lambda *a, **kw: calls.append(a) or gen(*a, **kw))
    made = list(itertools.islice(spec.inputs(5, plan), len(plan)))
    assert len(calls) == len(plan)
    assert [c.declared_bound for c in made] == list(workloads.STAB_ORDER[:4])


def test_em_inputs_follow_the_stabilization_order():
    made = list(itertools.islice(workloads.WORKLOADS["em-fallow"].inputs(3),
                                 len(workloads.STAB_ORDER) + 2))
    bounds = [c.declared_bound for c in made]
    assert bounds[:-2] == list(workloads.STAB_ORDER)
    assert sorted(workloads.STAB_ORDER) == list(range(2, workloads.STAB_MAX + 1))
    assert sorted(bounds[:16]) == list(range(2, workloads.STAB_MAX + 1, 2))


def test_benchmark_json_lists_what_the_code_measures():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    measured, _ = tracing.layer_metrics(tracing.Tracer(), [], {})
    assert {m["name"] for m in bench["per_layer"]} == set(measured) | {"trace.overhead"}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) <= set(workloads.WORKLOADS)
