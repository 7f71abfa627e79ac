"""Tests of the benchmark harness itself: span arithmetic, the solve counter, digests.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import statistics
import time
from types import SimpleNamespace

import pytest
from clock import EDGE_RUNS, REFERENCE_SECONDS, ReferenceClock, scale
from spans import (
    BOUNDARIES,
    UNIT_SPAN,
    WRAPPER,
    SolveInputs,
    Tracer,
    _resolve,
    self_times,
    wrapper_cost,
)
from workloads import FigureWorkload, digest


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 6.0, 0),  # 5 s, of which 3 s in b
        ("b", 2.0, 5.0, 1),  # 3 s, of which 1 s in c
        ("c", 3.0, 4.0, 2),
        ("a", 7.0, 9.0, 0),  # a second, childless call of a
    ]
    totals = self_times(spans, 0.0)
    assert totals == pytest.approx({"root": 3.0, "a": 4.0, "b": 2.0, "c": 1.0, WRAPPER: 0.0})
    assert sum(totals.values()) == pytest.approx(10.0)


def test_wrapper_cost_moves_from_each_caller_to_the_wrapper():
    spans = [("root", 0.0, 10.0, -1), ("a", 1.0, 6.0, 0), ("b", 2.0, 5.0, 1)]
    totals = self_times(spans, wrapper_s=0.5)
    assert totals == pytest.approx({"root": 4.5, "a": 1.5, "b": 3.0, WRAPPER: 1.0})
    assert sum(totals.values()) == pytest.approx(10.0)


def test_wrapper_cost_is_a_small_positive_time():
    assert 0.0 < wrapper_cost() < 1e-3


def test_self_time_of_same_name_nesting_counts_once():
    # A subclass override calling super(): both frames share the name.
    spans = [("root", 0.0, 4.0, -1), ("x", 0.0, 3.0, 0), ("x", 1.0, 2.0, 1)]
    assert self_times(spans, 0.0) == pytest.approx({"root": 1.0, "x": 3.0, WRAPPER: 0.0})


def test_tracer_records_nested_spans_and_counts_outer_calls_only():
    tracer = Tracer()

    def inner():
        return tracer.call("layer", lambda: 7)

    assert tracer.root(UNIT_SPAN, lambda: tracer.call("layer", inner)) == 7
    names = [span[0] for span in tracer.spans]
    parents = [span[3] for span in tracer.spans]
    assert names == [UNIT_SPAN, "layer", "layer"]
    assert parents == [-1, 0, 1]
    totals = self_times(tracer.spans, 0.0)
    root_span = tracer.spans[0]
    assert sum(totals.values()) == pytest.approx(root_span[2] - root_span[1])


def test_scale_divides_out_a_slow_host():
    # The loop ran at twice its nominal time, so the work's host
    # seconds are twice its reference seconds.
    assert scale(3.0, 2 * REFERENCE_SECONDS) == pytest.approx(1.5)
    assert scale(3.0, REFERENCE_SECONDS) == pytest.approx(3.0)


def test_reference_clock_samples_during_work_and_takes_its_time_out():
    clock = ReferenceClock()
    assert clock.time(lambda x: x + 1, 41)[0] == 42

    def busy():  # 0.35 host seconds, however many samples interrupt it
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass

    runs = len(clock.loop_seconds)
    before = statistics.mean(clock.loop_seconds[-EDGE_RUNS:])
    _, seconds = clock.time(busy)
    during = clock.loop_seconds[runs:-EDGE_RUNS]
    after = statistics.mean(clock.loop_seconds[-EDGE_RUNS:])
    assert len(during) >= 2
    speed = statistics.mean([before, after, *during])
    assert seconds == pytest.approx(scale(0.35 - sum(during), speed), rel=0.05)

    runs = len(clock.loop_seconds)
    clock.time(busy, sample_during=False)
    assert len(clock.loop_seconds) == runs + EDGE_RUNS


def _flow(flow_id, path=("l0",), weight=1.0, rate_cap=None):
    return SimpleNamespace(flow_id=flow_id, path=list(path), weight=weight, rate_cap=rate_cap)


def test_redundant_solve_counter_on_a_hand_made_sequence():
    counter = SolveInputs()
    caps = {"l0": 10.0, "l1": 5.0}
    a, b = _flow("a"), _flow("b", path=("l0", "l1"))
    sequence = [
        (([a, b], caps, None), False),  # first solve
        (([a, b], dict(caps), {}), True),  # same inputs, fresh containers
        (([a], caps, None), False),  # a flow left
        (([a], caps, None), True),
        (([a], caps, {"a": 2.0}), False),  # throttle override
        (([a], caps, {"a": 2.0}), True),
        (([a], {"l0": 8.0, "l1": 5.0}, {"a": 2.0}), False),  # capacity change
        (([_flow("a", weight=2.0)], {"l0": 8.0, "l1": 5.0}, {"a": 2.0}), False),
        (([_flow("a", path=("l1",), weight=2.0)], {"l0": 8.0, "l1": 5.0}, {"a": 2.0}), False),
    ]
    for (flows, capacities, overrides), repeated in sequence:
        assert counter.observe(flows, capacities, overrides) is repeated
    assert (counter.calls, counter.redundant) == (9, 3)


def test_in_place_capacity_change_is_not_redundant():
    counter = SolveInputs()
    caps = {"l0": 10.0}
    counter.observe([_flow("a")], caps)
    caps["l0"] = 4.0
    assert not counter.observe([_flow("a")], caps)


def test_every_boundary_target_resolves_and_install_restores_it():
    originals = []
    for boundary in BOUNDARIES:
        for module, path in boundary.targets:
            owner, attr = _resolve(module, path)
            originals.append((owner, attr, getattr(owner, attr)))
    with Tracer().install():
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in originals)
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)


def _round(workload, seed, tracer=None):
    def unit(name, fn):
        return fn() if tracer is None else tracer.root(UNIT_SPAN, fn)

    outcome = workload.run(workload.build(seed), unit)
    assert outcome.failed == 0 and not outcome.problems
    return digest(outcome.behaviour)


def test_digest_repeats_across_seed_zero_runs_traced_or_not():
    workload = FigureWorkload("one-fabric", congested=True, instances=1, size_gib=1.0)
    first = _round(workload, 0)
    assert _round(workload, 0) == first
    tracer = Tracer()
    with tracer.install():
        assert _round(workload, 0, tracer) == first
    assert tracer.counts["netsim.solve.calls"] > 0
    assert _round(workload, 1) != first
