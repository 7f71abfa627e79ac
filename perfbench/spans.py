"""Outside-in span tracing for the benchmark's traced run.

The tracer times each simulator layer at its public boundary by
replacing that boundary's function, where it is bound, with a timing
wrapper for the duration of a ``with`` block.  Nothing under ``src/``
knows about it.

A span is ``(name, start, end, parent)`` with ``parent`` the index of
the enclosing span (``-1`` at the root).  Spans stay in memory until the
run ends; :func:`self_times` turns them into per-layer self time, the
span's duration minus the part of it covered by its direct children.
Per-layer counters (events, redundant solves, retries, ...) are recorded
at the same boundaries, in :attr:`Tracer.counts`.

Work the tracer itself adds inside a layer (the redundant-solve input
comparison, the before/after reads of a hook) is recorded as its own
``trace.bookkeeping`` span, so it is attributed to the tracer rather
than inflating the enclosing layer's self time.  The cost of the timing
wrapper around each call, which falls outside the call's own span, is
measured by :func:`wrapper_cost` and moved from the caller's self time
to ``trace.wrapper`` by :func:`self_times`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

#: Span name of the harness's own unit of work (one arm, one scenario);
#: its self time is whatever no wrapped layer claimed.
UNIT_SPAN = "workload"
SETUP_SPAN = "setup"
BOOKKEEPING = "trace.bookkeeping"
WRAPPER = "trace.wrapper"
#: No-op calls timed by :func:`wrapper_cost`.
CALIBRATION_CALLS = 20_000

Span = tuple  # (name, start, end, parent_index)


def self_times(spans: Sequence[Span], wrapper_s: float) -> dict[str, float]:
    """Self time per span name: duration minus the direct children's.

    ``wrapper_s`` is the time the timing wrapper adds to a caller's self
    time per child span; it is moved from the caller to :data:`WRAPPER`.
    Summed over every name, self times equal the total duration of the
    root spans, so a layer breakdown always accounts for the traced wall.
    """
    totals: dict[str, float] = defaultdict(float)
    children = 0
    for name, start, end, parent in spans:
        duration = end - start
        totals[name] += duration
        if parent >= 0:
            totals[spans[parent][0]] -= duration + wrapper_s
            children += 1
    totals[WRAPPER] = children * wrapper_s
    return dict(totals)


class SolveInputs:
    """Counts max-min solves whose inputs repeat the previous solve's.

    Inputs are what determines the result: the active flows (id, weight,
    rate cap and path, in order), the cap overrides and the link
    capacities.  A solve is redundant when all of them equal the previous
    call's.
    """

    def __init__(self) -> None:
        self.calls = 0
        self.redundant = 0
        self.flows_total = 0
        self._previous: Optional[tuple] = None

    def observe(self, flows, capacities, cap_overrides=None) -> bool:
        """Record one solve's inputs; returns True when they repeat."""
        key = (
            tuple((f.flow_id, f.weight, f.rate_cap, tuple(f.path)) for f in flows),
            dict(cap_overrides or {}),
            dict(capacities),
        )
        repeated = key == self._previous
        self._previous = key
        self.calls += 1
        self.flows_total += len(flows)
        self.redundant += repeated
        return repeated


@dataclass(frozen=True)
class Boundary:
    """One layer boundary: a span name and where its function is bound.

    ``targets`` are ``(module, attribute path)`` pairs such as
    ``("repro.netsim.network", "FlowNetwork.run")``.  A module-level
    function imported by name elsewhere must be listed at every binding
    the program calls through.  ``hook`` names the :class:`Tracer` hook
    methods that record counters around the call; ``count_only`` records a call
    count instead of a span (for functions too hot to time).
    """

    name: str
    targets: tuple[tuple[str, str], ...]
    hook: Optional[str] = None
    count_only: bool = False


def _spec(name: str, *targets: str, hook: Optional[str] = None, count_only: bool = False):
    pairs = tuple(tuple(t.split(":")) for t in targets)
    return Boundary(name, pairs, hook, count_only)


#: The layer boundaries of the traced run, outermost layer first.
BOUNDARIES: tuple[Boundary, ...] = (
    _spec("netsim.run", "repro.netsim.network:FlowNetwork.run", hook="run"),
    _spec("netsim.rates", "repro.netsim.network:FlowNetwork.compute_rates"),
    _spec(
        "netsim.solve",
        "repro.netsim.network:max_min_rates",
        "repro.netsim.fairness:max_min_rates",
        "repro.netsim:max_min_rates",
        hook="solve",
    ),
    _spec("congestion.observe", "repro.netsim.congestion:CongestionModel.observe"),
    _spec("congestion.tick", "repro.netsim.congestion:CongestionModel.tick"),
    _spec(
        "congestion.throttle_of",
        "repro.netsim.congestion:CongestionModel.throttle_of",
        count_only=True,
    ),
    _spec("collective.run_op", "repro.collective.context:CollectiveContext.run_op"),
    _spec("telemetry.send", "repro.telemetry.unreliable:UnreliableChannel.send", hook="send"),
    _spec(
        "telemetry.ingest",
        "repro.telemetry.collector:CentralCollector.ingest_communicator",
        "repro.telemetry.collector:CentralCollector.ingest_launch",
        "repro.telemetry.collector:CentralCollector.ingest_op",
        "repro.telemetry.collector:CentralCollector.ingest_message",
    ),
    _spec("c4d.evaluate", "repro.core.c4d.master:C4DMaster.evaluate", hook="evaluate"),
    _spec("c4d.steer", "repro.core.c4d.steering:JobSteeringService.handle"),
    _spec(
        "c4p.allocate",
        "repro.core.c4p.master:C4PMaster.allocate",
        "repro.controlplane.c4p_plane:ResilientC4PMaster.allocate",
        hook="pool",
    ),
    _spec(
        "c4p.reallocate",
        "repro.core.c4p.master:C4PMaster.reallocate",
        hook="pool",
    ),
    _spec(
        "c4p.maintenance",
        "repro.core.c4p.master:C4PMaster.maintenance",
        "repro.controlplane.c4p_plane:ResilientC4PMaster.maintenance",
    ),
    _spec("journal.append", "repro.controlplane.journal:JournalStore.append"),
    _spec("journal.snapshot", "repro.controlplane.journal:JournalStore.snapshot"),
    _spec(
        "controlplane.recover",
        "repro.controlplane.c4d_plane:C4DControlPlane.recover",
        "repro.controlplane.c4p_plane:ResilientC4PMaster.recover",
    ),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span stack plus per-layer counters.

    Use :meth:`install` as a context manager to patch every boundary in
    :data:`BOUNDARIES`, and :meth:`root` around each unit of work and
    each set-up.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.solves = SolveInputs()
        self.sim_seconds = 0.0
        self._stack: list[int] = []
        self._names: list[str] = []
        self._channels: set = set()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _open(self, name: str) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._names.append(name)
        return index, parent

    def _close(self, index: int, name: str, start: float, end: float, parent: int) -> None:
        self._stack.pop()
        self._names.pop()
        self.spans[index] = (name, start, end, parent)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index, parent = self._open(name)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index, name, start, time.perf_counter(), parent)

    def root(self, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` as a root span (a unit of work, or set-up)."""
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        return self.call(name, fn, *args)

    def _nested_in_same(self, name: str) -> bool:
        """True when the innermost open span already has this name."""
        return bool(self._names) and self._names[-1] == name

    def _wrap(self, boundary: Boundary, original: Callable) -> Callable:
        name = boundary.name
        if boundary.count_only:
            counts = self.counts
            key = name + ".calls"

            @functools.wraps(original)
            def counted(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            return counted

        before = getattr(self, f"_before_{boundary.hook}", None)
        after = getattr(self, f"_after_{boundary.hook}", None)
        raised = getattr(self, f"_raised_{boundary.hook}", None)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            # A subclass override calling super() lands here twice; only
            # the outermost call is counted (its time nests correctly).
            if self._nested_in_same(name):
                return self.call(name, original, *args, **kwargs)
            self.counts[name + ".calls"] += 1
            state = self.call(BOOKKEEPING, before, *args, **kwargs) if before else None
            try:
                result = self.call(name, original, *args, **kwargs)
            except BaseException as exc:
                if raised:
                    self.call(BOOKKEEPING, raised, exc)
                raise
            if after:
                self.call(BOOKKEEPING, after, state, result, *args)
            return result

        return timed

    @contextlib.contextmanager
    def install(self):
        """Patch every boundary for the ``with`` block; restore them after."""
        saved = []
        try:
            for boundary in BOUNDARIES:
                for module, path in boundary.targets:
                    owner, attr = _resolve(module, path)
                    # A class's own __dict__ entry, not an inherited or bound one.
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(boundary, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Hooks, named ``_before_<hook>`` (gets the call's arguments, returns
    # state), ``_after_<hook>`` (gets that state, the result and the
    # positional arguments) and ``_raised_<hook>`` (gets the exception).
    # ------------------------------------------------------------------
    def _before_run(self, network, *args, **kwargs):
        return network.now, len(network.completed_flows), self.counts["netsim.rates.calls"]

    def _after_run(self, state, result, network, *args):
        now, completed, rates_calls = state
        self.sim_seconds += network.now - now
        self.counts["netsim.flows_completed"] += len(network.completed_flows) - completed
        # One loop step computes rates once; the rates calls made while
        # this run() was open are its events.
        self.counts["netsim.events"] += self.counts["netsim.rates.calls"] - rates_calls

    def _before_solve(self, flows, capacities, cap_overrides=None):
        self.solves.observe(flows, capacities, cap_overrides)

    def _before_send(self, channel, *args, **kwargs):
        self._channels.add(channel)

    def _after_evaluate(self, state, anomalies, *args):
        self.counts["c4d.anomalies"] += len(anomalies or ())

    def _raised_pool(self, exc):
        from repro.core.c4p.registry import PathPoolExhausted

        if isinstance(exc, PathPoolExhausted):
            self.counts["c4p.pool_exhausted"] += 1

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def channel_totals(self) -> tuple[int, int]:
        """(retransmitted attempts, abandoned records) over every channel seen."""
        return (
            sum(c.dropped_attempts for c in self._channels),
            sum(c.abandoned for c in self._channels),
        )


def wrapper_cost() -> float:
    """Host seconds one timed call adds to its caller's self time.

    Times calls of a no-op through the same wrapper the boundaries get,
    inside a root span, and returns the root's self time per call.
    """

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap(Boundary("calibration", ()), noop)

    def calls_of_noop():
        for _ in range(CALIBRATION_CALLS):
            wrapped()

    tracer.root(UNIT_SPAN, calls_of_noop)
    return self_times(tracer.spans, 0.0)[UNIT_SPAN] / CALIBRATION_CALLS
