"""The flow network: links + flows + event loop.

:class:`FlowNetwork` is the heart of the substrate.  Upper layers
(collective transport, training jobs) add links once at construction and
then add flows over time; the network advances simulated time from one
event to the next, recomputing weighted max-min fair rates between
events and invoking completion callbacks (which typically launch the
next round of flows, modelling back-to-back collective operations).

Link failures are first-class: :meth:`FlowNetwork.fail_link` stalls the
flows whose path crosses the dead link and hands them to an optional
``reroute_handler`` — the hook through which the routing layer (plain
ECMP reconvergence, or C4P's dynamic load balancer) reacts.

Per-step work is paid only for what changed.  Each loop step scans the
flows once for the active set; the solver and the congestion model read
capacities through a live view of the links instead of a copy; and the
max-min solve is reused while its inputs are unchanged.  Flow inputs
(id, weight, effective cap, path) are compared exactly on every step.
Link inputs are not: links change only through :meth:`fail_link`,
:meth:`restore_link` and :meth:`set_capacity`, which bump a change
counter that the reuse check compares instead.
"""

from __future__ import annotations

import math
import time
from collections.abc import Mapping
from typing import Callable, Iterator, Optional

from repro.netsim.congestion import CongestionModel
from repro.netsim.engine import EventQueue, TimerHandle
from repro.netsim.fairness import max_min_rates
from repro.netsim.flows import Flow, FlowState
from repro.netsim.links import Link
from repro.obs.metrics import MetricsRegistry, get_registry

#: Flows whose remaining share falls below this fraction of their size
#: are complete (absorbs float residue from repeated rate changes).
_COMPLETION_REL_EPS = 1e-9


class _CapacityView(Mapping):
    """Read-through ``link_id -> capacity`` view of a network's links."""

    __slots__ = ("_links",)

    def __init__(self, links: dict[object, Link]) -> None:
        self._links = links

    def __getitem__(self, link_id: object) -> float:
        return self._links[link_id].capacity

    def __iter__(self) -> Iterator[object]:
        return iter(self._links)

    def __len__(self) -> int:
        return len(self._links)


class FlowNetwork:
    """A capacitated network shared by concurrent flows.

    Parameters
    ----------
    congestion:
        Optional :class:`CongestionModel`.  When present, saturated links
        generate CNPs and throttle senders; when absent the fabric is an
        ideal lossless max-min fair network.
    """

    def __init__(
        self,
        congestion: Optional[CongestionModel] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.now: float = 0.0
        self.links: dict[object, Link] = {}
        self.flows: dict[object, Flow] = {}
        self.completed_flows: list[Flow] = []
        self.congestion = congestion
        #: Called as ``reroute_handler(link, affected_flows)`` when a link
        #: fails.  The handler may call ``flow.reroute(...)`` to keep a
        #: flow alive; flows left stalled transfer nothing.
        self.reroute_handler: Optional[Callable[[Link, list[Flow]], None]] = None
        self._queue = EventQueue()
        self._cc_timer: Optional[TimerHandle] = None
        self._flow_seq = 0
        self._running = False
        self._capacities = _CapacityView(self.links)
        #: Ids of the links that are down, kept by fail_link/restore_link.
        self._down: set[object] = set()
        #: Bumped by every link change; part of the solve-reuse key.
        self._link_version = 0
        #: Active flows as of the last compute_rates(), reused by the
        #: loop step that called it instead of scanning again.
        self._step_active: list[Flow] = []
        self._solve_key: Optional[tuple] = None
        self._solve_rates: dict[object, float] = {}
        registry = get_registry(metrics)
        solves = registry.counter(
            "netsim_solves_total",
            "Max-min solves by outcome (solved, or reused unchanged inputs)",
            labels=("outcome",),
        )
        self._m_solved = solves.labels(outcome="solved")
        self._m_reused = solves.labels(outcome="reused")
        registry.gauge(
            "netsim_event_queue_depth", "Timer heap entries (incl. cancelled)"
        ).set_function(self._queue.depth)
        registry.gauge(
            "netsim_timers_scheduled", "Timers ever scheduled on the event loop"
        ).set_function(lambda: self._queue.timers_scheduled)
        registry.gauge(
            "netsim_timers_fired", "Timers the event loop has fired"
        ).set_function(lambda: self._queue.timers_fired)
        self._m_sim_seconds = registry.counter(
            "netsim_simulated_seconds_total", "Simulated time advanced by run()"
        )
        self._m_wall_seconds = registry.counter(
            "netsim_wall_seconds_total", "Wall-clock time spent inside run()"
        )

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------
    def add_link(self, link_id: object, capacity: float, description: str = "") -> Link:
        """Register a directed link.  Fails on duplicate ids."""
        if link_id in self.links:
            raise ValueError(f"duplicate link id {link_id!r}")
        link = Link(link_id=link_id, capacity=capacity, description=description)
        self.links[link_id] = link
        return link

    def link(self, link_id: object) -> Link:
        """Look up a link by id."""
        return self.links[link_id]

    def fail_link(self, link_id: object) -> list[Flow]:
        """Take a link down; stall affected flows and invoke the reroute hook.

        Returns the list of flows that were crossing the link.
        """
        link = self.links[link_id]
        link.fail()
        self._down.add(link_id)
        self._link_version += 1
        affected = [
            flow
            for flow in self.flows.values()
            if link_id in flow.path and flow.state == FlowState.ACTIVE
        ]
        for flow in affected:
            flow.state = FlowState.STALLED
        if self.reroute_handler is not None:
            self.reroute_handler(link, affected)
        return affected

    def restore_link(self, link_id: object) -> None:
        """Bring a previously failed link back up."""
        self.links[link_id].restore()
        self._down.discard(link_id)
        self._link_version += 1

    def set_capacity(self, link_id: object, capacity: float) -> None:
        """Change a link's capacity (e.g. a degraded NIC port)."""
        if capacity <= 0:
            raise ValueError(f"link {link_id!r} needs positive capacity, got {capacity}")
        self.links[link_id].capacity = capacity
        self._link_version += 1

    # ------------------------------------------------------------------
    # Flow management
    # ------------------------------------------------------------------
    def add_flow(self, flow: Flow) -> Flow:
        """Start a flow at the current simulated time."""
        if flow.flow_id in self.flows:
            raise ValueError(f"duplicate flow id {flow.flow_id!r}")
        for link_id in flow.path:
            if link_id not in self.links:
                raise KeyError(f"flow {flow.flow_id!r} references unknown link {link_id!r}")
        flow.start_time = self.now
        if not self._down.isdisjoint(flow.path):
            flow.state = FlowState.STALLED
        self.flows[flow.flow_id] = flow
        self._ensure_cc_timer()
        return flow

    def new_flow_id(self, prefix: str = "flow") -> str:
        """Generate a unique flow id (handy for transient transfers)."""
        self._flow_seq += 1
        return f"{prefix}-{self._flow_seq}"

    @property
    def active_flows(self) -> list[Flow]:
        """Flows currently transferring (not stalled, not complete)."""
        down = self._down
        return [
            flow
            for flow in self.flows.values()
            if flow.state is FlowState.ACTIVE
            and (not down or down.isdisjoint(flow.path))
        ]

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self._queue.schedule(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        return self._queue.schedule(time, callback)

    # ------------------------------------------------------------------
    # Simulation loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation.

        Runs until there are no more events, or until simulated time
        reaches ``until`` (when given, ``now`` ends exactly at ``until``).

        Re-entrant calls (an event callback calling ``run()`` again) are
        rejected: they would interleave two event loops over one heap
        and fire timers out of ``(time, seq)`` order — the runtime twin
        of lint rule SIM005.
        """
        if self._running:
            raise RuntimeError(
                "FlowNetwork.run() re-entered from an event callback; "
                "schedule follow-up work with schedule()/schedule_at() instead"
            )
        self._running = True
        try:
            self._run(until)
        finally:
            self._running = False

    def _run(self, until: Optional[float]) -> None:
        # Wall-clock reads feed the sim-vs-wall observability counters
        # only; simulated behaviour never depends on them.
        wall_start = time.perf_counter()  # repro: noqa[SIM001]
        sim_start = self.now
        while True:
            rates = self.compute_rates()
            active = self._step_active
            next_completion = self._next_completion_time(rates, active)
            next_timer = self._queue.next_time()
            candidates = [t for t in (next_completion, next_timer) if t is not None]
            if until is not None:
                candidates = [t for t in candidates if t <= until]
            if not candidates:
                break
            target = min(candidates)
            self._advance(target - self.now, rates, active)
            self.now = target
            self._fire_completions()
            for callback in self._queue.pop_due(self.now):
                callback()
        if until is not None and self.now < until:
            rates = self.compute_rates()
            self._advance(until - self.now, rates, self._step_active)
            self.now = until
            self._fire_completions()
        self._m_sim_seconds.inc(self.now - sim_start)
        # Same waiver as above: wall time is observability-only here.
        self._m_wall_seconds.inc(time.perf_counter() - wall_start)  # repro: noqa[SIM001]

    def compute_rates(self) -> dict[object, float]:
        """Instantaneous max-min fair rates of the active flows.

        The last solve is reused when the link change counter and every
        active flow's ``(flow_id, weight, effective cap, path)``, in
        order, equal the previous solve's.  The returned dict is the
        caller's own copy.
        """
        active = self._step_active = self.active_flows
        overrides: dict[object, float] = {}
        if self.congestion is not None:
            for flow in active:
                throttle = self.congestion.throttle_of(flow)
                if throttle < 1.0:
                    base = flow.rate_cap
                    if base is None:
                        base = min(self.links[link_id].capacity for link_id in flow.path)
                    overrides[flow.flow_id] = throttle * base
        flow_inputs = [
            (f.flow_id, f.weight, overrides.get(f.flow_id, f.rate_cap), tuple(f.path))
            for f in active
        ]
        key = (self._link_version, flow_inputs)
        if key == self._solve_key:
            rates = self._solve_rates
            self._m_reused.inc()
        else:
            rates = max_min_rates(active, self._capacities, cap_overrides=overrides)
            self._solve_key = key
            self._solve_rates = rates
            self._m_solved.inc()
        for flow in self.flows.values():
            flow.rate = rates.get(flow.flow_id, 0.0)
        return dict(rates)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _next_completion_time(
        self, rates: dict[object, float], active: list[Flow]
    ) -> Optional[float]:
        best: Optional[float] = None
        for flow in active:
            rate = rates[flow.flow_id]
            if rate <= 0:
                continue
            eta = self.now + flow.remaining / rate
            if best is None or eta < best:
                best = eta
        return best

    def _advance(self, dt: float, rates: dict[object, float], active: list[Flow]) -> None:
        if dt < 0:
            raise AssertionError(f"negative dt {dt}")
        if dt == 0:
            return
        for flow in active:
            rate = rates.get(flow.flow_id, 0.0)
            transferred = rate * dt
            flow.remaining = max(0.0, flow.remaining - transferred)
            for link_id in flow.path:
                self.links[link_id].account(transferred)
        if self.congestion is not None:
            self.congestion.observe(active, rates, self._capacities, dt)

    def _fire_completions(self) -> None:
        finished = [
            flow
            for flow in self.flows.values()
            if flow.state == FlowState.ACTIVE
            and flow.remaining <= _COMPLETION_REL_EPS * flow.size
        ]
        for flow in finished:
            flow.state = FlowState.COMPLETED
            flow.end_time = self.now
            # Credit the float residue so byte accounting is exact.
            if flow.remaining > 0:
                for link_id in flow.path:
                    self.links[link_id].account(flow.remaining)
            flow.remaining = 0.0
            del self.flows[flow.flow_id]
            self.completed_flows.append(flow)
            if self.congestion is not None:
                self.congestion.forget(flow)
        # Callbacks run after bookkeeping so they can add flows freely.
        for flow in finished:
            if flow.on_complete is not None:
                flow.on_complete(flow)

    def _ensure_cc_timer(self) -> None:
        if self.congestion is None:
            return
        if self._cc_timer is not None and not self._cc_timer.cancelled:
            if self._cc_timer.time > self.now:
                return
        interval = self.congestion.config.tick_interval
        self._cc_timer = self._queue.schedule(self.now + interval, self._cc_tick)

    def _cc_tick(self) -> None:
        assert self.congestion is not None
        active = self.active_flows
        if not active:
            self._cc_timer = None
            return
        rates = {flow.flow_id: flow.rate for flow in active}
        self.congestion.tick(active, rates, self._capacities)
        interval = self.congestion.config.tick_interval
        self._cc_timer = self._queue.schedule(self.now + interval, self._cc_tick)

    def reset_link_windows(self) -> None:
        """Zero every link's windowed byte counter (start a sample window)."""
        for link in self.links.values():
            link.reset_window()

    def link_window_rates(self, window_seconds: float) -> dict[object, float]:
        """Per-link average rate in bits/s over the current window."""
        return {
            link_id: link.window_rate(window_seconds)
            for link_id, link in self.links.items()
        }

    def stalled_flows(self) -> list[Flow]:
        """Flows currently stalled on a failed link."""
        return [f for f in self.flows.values() if f.state == FlowState.STALLED]

    def sanity_check(self) -> None:
        """Verify internal invariants; raises AssertionError on violation.

        Checks that link state changed only through the network (the
        contract the solve reuse relies on), that no link is
        oversubscribed by the current rate allocation and that all flow
        bookkeeping is consistent.  Used by property-based tests.
        """
        down = {link_id for link_id, link in self.links.items() if not link.is_up}
        if down != self._down:
            raise AssertionError(
                f"links {sorted(map(repr, down ^ self._down))} changed state "
                "outside fail_link/restore_link"
            )
        rates = self.compute_rates()
        load: dict[object, float] = {}
        for flow in self.active_flows:
            for link_id in flow.path:
                load[link_id] = load.get(link_id, 0.0) + rates.get(flow.flow_id, 0.0)
        for link_id, total in load.items():
            capacity = self.links[link_id].capacity
            if total > capacity * (1 + 1e-9) + 1e-6:
                raise AssertionError(
                    f"link {link_id!r} oversubscribed: {total} > {capacity}"
                )
        for flow in self.flows.values():
            if flow.remaining < 0 or math.isnan(flow.remaining):
                raise AssertionError(f"flow {flow.flow_id!r} has bad remaining {flow.remaining}")
