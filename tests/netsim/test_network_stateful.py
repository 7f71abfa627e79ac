"""Stateful differential test of FlowNetwork against the reference solver.

A hypothesis state machine drives one network through random sequences
of flow arrivals (now, or from a timer), timer cancellations, link
failures and restores, capacity changes, reroutes, weight changes and
``run(until)`` calls.  After every step the network's rates must equal a
fresh reference solve over the same active flows and capacities (so a
reused solve is never stale), its own invariants must hold, every bit a
flow transferred must have been credited to every link it crossed at the
time, and no cancelled timer may have fired.
"""

import math

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.netsim.congestion import CongestionConfig, CongestionModel
from repro.netsim.engine import TimerHandle
from repro.netsim.flows import Flow, FlowState
from repro.netsim.network import FlowNetwork
from repro.obs.metrics import MetricsRegistry
from tests.netsim.oracle import reference_rates

LINKS = ["a", "b", "c", "d"]

paths = st.lists(st.sampled_from(LINKS), min_size=1, max_size=3, unique=True)
capacities = st.floats(min_value=1.0, max_value=20.0)
weights = st.floats(min_value=0.25, max_value=4.0)
sizes = st.floats(min_value=0.5, max_value=40.0)
caps = st.one_of(st.none(), capacities)


class FlowNetworkMachine(RuleBasedStateMachine):
    congestion = False

    def __init__(self) -> None:
        super().__init__()
        model = None
        if self.congestion:
            model = CongestionModel(config=CongestionConfig(tick_interval=0.25), seed=1)
        self.net = FlowNetwork(congestion=model, metrics=MetricsRegistry())
        for link_id in LINKS:
            self.net.add_link(link_id, 10.0)
        # Links count carried bits only inside an open window.
        self.net.reset_link_windows()
        self.flows: list[Flow] = []
        #: Bits each link should have carried, and each flow transferred,
        #: from the flows' remaining bits before and after every run().
        self.link_bits = {link_id: 0.0 for link_id in LINKS}
        self.flow_bits: dict[object, float] = {}
        #: Timers scheduled by ``schedule_flow``, and whether each was
        #: cancelled and whether it fired.
        self.timers: list[TimerHandle] = []
        self.cancelled: list[bool] = []
        self.fired: list[bool] = []

    def _pick(self, index: int) -> Flow:
        return self.flows[index % len(self.flows)]

    def _add(self, path, size, weight, rate_cap) -> None:
        flow_id = self.net.new_flow_id()
        flow = Flow(flow_id=flow_id, path=path, size=size, weight=weight, rate_cap=rate_cap)
        self.net.add_flow(flow)
        self.flows.append(flow)
        self.flow_bits[flow.flow_id] = 0.0

    @rule(path=paths, size=sizes, weight=weights, rate_cap=caps)
    def add_flow(self, path, size, weight, rate_cap):
        self._add(path, size, weight, rate_cap)

    @rule(
        delay=st.floats(min_value=0.0, max_value=5.0),
        path=paths,
        size=sizes,
        weight=weights,
        rate_cap=caps,
    )
    def schedule_flow(self, delay, path, size, weight, rate_cap):
        index = len(self.timers)
        self.cancelled.append(False)
        self.fired.append(False)

        def fire():
            self.fired[index] = True
            self._add(path, size, weight, rate_cap)

        self.timers.append(self.net.schedule(delay, fire))

    def _pending_timers(self) -> list[int]:
        return [
            index
            for index, (cancelled, fired) in enumerate(
                zip(self.cancelled, self.fired, strict=True)
            )
            if not cancelled and not fired
        ]

    @precondition(lambda self: self._pending_timers())
    @rule(index=st.integers(min_value=0))
    def cancel_timer(self, index):
        pending = self._pending_timers()
        timer = pending[index % len(pending)]
        self.timers[timer].cancel()
        self.cancelled[timer] = True

    @rule(link_id=st.sampled_from(LINKS))
    def fail_link(self, link_id):
        self.net.fail_link(link_id)

    @rule(link_id=st.sampled_from(LINKS))
    def restore_link(self, link_id):
        self.net.restore_link(link_id)

    @rule(link_id=st.sampled_from(LINKS), capacity=capacities)
    def set_capacity(self, link_id, capacity):
        self.net.set_capacity(link_id, capacity)

    @precondition(lambda self: self.flows)
    @rule(index=st.integers(min_value=0), path=paths)
    def reroute(self, index, path):
        self._pick(index).reroute(path)

    @precondition(lambda self: self.flows)
    @rule(index=st.integers(min_value=0), weight=weights)
    def set_weight(self, index, weight):
        # What Connection.set_qp_weight does to a QP's in-flight flows.
        self._pick(index).weight = weight

    @rule(dt=st.floats(min_value=0.0, max_value=5.0))
    def run(self, dt):
        before = {
            flow.flow_id: (flow.remaining, list(flow.path))
            for flow in self.net.flows.values()
        }
        known = len(self.flows)
        self.net.run(until=self.net.now + dt)
        # Flows a timer added during the run started with all their bits.
        for flow in self.flows[known:]:
            before[flow.flow_id] = (flow.size, list(flow.path))
        for flow_id, (remaining, path) in before.items():
            flow = self.net.flows.get(flow_id)
            moved = remaining - (flow.remaining if flow is not None else 0.0)
            self.flow_bits[flow_id] += moved
            for link_id in path:
                self.link_bits[link_id] += moved

    @invariant()
    def rates_match_a_fresh_solve(self):
        assert self.net.compute_rates() == reference_rates(self.net)

    @invariant()
    def cancelled_timers_never_fire(self):
        for cancelled, fired in zip(self.cancelled, self.fired, strict=True):
            assert not (cancelled and fired)

    @invariant()
    def network_invariants_hold(self):
        self.net.sanity_check()

    @invariant()
    def completed_bits_were_credited(self):
        for flow in self.flows:
            if flow.state is FlowState.COMPLETED:
                assert self.flow_bits[flow.flow_id] == pytest.approx(flow.size, rel=1e-9)
        for link_id, expected in self.link_bits.items():
            carried = self.net.links[link_id].window_bits
            assert math.isclose(carried, expected, rel_tol=1e-9, abs_tol=1e-9)


class CongestedFlowNetworkMachine(FlowNetworkMachine):
    """The same machine with DCQCN throttles feeding the solve's caps."""

    congestion = True


STEPS = settings(max_examples=40, stateful_step_count=25, deadline=None)

TestFlowNetworkStateful = FlowNetworkMachine.TestCase
TestFlowNetworkStateful.settings = STEPS
TestCongestedFlowNetworkStateful = CongestedFlowNetworkMachine.TestCase
TestCongestedFlowNetworkStateful.settings = STEPS
