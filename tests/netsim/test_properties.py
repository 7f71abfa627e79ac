"""Property-based tests (hypothesis) for the netsim invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.netsim.fairness import max_min_rates
from repro.netsim.flows import Flow
from repro.netsim.network import FlowNetwork

LINKS = ["a", "b", "c", "d", "e"]


@st.composite
def fairness_instance(draw):
    num_links = draw(st.integers(min_value=1, max_value=5))
    links = LINKS[:num_links]
    caps = {
        link: draw(st.floats(min_value=1.0, max_value=100.0, allow_nan=False))
        for link in links
    }
    num_flows = draw(st.integers(min_value=1, max_value=12))
    flows = []
    for i in range(num_flows):
        path = draw(
            st.lists(st.sampled_from(links), min_size=1, max_size=num_links, unique=True)
        )
        weight = draw(st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
        cap = draw(st.one_of(st.none(), st.floats(min_value=0.5, max_value=50.0)))
        flows.append(Flow(flow_id=f"f{i}", path=path, size=1.0, weight=weight, rate_cap=cap))
    return flows, caps


@given(fairness_instance())
@settings(max_examples=200, deadline=None)
def test_rates_never_oversubscribe_links(instance):
    flows, caps = instance
    rates = max_min_rates(flows, caps)
    load = {link: 0.0 for link in caps}
    for flow in flows:
        assert rates[flow.flow_id] >= 0.0
        for link in flow.path:
            load[link] += rates[flow.flow_id]
    for link, total in load.items():
        assert total <= caps[link] * (1 + 1e-6) + 1e-9


@given(fairness_instance())
@settings(max_examples=200, deadline=None)
def test_rates_respect_caps(instance):
    flows, caps = instance
    rates = max_min_rates(flows, caps)
    for flow in flows:
        if flow.rate_cap is not None:
            assert rates[flow.flow_id] <= flow.rate_cap * (1 + 1e-6)


@given(fairness_instance())
@settings(max_examples=200, deadline=None)
def test_every_flow_is_bottlenecked_somewhere(instance):
    # Max-min optimality: each flow crosses a saturated link or runs at
    # its own cap — otherwise its rate could be raised.
    flows, caps = instance
    rates = max_min_rates(flows, caps)
    load = {link: 0.0 for link in caps}
    for flow in flows:
        for link in flow.path:
            load[link] += rates[flow.flow_id]
    for flow in flows:
        rate = rates[flow.flow_id]
        at_cap = flow.rate_cap is not None and rate >= flow.rate_cap * (1 - 1e-6)
        saturated = any(load[link] >= caps[link] * (1 - 1e-6) for link in flow.path)
        assert at_cap or saturated


@given(
    st.lists(st.floats(min_value=0.5, max_value=20.0), min_size=1, max_size=8),
    st.floats(min_value=1.0, max_value=50.0),
)
@settings(max_examples=100, deadline=None)
def test_network_conserves_bytes(sizes, capacity):
    net = FlowNetwork()
    net.add_link("l", capacity)
    flows = [
        Flow(flow_id=f"f{i}", path=["l"], size=size) for i, size in enumerate(sizes)
    ]
    for flow in flows:
        net.add_flow(flow)
    net.reset_link_windows()
    net.run()
    total = sum(sizes)
    assert net.link("l").window_bits <= total * (1 + 1e-6)
    assert net.link("l").window_bits >= total * (1 - 1e-6)
    for flow in flows:
        assert flow.remaining == 0.0
        assert not math.isnan(flow.end_time)


@given(
    st.lists(st.floats(min_value=0.5, max_value=20.0), min_size=2, max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_completion_order_matches_size_order_on_shared_link(sizes):
    # Equal-weight flows on one link finish in size order.
    net = FlowNetwork()
    net.add_link("l", 10.0)
    flows = [
        Flow(flow_id=f"f{i}", path=["l"], size=size) for i, size in enumerate(sizes)
    ]
    for flow in flows:
        net.add_flow(flow)
    net.run()
    by_size = sorted(flows, key=lambda f: f.size)
    ends = [f.end_time for f in by_size]
    assert ends == sorted(ends)
