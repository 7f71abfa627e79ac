"""Tests for path probing and source-port search."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.specs import TESTBED_16_NODES, ClusterSpec
from repro.cluster.topology import ClusterTopology, PathChoice
from repro.core.c4p.probing import PathProber
from repro.netsim.network import FlowNetwork
from repro.netsim.routing import FiveTuple
from tests.core_c4p.oracle import reference_find_source_port


@pytest.fixture
def prober():
    topo = ClusterTopology(TESTBED_16_NODES, FlowNetwork(), ecmp_seed=4)
    return PathProber(topo)


def test_find_source_port_steers_both_stages(prober):
    spec = TESTBED_16_NODES
    hasher = prober.topology.ecmp
    up_fanout = spec.spines_per_rail * spec.uplink_ports_per_spine
    for spine in range(spec.spines_per_rail):
        for up_port in range(spec.uplink_ports_per_spine):
            choice = PathChoice(src_side=0, spine=spine, up_port=up_port, dst_side=0, down_port=3)
            port = prober.find_source_port("10.0.0.1", "10.0.0.2", rail=1, choice=choice)
            ft = FiveTuple(src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=port, dst_port=4791)
            up = hasher.choose(ft, up_fanout, stage="up:1:0")
            assert divmod(up, spec.uplink_ports_per_spine) == (spine, up_port)
            down = hasher.choose(ft, 2 * spec.uplink_ports_per_spine, stage=f"down:1:{spine}")
            assert divmod(down, spec.uplink_ports_per_spine) == (0, 3)


def test_find_source_port_tiny_range_fails(prober):
    choice = PathChoice(0, 0, 0, 0, 0)
    with pytest.raises(LookupError):
        prober.find_source_port("a", "b", 0, choice, port_range=range(50000, 50002))


def test_find_source_port_out_of_range_choice_fails(prober):
    # No hash lands on a spine the rail does not have.
    choice = PathChoice(0, TESTBED_16_NODES.spines_per_rail, 0, 0, 0)
    with pytest.raises(LookupError):
        prober.find_source_port("a", "b", 0, choice, port_range=range(50000, 52000))


@st.composite
def searches(draw):
    """A small fabric, one route on it and a port range to search."""
    spines = draw(st.integers(1, 4))
    ports = draw(st.integers(1, 3))
    spec = ClusterSpec(num_nodes=2, spines_per_rail=spines, uplink_ports_per_spine=ports)
    topo = ClusterTopology(spec, FlowNetwork(), ecmp_seed=draw(st.integers(0, 2**32)))
    ip = st.from_regex(r"10\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}", fullmatch=True)
    choice = PathChoice(
        src_side=draw(st.integers(0, 1)),
        spine=draw(st.integers(0, spines - 1)),
        up_port=draw(st.integers(0, ports - 1)),
        dst_side=draw(st.integers(0, 1)),
        down_port=draw(st.integers(0, ports - 1)),
    )
    start = draw(st.integers(49152, 65535))
    port_range = range(start, min(65536, start + draw(st.integers(0, 400))))
    return PathProber(topo), draw(ip), draw(ip), draw(st.integers(0, 7)), choice, port_range


def _outcome(search, *args):
    try:
        return search(*args)
    except LookupError:
        return LookupError


@given(searches())
@settings(max_examples=300, deadline=None)
def test_find_source_port_matches_brute_force(case):
    prober, src_ip, dst_ip, rail, choice, port_range = case
    args = (src_ip, dst_ip, rail, choice, port_range)
    found = _outcome(prober.find_source_port, *args)
    assert found == _outcome(reference_find_source_port, prober, *args)


def test_probe_route_healthy(prober):
    choice = PathChoice(0, 0, 0, 0, 0)
    assert prober.probe_route(0, choice)


def test_probe_route_detects_dead_uplink(prober):
    choice = PathChoice(0, 3, 1, 0, 0)
    prober.topology.network.fail_link(prober.topology.leaf_up(0, 0, 3, 1))
    assert not prober.probe_route(0, choice)


def test_probe_route_detects_dead_downlink(prober):
    choice = PathChoice(0, 3, 0, 1, 2)
    prober.topology.network.fail_link(prober.topology.spine_down(0, 3, 1, 2))
    assert not prober.probe_route(0, choice)


def test_full_mesh_counts(prober):
    spec = TESTBED_16_NODES
    results = prober.full_mesh(0)
    expected = 2 * spec.spines_per_rail * spec.uplink_ports_per_spine * 2 * spec.uplink_ports_per_spine
    assert len(results) == expected
    assert all(r.healthy for r in results)


def test_full_mesh_flags_failed_links(prober):
    prober.topology.network.fail_link(prober.topology.leaf_up(0, 0, 2, 0))
    results = prober.full_mesh(0)
    unhealthy = [r for r in results if not r.healthy]
    assert unhealthy
    assert all(
        r.choice.src_side == 0 and r.choice.spine == 2 and r.choice.up_port == 0
        for r in unhealthy
    )


def test_full_mesh_with_port_search(prober):
    results = prober.full_mesh(0, find_ports=True)
    healthy = [r for r in results if r.healthy]
    assert all(49152 <= r.src_port < 65536 for r in healthy)


def test_reprobe_reports_per_link_state(prober):
    topo = prober.topology
    dead = topo.leaf_up(0, 0, 2, 0)
    alive_up = topo.leaf_up(0, 1, 3, 1)
    alive_down = topo.spine_down(0, 4, 0, 2)
    topo.network.fail_link(dead)
    verdict = prober.reprobe([dead, alive_up, alive_down])
    assert verdict == {dead: False, alive_up: True, alive_down: True}
    # Restoring the link flips the next probe back to healthy.
    topo.network.restore_link(dead)
    assert prober.reprobe([dead]) == {dead: True}


def test_reprobe_empty_is_noop(prober):
    assert prober.reprobe([]) == {}
