"""Tests for the fluid DCQCN congestion model."""

import pytest

from repro.netsim.congestion import CongestionConfig, CongestionModel
from repro.netsim.flows import Flow
from repro.netsim.network import FlowNetwork
from repro.netsim.units import GBPS


def _flow(fid, path, size=GBPS, cnp_key=None):
    flow = Flow(flow_id=fid, path=path, size=size)
    if cnp_key is not None:
        flow.metadata["cnp_key"] = cnp_key
    return flow


def test_no_cnps_on_uncongested_link():
    model = CongestionModel()
    flows = [_flow("f", ["a"])]
    model.observe(flows, {"f": 0.5 * GBPS}, {"a": GBPS}, dt=1.0)
    assert model.cnp_counts == {}


def test_cnps_generated_at_saturation():
    model = CongestionModel()
    flows = [_flow("f1", ["a"], cnp_key="p1"), _flow("f2", ["a"], cnp_key="p2")]
    rates = {"f1": 0.5 * GBPS, "f2": 0.5 * GBPS}
    model.observe(flows, rates, {"a": GBPS}, dt=1.0)
    assert model.cnp_counts["p1"] > 0
    assert model.cnp_counts["p2"] > 0


def test_cnp_rate_proportional_to_marked_bits():
    model = CongestionModel()
    flows = [_flow("f", ["a"], cnp_key="port")]
    model.observe(flows, {"f": 350 * GBPS}, {"a": 350 * GBPS}, dt=2.0)
    expected = 350 * GBPS * 2.0 * model.config.cnp_per_bit
    assert model.cnp_counts["port"] == pytest.approx(expected)


def test_cnp_marked_once_across_hops():
    # ECN sets the CE bit at the first congested queue; more congested
    # hops do not multiply CNPs.
    one_hop = CongestionModel()
    one_hop.observe([_flow("f", ["a"], cnp_key="p")], {"f": GBPS}, {"a": GBPS}, dt=1.0)
    two_hops = CongestionModel()
    two_hops.observe(
        [_flow("f", ["a", "b"], cnp_key="p")], {"f": GBPS}, {"a": GBPS, "b": GBPS}, dt=1.0
    )
    assert one_hop.cnp_counts["p"] == pytest.approx(two_hops.cnp_counts["p"])


def test_link_filter_excludes_links():
    model = CongestionModel(link_filter=lambda link_id: link_id != "nvl")
    flows = [_flow("f", ["nvl"], cnp_key="p")]
    model.observe(flows, {"f": GBPS}, {"nvl": GBPS}, dt=1.0)
    assert model.cnp_counts == {}
    model.tick(flows, {"f": GBPS}, {"nvl": GBPS})
    assert model.throttle_of(flows[0]) == 1.0


def test_link_filter_runs_once_per_link():
    seen = []

    def fabric_only(link_id):
        seen.append(link_id)
        return link_id != "nvl"

    model = CongestionModel(link_filter=fabric_only)
    flows = [_flow("f", ["nvl", "a"], cnp_key="p"), _flow("g", ["a"], cnp_key="q")]
    for _ in range(3):
        model.observe(flows, {"f": GBPS, "g": GBPS}, {"nvl": GBPS, "a": GBPS}, dt=1.0)
        model.tick(flows, {"f": GBPS, "g": GBPS}, {"nvl": GBPS, "a": GBPS})
    assert sorted(seen) == ["a", "nvl"]
    assert set(model.cnp_counts) == {"p", "q"}


def test_throttle_decreases_under_congestion():
    model = CongestionModel(seed=1)
    flows = [_flow("f1", ["a"]), _flow("f2", ["a"])]
    rates = {"f1": 0.5 * GBPS, "f2": 0.5 * GBPS}
    for _ in range(5):
        model.tick(flows, rates, {"a": GBPS})
    assert model.throttle_of(flows[0]) < 1.0


def test_throttle_recovers_when_uncongested():
    model = CongestionModel(seed=1)
    flows = [_flow("f1", ["a"]), _flow("f2", ["a"])]
    rates = {"f1": 0.5 * GBPS, "f2": 0.5 * GBPS}
    for _ in range(10):
        model.tick(flows, rates, {"a": GBPS})
    throttled = model.throttle_of(flows[0])
    for _ in range(30):
        model.tick(flows, {"f1": 0.1 * GBPS, "f2": 0.1 * GBPS}, {"a": GBPS})
    assert model.throttle_of(flows[0]) > throttled


def test_throttle_floor_respected():
    config = CongestionConfig(throttle_floor=0.7)
    model = CongestionModel(config=config, seed=0)
    flows = [_flow("f1", ["a"]), _flow("f2", ["a"])]
    rates = {"f1": 0.5 * GBPS, "f2": 0.5 * GBPS}
    for _ in range(200):
        model.tick(flows, rates, {"a": GBPS})
    assert model.throttle_of(flows[0]) >= 0.7


def test_forget_drops_state():
    model = CongestionModel(seed=1)
    flow = _flow("f", ["a"])
    model.tick([flow, _flow("g", ["a"])], {"f": GBPS, "g": GBPS}, {"a": GBPS})
    model.forget(flow)
    assert model.throttle_of(flow) == 1.0


def test_network_applies_throttle():
    # A single flow saturating its link gets throttled below line rate,
    # so the transfer takes longer than the ideal 10s.
    model = CongestionModel(seed=3)
    net = FlowNetwork(congestion=model)
    net.add_link("a", GBPS)
    flow = Flow(flow_id="f", path=["a"], size=10 * GBPS)
    net.add_flow(flow)
    net.run()
    assert net.now > 10.0


def test_deterministic_given_seed():
    def run(seed):
        model = CongestionModel(seed=seed)
        net = FlowNetwork(congestion=model)
        net.add_link("a", GBPS)
        net.add_flow(Flow(flow_id="f1", path=["a"], size=3 * GBPS))
        net.run()
        return net.now

    assert run(7) == run(7)
    assert run(7) != run(8)
