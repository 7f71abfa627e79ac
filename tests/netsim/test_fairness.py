"""Tests for the weighted max-min fair solver."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.fairness import max_min_rates
from repro.netsim.flows import Flow
from tests.netsim.oracle import reference_max_min_rates


def _flow(fid, path, weight=1.0, rate_cap=None):
    return Flow(flow_id=fid, path=path, size=1.0, weight=weight, rate_cap=rate_cap)


def test_empty_input():
    assert max_min_rates([], {}) == {}


def test_single_flow_gets_full_capacity():
    rates = max_min_rates([_flow("f", ["a"])], {"a": 10.0})
    assert rates["f"] == pytest.approx(10.0)


def test_equal_split_on_shared_link():
    flows = [_flow("f1", ["a"]), _flow("f2", ["a"])]
    rates = max_min_rates(flows, {"a": 10.0})
    assert rates["f1"] == pytest.approx(5.0)
    assert rates["f2"] == pytest.approx(5.0)


def test_weighted_split():
    flows = [_flow("f1", ["a"], weight=1.0), _flow("f2", ["a"], weight=3.0)]
    rates = max_min_rates(flows, {"a": 8.0})
    assert rates["f1"] == pytest.approx(2.0)
    assert rates["f2"] == pytest.approx(6.0)


def test_bottleneck_frees_capacity_elsewhere():
    # f2 is constrained on b, so f1 gets the leftover of a.
    flows = [_flow("f1", ["a"]), _flow("f2", ["a", "b"])]
    rates = max_min_rates(flows, {"a": 10.0, "b": 2.0})
    assert rates["f2"] == pytest.approx(2.0)
    assert rates["f1"] == pytest.approx(8.0)


def test_classic_three_flow_scenario():
    # Textbook: f1 on a, f2 on a+b, f3 on b; a=10, b=4.
    flows = [_flow("f1", ["a"]), _flow("f2", ["a", "b"]), _flow("f3", ["b"])]
    rates = max_min_rates(flows, {"a": 10.0, "b": 4.0})
    assert rates["f2"] == pytest.approx(2.0)
    assert rates["f3"] == pytest.approx(2.0)
    assert rates["f1"] == pytest.approx(8.0)


def test_rate_cap_limits_flow():
    flows = [_flow("f1", ["a"], rate_cap=1.0), _flow("f2", ["a"])]
    rates = max_min_rates(flows, {"a": 10.0})
    assert rates["f1"] == pytest.approx(1.0)
    assert rates["f2"] == pytest.approx(9.0)


def test_cap_override_takes_precedence():
    flows = [_flow("f1", ["a"], rate_cap=5.0)]
    rates = max_min_rates(flows, {"a": 10.0}, cap_overrides={"f1": 2.0})
    assert rates["f1"] == pytest.approx(2.0)


def test_cap_override_without_flow_cap():
    flows = [_flow("f1", ["a"])]
    rates = max_min_rates(flows, {"a": 10.0}, cap_overrides={"f1": 3.0})
    assert rates["f1"] == pytest.approx(3.0)


def test_no_link_oversubscribed():
    flows = [
        _flow("f1", ["a", "b"]),
        _flow("f2", ["b", "c"]),
        _flow("f3", ["a", "c"]),
        _flow("f4", ["a"]),
    ]
    caps = {"a": 7.0, "b": 3.0, "c": 5.0}
    rates = max_min_rates(flows, caps)
    load = {link: 0.0 for link in caps}
    for flow in flows:
        for link in flow.path:
            load[link] += rates[flow.flow_id]
    for link, total in load.items():
        assert total <= caps[link] * (1 + 1e-9)


def test_max_min_property_increasing_any_rate_needs_decrease():
    # At the max-min fixed point every flow crosses a saturated link.
    flows = [_flow("f1", ["a", "b"]), _flow("f2", ["b"]), _flow("f3", ["a"])]
    caps = {"a": 6.0, "b": 4.0}
    rates = max_min_rates(flows, caps)
    load = {link: 0.0 for link in caps}
    for flow in flows:
        for link in flow.path:
            load[link] += rates[flow.flow_id]
    for flow in flows:
        saturated = any(load[link] >= caps[link] * (1 - 1e-9) for link in flow.path)
        assert saturated, f"{flow.flow_id} could be increased"


def test_many_flows_one_link():
    flows = [_flow(f"f{i}", ["a"]) for i in range(100)]
    rates = max_min_rates(flows, {"a": 100.0})
    for rate in rates.values():
        assert rate == pytest.approx(1.0)


def test_disjoint_links_independent():
    flows = [_flow("f1", ["a"]), _flow("f2", ["b"])]
    rates = max_min_rates(flows, {"a": 3.0, "b": 7.0})
    assert rates["f1"] == pytest.approx(3.0)
    assert rates["f2"] == pytest.approx(7.0)


def test_tied_bottlenecks_sharing_a_flow():
    # a and b both fill at share 2: f2 crosses both and freezes once.
    flows = [_flow("f1", ["a"]), _flow("f2", ["a", "b"]), _flow("f3", ["b"]), _flow("f4", ["c"])]
    caps = {"a": 4.0, "b": 4.0, "c": 10.0}
    rates = max_min_rates(flows, caps)
    assert rates == reference_max_min_rates(flows, caps)
    assert rates == {"f1": 2.0, "f2": 2.0, "f3": 2.0, "f4": 10.0}


def test_flow_on_an_infinite_link_gets_no_rate():
    flows = [_flow("f1", ["inf"]), _flow("f2", ["a"])]
    caps = {"inf": math.inf, "a": 3.0}
    rates = max_min_rates(flows, caps)
    assert rates == reference_max_min_rates(flows, caps)
    assert rates == {"f1": 0.0, "f2": 3.0}


@st.composite
def tie_heavy_instance(draw):
    """Few distinct capacities and weights, shared links, caps and overrides.

    Paths may cross a link twice: nothing in ``Flow`` forbids it.
    """
    values = draw(st.lists(st.sampled_from([2.0, 3.0, 6.0, 7.5]), min_size=2, max_size=3))
    links = [f"l{i}" for i in range(draw(st.integers(min_value=1, max_value=6)))]
    caps = {link: draw(st.sampled_from(values)) for link in links}
    flows = []
    for i in range(draw(st.integers(min_value=1, max_value=14))):
        path = draw(st.lists(st.sampled_from(links), min_size=1, max_size=3))
        weight = draw(st.sampled_from([0.5, 1.0, 2.0]))
        cap = draw(st.one_of(st.none(), st.sampled_from(values)))
        flows.append(_flow(f"f{i}", path, weight=weight, rate_cap=cap))
    overrides = draw(
        st.dictionaries(
            st.sampled_from([flow.flow_id for flow in flows]), st.sampled_from(values)
        )
    )
    return flows, caps, overrides


@given(tie_heavy_instance())
@settings(max_examples=300, deadline=None)
def test_rates_equal_the_reference_solver(instance):
    flows, caps, overrides = instance
    assert max_min_rates(flows, caps, overrides) == reference_max_min_rates(
        flows, caps, overrides
    )
