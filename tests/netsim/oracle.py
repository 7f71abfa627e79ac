"""Reference rates for FlowNetwork tests: a fresh solve, nothing reused."""

from repro.netsim.fairness import max_min_rates
from repro.netsim.network import FlowNetwork


def reference_rates(net: FlowNetwork) -> dict:
    """A fresh max-min solve over the network's active flows and links.

    DCQCN throttles become cap overrides the way the network applies
    them: the throttle times the flow's rate cap, or times its path's
    narrowest link when it has none.
    """
    active = net.active_flows
    caps = {link_id: link.capacity for link_id, link in net.links.items()}
    overrides = {}
    if net.congestion is not None:
        for flow in active:
            throttle = net.congestion.throttle_of(flow)
            if throttle < 1.0:
                base = flow.rate_cap
                if base is None:
                    base = min(caps[link_id] for link_id in flow.path)
                overrides[flow.flow_id] = throttle * base
    return max_min_rates(active, caps, cap_overrides=overrides)
