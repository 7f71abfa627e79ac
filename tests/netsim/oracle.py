"""Independent oracles for netsim tests: a fresh reference solve.

:func:`reference_max_min_rates` is the numpy progressive filling the
simulator used before its event-driven solver.  It scans every link each
round, so it shares no data structure with ``repro.netsim.fairness``;
both fill in the same order, so their rates must be equal to the bit.
"""

from typing import Mapping, Sequence

import numpy as np

from repro.netsim.flows import Flow
from repro.netsim.network import FlowNetwork


def reference_max_min_rates(
    flows: Sequence[Flow],
    capacities: Mapping[object, float],
    cap_overrides: Mapping[object, float] | None = None,
) -> dict[object, float]:
    """Weighted max-min fair rates, vectorized over a COO incidence list.

    Same contract as :func:`repro.netsim.fairness.max_min_rates`.
    """
    if not flows:
        return {}
    overrides = cap_overrides or {}

    num_flows = len(flows)
    link_index: dict[object, int] = {}
    link_caps: list[float] = []
    coo_flow: list[int] = []
    coo_link: list[int] = []
    weights = np.empty(num_flows)

    for f_idx, flow in enumerate(flows):
        weights[f_idx] = flow.weight
        for link_id in flow.path:
            l_idx = link_index.get(link_id)
            if l_idx is None:
                l_idx = len(link_caps)
                link_index[link_id] = l_idx
                link_caps.append(capacities[link_id])
            coo_flow.append(f_idx)
            coo_link.append(l_idx)
        cap = overrides.get(flow.flow_id, flow.rate_cap)
        if cap is not None:
            l_idx = len(link_caps)
            link_caps.append(float(cap))
            coo_flow.append(f_idx)
            coo_link.append(l_idx)

    residual = np.array(link_caps)
    num_links = len(link_caps)
    coo_flow_arr = np.asarray(coo_flow, dtype=np.intp)
    coo_link_arr = np.asarray(coo_link, dtype=np.intp)

    # Per-link member lists: sort incidences by link for cheap slicing.
    order = np.argsort(coo_link_arr, kind="stable")
    sorted_links = coo_link_arr[order]
    sorted_flows = coo_flow_arr[order]
    starts = np.searchsorted(sorted_links, np.arange(num_links), side="left")
    ends = np.searchsorted(sorted_links, np.arange(num_links), side="right")

    pending_weight = np.bincount(coo_link_arr, weights=weights[coo_flow_arr], minlength=num_links)
    rates = np.zeros(num_flows)
    frozen = np.zeros(num_flows, dtype=bool)
    remaining = num_flows

    while remaining > 0:
        with np.errstate(divide="ignore", invalid="ignore"):
            share = np.where(pending_weight > 1e-15, residual / pending_weight, np.inf)
        bottleneck = int(np.argmin(share))
        level = share[bottleneck]
        if not np.isfinite(level):
            break
        members = sorted_flows[starts[bottleneck] : ends[bottleneck]]
        newly = members[~frozen[members]]
        if newly.size == 0:
            pending_weight[bottleneck] = 0.0
            continue
        rates[newly] = weights[newly] * level
        frozen[newly] = True
        remaining -= int(newly.size)
        # Subtract the frozen flows' rates and weights from their links.
        newly_set = np.zeros(num_flows, dtype=bool)
        newly_set[newly] = True
        touched_mask = newly_set[coo_flow_arr]
        touched_links = coo_link_arr[touched_mask]
        touched_flows = coo_flow_arr[touched_mask]
        np.subtract.at(residual, touched_links, rates[touched_flows])
        np.subtract.at(pending_weight, touched_links, weights[touched_flows])
        np.maximum(residual, 0.0, out=residual)
        pending_weight[bottleneck] = 0.0

    return {flow.flow_id: float(rates[f_idx]) for f_idx, flow in enumerate(flows)}


def reference_rates(net: FlowNetwork) -> dict:
    """A fresh reference solve over the network's active flows and links.

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
    return reference_max_min_rates(active, caps, cap_overrides=overrides)
