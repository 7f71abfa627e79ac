"""Weighted max-min fair rate allocation (progressive filling).

Given links with capacities and flows with weights and optional rate
caps, compute the instantaneous rate of every flow.  This is the classic
water-filling algorithm: repeatedly find the most constrained link
(smallest capacity per unit of unfrozen weight), freeze every flow
crossing it at its fair share, remove the consumed capacity, repeat.
Rate caps are private virtual links, so the bandwidth a capped flow
leaves is redistributed instead of clipped away.

The filling is event-driven: per-flow rows of local link indices,
per-link member lists and a lazy min-heap of ``(share, link)``; a round
re-pushes only the links it touched.  It keeps the arithmetic order of
a scan over every link per round, so rates match one to the bit: links
numbered by first appearance (a cap link after its flow's path links),
pending weight summed in that order, ties to the lowest index, frozen
flows in ascending order, rates and weights subtracted per incidence
before ``residual`` is clamped at 0, and a stop at a non-finite share.
"""

from __future__ import annotations

import heapq
import math
from typing import Mapping, Sequence

from repro.netsim.flows import Flow

#: Links whose pending weight is at most this carry no unfrozen flow.
_DEAD_WEIGHT = 1e-15


def max_min_rates(
    flows: Sequence[Flow],
    capacities: Mapping[object, float],
    cap_overrides: Mapping[object, float] | None = None,
) -> dict[object, float]:
    """Compute weighted max-min fair rates.

    Parameters
    ----------
    flows:
        Active flows; each contributes ``flow.weight`` demand on every
        link of ``flow.path``.
    capacities:
        Mapping from link id to available capacity in bits/s.  Every
        link id referenced by a flow path must be present.
    cap_overrides:
        Optional mapping from flow id to an effective sender rate cap in
        bits/s, taking precedence over ``flow.rate_cap``.  Used by the
        congestion model to throttle senders without mutating flows.

    Returns
    -------
    dict
        Mapping from ``flow.flow_id`` to allocated rate in bits/s.
    """
    overrides = cap_overrides or {}

    link_index: dict[object, int] = {}
    residual: list[float] = []
    pending: list[float] = []
    members: list[list[int]] = []
    rows: list[list[int]] = []

    for f_idx, flow in enumerate(flows):
        weight = float(flow.weight)
        row: list[int] = []
        for link_id in flow.path:
            l_idx = link_index.get(link_id)
            if l_idx is None:
                l_idx = link_index[link_id] = len(residual)
                residual.append(float(capacities[link_id]))
                pending.append(0.0)
                members.append([])
            pending[l_idx] += weight
            members[l_idx].append(f_idx)
            row.append(l_idx)
        cap = overrides.get(flow.flow_id, flow.rate_cap)
        if cap is not None:
            row.append(len(residual))
            residual.append(float(cap))
            pending.append(weight)
            members.append([f_idx])
        rows.append(row)

    share = [r / p for r, p in zip(residual, pending, strict=True)]
    heap = [(s, l_idx) for l_idx, s in enumerate(share) if pending[l_idx] > _DEAD_WEIGHT]
    heapq.heapify(heap)
    rates = [0.0] * len(flows)
    frozen = [False] * len(flows)
    remaining = len(flows)

    while remaining > 0 and heap:
        level, bottleneck = heapq.heappop(heap)
        if pending[bottleneck] <= _DEAD_WEIGHT or level != share[bottleneck]:
            continue
        if not math.isfinite(level):
            break
        newly = [f_idx for f_idx in members[bottleneck] if not frozen[f_idx]]
        remaining -= len(newly)
        touched: list[int] = []
        for f_idx in newly:
            if frozen[f_idx]:
                continue  # listed twice: its path crosses the link twice
            frozen[f_idx] = True
            weight = float(flows[f_idx].weight)
            rate = rates[f_idx] = weight * level
            for l_idx in rows[f_idx]:
                residual[l_idx] -= rate
                pending[l_idx] -= weight
                touched.append(l_idx)
        pending[bottleneck] = 0.0
        for l_idx in touched:
            if residual[l_idx] < 0.0:
                residual[l_idx] = 0.0
            if pending[l_idx] > _DEAD_WEIGHT:
                s = residual[l_idx] / pending[l_idx]
                if s != share[l_idx]:
                    share[l_idx] = s
                    heapq.heappush(heap, (s, l_idx))

    return {flow.flow_id: rates[f_idx] for f_idx, flow in enumerate(flows)}
