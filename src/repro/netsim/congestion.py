"""Fluid DCQCN-style congestion model: CNP accounting and sender throttling.

RoCEv2 NICs run DCQCN: congested switches ECN-mark packets, receivers
convert marks into Congestion Notification Packets (CNPs) back to the
senders, and senders multiplicatively decrease then gradually recover
their rate.  A fluid simulator has no packets, so we model the two
observable consequences the paper reports:

* **CNP counters** (Fig. 11): each saturated link generates CNPs for the
  flows crossing it at a rate proportional to the flow's share of the
  link — the constant is calibrated so a fully loaded 200 Gbps port under
  2:1 oversubscription yields the ~15k CNP/s per bonded port the paper
  measured.
* **Rate fluctuation** (Fig. 10b's 11.27 Gbps spread): senders receiving
  CNPs carry a multiplicative throttle that decays on congestion and
  recovers otherwise, with seeded stochastic gain, producing the band of
  effective bandwidths the paper attributes to DCQCN dynamics.

The model only engages on links that are genuine max-min bottlenecks
(utilization at capacity); an uncongested fabric — e.g. the 1:1
oversubscription runs where NVLink is the limit — generates no CNPs and
no throttling, matching the paper's observation that "the network's
capacity is underutilized, which results in an absence of queue buildup".
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.netsim.flows import Flow


@dataclass
class CongestionConfig:
    """Tunables of the fluid DCQCN model.

    Attributes
    ----------
    cnp_per_bit:
        CNPs generated per ECN-marked bit.  Calibrated against Fig. 11's
        operating point — a bonded port driving the DCQCN oscillation
        around a saturated spine tier receives ~15,000 CNP/s (senders
        spend only part of each oscillation above the marking threshold,
        hence the constant exceeds the naive 15e3/350e9).
    saturation_threshold:
        Fraction of capacity above which a link counts as saturated.
    throttle_decrease:
        Mean multiplicative decrease applied per tick to flows crossing
        a saturated link.
    throttle_recover:
        Additive recovery per tick for unthrottled flows.
    throttle_floor:
        Lower bound of the throttle multiplier.
    jitter:
        Standard deviation of the stochastic component of the decrease,
        modelling the feedback-delay-driven oscillation of DCQCN.
    tick_interval:
        Seconds between congestion-control updates.
    """

    cnp_per_bit: float = 1.0e-7
    saturation_threshold: float = 0.999
    throttle_decrease: float = 0.06
    throttle_recover: float = 0.02
    throttle_floor: float = 0.7
    jitter: float = 0.35
    tick_interval: float = 0.01


@dataclass
class CongestionModel:
    """Tracks CNP counters and per-flow throttle multipliers.

    ``link_filter`` restricts congestion management to the links where
    DCQCN actually runs: it should return True for Ethernet fabric links
    and False for virtual stages such as NVLink (which is lossless and
    credit-based, not ECN-marked).  The cluster layer wires this up.
    """

    config: CongestionConfig = field(default_factory=CongestionConfig)
    seed: int = 0
    link_filter: object = None  # Optional[Callable[[object], bool]]

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        #: CNPs received, keyed by whatever the caller uses to identify a
        #: sender port (flows carry it in ``metadata["cnp_key"]``).
        self.cnp_counts: dict[object, float] = {}
        self._throttle: dict[object, float] = {}

    def _managed(self, link_id: object) -> bool:
        if self.link_filter is None:
            return True
        return bool(self.link_filter(link_id))

    @staticmethod
    def _state_key(flow: Flow) -> object:
        """Congestion-control state lives on the QP, not the transfer.

        Flows are per-operation, but DCQCN's rate state belongs to the
        long-lived QP; the transport stamps ``metadata["cc_key"]`` with
        the QP number so throttles persist across back-to-back
        collectives.  Flows without the stamp fall back to per-flow
        state.
        """
        return flow.metadata.get("cc_key", flow.flow_id)

    def throttle_of(self, flow: Flow) -> float:
        """Current multiplicative throttle for a flow (1.0 = unthrottled)."""
        return self._throttle.get(self._state_key(flow), 1.0)

    def observe(
        self,
        flows: list[Flow],
        rates: dict[object, float],
        capacities: Mapping[object, float],
        dt: float,
    ) -> None:
        """Account CNPs for an interval of length ``dt``.

        ``rates`` maps flow id to current rate, ``capacities`` maps link
        id to capacity; both come from the network's rate computation.
        """
        saturated = self._saturated_links(flows, rates, capacities)
        if not saturated:
            return
        for flow in flows:
            rate = rates.get(flow.flow_id, 0.0)
            if rate <= 0:
                continue
            # ECN marks once: a packet's CE bit is set at the first
            # congested queue and stays set, so CNP volume does not
            # multiply with the number of congested hops.
            if not any(link_id in saturated for link_id in flow.path):
                continue
            cnps = rate * dt * self.config.cnp_per_bit
            key = flow.metadata.get("cnp_key", flow.flow_id)
            self.cnp_counts[key] = self.cnp_counts.get(key, 0.0) + cnps

    def tick(
        self,
        flows: list[Flow],
        rates: dict[object, float],
        capacities: Mapping[object, float],
    ) -> None:
        """Update per-flow throttles once per ``tick_interval``."""
        saturated = self._saturated_links(flows, rates, capacities)
        congested_keys: dict[object, bool] = {}
        for flow in flows:
            key = self._state_key(flow)
            on_congested_path = any(link_id in saturated for link_id in flow.path)
            congested_keys[key] = congested_keys.get(key, False) or on_congested_path
        for key, congested in congested_keys.items():
            current = self._throttle.get(key, 1.0)
            if congested:
                noise = max(0.0, 1.0 + self.config.jitter * self._rng.standard_normal())
                current *= 1.0 - self.config.throttle_decrease * noise
            else:
                current += self.config.throttle_recover
            self._throttle[key] = float(
                np.clip(current, self.config.throttle_floor, 1.0)
            )

    def forget(self, flow: Flow) -> None:
        """Drop ephemeral (per-flow-keyed) state once a flow completes.

        QP-keyed state is deliberately retained: the QP outlives the
        transfer.
        """
        if self._state_key(flow) is flow.flow_id:
            self._throttle.pop(flow.flow_id, None)

    def _saturated_links(
        self,
        flows: list[Flow],
        rates: dict[object, float],
        capacities: Mapping[object, float],
    ) -> set[object]:
        link_load: dict[object, float] = {}
        for flow in flows:
            rate = rates.get(flow.flow_id, 0.0)
            for link_id in flow.path:
                if self._managed(link_id):
                    link_load[link_id] = link_load.get(link_id, 0.0) + rate
        return {
            link_id
            for link_id, load in link_load.items()
            if load >= self.config.saturation_threshold * capacities[link_id]
        }
