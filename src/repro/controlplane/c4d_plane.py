"""The journaled, fenced, recoverable C4D control plane.

Wraps the detection stack (central collector + C4D master + steering)
behind the shared :class:`~repro.controlplane.journal.JournaledMaster`
write path:

* every record ingestion (and communicator drop) is journaled
  **write-ahead** and then handed to the collector by the same
  :meth:`C4DControlPlane._apply` that replay runs — live with the
  caller's record, on replay with the record decoded from the entry;
* every evaluation pass is journaled **with its outcomes** (executed
  steering actions, the coverage/blind-node inputs), because the
  physical side effects — node isolations — must never be re-executed
  by replay: a recovered master re-derives the *bookkeeping* of an
  action, not the action;
* every write carries the plane's fencing epoch.  A plane whose epoch
  is stale (a standby was promoted, a restarted instance took over)
  demotes itself on its next write attempt instead of corrupting state.

Recovery (:meth:`C4DControlPlane.recover`) claims a fresh epoch,
rebuilds the components, restores the latest snapshot and replays the
journal suffix.  Determinism of the stack makes the recovered state
digest bit-identical to the pre-crash one — which the chaos scorecard
checks.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cluster.topology import ClusterTopology
from repro.collective.monitoring import (
    CommunicatorRecord,
    MessageRecord,
    OpLaunchRecord,
    OpRecord,
)
from repro.controlplane.journal import FencedOut, JournaledMaster, JournalStore
from repro.controlplane.lease import LeaseTable
from repro.core.c4d.detectors import DetectorConfig
from repro.core.c4d.master import C4DMaster
from repro.core.c4d.steering import (
    JobSteeringService,
    SteeringAction,
    SteeringConfig,
    SteeringFaultModel,
)
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.telemetry.collector import CentralCollector

#: Journal kind -> record type of the write-ahead ingestion entries.
_RECORD_TYPES = {
    "communicator": CommunicatorRecord,
    "launch": OpLaunchRecord,
    "op": OpRecord,
    "message": MessageRecord,
}


class C4DControlPlane(JournaledMaster):
    """Crash-recoverable owner of the collector, master and steering.

    Parameters
    ----------
    topology / backup_nodes:
        Forwarded to the steering service.
    store:
        The journal store.  A primary and its warm standby share one
        store — that shared store's epoch is the fencing authority.
    leases:
        Agent heartbeat leases; coverage and blind nodes derived from
        them feed the master's degraded-mode gate.
    active:
        True claims writership immediately (normal start-up).  False
        builds an inert instance that only :meth:`recover` activates —
        a cold restart, or (with ``standby=True``) a warm standby whose
        promotion counts as a failover.
    action_listener:
        Called with ``(action, coverage)`` for each steering action
        *physically executed* by this plane — the hook campaign runners
        use, since it survives component rebuilds across recoveries.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        backup_nodes: list[int],
        store: Optional[JournalStore] = None,
        leases: Optional[LeaseTable] = None,
        detector_config: Optional[DetectorConfig] = None,
        steering_config: Optional[SteeringConfig] = None,
        steering_faults: Optional[SteeringFaultModel] = None,
        dedup_window: float = 900.0,
        cooldown: float = 300.0,
        degraded_coverage_threshold: float = 0.6,
        rca=None,
        c4p=None,
        active: bool = True,
        standby: bool = False,
        action_listener: Optional[Callable[[SteeringAction, float], None]] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ) -> None:
        super().__init__(store, active, metrics)
        self.topology = topology
        self.backup_nodes = list(backup_nodes)
        self.leases = leases if leases is not None else LeaseTable(metrics=metrics)
        self._detector_config = detector_config
        self._steering_config = steering_config
        self._steering_faults = steering_faults
        self._dedup_window = dedup_window
        self._cooldown = cooldown
        self._degraded_threshold = degraded_coverage_threshold
        self.rca = rca
        self.c4p = c4p
        self.action_listener = action_listener
        self._metrics = metrics
        self.tracer = tracer
        #: Built as a warm standby — its promotion counts as a failover.
        self._standby = standby and not active
        self.failovers = 0
        self._m_failovers = get_registry(metrics).counter(
            "controlplane_failovers_total", "Warm-standby promotions completed"
        )
        self._build()

    def _build(self) -> None:
        """(Re)construct the collector/steering/master stack."""
        self.collector = CentralCollector(metrics=self._metrics)
        self.steering = JobSteeringService(
            self.topology,
            backup_nodes=self.backup_nodes,
            config=self._steering_config,
            faults=self._steering_faults,
            dedup_window=self._dedup_window,
            metrics=self._metrics,
        )
        self.master = C4DMaster(
            self.collector,
            config=self._detector_config,
            steering=self.steering,
            rca=self.rca,
            cooldown=self._cooldown,
            c4p=self.c4p,
            degraded_coverage_threshold=self._degraded_threshold,
            metrics=self._metrics,
            tracer=self.tracer,
        )
        self.master.epoch = self.epoch

    # ------------------------------------------------------------------
    # Ingestion (duck-types the CentralCollector API, so agents can
    # point straight at the plane)
    # ------------------------------------------------------------------
    def ingest_communicator(self, record: CommunicatorRecord, now: float = 0.0) -> None:
        self._command("communicator", {"record": record.to_payload(), "now": now}, record)

    def ingest_launch(self, record: OpLaunchRecord) -> None:
        self._command("launch", {"record": record.to_payload()}, record)

    def ingest_op(self, record: OpRecord) -> None:
        self._command("op", {"record": record.to_payload()}, record)

    def ingest_message(self, record: MessageRecord) -> None:
        self._command("message", {"record": record.to_payload()}, record)

    def drop_communicator(self, comm_id: str) -> None:
        self._command("drop", {"comm_id": comm_id})

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, now: float) -> list:
        """One master evaluation pass under the current lease coverage.

        The journal entry is written *after* execution and carries the
        executed actions plus the exact coverage/blind inputs, so replay
        re-derives the pass deterministically without re-running the
        physical isolations.
        """
        if not self._writable():
            return []
        coverage = self.leases.coverage(now)
        blind = self.leases.blind_nodes(now)
        actions_before = len(self.steering.actions)
        executed_before = len(self.steering.executed_actions)
        fresh = self.master.evaluate(now, coverage=coverage, blind_nodes=blind)
        new_actions = self.steering.actions[actions_before:]
        self.store.append(
            "evaluate",
            {
                "now": now,
                "epoch": self.epoch,
                "coverage": coverage,
                "blind": blind,
                "actions": [a.to_payload() for a in new_actions],
            },
            self.epoch,
        )
        if self.action_listener is not None:
            for action in self.steering.executed_actions[executed_before:]:
                self.action_listener(action, coverage)
        return fresh

    def _apply(self, kind: str, payload: dict, record=None) -> None:
        if record is None and kind in _RECORD_TYPES:
            record = _RECORD_TYPES[kind].from_payload(payload["record"])
        if kind == "op":
            self.collector.ingest_op(record)
        elif kind == "message":
            self.collector.ingest_message(record)
        elif kind == "launch":
            self.collector.ingest_launch(record)
        elif kind == "communicator":
            self.collector.ingest_communicator(record, now=payload["now"])
        elif kind == "drop":
            self.collector.drop_communicator(payload["comm_id"])
        elif kind == "evaluate":
            # Replay-only: the journaled actions stand in for execution
            # and are booked under the epoch that executed them, and the
            # tracer, RCA and C4P hooks stay detached — those detections
            # were emitted before the crash.
            master = self.master
            self.steering.begin_replay(
                [SteeringAction.from_payload(p) for p in payload["actions"]]
            )
            master.tracer = master.rca = master.c4p = None
            master.epoch = payload["epoch"]
            try:
                master.evaluate(
                    payload["now"], coverage=payload["coverage"], blind_nodes=payload["blind"]
                )
            finally:
                self.steering.end_replay()
                master.tracer, master.rca, master.c4p = self.tracer, self.rca, self.c4p
                master.epoch = self.epoch
        else:
            raise ValueError(f"unknown journal entry kind {kind!r}")

    # ------------------------------------------------------------------
    # State and recovery / failover
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Full serialized state of the managed components."""
        return {
            "collector": self.collector.snapshot_state(),
            "master": self.master.snapshot_state(),
            "steering": self.steering.snapshot_state(),
        }

    def _restore(self, state: Optional[dict]) -> None:
        # Fresh components at the new epoch, whatever this instance held.
        self._build()
        if state is not None:
            self.collector.restore_state(state["collector"])
            self.master.restore_state(state["master"])
            self.steering.restore_state(state["steering"])

    def recover(self, now: float = 0.0) -> dict:
        """Claim writership and rebuild state from the shared store.

        Works for both a restarted instance (crash recovery) and a warm
        standby (failover) — the promotion is the same protocol: bump
        the epoch (fencing out every earlier writer), restore the latest
        snapshot, replay the journal suffix with physical side effects
        suppressed, then start accepting writes.
        """
        was_standby, self._standby = self._standby, False
        result = self._replay()
        if was_standby:
            self.failovers += 1
            self._m_failovers.inc()
        return result


__all__ = ["C4DControlPlane", "FencedOut"]
