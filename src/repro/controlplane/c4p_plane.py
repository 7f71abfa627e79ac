"""The journaled, fenced, recoverable C4P traffic-engineering master.

:class:`ResilientC4PMaster` subclasses the plain
:class:`~repro.core.c4p.master.C4PMaster` and writes every mutating
entry point through the shared :class:`~repro.controlplane.journal.JournaledMaster`
protocol.  Allocations (with their pre-drawn QP numbers, so recovered
allocations keep their identities), releases, out-of-band link failures
and C4D connection-anomaly strikes are journaled write-ahead and then
executed by the same :meth:`ResilientC4PMaster._apply` that replay runs.
Maintenance passes execute first and journal their probe outcomes, so
replay never touches the live fabric.

Compound operations journal **one** entry per cause: the quarantines
nested in a maintenance pass or a strike-out go through
:meth:`C4PMaster._fail_link`, never the journaled
:meth:`notify_link_failure`, and replaying the cause re-derives them.
Epoch fencing raises :class:`FencedOut` from a stale master's mutating
calls — a zombie C4P master can neither allocate paths nor trigger
migrations after a takeover.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Optional, Sequence

from repro.cluster.topology import ClusterTopology
from repro.collective.selectors import PathRequest, QpAllocation
from repro.controlplane.journal import FencedOut, JournaledMaster, JournalStore
from repro.core.c4p import master as c4p_master
from repro.core.c4p.master import C4PMaster, DrainReport, MaintenanceReport
from repro.obs.metrics import MetricsRegistry


class ResilientC4PMaster(JournaledMaster, C4PMaster):
    """C4P master with a write-ahead journal and epoch fencing.

    Parameters mirror :class:`C4PMaster`, plus:

    store:
        Shared journal store (the fencing authority).  A recovery
        instance is constructed against the crashed master's store with
        ``active=False, refresh_on_init=False`` and then promoted via
        :meth:`recover`.
    active:
        True claims writership at construction; False builds an inert
        instance that only :meth:`recover` can activate.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        store: Optional[JournalStore] = None,
        active: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        **kwargs,
    ) -> None:
        JournaledMaster.__init__(self, store, active, metrics)
        C4PMaster.__init__(self, topology, metrics=metrics, **kwargs)

    state = C4PMaster.snapshot_state

    def _restore(self, state: Optional[dict]) -> None:
        if state is not None:
            self.restore_state(state)

    def _writable(self) -> bool:
        if super()._writable():
            return True
        raise FencedOut(
            f"c4p master epoch {self.epoch} is stale "
            f"(store is at epoch {self.store.epoch})"
        )

    # ------------------------------------------------------------------
    # Journaled mutating entry points
    # ------------------------------------------------------------------
    def allocate(self, request: PathRequest) -> list[QpAllocation]:
        # Fence before drawing, so a zombie consumes no QP numbers.
        self._writable()
        # Draw the QP numbers up front and journal them write-ahead:
        # _apply feeds them through the override queue, so recovered
        # allocations keep their identities even though the global
        # counter has moved on.
        qp_nums = [next(c4p_master._qp_counter) for _ in range(request.num_qps)]
        return self._command(
            "allocate", {"request": asdict(request), "qp_nums": qp_nums}, request
        )

    def release(
        self, request: PathRequest, allocations: Sequence[QpAllocation]
    ) -> None:
        self._command("release", {"qp_nums": [a.qp_num for a in allocations]})

    def notify_link_failure(
        self, link_id: tuple, now: Optional[float] = None, drain: bool = True
    ) -> DrainReport:
        if now is None:
            now = self.topology.network.now
        return self._command(
            "link_failure", {"link": list(link_id), "now": now, "drain": drain}
        )

    def notify_connection_anomaly(
        self,
        src_worker: tuple[int, int],
        dst_worker: tuple[int, int],
        now: Optional[float] = None,
    ) -> tuple[tuple, ...]:
        if now is None:
            now = self.topology.network.now
        return self._command(
            "connection_anomaly",
            {"src": list(src_worker), "dst": list(dst_worker), "now": now},
        )

    def maintenance(
        self,
        now: Optional[float] = None,
        probe_results: Optional[dict[tuple, bool]] = None,
    ) -> MaintenanceReport:
        self._writable()
        if now is None:
            now = self.topology.network.now
        report = super().maintenance(now, probe_results)
        self.store.append(
            "maintenance",
            {
                "now": now,
                "probes": sorted(
                    ([list(link), healthy] for link, healthy in self.last_probe_results.items()),
                    key=repr,
                ),
            },
            self.epoch,
        )
        return report

    def _apply(self, kind: str, payload: dict, live: Optional[PathRequest] = None):
        if kind == "allocate":
            self._qp_num_override.extend(payload["qp_nums"])
            try:
                return super().allocate(live or PathRequest(**payload["request"]))
            except c4p_master.PathPoolExhausted:
                if live is not None:
                    raise
                # Replay: the live call failed the same way, after the
                # same partial mutations.
                return []
            finally:
                self._qp_num_override.clear()
        if kind == "release":
            qp_nums = [q for q in payload["qp_nums"] if q in self._allocated]
            return super().release(None, [self._allocated[q].alloc for q in qp_nums])
        if kind == "link_failure":
            return self._fail_link(tuple(payload["link"]), payload["now"], payload["drain"])
        if kind == "connection_anomaly":
            return super().notify_connection_anomaly(
                tuple(payload["src"]), tuple(payload["dst"]), payload["now"]
            )
        if kind == "maintenance":
            probes = {tuple(link): healthy for link, healthy in payload["probes"]}
            return super().maintenance(payload["now"], probe_results=probes)
        raise ValueError(f"unknown journal entry kind {kind!r}")

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self, now: float = 0.0) -> dict:
        """Claim writership and rebuild state from the shared store."""
        listener, self.migration_listener = self.migration_listener, None
        try:
            return self._replay()
        finally:
            self.migration_listener = listener


__all__ = ["ResilientC4PMaster"]
