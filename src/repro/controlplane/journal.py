"""Write-ahead journal + snapshots for the C4 control-plane masters.

The masters (C4D, C4P, the central collector) are long-lived singletons
whose in-memory state — delay-matrix windows, steering history, strike
counts, allocation books, link-health machines — is exactly what a crash
loses.  This module gives them a shared durability substrate:

* **journal entries** are written *ahead* of the mutation they describe
  (record ingestion) or immediately after an evaluation pass with its
  executed outcomes, in a single total order per store;
* **snapshots** capture the full serialized state at a journal position,
  bounding replay work;
* **fencing epochs** make the store single-writer: every append carries
  the writer's epoch, and an epoch older than the store's current one is
  rejected with :class:`FencedOut` — the mechanism that stops a stale or
  zombie master from mutating state (or issuing actions) after a standby
  took over.

Recovery = restore the latest snapshot, replay the entries after it, and
compare :func:`state_digest` against the pre-crash value.  Digests are
SHA-256 over canonical JSON (sorted keys, no whitespace), so "identical
state" is a checkable single string rather than a vibe.

:class:`JournaledMaster` is the one write path both masters share: the
fencing check, journaled commands applied by the same ``_apply`` live
and on replay, and the recovery routine.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Optional

from repro.obs.metrics import MetricsRegistry, get_registry


class FencedOut(RuntimeError):
    """A writer with a stale epoch tried to mutate the journal.

    Raised by :meth:`JournalStore.append` / :meth:`JournalStore.snapshot`
    when the caller's epoch is older than the store's current epoch —
    i.e. another master has since taken over.  The stale writer must
    demote itself; it may never retry the write.
    """


def jsonable(value):
    """Recursively convert tuples to lists (canonical JSON form)."""
    if isinstance(value, (tuple, list)):
        return [jsonable(item) for item in value]
    if isinstance(value, dict):
        return {key: jsonable(item) for key, item in value.items()}
    return value


def state_digest(state: dict) -> str:
    """SHA-256 over the canonical JSON encoding of a state dict."""
    canonical = json.dumps(jsonable(state), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class JournalEntry:
    """One journaled mutation."""

    seq: int
    epoch: int
    kind: str
    payload: dict


@dataclass(frozen=True)
class Snapshot:
    """Full serialized state at one journal position."""

    #: Journal length when the snapshot was taken; replay starts at this
    #: entry index.
    seq: int
    epoch: int
    state: dict


class JournalStore:
    """In-memory journal + snapshot store with epoch fencing.

    One store backs one logical master.  A production deployment would
    put this on replicated disk; the simulation keeps it in memory — the
    point is the *protocol* (write-ahead ordering, fencing, replay), not
    the medium.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.entries: list[JournalEntry] = []
        self.snapshots: list[Snapshot] = []
        #: Current writer epoch; appends from older epochs are fenced.
        self.epoch = 0
        registry = get_registry(metrics)
        self._m_entries = registry.counter(
            "controlplane_journal_entries_total",
            "Mutations appended to a control-plane journal",
            labels=("kind",),
        )
        self._m_size = registry.gauge(
            "controlplane_journal_size",
            "Entries currently retained in a control-plane journal",
        )
        self._m_snapshots = registry.counter(
            "controlplane_snapshots_total", "Control-plane state snapshots taken"
        )
        self._m_fenced = registry.counter(
            "controlplane_fence_rejections_total",
            "Writes rejected because the writer's epoch was stale",
        )
        self._m_epoch = registry.gauge(
            "controlplane_epoch", "Current fencing epoch of the journal store"
        )

    # ------------------------------------------------------------------
    # Epoch management
    # ------------------------------------------------------------------
    def open_epoch(self) -> int:
        """Claim writership: bump and return the fencing epoch.

        Every master (initial start, restart, promoted standby) calls
        this exactly once before its first write; all earlier epochs are
        fenced from that moment on.
        """
        self.epoch += 1
        self._m_epoch.set(self.epoch)
        return self.epoch

    def check_epoch(self, epoch: int) -> None:
        """Raise :class:`FencedOut` when ``epoch`` is no longer current."""
        if epoch != self.epoch:
            raise FencedOut(
                f"writer epoch {epoch} is stale (store is at epoch {self.epoch})"
            )

    def record_fence(self) -> None:
        """Count one fenced-out write (called by the demoting writer)."""
        self._m_fenced.inc()

    # ------------------------------------------------------------------
    # Journal / snapshot
    # ------------------------------------------------------------------
    def append(self, kind: str, payload: dict, epoch: int) -> JournalEntry:
        """Append one mutation; the caller must hold the current epoch."""
        self.check_epoch(epoch)
        entry = JournalEntry(seq=len(self.entries), epoch=epoch, kind=kind, payload=payload)
        self.entries.append(entry)
        self._m_entries.labels(kind=kind).inc()
        self._m_size.set(len(self.entries))
        return entry

    def snapshot(self, state: dict, epoch: int) -> Snapshot:
        """Record a full-state snapshot at the current journal position."""
        self.check_epoch(epoch)
        snap = Snapshot(seq=len(self.entries), epoch=epoch, state=jsonable(state))
        self.snapshots.append(snap)
        self._m_snapshots.inc()
        return snap

    def latest_snapshot(self) -> Optional[Snapshot]:
        """Most recent snapshot, or None before the first."""
        return self.snapshots[-1] if self.snapshots else None

    def entries_after(self, seq: int) -> list[JournalEntry]:
        """Journal suffix from sequence number ``seq`` (inclusive)."""
        return self.entries[seq:]


class JournaledMaster:
    """Write path shared by the journaled control-plane masters.

    A subclass supplies :meth:`state`, :meth:`_restore` and
    :meth:`_apply`.  Write-ahead mutations go through :meth:`_command`,
    which journals the entry and then applies it with the same
    ``_apply`` that recovery runs over the journal suffix.  Mutations
    whose outcome can only be observed by executing them (evaluation
    passes, maintenance probes) execute first and then append their
    outcomes directly; their ``_apply`` branch is replay-only.

    ``_apply(kind, payload, live)`` receives the caller's live object
    (an ingested record, an allocation request) as ``live``; on replay
    ``live`` is None and the branch decodes it from the payload.
    """

    def __init__(
        self,
        store: Optional[JournalStore],
        active: bool,
        metrics: Optional[MetricsRegistry],
    ) -> None:
        #: The shared journal; its epoch is the fencing authority.
        self.store = store if store is not None else JournalStore(metrics=metrics)
        self.epoch = self.store.open_epoch() if active else 0
        self.active = active
        #: Writes this instance attempted while fenced out.
        self.stale_rejections = 0
        self.recoveries = 0
        self.entries_replayed = 0
        self.replay_seconds = 0.0
        registry = get_registry(metrics)
        self._m_recoveries = registry.counter(
            "controlplane_recoveries_total",
            "Journal-replay recoveries completed by a control plane",
        )
        self._m_replayed = registry.counter(
            "controlplane_replayed_entries_total",
            "Journal entries replayed during recoveries",
        )
        self._m_replay_seconds = registry.histogram(
            "controlplane_replay_seconds", "Wall-clock time of one journal replay"
        )

    def state(self) -> dict:
        """Full serialized state of the master."""
        raise NotImplementedError

    def _restore(self, state: Optional[dict]) -> None:
        """Reset to a snapshot's ``state`` (None: no snapshot was taken)."""
        raise NotImplementedError

    def _apply(self, kind: str, payload: dict, live=None):
        """Execute one journal entry, live or on replay."""
        raise NotImplementedError

    def _writable(self) -> bool:
        """True while this instance holds writership; demote otherwise."""
        if self.active and self.epoch == self.store.epoch:
            return True
        self.active = False
        self.store.record_fence()
        self.stale_rejections += 1
        return False

    def _command(self, kind: str, payload: dict, live=None):
        """Journal ``payload`` write-ahead, then apply it (None when fenced)."""
        if not self._writable():
            return None
        self.store.append(kind, payload, self.epoch)
        return self._apply(kind, payload, live)

    def state_digest(self) -> str:
        """Canonical digest of :meth:`state`."""
        return state_digest(self.state())

    def snapshot(self) -> bool:
        """Record a full-state snapshot; False (C4D) or FencedOut (C4P) when fenced."""
        if not self._writable():
            return False
        self.store.snapshot(self.state(), self.epoch)
        return True

    def _replay(self) -> dict:
        """Claim writership and rebuild state from the shared store.

        Bumps the epoch (fencing out every earlier writer), restores the
        latest snapshot and applies the journal suffix.
        """
        # Wall clock is observability-only: replay timing for the
        # scorecard, never simulated time.
        started = time.perf_counter()  # repro: noqa[SIM001]
        self.epoch = self.store.open_epoch()
        snap = self.store.latest_snapshot()
        self._restore(None if snap is None else snap.state)
        entries = self.store.entries_after(0 if snap is None else snap.seq)
        for entry in entries:
            self._apply(entry.kind, entry.payload)
        self.replay_seconds = time.perf_counter() - started  # repro: noqa[SIM001]
        self.entries_replayed += len(entries)
        self.recoveries += 1
        self._m_recoveries.inc()
        self._m_replayed.inc(len(entries))
        self._m_replay_seconds.observe(self.replay_seconds)
        self.active = True
        return {
            "epoch": self.epoch,
            "entries_replayed": len(entries),
            "digest": self.state_digest(),
        }
