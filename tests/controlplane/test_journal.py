"""Tests for the journal store: write-ahead order, fencing, snapshots."""

import pytest

from repro.controlplane import FencedOut, JournalStore, jsonable, state_digest
from repro.obs.metrics import MetricsRegistry


def store():
    return JournalStore(metrics=MetricsRegistry())


def test_append_assigns_monotonic_seq():
    s = store()
    epoch = s.open_epoch()
    first = s.append("op", {"x": 1}, epoch)
    second = s.append("op", {"x": 2}, epoch)
    assert (first.seq, second.seq) == (0, 1)
    assert first.epoch == second.epoch == epoch


def test_stale_epoch_is_fenced():
    s = store()
    old = s.open_epoch()
    s.open_epoch()  # a successor claimed writership
    with pytest.raises(FencedOut):
        s.append("op", {}, old)
    with pytest.raises(FencedOut):
        s.snapshot({}, old)
    # The current writer is unaffected.
    s.append("op", {}, s.epoch)


def test_entries_after_snapshot_is_the_replay_suffix():
    s = store()
    epoch = s.open_epoch()
    for i in range(5):
        s.append("op", {"i": i}, epoch)
    snap = s.snapshot({"n": 5}, epoch)
    assert snap.seq == 5
    for i in range(5, 8):
        s.append("op", {"i": i}, epoch)
    assert [e.payload["i"] for e in s.entries_after(snap.seq)] == [5, 6, 7]
    assert [e.seq for e in s.entries_after(snap.seq)] == [5, 6, 7]
    # Sequence numbers keep counting past the snapshot.
    assert s.append("op", {"i": 8}, epoch).seq == 8


def test_latest_snapshot_none_before_first():
    assert store().latest_snapshot() is None


def test_state_digest_is_canonical():
    # Tuples and lists encode identically; key order is irrelevant.
    assert state_digest({"a": (1, 2)}) == state_digest({"a": [1, 2]})
    assert state_digest({"a": 1, "b": 2}) == state_digest({"b": 2, "a": 1})
    assert state_digest({"a": 1}) != state_digest({"a": 2})


def test_jsonable_converts_nested_tuples():
    assert jsonable({"k": (1, (2, 3))}) == {"k": [1, [2, 3]]}
