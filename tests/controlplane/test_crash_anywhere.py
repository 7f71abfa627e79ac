"""Crash-anywhere replay: a master killed after any op recovers bit-identically.

For a seeded op sequence and every prefix length k, the first k ops run
on a fresh master; a fresh instance then recovers from that master's
store and must reach the same state digest.
"""

import random

import pytest

from repro.cluster.specs import TESTBED_16_NODES
from repro.cluster.topology import ClusterTopology
from repro.collective.algorithms import Algorithm, OpType
from repro.collective.communicator import RankLocation
from repro.collective.monitoring import (
    CommunicatorRecord,
    MessageRecord,
    OpLaunchRecord,
    OpRecord,
)
from repro.collective.selectors import PathRequest
from repro.controlplane import C4DControlPlane, JournalStore, LeaseTable, ResilientC4PMaster
from repro.core.c4d.detectors import DetectorConfig
from repro.core.c4p.registry import PathPoolExhausted
from repro.netsim.network import FlowNetwork
from repro.obs.metrics import MetricsRegistry

SEEDS = (0, 1, 2)
OPS = 14


def topo():
    return ClusterTopology(TESTBED_16_NODES, FlowNetwork(), ecmp_seed=1)


# ----------------------------------------------------------------------
# C4P
# ----------------------------------------------------------------------
C4P_OPS = (
    "allocate",
    "allocate",
    "release",
    "link_failure",
    "connection_anomaly",
    "connection_anomaly",
    "maintenance",
    "snapshot",
)


def run_c4p(master, seed, k):
    """Run the first ``k`` ops of the seeded C4P sequence on ``master``."""
    rng = random.Random(seed)
    conns = []  # (request, allocations) still held
    for i in range(k):
        now = 10.0 * (i + 1)
        op = rng.choice(C4P_OPS)
        if op == "allocate" or not conns:
            src, dst = rng.sample(range(8), 2)
            request = PathRequest(f"c{i}", "job0", src, 0, dst, 0, num_qps=2)
            try:
                conns.append((request, master.allocate(request)))
            except PathPoolExhausted:
                pass
        elif op == "release":
            request, allocs = conns.pop(rng.randrange(len(conns)))
            master.release(request, allocs)
        elif op == "link_failure":
            _, allocs = rng.choice(conns)
            path = rng.choice(allocs).path
            master.notify_link_failure(path[rng.randrange(len(path))], now=now)
        elif op == "connection_anomaly":
            request, _ = rng.choice(conns)
            master.notify_connection_anomaly(
                (request.src_node, request.src_nic), (request.dst_node, request.dst_nic), now
            )
        elif op == "maintenance":
            master.maintenance(now=now)
        else:
            master.snapshot()


def c4p_successor(store, metrics):
    return ResilientC4PMaster(
        topo(), store=store, active=False, refresh_on_init=False, metrics=metrics
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_c4p_recovers_after_any_prefix(seed):
    for k in range(OPS + 1):
        metrics = MetricsRegistry()
        master = ResilientC4PMaster(topo(), metrics=metrics)
        run_c4p(master, seed, k)
        digest = master.state_digest()
        info = c4p_successor(master.store, metrics).recover()
        assert info["digest"] == digest, f"seed {seed}: diverged after {k} ops"


def test_c4p_replays_allocate_that_exhausted_the_pool():
    metrics = MetricsRegistry()
    master = ResilientC4PMaster(topo(), metrics=metrics)
    spec = master.topology.spec
    # Kill every spine downlink into the right-hand leaf plane of rail 0:
    # a 2-QP allocation then places QP 0 (left plane) and raises on QP 1.
    for spine in master.topology.enabled_spines(0):
        for port in range(spec.uplink_ports_per_spine):
            master.notify_link_failure(
                master.topology.spine_down(0, spine, 1, port), now=1.0, drain=False
            )
    with pytest.raises(PathPoolExhausted):
        master.allocate(PathRequest("c", "job0", 0, 0, 4, 0, num_qps=2))
    # The live call raised after registering its first QP.
    assert master.allocation_count() == 1
    assert master.store.entries[-1].kind == "allocate"
    digest = master.state_digest()
    info = c4p_successor(master.store, metrics).recover()
    assert info["digest"] == digest


# ----------------------------------------------------------------------
# C4D
# ----------------------------------------------------------------------
RANKS = tuple(RankLocation(i, 0) for i in range(4))
C4D_OPS = ("launch", "launch", "op", "op", "message", "drop", "evaluate", "evaluate", "snapshot")


def c4d_ops(seed):
    """A seeded C4D op sequence: (kind, args) pairs with rising times."""
    rng = random.Random(seed)
    ops = [("communicator", (CommunicatorRecord(f"c{i}", 4, RANKS), 0.0)) for i in range(2)]
    now = 0.0
    seqs = {}
    while len(ops) < OPS:
        now += rng.uniform(5.0, 25.0)
        kind = rng.choice(C4D_OPS)
        comm = f"c{rng.randrange(2)}"
        # Rank 3 never launches: the hang C4D must act on.
        rank = rng.randrange(3)
        seq = seqs.setdefault(comm, 0)
        loc = RANKS[rank]
        if kind == "launch":
            ops.append((kind, OpLaunchRecord(comm, seq, OpType.ALLREDUCE, rank, loc, now)))
        elif kind == "op":
            ops.append((kind, OpRecord(
                comm, seq, OpType.ALLREDUCE, Algorithm.RING, "fp16", 1024,
                rank, loc, now - 2.0, now - 1.0, now,
            )))
            seqs[comm] = seq + 1
        elif kind == "message":
            peer = RANKS[(rank + 1) % 4]
            ops.append((kind, MessageRecord(
                comm, seq, loc.node, 0, peer.node, 0, f"10.0.{loc.node}.1",
                f"10.0.{peer.node}.1", 1000 + rank, 5000, 0, 8e6, now - 1.0, now,
            )))
        elif kind == "drop":
            ops.append((kind, comm))
        else:
            ops.append((kind, now))
    return ops


def run_c4d(plane, ops):
    for kind, args in ops:
        if kind == "communicator":
            plane.ingest_communicator(*args)
        elif kind == "launch":
            plane.ingest_launch(args)
        elif kind == "op":
            plane.ingest_op(args)
        elif kind == "message":
            plane.ingest_message(args)
        elif kind == "drop":
            plane.drop_communicator(args)
        elif kind == "evaluate":
            plane.evaluate(args)
        else:
            plane.snapshot()


def c4d_plane(store, leases, metrics, **kwargs):
    # A fresh topology per incarnation: isolations are never replayed.
    return C4DControlPlane(
        ClusterTopology(TESTBED_16_NODES, FlowNetwork(), ecmp_seed=0),
        backup_nodes=[14, 15],
        store=store,
        leases=leases,
        detector_config=DetectorConfig(hang_timeout=30.0),
        metrics=metrics,
        **kwargs,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_c4d_recovers_after_any_prefix(seed):
    ops = c4d_ops(seed)
    for k in range(len(ops) + 1):
        metrics = MetricsRegistry()
        store = JournalStore(metrics=metrics)
        # Leases never expire: every evaluation runs at full coverage.
        leases = LeaseTable(lease_seconds=1e9, metrics=metrics)
        for node in range(4):
            leases.register(node, 0.0)
        plane = c4d_plane(store, leases, metrics)
        run_c4d(plane, ops[:k])
        digest = plane.state_digest()
        info = c4d_plane(store, leases, metrics, active=False).recover()
        assert info["digest"] == digest, f"seed {seed}: diverged after {k} ops"
