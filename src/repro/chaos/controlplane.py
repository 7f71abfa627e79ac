"""The closed-loop chaos runner: PIPELINE and CONTROLPLANE scenarios.

Both kinds run the same loop.  A :class:`~repro.chaos.workload.SyntheticFeed`
plays the monitored job through the agent plane — and through the
scenario's lossy :class:`~repro.telemetry.unreliable.UnreliableChannel`
when it has one — into a journaled
:class:`~repro.controlplane.c4d_plane.C4DControlPlane` that owns the
collector, the debounced C4D master and the hardened steering service.
The master evaluates on a periodic tick; every steering action the plane
physically executes tears the job incarnation down and relaunches it on
the survivors plus replacements at ``ready_at``.

The scenario's :class:`~repro.chaos.scenario.ControlPlanePlan` decides
what else happens.  A PIPELINE scenario has no plan and runs *calm*: no
master kill, collector partition or agent massacre.  Nothing replays a
calm run and nobody scores its journal, so it journals into a store that
keeps nothing and takes no periodic snapshots.  A faulted plan schedules
master kills, warm-standby promotions, collector partitions and agent
massacres, keeps a real journal with periodic snapshots, and is judged
on two layers.  The node-fault layer is the same as for PIPELINE runs —
actions versus injected ground truth.  The resilience layer checks the
invariants the journal/fencing/lease machinery exists for:

* recovery replays the journal to a digest **bit-identical** to the one
  captured at the instant of the kill;
* no steering action is physically executed twice for one fault, even
  across incarnations (replay re-derives bookkeeping, never actions);
* a fenced-out master executes nothing after its successor takes over;
* telemetry blackouts produce **zero** false isolations — lease-derived
  coverage pushes the master into degraded mode instead;
* post-recovery recall matches a calm baseline run of the same scenario.

Every chaos timestamp sits off the feed/evaluation grids, so the
schedule-perturbation racecheck can replay these scenarios without
same-instant ties.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.chaos.scenario import ChaosScenario, ControlPlanePlan, ScenarioKind
from repro.chaos.scorecard import (
    DEFAULT_GRACE,
    ControlPlaneMetrics,
    NodeResponse,
    ScenarioScorecard,
    matching_episodes,
    score_node_faults,
)
from repro.chaos.workload import SyntheticFeed
from repro.cluster.specs import ClusterSpec
from repro.cluster.topology import ClusterTopology
from repro.controlplane import C4DControlPlane, JournalStore, LeaseTable
from repro.core.c4d.steering import fault_key
from repro.netsim.network import FlowNetwork
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import FaultTracer
from repro.telemetry.agent import AgentPlane
from repro.telemetry.unreliable import UnreliableChannel


class _UnkeptJournal(JournalStore):
    """The journal of a calm run, which nothing replays: it keeps nothing."""

    def append(self, kind: str, payload: dict, epoch: int) -> None:
        return None

    def snapshot(self, state: dict, epoch: int) -> None:
        return None


def _run(
    scenario: ChaosScenario,
    registry: MetricsRegistry,
    tracer: Optional[FaultTracer],
    grace: float,
    baseline_recall: Optional[float] = None,
) -> ScenarioScorecard:
    """One full simulation of the closed loop, judged.

    ``baseline_recall`` is the calm baseline's recall; only a faulted
    plan uses it.
    """
    plan = scenario.controlplane or ControlPlanePlan()
    network = FlowNetwork(metrics=registry)
    spec = ClusterSpec(num_nodes=scenario.job_nodes + scenario.backup_nodes)
    topology = ClusterTopology(spec, network, ecmp_seed=scenario.seed)
    backups = list(range(scenario.job_nodes, spec.num_nodes))
    store = (_UnkeptJournal if plan.calm else JournalStore)(metrics=registry)
    leases = LeaseTable(lease_seconds=plan.lease_seconds, metrics=registry)
    channel = (
        UnreliableChannel(network, scenario.channel, seed=scenario.seed)
        if scenario.channel is not None
        else None
    )

    # Mutable run context: the current master incarnation plus the
    # resilience counters the scorecard reports.
    ctx = {
        "down": False,
        "kills": 0,
        "digest_at_kill": None,
        "replay_digest_match": True,
        "replay_digest": "",
        "entries_replayed": 0,
        "recovery_seconds": None,
        "duplicates": 0,
        "blackout_false_isolations": 0,
        "coverage_min": 1.0,
        "token": 0,
        "seen_keys": {},
    }

    def on_action(action, coverage) -> None:
        """Physical execution hook: relaunch the job, audit the action."""
        key = fault_key(action.anomaly)
        executed_at = ctx["seen_keys"].get(key)
        if executed_at is not None and network.now - executed_at < plan.dedup_window:
            ctx["duplicates"] += 1
        ctx["seen_keys"][key] = network.now
        if coverage < plan.degraded_coverage_threshold and not matching_episodes(
            NodeResponse.from_action(action), scenario.episodes, grace
        ):
            ctx["blackout_false_isolations"] += len(action.isolated_nodes)
        # Closing the loop: the current incarnation is torn down, its
        # communicator deregistered (straggler records still in flight
        # are discarded), and the job relaunches on the survivors plus
        # replacements once the action completes.
        removed = set(action.isolated_nodes)
        state["nodes"] = [n for n in state["nodes"] if n not in removed] + list(
            action.replacement_nodes
        )
        old_comm = feed.comm_id
        feed.halt()
        ctx["plane"].drop_communicator(old_comm)
        ctx["token"] += 1
        token = ctx["token"]

        def relaunch() -> None:
            # Superseded by a newer action's relaunch plan.
            if token == ctx["token"] and state["nodes"]:
                feed.relaunch(state["nodes"])

        # A hair past ready_at: steering latencies and the evaluation
        # grid are both round numbers, so an exact-ready_at relaunch
        # would tie with an evaluation tick, and whether the relaunch
        # (and the feed grid it anchors) lands before or after that
        # evaluation would hinge on timer tie-breaking alone.
        network.schedule(max(0.0, action.ready_at - network.now) + 1e-3, relaunch)

    def build_plane(active: bool, standby: bool = False) -> C4DControlPlane:
        return C4DControlPlane(
            topology,
            backup_nodes=backups,
            store=store,
            leases=leases,
            detector_config=scenario.detector,
            steering_config=scenario.steering,
            steering_faults=scenario.steering_faults,
            dedup_window=plan.dedup_window,
            degraded_coverage_threshold=plan.degraded_coverage_threshold,
            active=active,
            standby=standby,
            action_listener=on_action,
            metrics=registry,
            tracer=tracer,
        )

    ctx["plane"] = build_plane(active=True)
    planes = [ctx["plane"]]
    standby = build_plane(active=False, standby=True) if plan.failover else None
    if standby is not None:
        planes.append(standby)

    agent_plane = AgentPlane(
        ctx["plane"], network=network, channel=channel, leases=leases, metrics=registry
    )
    state = {"nodes": list(range(scenario.job_nodes))}
    for node in state["nodes"]:
        agent_plane.agent(node)
        leases.register(node, 0.0)

    feed = SyntheticFeed(
        network,
        agent_plane,
        nodes=state["nodes"],
        faults=scenario.faults,
        step_seconds=scenario.step_seconds,
        seed=scenario.seed,
    )
    if tracer is not None:
        feed.symptom_observer = tracer.observe_symptom

    # ------------------------------------------------------------------
    # Periodic timers (all offsets off the feed/evaluation grids)
    # ------------------------------------------------------------------
    def evaluate_tick() -> None:
        coverage = leases.coverage(network.now)
        ctx["coverage_min"] = min(ctx["coverage_min"], coverage)
        if not ctx["down"]:
            ctx["plane"].evaluate(network.now)
        if network.now + scenario.evaluation_interval <= scenario.duration:
            network.schedule(scenario.evaluation_interval, evaluate_tick)

    def heartbeat_tick() -> None:
        agent_plane.beat_all(network.now)
        if network.now + plan.heartbeat_interval <= scenario.duration:
            network.schedule(plan.heartbeat_interval, heartbeat_tick)

    def snapshot_tick() -> None:
        if not ctx["down"]:
            ctx["plane"].snapshot()
        if network.now + plan.snapshot_interval <= scenario.duration:
            network.schedule(plan.snapshot_interval, snapshot_tick)

    # The evaluation grid is phase-shifted a fraction of a step off the
    # feed's step grid, as a control plane asynchronous to the data path
    # would be: whether an evaluation (and the halt it can trigger)
    # lands before or after a same-instant step must not depend on
    # timer tie-breaking.
    network.schedule(
        scenario.evaluation_interval + 0.1 * scenario.step_seconds, evaluate_tick
    )
    network.schedule(plan.heartbeat_interval + 2.7, heartbeat_tick)
    if not plan.calm:
        network.schedule(plan.snapshot_interval + 0.9, snapshot_tick)

    # ------------------------------------------------------------------
    # Scheduled control-plane faults
    # ------------------------------------------------------------------
    if plan.kill_at is not None and plan.recover_at is not None:

        def kill() -> None:
            ctx["down"] = True
            ctx["kills"] += 1
            ctx["digest_at_kill"] = ctx["plane"].state_digest()
            # Agents lose their master: records buffer node-locally and
            # heartbeats stop arriving.
            agent_plane.suspend()

        def recover() -> None:
            old = ctx["plane"]
            successor = standby if standby is not None else build_plane(active=False)
            if successor not in planes:
                planes.append(successor)
            info = successor.recover(now=network.now)
            ctx["replay_digest"] = info["digest"]
            ctx["replay_digest_match"] = info["digest"] == ctx["digest_at_kill"]
            ctx["entries_replayed"] += info["entries_replayed"]
            ctx["recovery_seconds"] = network.now - plan.kill_at
            ctx["plane"] = successor
            ctx["down"] = False
            ctx["demoted"] = (old, len(old.steering.executed_actions))
            agent_plane.retarget(successor)
            agent_plane.resume(network.now)

        network.schedule(plan.kill_at, kill)
        network.schedule(plan.recover_at, recover)

    if plan.stale_poke_at is not None:

        def stale_poke() -> None:
            demoted = ctx.get("demoted")
            if demoted is None:
                return
            old_plane, _ = demoted
            # The zombie write: a fenced-out master re-attempting an
            # evaluation.  It must be rejected without appending.
            old_plane.evaluate(network.now)
            old_plane.snapshot()

        network.schedule(plan.stale_poke_at, stale_poke)

    if plan.partition is not None:
        start, end = plan.partition
        network.schedule(start, agent_plane.suspend)
        network.schedule(end, lambda: agent_plane.resume(network.now))

    if plan.massacre_window is not None:
        start, end = plan.massacre_window

        def massacre() -> None:
            for node in plan.massacre_nodes:
                agent_plane.kill_agent(node)

        def revive() -> None:
            for node in plan.massacre_nodes:
                agent_plane.revive_agent(node, network.now)

        network.schedule(start, massacre)
        network.schedule(end, revive)

    feed.start()
    network.run(until=scenario.duration)

    # The logical action history spans every master incarnation: replay
    # reconstructs the pre-crash actions on the recovered master.
    responses = [NodeResponse.from_action(a) for a in ctx["plane"].steering.actions]
    fields = {
        "channel": channel.stats() if channel is not None else {},
        "steps_completed": feed.steps_completed,
        "relaunches": feed.relaunches,
    }
    if plan.calm:
        return score_node_faults(scenario, responses, grace, **fields)
    stale_executed = 0
    demoted = ctx.get("demoted")
    if demoted is not None:
        old_plane, executed_at_demotion = demoted
        stale_executed = len(old_plane.steering.executed_actions) - executed_at_demotion
    resilience = ControlPlaneMetrics(
        kills=ctx["kills"],
        recoveries=sum(p.recoveries for p in planes),
        failovers=sum(p.failovers for p in planes),
        replay_digest_match=ctx["replay_digest_match"],
        replay_digest=ctx["replay_digest"],
        entries_replayed=ctx["entries_replayed"],
        journal_entries=len(store.entries),
        snapshots=len(store.snapshots),
        recovery_seconds=ctx["recovery_seconds"],
        duplicate_actions=ctx["duplicates"],
        fencing_rejections=sum(p.stale_rejections for p in planes),
        stale_actions_executed=stale_executed,
        blackout_false_isolations=ctx["blackout_false_isolations"],
        coverage_min=ctx["coverage_min"],
        backfilled_records=agent_plane.backfilled_records,
        baseline_recall=baseline_recall,
    )
    card = score_node_faults(
        scenario, responses, grace, controlplane=resilience, **fields
    )
    # The scenario passes only when the resilience invariants hold and
    # recall did not fall below the calm baseline.
    return replace(
        card,
        completed=(
            resilience.replay_digest_match
            and resilience.duplicate_actions == 0
            and resilience.stale_actions_executed == 0
            and resilience.blackout_false_isolations == 0
            and card.recall >= baseline_recall
        ),
    )


def run_controlplane_scenario(
    scenario: ChaosScenario,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[FaultTracer] = None,
    grace: float = DEFAULT_GRACE,
) -> ScenarioScorecard:
    """Execute one PIPELINE or CONTROLPLANE scenario and judge it.

    A PIPELINE scenario runs its calm loop once.  A faulted plan runs
    twice: first calm (a private registry, no tracer — the recall
    baseline), then for real.  Both runs share seeds, so any recall the
    faulted run loses is attributable to the control-plane faults alone.
    """
    plan = scenario.controlplane
    if plan is None and scenario.kind is ScenarioKind.CONTROLPLANE:
        raise ValueError(f"scenario {scenario.name} has no controlplane plan")
    registry = get_registry(metrics)
    if plan is None or plan.calm:
        return _run(scenario, registry, tracer, grace)
    calm_plan = ControlPlanePlan(
        heartbeat_interval=plan.heartbeat_interval,
        lease_seconds=plan.lease_seconds,
        degraded_coverage_threshold=plan.degraded_coverage_threshold,
        dedup_window=plan.dedup_window,
    )
    baseline = _run(
        replace(scenario, controlplane=calm_plan), MetricsRegistry(), None, grace
    )
    return _run(scenario, registry, tracer, grace, baseline_recall=baseline.recall)


__all__ = ["run_controlplane_scenario"]
