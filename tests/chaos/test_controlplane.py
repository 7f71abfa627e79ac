"""End-to-end tests for the control-plane chaos scenarios."""

from dataclasses import replace

import pytest

from repro.chaos import (
    ControlPlanePlan,
    agent_massacre_scenario,
    collector_partition_scenario,
    failover_scenario,
    master_kill_scenario,
    run_controlplane_scenario,
)
from repro.chaos.scenario import ScenarioKind, default_campaign
from repro.obs.metrics import MetricsRegistry


def run(scenario):
    return run_controlplane_scenario(scenario, metrics=MetricsRegistry())


def test_master_kill_recovers_to_identical_digest():
    card = run(master_kill_scenario(seed=0))
    cp = card.controlplane
    assert cp is not None
    assert cp.kills == 1 and cp.recoveries == 1
    assert cp.failovers == 0  # cold restart, not a standby promotion
    assert cp.replay_digest_match
    assert cp.entries_replayed > 0
    assert cp.duplicate_actions == 0
    assert cp.stale_actions_executed == 0
    assert card.recall >= cp.baseline_recall
    assert card.completed


def test_failover_fences_the_stale_master():
    card = run(failover_scenario(seed=0))
    cp = card.controlplane
    assert cp.failovers == 1
    assert cp.replay_digest_match
    # The demoted primary's post-takeover pokes were rejected, and none
    # of its actions leaked out.
    assert cp.fencing_rejections >= 1
    assert cp.stale_actions_executed == 0
    assert cp.duplicate_actions == 0
    assert card.completed


def test_collector_partition_degrades_without_false_isolations():
    card = run(collector_partition_scenario(seed=0))
    cp = card.controlplane
    # Coverage collapsed during the blackout...
    assert cp.coverage_min == 0.0
    # ...and the degraded gate turned it into missed-detection latency,
    # not a false-isolation storm.
    assert cp.blackout_false_isolations == 0
    assert card.false_isolations == 0
    assert card.isolation_storms == 0
    assert cp.backfilled_records > 0
    assert card.completed


def test_agent_massacre_recovers_coverage():
    card = run(agent_massacre_scenario(seed=0))
    cp = card.controlplane
    assert cp.coverage_min == pytest.approx(0.5)
    assert cp.blackout_false_isolations == 0
    assert card.recall >= cp.baseline_recall
    assert card.completed


def _journal_counts(registry):
    entries = registry.counter("controlplane_journal_entries_total", labels=("kind",))
    snapshots = registry.counter("controlplane_snapshots_total")
    return sum(child.value for _, child in entries.series()), snapshots.value


def test_calm_plan_is_unjournaled():
    # A calm plan (no kill, partition or massacre) is never replayed,
    # so it keeps no journal entries and takes no snapshots...
    registry = MetricsRegistry()
    calm = replace(collector_partition_scenario(seed=0), controlplane=ControlPlanePlan())
    card = run_controlplane_scenario(calm, metrics=registry)
    assert card.controlplane is None
    assert _journal_counts(registry) == (0, 0)
    # ...while a faulted plan journals for real and snapshots periodically.
    registry = MetricsRegistry()
    card = run_controlplane_scenario(collector_partition_scenario(seed=0), metrics=registry)
    assert card.controlplane.journal_entries > 0
    assert card.controlplane.snapshots > 0
    entries, snapshots = _journal_counts(registry)
    assert entries == card.controlplane.journal_entries
    assert snapshots == card.controlplane.snapshots


def test_default_campaign_includes_controlplane_scenarios():
    scenarios = default_campaign(0)
    kinds = [s.kind for s in scenarios]
    assert kinds.count(ScenarioKind.CONTROLPLANE) == 4
    names = {
        s.name.split("[")[0] for s in scenarios if s.kind is ScenarioKind.CONTROLPLANE
    }
    assert names == {
        "master-kill", "failover", "collector-partition", "agent-massacre"
    }


def test_scenario_without_plan_is_rejected():
    scenario = master_kill_scenario(seed=0)
    with pytest.raises(ValueError):
        run_controlplane_scenario(
            replace(scenario, controlplane=None), metrics=MetricsRegistry()
        )
