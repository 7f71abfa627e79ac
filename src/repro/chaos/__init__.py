"""Chaos harness: adversarial fault campaigns against the C4 pipeline.

The package turns the repo's detect→steer→recover stack into a system
under test: scenarios inject flapping faults, correlated cascades, hard
crashes, lossy telemetry, failing steering actions and corrupted
checkpoints — and the campaign scores what the pipeline actually did
against the injected ground truth.  FABRIC scenarios aim the same
treatment at the traffic-engineering plane: links die, flap and return
under a live C4P master, judged on drain-and-migrate completeness, flap
damping and throughput recovery.  CONTROLPLANE scenarios attack the
masters themselves — kills, warm-standby failovers, collector
partitions, agent massacres — judged on journal-replay digests,
duplicate-action counts, fencing and blackout false isolations.
"""

from repro.chaos.campaign import ChaosCampaign
from repro.chaos.controlplane import run_controlplane_scenario
from repro.chaos.fabric import run_fabric_scenario
from repro.chaos.scenario import (
    HARDENED_DETECTORS,
    ChaosScenario,
    ControlPlanePlan,
    Episode,
    FabricEvent,
    FabricPlan,
    ScenarioKind,
    agent_massacre_scenario,
    cascade_scenario,
    checkpoint_corruption_scenario,
    collector_partition_scenario,
    crash_under_loss_scenario,
    default_campaign,
    dual_plane_scenario,
    episodes_from_faults,
    failover_scenario,
    flapping_link_scenario,
    flapping_scenario,
    link_down_scenario,
    master_kill_scenario,
    spine_maintenance_scenario,
)
from repro.chaos.scorecard import (
    DEFAULT_GRACE,
    CampaignScorecard,
    ControlPlaneMetrics,
    EpisodeOutcome,
    FabricMetrics,
    NodeResponse,
    ScenarioScorecard,
    score_fabric_scenario,
    score_node_faults,
)
from repro.chaos.workload import SyntheticFeed

__all__ = [
    "ChaosCampaign",
    "ChaosScenario",
    "ControlPlaneMetrics",
    "ControlPlanePlan",
    "ScenarioKind",
    "Episode",
    "EpisodeOutcome",
    "FabricEvent",
    "FabricPlan",
    "FabricMetrics",
    "NodeResponse",
    "CampaignScorecard",
    "ScenarioScorecard",
    "SyntheticFeed",
    "HARDENED_DETECTORS",
    "DEFAULT_GRACE",
    "default_campaign",
    "flapping_scenario",
    "cascade_scenario",
    "crash_under_loss_scenario",
    "checkpoint_corruption_scenario",
    "link_down_scenario",
    "flapping_link_scenario",
    "spine_maintenance_scenario",
    "dual_plane_scenario",
    "master_kill_scenario",
    "failover_scenario",
    "collector_partition_scenario",
    "agent_massacre_scenario",
    "episodes_from_faults",
    "run_controlplane_scenario",
    "run_fabric_scenario",
    "score_node_faults",
    "score_fabric_scenario",
]
