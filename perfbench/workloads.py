"""The benchmark's workloads, driven only through the program's public API.

Each workload builds one round of inputs from a seed (:meth:`build`,
the set-up the benchmark times separately) and then runs it
(:meth:`run`), handing every unit of simulated work to a ``unit``
callback that times it.  :meth:`run` returns an :class:`Outcome`: the
operations attempted and failed, the invariant violations and a
JSON-able behaviour record whose hash is the workload's digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.export import campaign_scorecard_to_dict
from repro.chaos.campaign import ChaosCampaign
from repro.core.c4p.registry import PathPoolExhausted
from repro.netsim.units import GIB
from repro.workloads.generator import build_cluster, concurrent_allreduce_jobs, fig10b_spec

#: ``unit(name, fn)`` runs ``fn()`` as one timed unit and returns its result.
Unit = Callable[[str, Callable[[], object]], object]


@dataclass
class Outcome:
    """What one round did, and whether it did it correctly."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    behaviour: object = None

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def digest(behaviour: object) -> str:
    """SHA-256 of the canonical JSON of a behaviour record."""
    text = json.dumps(behaviour, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


class ChaosCampaignWorkload:
    """The default 13-scenario chaos campaign (``default_campaign(seed)``).

    An operation is one scenario.  It fails if it raises, causes an
    isolation storm, executes a duplicate or stale steering action, or
    recovers a master to a state digest other than the one it had.
    """

    name = "chaos-campaign"

    def build(self, seed: int) -> ChaosCampaign:
        return ChaosCampaign(seed=seed)

    def run(self, campaign: ChaosCampaign, unit: Unit) -> Outcome:
        outcome = Outcome(attempted=len(campaign.scenarios))
        run_scenario = campaign.run_scenario
        done = []

        def timed_scenario(scenario):
            card = unit(scenario.name, lambda: run_scenario(scenario))
            done.append(card)
            return card

        # Shadow the bound method on this instance only, so that every
        # scenario ChaosCampaign.run() executes is one timed unit.
        campaign.run_scenario = timed_scenario
        try:
            card = campaign.run()
        except Exception as exc:  # a scenario crashed: it and the rest fail
            outcome.fail(outcome.attempted - len(done), f"campaign raised {exc!r}")
            return outcome
        for scenario in card.scenarios:
            broken = []
            if scenario.isolation_storms:
                broken.append(f"{scenario.isolation_storms} isolation storm(s)")
            cp = scenario.controlplane
            if cp is not None:
                if cp.duplicate_actions:
                    broken.append(f"{cp.duplicate_actions} duplicate action(s)")
                if cp.stale_actions_executed:
                    broken.append(f"{cp.stale_actions_executed} stale action(s)")
                if not cp.replay_digest_match:
                    broken.append("replay digest mismatch")
            if broken:
                outcome.fail(1, f"{scenario.name}: " + ", ".join(broken))
        outcome.behaviour = campaign_scorecard_to_dict(card)
        return outcome


#: Back-to-back allreduces per job: a warm-up operation and then the
#: measured ones, as in Fig. 10 (which runs 3 + 10; cut here so that a
#: run covers several fabrics).
WARMUP_OPS = 1
MEASURED_OPS = 2
#: Concurrent 2-node jobs, as in Fig. 10.
JOBS = 8


@dataclass(frozen=True)
class FigureWorkload:
    """Eight concurrent 2-node allreduce jobs, once with ECMP, once with C4P.

    ``instances`` fabrics are built per round, the k-th with ECMP (and,
    when congested, DCQCN) seed ``seed * instances + k``, so one round
    averages over several hash layouts.  An operation is one job's
    allreduce series; it fails if it does not finish all its measured
    operations or if C4P runs out of paths.
    """

    name: str
    congested: bool
    instances: int
    size_gib: float

    def _fabric(self, use_c4p: bool, seed: int):
        if self.congested:
            return build_cluster(
                fig10b_spec(),
                use_c4p=use_c4p,
                ecmp_seed=seed,
                congestion=True,
                congestion_seed=seed,
                disable_spines_per_rail=4,
            )
        return build_cluster(use_c4p=use_c4p, ecmp_seed=seed)

    def build(self, seed: int) -> list:
        """Fabrics, jobs and their first operations.

        A job sets up its connections on its first operation and reuses
        them, so every C4P path allocation of the round happens here.
        """
        arms = []
        for k in range(self.instances):
            instance_seed = seed * self.instances + k
            for arm in ("ecmp", "c4p"):
                label = f"{arm}[{instance_seed}]"
                try:
                    scenario = self._fabric(arm == "c4p", instance_seed)
                    runners = concurrent_allreduce_jobs(
                        scenario,
                        num_jobs=JOBS,
                        size_bits=self.size_gib * GIB,
                        max_ops=MEASURED_OPS,
                        warmup_ops=WARMUP_OPS,
                    )
                    for runner in runners:
                        runner.start()
                except PathPoolExhausted as exc:
                    arms.append((label, None, exc))
                    continue
                arms.append((label, scenario, runners))
        return arms

    def run(self, arms: list, unit: Unit) -> Outcome:
        outcome = Outcome(attempted=JOBS * len(arms))
        behaviour = {}
        for label, scenario, runners in arms:
            if scenario is None:
                outcome.fail(JOBS, f"{label}: {runners!r} during set-up")
                continue
            try:
                unit(label, scenario.network.run)
            except PathPoolExhausted as exc:
                outcome.fail(JOBS, f"{label}: {exc!r}")
                continue
            busbw = []
            for runner in runners:
                series = runner.busbw_series_gbps
                if len(series) < MEASURED_OPS:
                    done = f"{len(series)}/{MEASURED_OPS}"
                    outcome.fail(1, f"{label} {runner.comm.comm_id}: {done} ops")
                busbw.append(series)
            network = scenario.network
            record = {
                "busbw_gbps": busbw,
                "flows_completed": len(network.completed_flows),
            }
            if network.congestion is not None:
                counts = network.congestion.cnp_counts
                record["cnps"] = sorted([str(port), total] for port, total in counts.items())
            behaviour[label] = record
        self._check_c4p_wins(behaviour, outcome)
        outcome.behaviour = behaviour
        return outcome

    def _check_c4p_wins(self, behaviour: dict, outcome: Outcome) -> None:
        """The C4P arm's mean busbw beats the ECMP arm's on every fabric."""

        def mean(record):
            values = [v for series in record["busbw_gbps"] for v in series]
            return sum(values) / len(values) if values else 0.0

        for label, record in behaviour.items():
            if not label.startswith("c4p"):
                continue
            ecmp = behaviour.get("ecmp" + label[3:])
            if ecmp is not None and mean(record) <= mean(ecmp):
                outcome.fail(
                    JOBS,
                    f"{label}: C4P {mean(record):.1f} Gbps does not beat ECMP {mean(ecmp):.1f}",
                )


WORKLOADS = {
    "chaos-campaign": ChaosCampaignWorkload(),
    # Fig. 10a: a 1:1 fabric, so ECMP collisions alone slow the jobs.
    # How much they slow them differs from one hash layout to the next,
    # so a round averages over four fabrics.
    "ecmp-collision": FigureWorkload(
        "ecmp-collision", congested=False, instances=4, size_gib=1.0
    ),
    # Figs. 10b/11: half the spines off and DCQCN on.  2 GiB operations
    # let the congestion control settle, so one fabric's work varies
    # far less from seed to seed than with Fig. 10's 1 GiB.
    "dcqcn-congested": FigureWorkload(
        "dcqcn-congested", congested=True, instances=2, size_gib=2.0
    ),
}
