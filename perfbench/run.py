"""The repository benchmark: one workload per process, measured for a fixed time.

Run from the repository root::

    python3 perfbench/run.py --workload dcqcn-congested --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 0            # every workload, untraced and traced

A single-workload run repeats rounds of the workload (fresh inputs from
the seed each round, identical every round) until ``--seconds`` is used
up.  Every time is taken in reference seconds (``perfbench/clock.py``):
host seconds scaled by how fast a short fixed loop ran before, during
and after.  ``wall_s`` sums, over the round's timed units (one scenario, one
fabric arm), the median time of each unit.  ``setup_s`` adds the median
import time of fresh interpreters, started between the rounds, to the
median time a round takes to build its inputs.  With ``--trace 1``
untraced and traced rounds alternate and the per-layer metrics of
``perfbench/spans.py`` are reported instead.

Every round checks the workload's invariants and that its behaviour
digest equals the first round's.  The last line of standard output is
one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``);
the exit code is non-zero when anything was incorrect.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import logging
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from clock import REFERENCE_SECONDS, ReferenceClock
from spans import (
    BOOKKEEPING,
    BOUNDARIES,
    SETUP_SPAN,
    UNIT_SPAN,
    WRAPPER,
    Tracer,
    self_times,
    wrapper_cost,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("chaos-campaign", "ecmp-collision", "dcqcn-congested")
#: Fresh interpreters timed per round for the import part of ``setup_s``.
IMPORT_PROBES_PER_ROUND = 5
#: Where ``--trace 1`` writes its spans, relative to the repository root.
TRACE_DIR = ".perfbench-out"


def _import_program():
    """Put this checkout's ``src`` first on the path and import the workloads."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    import workloads

    return workloads


def probe_imports() -> None:
    """Child mode: print the reference seconds taken to import the program."""
    _, seconds = ReferenceClock().time(_import_program)
    print(seconds)


def measure_imports() -> float:
    """Reference seconds a fresh interpreter takes to import the program."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-imports"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(child.stdout.strip().splitlines()[-1])


def sum_of_medians(samples: dict[str, list[float]]) -> float:
    """Seconds for one round: each unit's median time, summed over units."""
    return sum(statistics.median(times) for times in samples.values())


class Rounds:
    """Runs rounds of one workload and checks each round's outcome."""

    def __init__(self, workloads, name: str, seed: int) -> None:
        self.workloads = workloads
        self.workload = workloads.WORKLOADS[name]
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = None
        self.count = 0
        self.build_times: list[float] = []
        self.clock = ReferenceClock()

    def run(self, samples: dict[str, list[float]], tracer=None) -> None:
        """One round; appends each unit's reference seconds to ``samples``."""
        # Free the previous round's inputs first, so that this round's
        # times do not depend on when the cyclic collector last ran.
        gc.collect()

        def timed(span, fn, *args):
            if tracer is None:
                return self.clock.time(fn, *args)
            return self.clock.time(tracer.root, span, fn, *args, sample_during=False)

        def unit(name, fn):
            result, seconds = timed(UNIT_SPAN, fn)
            samples[name].append(seconds)
            return result

        inputs, seconds = timed(SETUP_SPAN, self.workload.build, self.seed)
        if tracer is None:
            self.build_times.append(seconds)
        outcome = self.workload.run(inputs, unit)
        self.count += 1
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)
        if outcome.behaviour is not None:
            digest = self.workloads.digest(outcome.behaviour)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                self.failed += outcome.attempted
                self.problems.append(f"round {self.count} digest {digest} != {self.digest}")


def run_untraced(rounds: Rounds, seconds: float) -> dict:
    """Rounds, each after a few import probes, until ``seconds`` are up.

    Spreading the probes over the run, between the rounds, times the
    imports under the same host conditions as the rounds.
    """
    deadline = time.perf_counter() + seconds
    samples: dict[str, list[float]] = defaultdict(list)
    imports: list[float] = []
    peak_rss_mb = None
    longest = 0.0
    while not imports or time.perf_counter() + longest <= deadline:
        start = time.perf_counter()
        imports.extend(measure_imports() for _ in range(IMPORT_PROBES_PER_ROUND))
        rounds.run(samples)
        if peak_rss_mb is None:
            # Each later round grows the heap a little more, and how many
            # rounds fit depends on the host's speed: read the peak now.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        longest = max(longest, time.perf_counter() - start)
    return {
        "wall_s": (sum_of_medians(samples), "s"),
        "setup_s": (statistics.median(imports) + statistics.median(rounds.build_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def run_traced(rounds: Rounds, seconds: float, trace_out: Path) -> dict:
    """Alternate untraced and traced rounds; per-layer metrics per traced round."""
    tracer = Tracer()
    plain: dict[str, list[float]] = defaultdict(list)
    traced: dict[str, list[float]] = defaultdict(list)
    wrapper_costs: list[float] = []
    traced_rounds = 0
    longest = 0.0
    deadline = time.perf_counter() + seconds
    while traced_rounds == 0 or time.perf_counter() + longest <= deadline:
        start = time.perf_counter()
        rounds.run(plain)
        with tracer.install():
            rounds.run(traced, tracer)
        wrapper_costs.append(wrapper_cost())
        traced_rounds += 1
        longest = max(longest, time.perf_counter() - start)
    if any(span is None for span in tracer.spans):
        raise RuntimeError("spans left open after the traced rounds")

    # Spans hold host seconds; the run's median reference loop time
    # scales them to reference seconds, like the untraced times.
    per_round = 1.0 / traced_rounds
    to_reference = per_round * REFERENCE_SECONDS / statistics.median(rounds.clock.loop_seconds)
    host_self = self_times(tracer.spans, statistics.median(wrapper_costs))
    self_s = {name: total * to_reference for name, total in host_self.items()}
    counts = {name: total * per_round for name, total in tracer.counts.items()}
    roots = defaultdict(float)
    for name, start, end, parent in tracer.spans:
        if parent < 0:
            roots[name] += (end - start) * to_reference
    attributed = sum(self_s.values())
    if abs(attributed - sum(roots.values())) > 1e-6 * max(1.0, attributed):
        raise RuntimeError(f"self times {attributed} do not sum to the traced {dict(roots)}")

    def ratio(part, whole):
        return part / whole if whole else 0.0

    solves = tracer.solves
    run_wall = sum(end - start for name, start, end, _ in tracer.spans if name == "netsim.run")
    run_wall *= to_reference / per_round
    retries, abandoned = tracer.channel_totals()
    unattributed = self_s.get(UNIT_SPAN, 0.0) + self_s.get(SETUP_SPAN, 0.0)
    metrics = {
        "trace.wall_s": (roots[UNIT_SPAN], "s"),
        "trace.setup_s": (roots[SETUP_SPAN], "s"),
        "trace.unattributed.self_s": (unattributed, "s"),
        "trace.bookkeeping.self_s": (self_s.get(BOOKKEEPING, 0.0), "s"),
        "trace.wrapper.self_s": (self_s.get(WRAPPER, 0.0), "s"),
        "trace.overhead_ratio": (sum_of_medians(traced) / sum_of_medians(plain) - 1, "ratio"),
        "netsim.events": (counts.get("netsim.events", 0), "count"),
        "netsim.flows_completed": (counts.get("netsim.flows_completed", 0), "count"),
        "netsim.sim_per_wall": (ratio(tracer.sim_seconds, run_wall), "sim_s/s"),
        "netsim.solve.flows_mean": (ratio(solves.flows_total, solves.calls), "flows"),
        "netsim.solve.redundant_ratio": (ratio(solves.redundant, solves.calls), "ratio"),
        "telemetry.retries": (retries * per_round, "count"),
        "telemetry.abandoned": (abandoned * per_round, "count"),
        "c4d.anomaly_ratio": (
            ratio(counts.get("c4d.anomalies", 0), counts.get("c4d.evaluate.calls", 0)), "ratio"
        ),
        "c4p.pool_exhausted": (counts.get("c4p.pool_exhausted", 0), "count"),
    }
    for boundary in BOUNDARIES:
        metrics[f"{boundary.name}.calls"] = (counts.get(f"{boundary.name}.calls", 0), "count")
        if not boundary.count_only:
            metrics[f"{boundary.name}.self_s"] = (self_s.get(boundary.name, 0.0), "s")

    trace_out.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(trace_out, "wt") as handle:
        json.dump({"traced_rounds": traced_rounds, "fields": ["name", "start", "end", "parent"],
                   "spans": tracer.spans}, handle)
    return metrics


def run_one(args) -> int:
    workloads = _import_program()
    logging.getLogger("repro").setLevel(logging.ERROR)
    rounds = Rounds(workloads, args.workload, args.seed)
    started = time.perf_counter()
    if args.trace:
        trace_out = ROOT / TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
        metrics = run_traced(rounds, args.seconds, trace_out)
    else:
        metrics = run_untraced(rounds, args.seconds)
    correct = rounds.failed == 0 and not rounds.problems
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{rounds.count} rounds in {time.perf_counter() - started:.1f} s")
    print(f"digest {args.workload} seed {args.seed}: {rounds.digest}")
    loop = rounds.clock.loop_seconds
    print(f"reference loop: median {statistics.median(loop):.4f} s over {len(loop)} runs, "
          f"{min(loop):.4f} to {max(loop):.4f} (scaled to {REFERENCE_SECONDS} s)")
    for problem in rounds.problems:
        print(f"PROBLEM {problem}")
    ratio = rounds.failed / rounds.attempted if rounds.attempted else 1.0
    print(f"ops_failed_ratio {ratio:.6g} ({rounds.failed} failed / {rounds.attempted} attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": result,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            child = subprocess.run(command, capture_output=True, text=True, timeout=600)
            lines = child.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(f"[{workload}] {line}")
            sys.stderr.write(child.stderr)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"[{workload}] trace {trace}: no result (exit {child.returncode})")
                summary["correct"] = False
                continue
            summary["correct"] &= result["correct"] and child.returncode == 0
            if not trace:
                summary["attempted"] += result["attempted"]
                summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-imports", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    # One thread per workload process: keep NumPy's BLAS pool from starting
    # (inherited by the import probes and the per-workload children).
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    if args.probe_imports:
        probe_imports()
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
