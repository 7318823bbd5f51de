#!/usr/bin/env python3
"""Campaign benchmark: Table-cell throughput and time to triaged buckets.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload clsmith --seed 0 --seconds 33 --trace 0

``--trace 0`` times fresh campaign calls with tracing off, pass after pass
over the workload's campaign pool, and prints the end-to-end metrics, in
wall seconds and in host-speed-normalised reference seconds (see
``hostspeed.py``); ``--trace 1`` alternates untraced and traced calls of the
same campaigns and prints the per-layer metrics of the traced ones (see
``tracer.py``).  Either way every campaign's output digest is checked
against ``digests.json``, a sample CLsmith campaign is re-run on the
``reference`` engine and must render the same table, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``python3 perfbench/run.py --pin`` recomputes
``digests.json``; METRICS.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import hostspeed
import workloads
from tracer import LAYERS, LayerTracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch stores and span files; never a tracked path.
OUT = ROOT / ".perfbench-out"
DIGESTS = HERE / "digests.json"

#: Passes over the pool made even when one pass outlasts ``--seconds``.
MIN_PASSES = 1
SETUP_REPEATS = 7
#: What every campaign user pays before the first campaign call.
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src')\n"
    "from repro.testing.campaign import run_clsmith_campaign, run_emi_campaign\n"
    "from repro.platforms import configurations_above_threshold\n"
    "from repro.runtime.engine import get_engine\n"
    "configurations_above_threshold(); get_engine('compiled')\n"
)

#: ROADMAP "Measured baseline" rows the traced run reproduces:
#: (workload, key of the measured value, row label, ROADMAP value, range
#: that agrees with it).
BASELINE = (
    ("clsmith", "compile_share", "compile-side share of wall (compiler.compile incl.)",
     "55-63%", (0.55, 0.63)),
    ("clsmith", "fingerprints_per_compile", "program_fingerprint calls per compile",
     "768/192 = 4.0", (3.6, 4.4)),
    ("triage", "reduce_share", "reduce phase share of wall (reduction.reduce incl.)",
     "97.5%", (0.925, 1.0)),
    ("triage", "zero_shrink_share", "zero-shrink reductions (share of reductions)",
     "6 of 7", (0.75, 1.0)),
    ("clsmith", "serial_over_2_workers", "serial wall / 2-worker wall", "1.89x", (1.6, 2.2)),
)


class CampaignCounter:
    """Counts campaign jobs (the benchmark's operations) at
    ``WorkerPool.run``, the one door every job passes through."""

    def __init__(self) -> None:
        self.jobs = 0

    def install(self) -> None:
        from repro.orchestration.pool import WorkerPool

        original = WorkerPool.run
        counter = self

        def run(pool, jobs):
            job_list = list(jobs)
            counter.jobs += len(job_list)
            return original(pool, job_list)

        WorkerPool.run = run


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


class Runner:
    """One benchmark invocation: the campaign calls and their checks."""

    def __init__(self, workload, seed: int, seconds: float, scratch: str) -> None:
        self.workload = workload
        self.order = workloads.seed_order(seed, workload.pool)
        self.seconds = seconds
        self.scratch = scratch
        self.pinned = json.loads(DIGESTS.read_text())[workload.name]
        self.counter = CampaignCounter()
        self.counter.install()
        self.failed = 0
        self.mismatches: List[str] = []

    def call(self, campaign_seed: int, parallelism: Optional[int] = None):
        """(result, wall seconds, reference seconds, jobs) of one fresh
        campaign call, made after a full collection so no call pays for an
        earlier one's garbage."""
        gc.collect()
        jobs_before = self.counter.jobs
        result, wall, ref = hostspeed.timed(
            lambda: self.workload.call(campaign_seed, self.scratch, parallelism=parallelism)
        )
        return result, wall, ref, self.counter.jobs - jobs_before

    def check(self, campaign_seed: int, result, jobs: int, label: str) -> bool:
        """Charge quarantined jobs, or every job of a call whose digest
        differs from the pinned one, to ``failed``."""
        expected = self.pinned.get(str(campaign_seed))
        if expected is None or workloads.digest(result) != expected:
            self.failed += jobs
            self.mismatches.append(f"{label} seed {campaign_seed}")
            return False
        self.failed += len(result.worker_faults)
        return not result.worker_faults

    def seeds(self):
        """Pool seeds in run order, in whole passes over the pool, for as
        long as another pass of the average length fits in ``--seconds``."""
        start = time.perf_counter()
        passes = 0
        while True:
            elapsed = time.perf_counter() - start
            if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > self.seconds:
                return
            yield from self.order
            passes += 1


# ---------------------------------------------------------------------------
# Checks and set-up that every invocation runs, untimed
# ---------------------------------------------------------------------------


def reference_oracle(campaign_seed: int, scratch: str) -> bool:
    """A 1-kernel-per-mode CLsmith sample on ``compiled`` and on the
    ``reference`` engine (the semantic oracle) must render the same table."""
    fast = workloads.run_clsmith(campaign_seed, scratch, kernels_per_mode=1)
    oracle = workloads.run_clsmith(
        campaign_seed, scratch, engine="reference", kernels_per_mode=1
    )
    return fast.render() == oracle.render()


def measure_setup() -> Tuple[float, float]:
    """Median (wall, reference) seconds of fresh interpreters importing
    ``repro``, building the configuration registry and loading the compiled
    engine, each followed by a start-up probe (``hostspeed``)."""
    walls, probes = [], []
    for _ in range(SETUP_REPEATS):
        walls.append(hostspeed.child_wall(SETUP_CODE, ROOT))
        probes.append(hostspeed.child_wall(hostspeed.STARTUP_PROBE_CODE, ROOT))
    wall = _median(walls)
    return wall, wall * hostspeed.REFERENCE_STARTUP_S / _median(probes)


def peak_rss_mb() -> float:
    """Peak resident set of this process (every timed call is serial)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------


def end_to_end(runner: Runner) -> Tuple[Dict[str, Tuple[float, str]], int, bool]:
    """Each pool campaign's median over the run's passes, in wall and in
    reference seconds (``hostspeed``).  ``wall_s`` is the mean of the
    campaigns' medians and ``cells_per_s`` the pool's cells over their sum;
    the ``ref_`` metrics are the same in reference seconds."""
    walls: Dict[int, List[float]] = {seed: [] for seed in runner.order}
    refs: Dict[int, List[float]] = {seed: [] for seed in runner.order}
    cells = 0
    jobs = 0
    correct = True
    for campaign_seed in runner.seeds():
        result, wall, ref, call_jobs = runner.call(campaign_seed)
        jobs += call_jobs
        correct &= runner.check(campaign_seed, result, call_jobs, runner.workload.name)
        walls[campaign_seed].append(wall)
        refs[campaign_seed].append(ref)
        if len(walls[campaign_seed]) == 1:
            cells += workloads.cells(result)
    rss = peak_rss_mb()
    wall_total = sum(_median(values) for values in walls.values())
    ref_total = sum(_median(values) for values in refs.values())
    for seed, values in walls.items():
        print(f"campaign {seed}: median {_median(values):.3f} s "
              f"({_median(refs[seed]):.3f} reference s) of "
              f"{' '.join(f'{w:.2f}' for w in values)}")
    print(f"wall_s: {wall_total / len(walls):.6g} s")
    print(f"cells_per_s: {cells / wall_total:.6g} 1/s")
    metrics = {
        "ref_wall_s": (ref_total / len(refs), "s"),
        "ref_cells_per_s": (cells / ref_total, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, jobs, correct


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------


def traced(runner: Runner) -> Tuple[Dict[str, Tuple[float, str]], int, bool]:
    """Untraced and traced call of each campaign, back to back.

    The pair gives the tracing overhead and the tracer self-check: the
    traced digest must equal the untraced one, and the layers' self times
    of a call must not sum above its wall.  On ``clsmith`` each campaign
    also runs on the process backend with 2 workers, whose digest must
    match, for the serial / 2-worker ratio."""
    tracer = LayerTracer()
    untraced_walls: List[float] = []
    traced_walls: List[float] = []
    parallel_walls: List[float] = []
    results = []
    jobs = 0
    correct = True
    parallel = runner.workload.parallel_check
    for campaign_seed in runner.seeds():
        plain, wall, _, call_jobs = runner.call(campaign_seed)
        jobs += call_jobs
        correct &= runner.check(campaign_seed, plain, call_jobs, "untraced")
        self_before = tracer.self_total()
        with tracer:
            result, traced_wall, _, call_jobs = runner.call(campaign_seed)
        jobs += call_jobs
        correct &= runner.check(campaign_seed, result, call_jobs, "traced")
        self_sum = tracer.self_total() - self_before
        if self_sum > traced_wall:
            runner.mismatches.append(
                f"seed {campaign_seed}: self times {self_sum:.3f} s > wall "
                f"{traced_wall:.3f} s"
            )
            correct = False
        if parallel:
            pooled, pooled_wall, _, call_jobs = runner.call(campaign_seed, parallelism=2)
            jobs += call_jobs
            correct &= runner.check(campaign_seed, pooled, call_jobs, "2-worker")
            parallel_walls.append(pooled_wall)
        untraced_walls.append(wall)
        traced_walls.append(traced_wall)
        results.append(result)

    n = len(results)
    traced_total = sum(traced_walls)
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        stats = tracer.stats[layer]
        metrics[f"{layer}.calls"] = (stats.calls / n, "count")
        metrics[f"{layer}.self_frac"] = (stats.self_s / traced_total, "frac")
        metrics[f"{layer}.incl_frac"] = (stats.inclusive_s / traced_total, "frac")
    compiles = tracer.stats["compiler.compile"].calls
    metrics["platforms.fingerprint.per_compile"] = (
        tracer.stats["platforms.fingerprint"].calls / compiles if compiles else 0.0,
        "ratio",
    )
    metrics.update(_result_counters(results))
    metrics["trace.campaigns"] = (n, "count")
    metrics["trace.wall_s"] = (_median(traced_walls), "s")
    metrics["trace.overhead"] = (traced_total / sum(untraced_walls), "ratio")
    metrics["trace.unattributed_frac"] = (
        1.0 - tracer.self_total() / traced_total, "frac"
    )

    span_file = OUT / f"trace-{runner.workload.name}.jsonl"
    tracer.write_spans(
        str(span_file),
        {"workload": runner.workload.name, "campaigns": n,
         "traced_walls": traced_walls},
    )
    print(f"campaigns: {n}  spans: {len(tracer.spans)} -> {span_file}")
    _print_layer_table(tracer, traced_total)
    ratio = sum(untraced_walls) / sum(parallel_walls) if parallel else None
    _print_baseline(runner.workload.name, metrics, ratio)
    return metrics, jobs, correct


def _result_counters(results) -> Dict[str, Tuple[float, str]]:
    """Per-campaign counters the campaign results themselves report."""
    n = len(results)
    cache_hits = sum(r.cache_stats.hits for r in results)
    cache_misses = sum(r.cache_stats.misses for r in results)
    reductions = [s for r in results for s in r.reductions]
    evaluated = sum(s.predicate_stats.get("evaluations", 0) for s in reductions)
    accepted = sum(s.predicate_stats.get("accepted", 0) for s in reductions)
    buckets = [b for r in results if r.triage is not None for b in r.triage.buckets]
    counters: Dict[str, Tuple[float, str]] = {
        "runtime.prepared_cache.hits": (
            sum(r.prepared_stats.hits for r in results) / n, "count"),
        "runtime.prepared_cache.misses": (
            sum(r.prepared_stats.misses for r in results) / n, "count"),
        "orchestration.result_cache.hits": (cache_hits / n, "count"),
        "orchestration.result_cache.misses": (cache_misses / n, "count"),
        "orchestration.result_cache.hit_frac": (
            cache_hits / (cache_hits + cache_misses)
            if cache_hits + cache_misses else 0.0, "frac"),
        "reduction.reductions": (len(reductions) / n, "count"),
        "reduction.accept_frac": (accepted / evaluated if evaluated else 0.0, "frac"),
        "reduction.shrink_frac": (
            _mean([s.node_reduction for s in reductions]), "frac"),
        "reduction.zero_shrink": (
            sum(1 for s in reductions if s.nodes_after == s.nodes_before) / n,
            "count"),
        "triage.buckets": (len(buckets) / n, "count"),
        "triage.bisect.probe_steps": (
            sum(b.culprit.steps for b in buckets if b.culprit is not None) / n,
            "count"),
    }
    for field, value in _sum_health(results).items():
        counters[f"orchestration.health.{field}"] = (value, "count")
    return counters


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _sum_health(results) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for result in results:
        for field, value in result.health.as_dict().items():
            totals[field] = totals.get(field, 0) + value
    return totals


def _print_layer_table(tracer, traced_total: float) -> None:
    print(f"{'layer':26s}{'calls':>9s}{'self s':>10s}{'self':>8s}{'incl':>8s}")
    for layer in LAYERS:
        stats = tracer.stats[layer]
        print(
            f"{layer:26s}{stats.calls:9d}{stats.self_s:10.3f}"
            f"{stats.self_s / traced_total:8.1%}{stats.inclusive_s / traced_total:8.1%}"
        )
    unattributed = traced_total - tracer.self_total()
    print(f"{'unattributed':26s}{'':9s}{unattributed:10.3f}"
          f"{unattributed / traced_total:8.1%}")


def _print_baseline(workload: str, metrics, serial_ratio: Optional[float]) -> None:
    """Reproduce the ROADMAP baseline rows this workload measures."""
    reductions = metrics["reduction.reductions"][0]
    measured = {
        "compile_share": metrics["compiler.compile.incl_frac"][0],
        "fingerprints_per_compile": metrics["platforms.fingerprint.per_compile"][0],
        "reduce_share": metrics["reduction.reduce.incl_frac"][0],
        "zero_shrink_share": (
            metrics["reduction.zero_shrink"][0] / reductions if reductions else 0.0),
        "serial_over_2_workers": serial_ratio,
    }
    for row_workload, key, row, roadmap, (low, high) in BASELINE:
        if row_workload == workload:
            value = measured[key]
            verdict = "agrees" if low <= value <= high else "DISAGREES"
            print(f"baseline: {row}: {value:.3f} (ROADMAP {roadmap}) {verdict}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def pin() -> int:
    """Recompute ``digests.json`` for every pool seed (serial, compiled)."""
    pinned: Dict[str, Dict[str, str]] = {}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        for key, workload in workloads.WORKLOADS.items():
            pinned[key] = {}
            for campaign_seed in workload.pool:
                result = workload.call(campaign_seed, scratch)
                pinned[key][str(campaign_seed)] = workloads.digest(result)
                print(f"pinned {key} seed {campaign_seed}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="recompute digests.json and exit")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: {SRC / 'repro'} not found; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.pin:
        return pin()
    if args.workload is None:
        parser.error("--workload is required")

    # Everything a campaign may import lazily, so no call pays for it and
    # the tracer finds every module that imports a traced function.
    import repro.runtime.compiled.lowering  # noqa: F401
    import repro.triage.bisection  # noqa: F401
    import repro.testing.campaign  # noqa: F401
    from repro.runtime.engine import get_engine

    get_engine("compiled")
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        runner = Runner(workload, args.seed, args.seconds, scratch)
        # Untimed, and before the timed calls so it also warms them up.
        oracle_ok = reference_oracle(runner.order[0], scratch)
        if not oracle_ok:
            runner.mismatches.append("compiled vs reference sample differs")
        if args.trace:
            metrics, jobs, correct = traced(runner)
        else:
            metrics, jobs, correct = end_to_end(runner)
        correct = correct and oracle_ok
    if not args.trace:
        setup_wall, setup_ref = measure_setup()
        print(f"setup wall: {setup_wall:.6g} s")
        metrics["setup_s"] = (setup_ref, "s")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    failed_frac = runner.failed / jobs if jobs else 0.0
    print(f"failed_frac: {failed_frac:.6g} ({runner.failed} of {jobs} jobs)")
    for mismatch in runner.mismatches:
        print(f"MISMATCH: {mismatch}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": jobs,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
