#!/usr/bin/env python3
"""A miniature version of the paper's testing campaign (sections 7.1 and 7.3).

The script (1) classifies every Table 1 configuration against the reliability
threshold using a batch of generated kernels, then (2) runs a CLsmith
differential-testing campaign over the configurations that lie above the
threshold and prints a Table 4 style summary.

Run with:  python examples/fuzzing_campaign.py
Scale up with: python examples/fuzzing_campaign.py --kernels-per-mode 20 --parallelism 4
Both engines produce identical tables; ``--engine reference`` trades the
compiled fast path for the tree-walking oracle (see ENGINE.md).

``--auto-reduce`` turns on campaign auto-reduction: every anomalous kernel
is shrunk to a minimal reproducer preserving its exact failure signature
(see REDUCTION.md) and the reduced kernels are printed after the table.
``--auto-triage`` additionally deduplicates the reproducers into bug
buckets, bisects each bucket to its culprit bug model or optimisation pass,
and prints the Markdown triage report (see TRIAGE.md).  ``--store FILE``
makes the campaign persistent: killed runs resume from the store with
byte-identical tables and reports.

``--trace FILE`` streams campaign telemetry (spans, per-job timings,
supervisor events) to a JSONL trace next to the store; read it back with
``repro-stats FILE``.  ``--progress`` / ``--no-progress`` control the live
single-line progress renderer (default: on when stderr is a TTY, off
otherwise so piped output stays stable).  Neither affects results — see
OBSERVABILITY.md.
"""

import argparse
import sys

from repro.generator.options import GeneratorOptions, Mode
from repro.observability import ProgressLine, TelemetryCollector, TraceSink
from repro.platforms import all_configurations, get_configuration
from repro.runtime.engine import available_engines
from repro.testing.campaign import run_clsmith_campaign
from repro.testing.reliability import ReliabilityClassifier


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kernels-per-mode", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--parallelism", type=int, default=None,
                        help="worker processes for the campaign (default: serial)")
    parser.add_argument("--engine", choices=available_engines(), default="compiled",
                        help="execution engine for every campaign cell: "
                             "compiled (fast path, the default) or reference "
                             "(tree-walking oracle); tables are identical")
    parser.add_argument("--auto-reduce", action="store_true",
                        help="shrink every anomalous kernel to a minimal "
                             "reproducer (campaign auto-triage)")
    parser.add_argument("--reduce-budget", type=int, default=250,
                        help="candidate evaluations per reduced kernel "
                             "(anomalies from the calibrated stochastic "
                             "residue are irreducible by construction and "
                             "burn the whole budget; see REDUCTION.md)")
    parser.add_argument("--auto-triage", action="store_true",
                        help="bucket + bisect the reduced reproducers and "
                             "print a Markdown triage report (implies "
                             "--auto-reduce)")
    parser.add_argument("--store", default=None,
                        help="persist the campaign to this JSONL store; "
                             "re-running resumes it (see TRIAGE.md)")
    parser.add_argument("--trace", default=None,
                        help="stream campaign telemetry to this JSONL trace "
                             "file (read it with repro-stats; see "
                             "OBSERVABILITY.md)")
    progress = parser.add_mutually_exclusive_group()
    progress.add_argument("--progress", dest="progress", action="store_true",
                          default=sys.stderr.isatty(),
                          help="live single-line progress on stderr "
                               "(default: on for a TTY)")
    progress.add_argument("--no-progress", dest="progress",
                          action="store_false",
                          help="disable the live progress line")
    args = parser.parse_args()

    options = GeneratorOptions(min_total_threads=4, max_total_threads=24,
                               max_group_size=8, max_statements=8)

    # --- Phase 1: initial classification (Table 1) -------------------------
    print("Phase 1: classifying configurations against the reliability threshold")
    classifier = ReliabilityClassifier(
        all_configurations(),
        kernels_per_mode=max(2, args.kernels_per_mode // 2),
        modes=(Mode.BASIC, Mode.BARRIER),
        options=options,
        seed=args.seed,
    )
    report = classifier.classify()
    above = []
    for entry in report.per_config:
        marker = "above" if entry.above_threshold else "below"
        print(f"  config{entry.config.config_id:<3} {entry.config.device:<34} "
              f"failure fraction {entry.failure_fraction:.2f}  -> {marker}")
        if entry.above_threshold:
            above.append(entry.config)

    # --- Phase 2: intensive CLsmith testing (Table 4) ----------------------
    print("\nPhase 2: CLsmith differential testing on the reliable configurations")
    telemetry = None
    progress_line = None
    if args.trace or args.progress:
        sink = TraceSink(args.trace, meta={"campaign": "clsmith",
                                           "seed": args.seed}) if args.trace else None
        telemetry = TelemetryCollector(sink=sink)
        if args.progress:
            progress_line = ProgressLine().attach(telemetry)
    try:
        result = run_clsmith_campaign(
            above,
            kernels_per_mode=args.kernels_per_mode,
            modes=(Mode.BASIC, Mode.VECTOR, Mode.BARRIER, Mode.ALL),
            options=options,
            curate_on=get_configuration(1),
            seed=args.seed,
            parallelism=args.parallelism,
            engine=args.engine,
            auto_reduce=args.auto_reduce,
            reduce_budget=args.reduce_budget,
            auto_triage=args.auto_triage,
            resume=args.store,
            telemetry=telemetry,
        )
    except KeyboardInterrupt:
        # The campaign's pool tears its workers down on the way out (hard
        # terminate; nothing leaks).  With --store the partial progress is
        # already on disk: re-running the same command resumes it.
        if telemetry is not None:
            telemetry.close()  # flush whatever the trace captured so far
        print("\ninterrupted", end="", file=sys.stderr)
        if args.store:
            print(f"; progress saved — re-run with --store {args.store} "
                  "to resume", end="", file=sys.stderr)
        print(file=sys.stderr)
        sys.exit(130)
    if progress_line is not None:
        progress_line.close()
    if telemetry is not None:
        telemetry.close()
        if args.trace:
            print(f"telemetry trace written to {args.trace} "
                  "(summarise with: repro-stats " + args.trace + ")")
    print(result.render())

    total_wrong = sum(c.wrong_code for c in result.counts.values())
    print(f"\nwrong-code results found: {total_wrong}")

    if args.auto_triage:
        print(f"\nPhase 3: triage ({len(result.reductions)} reproducers "
              f"in {result.triage.n_buckets} buckets)\n")
        print(result.triage.render_markdown(title="Campaign triage report"))
    elif args.auto_reduce:
        print(f"\nPhase 3: auto-reduction ({len(result.reductions)} anomalous "
              "kernels reduced)")
        for summary in result.reductions:
            signature = ", ".join(f"{cell}:{code}" for cell, code in summary.signature)
            print(f"\n--- mode={summary.mode} seed={summary.seed} "
                  f"[{signature}]  nodes {summary.nodes_before} -> "
                  f"{summary.nodes_after} "
                  f"({100 * summary.node_reduction:.0f}% removed, "
                  f"{summary.evaluations} evaluations) ---")
            print(summary.reduced_source)


if __name__ == "__main__":
    main()
