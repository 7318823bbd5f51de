"""The ``repro-triage`` console entry point.

Buckets and bisects reduced reproducers out of a persistent campaign store
(see TRIAGE.md), emitting a Table-3-style Markdown report::

    repro-triage --store campaign.jsonl
    repro-triage --store campaign.jsonl --campaign <key> --no-bisect
    repro-triage --demo --parallelism 2

By default every ``reduction`` record in the store is triaged together --
the cross-campaign dedup: two campaigns that found the same bug contribute
to one bucket.  ``--campaign`` restricts to one campaign key (see
``--list`` for the keys a store holds).  Bisection re-runs each bucket's
representative against modified configurations, so it needs the simulated
platform -- ``--no-bisect`` skips it for a pure dedup report.

``--demo`` runs a miniature end-to-end campaign against the synthetic
defect configurations of :mod:`repro.reduction.corpus` (wrong-code and
crash miscompilers whose anomalies exist by construction), persists it to
``--store`` (or a temporary file), and triages it -- the CI smoke path and
the quickest way to see the subsystem work.  Exits with status 1 when the
store holds nothing to triage, and with status 2 when bisection would need
an execution engine that is not registered (e.g. a store written by an
older version with an engine since removed).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from typing import List, Optional

from repro.orchestration.jobs import TRIAGE_BISECT, CampaignJob
from repro.reduction.interestingness import PredicateSpec
from repro.runtime.engine import get_engine
from repro.triage.bisection import attribute_culprit
from repro.triage.bucketing import bucket_reductions
from repro.triage.report import render_markdown
from repro.triage.store import CampaignStore


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-triage", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--store", default=None,
                        help="campaign store (JSONL) to triage")
    parser.add_argument("--campaign", default=None,
                        help="restrict to one campaign key (default: all "
                             "campaigns in the store, cross-campaign dedup)")
    parser.add_argument("--list", action="store_true",
                        help="list the campaigns recorded in the store")
    parser.add_argument("--compact", action="store_true",
                        help="rewrite the store dropping superseded/duplicate "
                             "records (atomic in-place compaction), then exit")
    parser.add_argument("--no-bisect", action="store_true",
                        help="skip culprit bisection (dedup report only)")
    parser.add_argument("--output", default=None,
                        help="write the Markdown report here instead of stdout")
    parser.add_argument("--demo", action="store_true",
                        help="run a miniature synthetic-defect campaign end "
                             "to end (campaign -> reduce -> bucket -> bisect "
                             "-> report)")
    parser.add_argument("--kernels", type=int, default=2,
                        help="--demo: kernels per mode (default 2)")
    parser.add_argument("--parallelism", type=int, default=None,
                        help="--demo: worker processes for the campaign")
    return parser.parse_args(argv)


def _demo(args: argparse.Namespace) -> int:
    from repro.generator.options import GeneratorOptions, Mode
    from repro.reduction.corpus import (
        clean_config,
        crash_config,
        wrong_code_config,
    )
    from repro.testing.campaign import run_clsmith_campaign

    store_path = args.store
    if store_path is None:
        store_path = tempfile.NamedTemporaryFile(
            suffix=".jsonl", delete=False
        ).name
    options = GeneratorOptions(
        min_total_threads=4, max_total_threads=12, max_group_size=4,
        max_statements=8, max_expr_depth=2,
    )
    # Two synthetic defect configurations (plus clean majority fillers).
    # Every kernel fails on both, so their cells fuse into one combined
    # failure signature and the demo yields a single bucket whose most
    # severe class (w) drives the bisection.
    configs = [
        clean_config(911), clean_config(912),
        wrong_code_config(), crash_config(),
    ]
    result = run_clsmith_campaign(
        configs,
        kernels_per_mode=args.kernels,
        modes=(Mode.BASIC,),
        options=options,
        auto_triage=True,
        reduce_budget=250,
        parallelism=args.parallelism,
        resume=store_path,
    )
    print(f"demo campaign stored in {store_path}", file=sys.stderr)
    report = result.triage.render_markdown(title="Demo triage report")
    _emit(report, args.output)
    return 0 if result.triage.n_buckets else 1


def _emit(report: str, output: Optional[str]) -> None:
    if output is None:
        print(report, end="")
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(report)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _run(argv)
    except BrokenPipeError:
        # stdout piped into a closed reader (e.g. ``| head``).  Detach
        # stdout so the interpreter's exit-time flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _run(argv: Optional[List[str]]) -> int:
    args = _parse_args(argv)
    if args.demo:
        return _demo(args)
    if args.store is None:
        print("repro-triage: --store (or --demo) is required", file=sys.stderr)
        return 2
    if not os.path.exists(args.store):
        # A mistyped path must not quietly report an empty store (and the
        # store itself never creates files for read-only consumers).
        print(f"repro-triage: store {args.store!r} does not exist",
              file=sys.stderr)
        return 2
    with CampaignStore(args.store) as store:
        if args.compact:
            dropped = store.compact()
            kept = len(list(store.records()))
            print(f"compacted {args.store}: dropped {dropped} record(s), "
                  f"kept {kept}", file=sys.stderr)
            return 0
        if args.list:
            campaigns = store.campaigns()
            for record in campaigns:
                print(f"{record['key']}  {record.get('meta', {})}")
            print(f"{len(campaigns)} campaign(s), "
                  f"{len(list(store.records('reduction')))} reduction(s)")
            return 0
        pairs = store.reductions(campaign=args.campaign)
        if not pairs:
            print("store holds no reductions to triage", file=sys.stderr)
            return 1
        if not args.no_bisect:
            for _, context in pairs:
                try:
                    get_engine(context["engine"])
                except KeyError as error:
                    print(f"repro-triage: {error.args[0]}", file=sys.stderr)
                    return 2
        contexts = {id(summary): context for summary, context in pairs}
        buckets = bucket_reductions([summary for summary, _ in pairs])
        if not args.no_bisect:
            for bucket in buckets:
                context = contexts[id(bucket.representative)]
                # Rebuild the configurations exactly as a worker would.
                job = CampaignJob(
                    kind=TRIAGE_BISECT,
                    seed=bucket.representative.seed,
                    config_ids=context["config_ids"],
                    config_overrides=(
                        tuple(context["config_overrides"])
                        if context["config_overrides"] is not None
                        else None
                    ),
                )
                bucket.culprit = attribute_culprit(
                    bucket.representative.reduced_program,
                    PredicateSpec(
                        kind=bucket.predicate_kind, signature=bucket.signature
                    ),
                    job.resolve_configs(),
                    optimisation_levels=context["optimisation_levels"],
                    max_steps=context["max_steps"],
                    engine=context["engine"],
                    variant_seed=context["variant_seed"],
                    variants_per_base=context["variants_per_base"],
                )
        _emit(render_markdown(buckets), args.output)
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
