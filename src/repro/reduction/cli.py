"""The ``repro-reduce`` console entry point.

Regenerates a kernel from ``(mode, seed)``, derives the failure signature by
running it across the requested configurations, then reduces it while the
signature is preserved:

    repro-reduce --mode BASIC --seed 3 --configs 1,9,19
    repro-reduce --mode ALL --seed 7 --configs 9 --parallelism 4 --show-source
    repro-reduce --mode BASIC --seed 3 --configs 1,9,19 --json > summary.json

``--json`` replaces the human-readable output with one machine-readable
JSON document on stdout -- the full ``ReductionSummary`` (sizes, pass
attribution, predicate counters, reduced source) plus the replayable
accepted-step trace -- so triage and external tooling can consume a
reduction without re-running it.  Diagnostics stay on stderr.

Candidates are evaluated as ``reduce-check`` jobs on a
:class:`~repro.orchestration.pool.WorkerPool`: in-process by default, on
``N`` worker processes with ``--parallelism N > 1``.  The output is the same
bytes either way.  Exits with status 1 when the kernel shows no anomaly on
the given configurations -- there is nothing to reduce -- and with status 2
when ``--configs`` is empty, not a list of integers, or names an id Table 1
does not have, or when ``--budget`` is below 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional

from repro.generator import generate_kernel
from repro.generator.options import Mode
from repro.orchestration.jobs import REDUCE_KERNEL, CampaignJob
from repro.orchestration.pool import WorkerPool
from repro.platforms.config import DeviceConfig
from repro.platforms.registry import get_configuration
from repro.reduction.interestingness import PredicateSpec, differential_signature
from repro.reduction.reducer import PoolEvaluator, Reducer, ReducerConfig
from repro.runtime.engine import DEFAULT_ENGINE, available_engines
from repro.testing.differential import DifferentialHarness
from repro.testing.outcomes import Outcome


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-reduce", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--mode", default="BASIC",
                        choices=[mode.value for mode in Mode])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--configs", default="1,9,19",
                        help="comma-separated Table 1 configuration ids")
    parser.add_argument("--max-steps", type=int, default=500_000)
    parser.add_argument("--engine", choices=available_engines(),
                        default=DEFAULT_ENGINE)
    parser.add_argument("--budget", type=int, default=4000,
                        help="global candidate-evaluation budget")
    parser.add_argument("--reduction-seed", type=int, default=0,
                        help="seed of the reduction itself (pass RNG)")
    parser.add_argument("--parallelism", type=int, default=None,
                        help="worker processes for candidate evaluation "
                             "(default: in-process; same output either way)")
    parser.add_argument("--show-source", action="store_true",
                        help="print the reduced kernel source")
    parser.add_argument("--json", action="store_true",
                        help="emit one machine-readable JSON document "
                             "(summary + trace) instead of the human output")
    return parser.parse_args(argv)


def _resolve_configs(text: str) -> List[DeviceConfig]:
    """The Table 1 configurations ``--configs`` names.

    Raises ``ValueError`` with a one-line message for an entry that is not
    an integer, an id Table 1 does not have, or a list naming nothing.
    """
    configs = []
    for item in filter(None, text.split(",")):
        try:
            configs.append(get_configuration(int(item)))
        except ValueError:
            raise ValueError(f"--configs: {item!r} is not an integer") from None
        except KeyError:
            raise ValueError(f"--configs: no Table 1 configuration {item}") from None
    if not configs:
        raise ValueError("--configs names no configuration")
    return configs


def _json_document(args, configs, signature, result) -> dict:
    """The ``--json`` payload: summary fields + the replayable trace.

    Mirrors the store's reduction-summary encoding (every analytic field is
    plain JSON) minus the opaque program blob -- the printed source plus the
    (seed, trace) pair are sufficient to reconstruct the reduced kernel via
    :func:`repro.reduction.reducer.replay_trace`.
    """
    summary = result.summary(
        seed=args.seed, mode=args.mode, predicate_kind="differential",
        signature=signature,
    )
    # Imported here: the store owns the summary-encoding policy, but the
    # reduction package must stay importable without triage.
    from repro.triage.store import encode_summary

    document = encode_summary(summary)
    document.pop("reduced_program")
    document.update(
        configs=[config.config_id for config in configs],
        engine=args.engine,
        max_steps=args.max_steps,
        reduction_seed=args.reduction_seed,
        trace=[dataclasses.asdict(step) for step in result.trace],
    )
    return document


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    try:
        configs = _resolve_configs(args.configs)
        if args.budget < 1:
            raise ValueError(f"--budget must be at least 1, got {args.budget}")
    except ValueError as error:
        print(f"repro-reduce: {error}", file=sys.stderr)
        return 2
    program = generate_kernel(Mode(args.mode), args.seed)

    harness = DifferentialHarness(
        configs, max_steps=args.max_steps, engine=args.engine
    )
    original = harness.run(program)
    if any(r.outcome is Outcome.UNDEFINED_BEHAVIOUR for r in original.records):
        print("kernel exhibits undefined behaviour; refusing to reduce",
              file=sys.stderr)
        return 1
    signature = differential_signature(original)
    if not signature:
        print(f"kernel (mode={args.mode}, seed={args.seed}) shows no anomaly "
              f"on configurations {args.configs}; nothing to reduce",
              file=sys.stderr)
        return 1
    print(f"anomaly signature: {', '.join(f'{c}:{o}' for c, o in signature)}",
          file=sys.stderr if args.json else sys.stdout)

    template = CampaignJob(
        kind=REDUCE_KERNEL, seed=args.seed, mode=args.mode, program=program,
        config_ids=tuple(config.config_id for config in configs),
        max_steps=args.max_steps, engine=args.engine,
        predicate_spec=PredicateSpec(kind="differential", signature=signature),
    )
    config = ReducerConfig(seed=args.reduction_seed, max_evaluations=args.budget)
    with WorkerPool(args.parallelism) as pool:
        result = Reducer(config).reduce(
            program, evaluator=PoolEvaluator(pool, template)
        )

    if args.json:
        print(json.dumps(_json_document(args, configs, signature, result),
                         indent=2, sort_keys=True))
        return 0

    print(f"nodes : {result.nodes_before} -> {result.nodes_after} "
          f"({100 * result.node_reduction:.1f}% removed)")
    print(f"tokens: {result.tokens_before} -> {result.tokens_after}")
    print(f"evaluations: {result.evaluations}  accepted steps: "
          f"{len(result.trace)}"
          + ("  [budget exhausted]" if result.budget_exhausted else ""))
    for name, stats in result.pass_stats.items():
        if stats.attempts:
            print(f"  {name:<16} attempts {stats.attempts:>5}  accepted "
                  f"{stats.accepted:>3}  nodes removed {stats.nodes_removed:>5}")
    if args.show_source:
        print()
        print(result.reduced_source)
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    try:
        sys.exit(main())
    except BrokenPipeError:  # stdout piped into a closed reader (e.g. head)
        sys.exit(0)
