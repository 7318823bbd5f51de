"""Lazy signature predicates: the verdicts of running every cell, for less work.

``DifferentialSignaturePredicate`` and ``EmiFamilyPredicate`` evaluate one
cell at a time and reject a candidate at the first cell that contradicts
its failure signature (REDUCTION.md, "Interestingness contract").  These
tests lock that this saves work and changes nothing else:

* a verdict oracle: for CLsmith anomalies on the ten benchmark
  configurations and for one anomalous EMI base, each candidate -- the
  original, a copy with undefined behaviour, the first candidates of every
  reduction pass, and the original under every bug-model list a bisection
  of its target configuration can probe -- gets the verdict of the eager
  check (every cell run, the UB guard, signature equality), which lives
  only here;
* cost and rejection accounting: a candidate whose first ``bf`` cell
  builds costs one compile and no result-cache lookup, an accepted
  candidate runs every cell, a UB run in the first evaluated cell is an
  ``ub_rejection`` under both predicates, and only build and runtime errors
  are contained as an ``error_rejection`` (any other exception propagates);
* byte identity: a small CLsmith and a small EMI auto-triage campaign
  produce the report and the reductions they produced when every
  candidate ran every cell (pinned).
"""

import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from repro.compiler.driver import CompilerDriver
from repro.emi.variants import PRUNING_GRID, generate_variants
from repro.generator import generate_kernel
from repro.generator.options import GeneratorOptions, Mode
from repro.kernel_lang import ast, types as ty
from repro.orchestration.cache import ResultCache
from repro.platforms import get_configuration
from repro.reduction import PredicateSpec, build_predicate
from repro.reduction.corpus import (
    clean_config,
    crash_config,
    emi_parity_config,
    wrong_code_config,
)
from repro.reduction.interestingness import (
    DifferentialSignaturePredicate,
    EmiFamilyPredicate,
    differential_signature,
    emi_family_signature,
    refresh_base_fingerprint,
)
from repro.reduction.passes import DEFAULT_PASSES
from repro.runtime.errors import KernelRuntimeError
from repro.testing.campaign import (
    generate_emi_bases,
    run_clsmith_campaign,
    run_emi_campaign,
)
from repro.testing.differential import DifferentialHarness
from repro.testing.emi_harness import EmiHarness
from repro.testing.outcomes import Outcome
from repro.triage.bisection import _target_config_index

#: The Table 4 configurations the campaign benchmark runs on.
_CONFIG_IDS = (1, 2, 3, 4, 9, 12, 13, 14, 15, 19)
_OPTIONS = GeneratorOptions(
    min_total_threads=4, max_total_threads=12, max_group_size=4, max_statements=5
)
_LEVELS = (False, True)
_MAX_STEPS = 300_000
_ENGINE = "compiled"
_VARIANTS = 3
_VARIANT_SEED = 0
#: Candidates taken from the front of each reduction pass's stream.
_FIRST_CANDIDATES = 3

#: CLsmith anomalies on the benchmark configurations, chosen to cover every
#: signature shape: ``to`` + ``w``; ``w`` only (the comma defect); ``bf``
#: only; a mix of all four codes; ``c`` only.
_CLSMITH_ANOMALIES = [
    (Mode.BASIC, 0),
    (Mode.VECTOR, 0),
    (Mode.BARRIER, 1),
    (Mode.ALL, 3),
    (Mode.BASIC, 1),
]


def _configs():
    return [get_configuration(config_id) for config_id in _CONFIG_IDS]


def _ub_statement() -> ast.Stmt:
    return ast.out_write(ast.binop("/", ast.lit(1), ast.lit(0)))


def _with_ub(program: ast.Program) -> ast.Program:
    """``program`` with a division by zero as its first statement."""
    copy = program.clone()
    copy.kernel().body.statements.insert(0, _ub_statement())
    return copy


def _ub_program() -> ast.Program:
    """A well-formed kernel whose execution is undefined (1/0)."""
    return ast.Program(
        functions=[
            ast.FunctionDecl(
                "entry",
                ty.VOID,
                [ast.ParamDecl("out", ty.PointerType(ty.ULONG, ty.GLOBAL))],
                ast.block(_ub_statement()),
                is_kernel=True,
            )
        ],
        buffers=[ast.BufferSpec("out", ty.ULONG, 4, is_output=True)],
        launch=ast.LaunchSpec((4, 1, 1), (1, 1, 1)),
    )


def _candidates(program: ast.Program):
    """(name, candidate): the original, a UB copy, and the first candidates
    of every reduction pass."""
    yield "original", program
    yield "undefined behaviour", _with_ub(program)
    for pass_ in DEFAULT_PASSES:
        stream = pass_.candidates(program, random.Random(0))
        for index, candidate in enumerate(itertools.islice(stream, _FIRST_CANDIDATES)):
            yield f"{pass_.name} #{index}", candidate


def _probed_configs(configs, signature):
    """(name, configurations) for every bug-model list a bisection of the
    signature's target configuration can probe: each prefix of its model
    list and each model alone."""
    index = _target_config_index(configs, signature)
    models = list(configs[index].bug_models)
    lists = [models[:k] for k in range(len(models) + 1)] + [[m] for m in models]
    for models_probed in lists:
        probed = list(configs)
        probed[index] = dataclasses.replace(configs[index], bug_models=models_probed)
        names = [getattr(model, "name", str(model)) for model in models_probed]
        yield f"{configs[index].name} models {names}", probed


# ---------------------------------------------------------------------------
# The eager check: every cell run, then the UB guard and signature equality
# ---------------------------------------------------------------------------


def _eager_differential(program, configs, signature, cache):
    """(verdict, saw UB) of running every differential cell."""
    harness = DifferentialHarness(
        configs, optimisation_levels=_LEVELS, max_steps=_MAX_STEPS,
        cache=cache, engine=_ENGINE,
    )
    result = harness.run(program)
    if any(r.outcome is Outcome.UNDEFINED_BEHAVIOUR for r in result.records):
        return False, True
    return differential_signature(result) == signature, False


def _eager_emi(program, configs, signature, cache):
    """(verdict, saw UB) of running every EMI family cell."""
    harness = EmiHarness(max_steps=_MAX_STEPS, cache=cache, engine=_ENGINE)
    base = refresh_base_fingerprint(program)
    family = [base] + generate_variants(
        base, PRUNING_GRID[:_VARIANTS], seed=_VARIANT_SEED
    )
    cells = [
        harness.run_family(family, config, optimisations)
        for config in configs
        for optimisations in _LEVELS
    ]
    if any(Outcome.UNDEFINED_BEHAVIOUR in cell.variant_outcomes for cell in cells):
        return False, True
    return emi_family_signature(cells) == signature, False


_EAGER = {"differential": _eager_differential, "emi-family": _eager_emi}


def _assert_lazy_is_eager(kind, program, configs, signature, cache, what):
    predicate = build_predicate(
        PredicateSpec(kind=kind, signature=signature), configs, _LEVELS,
        _MAX_STEPS, _ENGINE, variant_seed=_VARIANT_SEED,
        variants_per_base=_VARIANTS, cache=cache,
    )
    lazy = predicate(program)
    eager, saw_ub = _EAGER[kind](program, configs, signature, cache)
    assert lazy == eager, what
    # A UB rejection names a UB run the eager check saw too.
    assert not predicate.stats.ub_rejections or saw_ub, what
    return lazy


def _check_oracle(kind, program, configs, signature):
    cache = ResultCache()
    verdicts = []
    for what, candidate in _candidates(program):
        verdicts.append(
            _assert_lazy_is_eager(kind, candidate, configs, signature, cache, what)
        )
    assert verdicts[0] is True, "the original reproduces its own signature"
    assert verdicts[1] is False, "a UB candidate is never a reproducer"
    for what, probed in _probed_configs(configs, signature):
        _assert_lazy_is_eager(kind, program, probed, signature, cache, what)


@pytest.mark.parametrize("mode,seed", _CLSMITH_ANOMALIES)
def test_lazy_differential_verdicts_equal_eager_ones(mode, seed):
    configs = _configs()
    program = generate_kernel(mode, seed, options=_OPTIONS)
    signature = DifferentialSignaturePredicate.from_program(
        program, configs, max_steps=_MAX_STEPS, engine=_ENGINE
    ).expected_signature
    _check_oracle("differential", program, configs, signature)


def test_lazy_verdicts_equal_eager_ones_where_only_the_ub_guard_rejects():
    """Configurations without calibrated residue, plus configuration 15,
    where every barrier kernel fails to build at opt-: the UB copy of a
    barrier kernel keeps that one-cell signature and is undefined on every
    other cell, so only the UB guard tells it from a reproducer."""
    configs = [clean_config(911), clean_config(912), clean_config(913),
               get_configuration(15)]
    program = generate_kernel(Mode.BARRIER, 0, options=_OPTIONS)
    signature = DifferentialSignaturePredicate.from_program(
        program, configs, max_steps=_MAX_STEPS, engine=_ENGINE
    ).expected_signature
    assert signature == (("config15-", "bf"),)
    _check_oracle("differential", program, configs, signature)


def test_lazy_emi_family_verdicts_equal_eager_ones():
    configs = _configs()
    base = generate_emi_bases(4, seed=0, options=_OPTIONS)[3]
    signature = EmiFamilyPredicate.from_program(
        base, configs, variant_seed=_VARIANT_SEED, variants_per_base=_VARIANTS,
        max_steps=_MAX_STEPS, engine=_ENGINE,
    ).expected_signature
    # The signature holds a cell of every code the evaluation order ranks.
    assert {code for _, code in signature} >= {"bf", "c", "to", "w"}
    _check_oracle("emi-family", base, configs, signature)


def test_cells_sharing_a_label_are_decided_by_the_whole_signature():
    """Two configurations of one name are told apart only by the whole
    signature: the crashing one's cells carry ``c``, its clean twin's pass,
    so no cell of that name may be rejected for its own outcome."""
    program = generate_kernel(Mode.BASIC, 3, options=_OPTIONS)
    crash = crash_config()
    twin = dataclasses.replace(crash, bug_models=[])
    configs = [clean_config(912), clean_config(913), crash, twin]
    signature = DifferentialSignaturePredicate.from_program(
        program, configs, max_steps=_MAX_STEPS, engine=_ENGINE
    ).expected_signature
    assert signature == (("config902+", "c"), ("config902-", "c"))
    _check_oracle("differential", program, configs, signature)


# ---------------------------------------------------------------------------
# Cost and rejection accounting
# ---------------------------------------------------------------------------


def _record_calls(monkeypatch, owner, name):
    """Record the arguments of every call of ``owner.name``."""
    calls = []
    original = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


def test_a_bf_cell_that_builds_costs_one_compile_and_no_cache_lookup(monkeypatch):
    program = generate_kernel(Mode.VECTOR, 0, options=_OPTIONS)  # builds on config1
    predicate = DifferentialSignaturePredicate(
        _configs(), (("config1-", "bf"), ("config19-", "w")),
        max_steps=_MAX_STEPS, engine=_ENGINE,
    )
    compiles = _record_calls(monkeypatch, CompilerDriver, "compile")
    assert predicate(program) is False
    assert len(compiles) == 1
    assert predicate.harness.cache.stats.lookups == 0
    assert predicate.stats.as_dict() == {
        "evaluations": 1, "accepted": 0, "ub_rejections": 0,
        "invalid_rejections": 0, "error_rejections": 0,
    }


def test_an_emi_bf_cell_that_builds_costs_one_family_compile(monkeypatch):
    base = generate_emi_bases(4, seed=0, options=_OPTIONS)[3]
    predicate = EmiFamilyPredicate(
        _configs(), (("config1-", "bf"), ("config14-", "w")),
        variants_per_base=_VARIANTS, max_steps=_MAX_STEPS, engine=_ENGINE,
    )
    compiles = _record_calls(monkeypatch, CompilerDriver, "compile")
    assert predicate(base) is False
    assert len(compiles) == 1 + _VARIANTS
    assert predicate.harness.cache.stats.lookups == 0


def test_an_accepted_candidate_runs_every_cell(monkeypatch):
    configs = _configs()
    program = generate_kernel(Mode.ALL, 3, options=_OPTIONS)
    predicate = DifferentialSignaturePredicate.from_program(
        program, configs, max_steps=_MAX_STEPS, engine=_ENGINE
    )
    compiles = _record_calls(monkeypatch, CompilerDriver, "compile")
    votes = _record_calls(monkeypatch, DifferentialHarness, "vote")
    assert predicate(program) is True
    cells = len(configs) * len(_LEVELS)
    assert len(compiles) == cells
    (_, records), = votes
    assert len(records) == cells and None not in records


def test_an_accepted_emi_candidate_runs_every_cell(monkeypatch):
    configs = _configs()
    base = generate_emi_bases(4, seed=0, options=_OPTIONS)[3]
    predicate = EmiFamilyPredicate.from_program(
        base, configs, variants_per_base=_VARIANTS,
        max_steps=_MAX_STEPS, engine=_ENGINE,
    )
    families = _record_calls(monkeypatch, EmiHarness, "run_family")
    assert predicate(base) is True
    assert len(families) == len(configs) * len(_LEVELS)


@pytest.mark.parametrize("kind", ["differential", "emi-family"])
def test_a_ub_run_in_the_first_evaluated_cell_is_an_ub_rejection(kind, monkeypatch):
    configs = [clean_config(911), clean_config(912), clean_config(913)]
    predicate = build_predicate(
        PredicateSpec(kind=kind, signature=(("config911-", "c"),)), configs,
        _LEVELS, _MAX_STEPS, _ENGINE, variants_per_base=_VARIANTS,
    )
    cells = _record_calls(
        monkeypatch,
        DifferentialHarness if kind == "differential" else EmiHarness,
        "execute_cell" if kind == "differential" else "run_family",
    )
    assert predicate(_ub_program()) is False
    assert len(cells) == 1
    assert predicate.stats.ub_rejections == 1
    assert predicate.stats.accepted == 0


def _predicate_that_votes():
    """A kernel and a predicate built from it that reaches the vote: its
    signature is the crash device's two cells, which the kernel keeps."""
    program = generate_kernel(Mode.BASIC, 3, options=_OPTIONS)
    configs = [clean_config(911), clean_config(912), crash_config()]
    predicate = DifferentialSignaturePredicate.from_program(
        program, configs, max_steps=_MAX_STEPS, engine=_ENGINE
    )
    return program, predicate


def _failing_vote(monkeypatch, error):
    def vote(self, records):
        raise error

    monkeypatch.setattr(DifferentialHarness, "vote", vote)


def test_a_bug_in_the_predicate_propagates_instead_of_rejecting(monkeypatch):
    """Only build and runtime errors are contained: a ``TypeError`` is a bug,
    and rejecting on it would leave every anomaly silently unreduced."""
    program, predicate = _predicate_that_votes()
    _failing_vote(monkeypatch, TypeError("a bug in the vote"))
    with pytest.raises(TypeError):
        predicate(program)


def test_a_runtime_error_outside_the_harness_is_one_error_rejection(monkeypatch):
    program, predicate = _predicate_that_votes()
    _failing_vote(monkeypatch, KernelRuntimeError("raised past the harness"))
    assert predicate(program) is False
    assert predicate.stats.as_dict() == {
        "evaluations": 1, "accepted": 0, "ub_rejections": 0,
        "invalid_rejections": 0, "error_rejections": 1,
    }


# ---------------------------------------------------------------------------
# Byte identity with the eager predicates
# ---------------------------------------------------------------------------


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(result):
    """sha256 of the report, and per reduction of its source, plus its
    evaluation count and the sha256 of its pass attribution."""
    return {
        "report": _sha(result.render() + "\n" + result.triage.render_markdown()),
        "reductions": [
            [
                _sha(summary.reduced_source),
                summary.evaluations,
                _sha(json.dumps(summary.pass_attribution, sort_keys=True)),
            ]
            for summary in result.reductions
        ],
    }


def _clsmith_campaign():
    return run_clsmith_campaign(
        [clean_config(911), clean_config(912), wrong_code_config(),
         get_configuration(15), get_configuration(19)],
        kernels_per_mode=1, modes=(Mode.BASIC, Mode.BARRIER), options=_OPTIONS,
        max_steps=_MAX_STEPS, seed=1, engine=_ENGINE,
        auto_triage=True, reduce_budget=40,
    )


def _emi_campaign():
    return run_emi_campaign(
        [clean_config(911), clean_config(912), emi_parity_config(),
         get_configuration(15)],
        n_bases=1, variants_per_base=4, options=_OPTIONS, max_steps=_MAX_STEPS,
        seed=2, engine=_ENGINE, auto_triage=True, reduce_budget=40,
    )


#: Computed with predicates that ran every cell of every candidate.
_PINNED = {
    "clsmith":{
        "report": "78da344df7323755bf2484c5ca8ecb1a70ca4eb7ed5fc20dbb4dbb818f10af64",
        "reductions": [
            [
                "034aecdf8634029728afefc2a63d19dabef10aa850f10c4da2a8874231f6f9df",
                40,
                "9ded0a0168dd48aaecf21d6fa5a7da4ddfbb00e419f0cc067d3e5b9d1912b627",
            ],
            [
                "5ba4868681245ac273c5b6630abdd20357c77bf7b558c1c83f3658f6d6614daa",
                40,
                "351b6aedb92273001f2f74fd26e22e6154ee6af9d6cb92c503a32e03e4b24019",
            ],
        ],
    },
    "emi":{
        "report": "8d240f934d99168b5f8ac5352e40ffc921a1bfd426de1a890576dfe6491ae156",
        "reductions": [
            [
                "154d8148be5537fe9f3dc317ae634975cd52187bf41864a80c7acf66e591783d",
                40,
                "aae42941023fbd017c2470a78f7103d4f7b66a273c6bd48910bf1657b69d428b",
            ],
        ],
    },
}


@pytest.mark.parametrize("name,campaign", [
    ("clsmith", _clsmith_campaign), ("emi", _emi_campaign),
])
def test_auto_triage_campaigns_keep_their_eager_bytes(name, campaign):
    assert _digests(campaign()) == _PINNED[name]
