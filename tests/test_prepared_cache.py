"""Cross-launch prepared-program cache: correctness and key-policy tests.

The cache reuses the launch-independent lowering step across launches, so
two properties are load-bearing:

* a warm bind must be byte-identical to a cold prepare (same outputs, step
  counts, race reports, error classification) -- otherwise the cache would
  silently change campaign tables;
* keys must never collide across engines, optimisation levels,
  ``comma_yields_zero`` settings or step budgets -- all four are baked into
  the lowered artefact.
"""

import pytest

from repro.compiler import compile_program
from repro.generator import generate_kernel
from repro.generator.options import GeneratorOptions, Mode
from repro.platforms import get_configuration
from repro.runtime.device import run_program
from repro.runtime.engine import get_engine
from repro.runtime.prepared import (
    PreparedCacheStats,
    PreparedProgramCache,
    prepared_program_key,
)
from repro.testing.campaign import run_clsmith_campaign
from repro.testing.differential import DifferentialHarness
from repro.testing.emi_harness import EmiHarness

ENGINES = ("reference", "compiled")

CORPUS_OPTIONS = GeneratorOptions(
    min_total_threads=4, max_total_threads=24, max_group_size=8, max_statements=8
)


def _observe(program, **kwargs):
    try:
        result = run_program(program, **kwargs)
    except Exception as exc:  # noqa: BLE001 - classification is the point
        return (
            "raise",
            type(exc).__name__,
            getattr(exc, "kind", None),
            getattr(exc, "steps", None),
        )
    return ("ok", result.outputs, result.steps, tuple(result.race_reports))


# ---------------------------------------------------------------------------
# Warm == cold (the cache must be observationally invisible)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_warm_bind_is_byte_identical_to_cold_prepare(engine):
    cache = PreparedProgramCache()
    modes = list(Mode)
    for seed in range(10):
        program = generate_kernel(modes[seed % len(modes)], seed, options=CORPUS_OPTIONS)
        cold = _observe(program, engine=engine)
        first = _observe(program, engine=engine, prepared_cache=cache)
        warm = _observe(program, engine=engine, prepared_cache=cache)
        again = _observe(program, engine=engine, prepared_cache=cache)
        assert cold == first == warm == again, f"seed {seed}"
    if engine == "reference":
        # The reference walker has no lowering step worth caching; the
        # cache bypasses it entirely (no stats traffic, no pinned entries).
        assert cache.stats.lookups == 0 and len(cache) == 0
    else:
        # Every program was lowered exactly once and re-bound twice.
        assert cache.stats.misses == 10
        assert cache.stats.hits == 20
        assert cache.stats.evictions == 0


def test_warm_bind_identical_under_timeouts_and_races():
    cache = PreparedProgramCache()
    program = generate_kernel(Mode.BASIC, 3, options=CORPUS_OPTIONS)
    for engine in ENGINES:
        cold = _observe(program, engine=engine, max_steps=40)
        assert cold[0] == "raise" and cold[1] == "ExecutionTimeout"
        warm_kwargs = dict(engine=engine, max_steps=40, prepared_cache=cache)
        assert _observe(program, **warm_kwargs) == cold
        assert _observe(program, **warm_kwargs) == cold
    racy = generate_kernel(Mode.ATOMIC_REDUCTION, 1, options=CORPUS_OPTIONS)
    for engine in ENGINES:
        cold = _observe(racy, engine=engine, check_races=True, throw_on_race=False)
        warm_kwargs = dict(
            engine=engine, check_races=True, throw_on_race=False, prepared_cache=cache
        )
        assert _observe(racy, **warm_kwargs) == cold
        assert _observe(racy, **warm_kwargs) == cold


def test_structurally_identical_programs_share_one_lowering():
    """The key is the canonical fingerprint, not object identity: a
    regenerated (distinct but identical) program must hit the cache and
    still produce byte-identical results."""
    cache = PreparedProgramCache()
    first = generate_kernel(Mode.BASIC, 7, options=CORPUS_OPTIONS)
    second = generate_kernel(Mode.BASIC, 7, options=CORPUS_OPTIONS)
    assert first is not second
    a = _observe(first, engine="compiled", prepared_cache=cache)
    b = _observe(second, engine="compiled", prepared_cache=cache)
    assert a == b
    assert cache.stats.misses == 1 and cache.stats.hits == 1


# ---------------------------------------------------------------------------
# Key policy: no collisions across engines / opt levels / comma / budget
# ---------------------------------------------------------------------------


def test_prepared_keys_never_collide_across_lowering_knobs():
    program = generate_kernel(Mode.BASIC, 0, options=CORPUS_OPTIONS)
    keys = set()
    for engine in ENGINES:
        for comma in (False, True):
            for max_steps in (1000, 2000):
                keys.add(prepared_program_key(program, engine, comma, max_steps))
    assert len(keys) == len(ENGINES) * 2 * 2


def test_prepared_keys_distinguish_optimisation_levels():
    base = generate_kernel(Mode.ALL, 2, options=CORPUS_OPTIONS)
    unopt = compile_program(base, optimisations=False).program
    opt = compile_program(base, optimisations=True).program
    for engine in ENGINES:
        key_unopt = prepared_program_key(unopt, engine, False, 1000)
        key_opt = prepared_program_key(opt, engine, False, 1000)
        assert key_unopt != key_opt


def test_one_cache_never_crosses_engines():
    """A shared cache serves all engines but each gets its own lowering
    (the reference engine bypasses the cache: nothing to reuse)."""
    cache = PreparedProgramCache()
    program = generate_kernel(Mode.BASIC, 1, options=CORPUS_OPTIONS)
    results = [
        _observe(program, engine=engine, prepared_cache=cache) for engine in ENGINES
    ]
    assert results[0] == results[1]
    cacheable = [e for e in ENGINES if e != "reference"]
    assert cache.stats.misses == len(cacheable) and cache.stats.hits == 0
    assert len(cache) == len(cacheable)


# ---------------------------------------------------------------------------
# Bounds and accounting
# ---------------------------------------------------------------------------


def test_cache_is_bounded_and_counts_evictions():
    cache = PreparedProgramCache(maxsize=1)
    a = generate_kernel(Mode.BASIC, 0, options=CORPUS_OPTIONS)
    b = generate_kernel(Mode.BASIC, 1, options=CORPUS_OPTIONS)
    engine = get_engine("compiled")
    cache.lower(engine, a)
    cache.lower(engine, b)  # evicts a
    cache.lower(engine, a)  # miss again
    assert len(cache) == 1
    assert cache.stats.misses == 3 and cache.stats.evictions == 2


def test_zero_sized_cache_disables_storage_uniformly():
    cache = PreparedProgramCache(maxsize=0)
    program = generate_kernel(Mode.BASIC, 0, options=CORPUS_OPTIONS)
    for _ in range(3):
        assert _observe(program, engine="compiled", prepared_cache=cache)[0] == "ok"
    assert cache.stats.misses == 3 and cache.stats.hits == 0 and len(cache) == 0


def test_stats_merge_and_since():
    a = PreparedCacheStats(hits=2, misses=3, evictions=1)
    b = PreparedCacheStats(hits=1, misses=1, evictions=0)
    merged = a.merge(b)
    assert (merged.hits, merged.misses, merged.evictions) == (3, 4, 1)
    delta = merged.since(b)
    assert (delta.hits, delta.misses, delta.evictions) == (2, 3, 1)
    assert merged.lookups == 7
    assert merged.as_dict() == {"hits": 3, "misses": 4, "evictions": 1}


# ---------------------------------------------------------------------------
# Harness / campaign plumbing
# ---------------------------------------------------------------------------


def test_differential_harness_reuses_lowerings_and_surfaces_stats():
    configs = [None] + [get_configuration(i) for i in (1, 9)]
    program = generate_kernel(Mode.BASIC, 4, options=CORPUS_OPTIONS)
    harness = DifferentialHarness(
        configs, max_steps=300_000, engine="compiled", cache_results=False
    )
    harness.run(program)
    stats = harness.prepared_stats.copy()
    # Most configurations compile most programs identically, so the cells
    # collapse onto far fewer lowerings than executions (result caching is
    # off here, so every cell actually executes).
    assert stats.lookups >= 2
    assert stats.hits > 0
    harness.run(program)
    assert harness.prepared_stats.hits > stats.hits

    # With result caching on, the prepared cache sees exactly the
    # result-cache misses: every cell that executes lowers through it once.
    configs = [None] + [get_configuration(i) for i in (1, 19)]
    program = generate_kernel(Mode.BASIC, seed=2, options=CORPUS_OPTIONS)
    harness = DifferentialHarness(configs, max_steps=300_000, engine="compiled")
    harness.run(program)
    assert harness.cache.stats.misses > 0
    assert harness.prepared_stats.lookups == harness.cache.stats.misses


def test_emi_harness_surfaces_prepared_stats():
    harness = EmiHarness(max_steps=300_000, engine="compiled", cache_results=False)
    program = generate_kernel(Mode.BASIC, 5, options=CORPUS_OPTIONS)
    harness.run_single(program, None, True)
    harness.run_single(program, None, True)
    assert harness.prepared_stats.lookups == 2
    assert harness.prepared_stats.hits == 1


def test_worker_pool_exposes_shared_prepared_cache():
    from repro.orchestration.jobs import CLSMITH_CURATE, CampaignJob
    from repro.orchestration.pool import WorkerPool

    job = CampaignJob(
        kind=CLSMITH_CURATE,
        seed=0,
        mode=Mode.BASIC.value,
        config_ids=(None,),
        optimisation_levels=(True,),
        options=CORPUS_OPTIONS,
        max_steps=300_000,
        engine="compiled",
    )
    with WorkerPool(None) as pool:
        pool.run([job])
        assert pool.prepared_cache.stats.lookups == 1
        # A repeat of the same job is absorbed by the shared *result* cache
        # before it reaches the engine, so the prepared cache sees no new
        # traffic -- the division of labour ORCHESTRATION.md documents.
        pool.run([job])
        assert pool.prepared_cache.stats.lookups == 1
        assert pool.cache.stats.hits == 1


def test_campaign_results_carry_prepared_stats_serial_and_parallel():
    configs = [get_configuration(i) for i in (1, 9)]
    campaign = dict(
        kernels_per_mode=2,
        modes=(Mode.BASIC,),
        options=CORPUS_OPTIONS,
        max_steps=300_000,
        seed=11,
        engine="compiled",
    )
    serial = run_clsmith_campaign(configs, **campaign)
    # The execution-result cache dedupes identical executions before they
    # reach the engine, so the prepared cache sees the result-cache *misses*.
    assert serial.prepared_stats.lookups > 0
    assert serial.prepared_stats.lookups == serial.cache_stats.misses
    parallel = run_clsmith_campaign(configs, parallelism=2, **campaign)
    assert parallel.table_rows() == serial.table_rows()
    assert parallel.prepared_stats.lookups > 0
