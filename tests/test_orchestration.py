"""Tests for the sharded campaign execution engine (repro.orchestration):
the LRU result cache, the job model, the worker pool backends, and the
serial == parallel determinism guarantee of the campaigns."""

import pickle

import pytest

from repro.generator.options import GeneratorOptions, Mode
from repro.orchestration import (
    CLSMITH_DIFFERENTIAL,
    CacheStats,
    CampaignJob,
    JobResult,
    ResultCache,
    WorkerPool,
    execute_job,
)
from repro.platforms import get_configuration
from repro.platforms.calibration import program_fingerprint
from repro.testing.campaign import (
    EmiCampaignResult,
    _merge_emi_job_results,
    generate_emi_bases,
    run_clsmith_campaign,
    run_emi_campaign,
)

_FAST = GeneratorOptions(min_total_threads=4, max_total_threads=12, max_group_size=4,
                         max_statements=5)


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------


def test_result_cache_counts_hits_and_misses():
    cache = ResultCache(maxsize=4)
    assert cache.get("a") is None
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert cache.get("a") == 1
    stats = cache.stats
    assert stats.hits == 2 and stats.misses == 1 and stats.evictions == 0
    assert stats.hit_rate == pytest.approx(2 / 3)


def test_result_cache_evicts_least_recently_used():
    cache = ResultCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh "a": "b" is now least recently used
    cache.put("c", 3)
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    assert "b" not in cache and "a" in cache and "c" in cache


def test_result_cache_maxsize_zero_disables_storage():
    cache = ResultCache(maxsize=0)
    cache.put("a", 1)
    assert cache.get("a") is None
    assert len(cache) == 0 and cache.stats.misses == 1


def test_cache_stats_merge_and_since():
    a = CacheStats(hits=3, misses=2, evictions=1)
    b = CacheStats(hits=1, misses=1, evictions=0)
    merged = a.merge(b)
    assert (merged.hits, merged.misses, merged.evictions) == (4, 3, 1)
    delta = merged.since(a)
    assert (delta.hits, delta.misses, delta.evictions) == (1, 1, 0)
    assert a.as_dict() == {"hits": 3, "misses": 2, "evictions": 1}


# ---------------------------------------------------------------------------
# Job model
# ---------------------------------------------------------------------------


def test_campaign_job_roundtrips_through_pickle():
    job = CampaignJob(
        kind=CLSMITH_DIFFERENTIAL,
        seed=7,
        mode=Mode.VECTOR.value,
        config_ids=(1, None, 19),
        optimisation_levels=(False, True),
        options=_FAST,
        max_steps=300_000,
    )
    clone = pickle.loads(pickle.dumps(job))
    assert clone == job
    assert [c.name if c else "reference" for c in clone.resolve_configs()] == [
        "config1", "reference", "config19",
    ]


def test_execute_job_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown campaign job kind"):
        execute_job(CampaignJob(kind="nonsense", seed=0))


def test_execute_job_reports_cache_delta():
    job = CampaignJob(
        kind=CLSMITH_DIFFERENTIAL, seed=3, mode=Mode.BASIC.value,
        config_ids=(1,), optimisation_levels=(True,), options=_FAST,
        max_steps=300_000,
    )
    cache = ResultCache()
    first = execute_job(job, cache=cache)
    second = execute_job(job, cache=cache)
    assert first.cache.misses >= 1
    # The repeated job replays entirely out of the shared cache.
    assert second.cache.hits >= 1 and second.cache.misses == 0
    assert first.counts == second.counts


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------


def test_worker_pool_backend_selection_and_validation():
    assert WorkerPool().backend == "serial"
    assert WorkerPool(parallelism=1).backend == "serial"
    assert WorkerPool(parallelism=4).backend == "process"
    assert WorkerPool(parallelism=4, backend="serial").backend == "serial"
    with pytest.raises(ValueError, match="unknown backend"):
        WorkerPool(backend="threads")


def test_worker_pool_serial_shares_one_cache_across_jobs():
    pool = WorkerPool()
    job = CampaignJob(
        kind=CLSMITH_DIFFERENTIAL, seed=5, mode=Mode.BASIC.value,
        config_ids=(1,), optimisation_levels=(True,), options=_FAST,
        max_steps=300_000,
    )
    results = pool.run([job, job])
    assert results[1].cache.hits >= 1 and results[1].cache.misses == 0
    assert pool.cache.stats.lookups == sum(r.cache.lookups for r in results)


def test_worker_pool_empty_job_list():
    assert WorkerPool(parallelism=2).run([]) == []


# ---------------------------------------------------------------------------
# Serial == parallel determinism (the engine's core guarantee)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 17])
def test_clsmith_campaign_parallel_tables_match_serial(seed):
    configs = [get_configuration(i) for i in (1, 19)]
    kwargs = dict(kernels_per_mode=2, modes=(Mode.BASIC, Mode.VECTOR),
                  options=_FAST, max_steps=300_000, seed=seed)
    serial = run_clsmith_campaign(configs, **kwargs)
    parallel = run_clsmith_campaign(configs, parallelism=3, **kwargs)
    assert serial.table_rows() == parallel.table_rows()
    assert serial.render() == parallel.render()


def test_clsmith_campaign_parallel_curation_matches_serial():
    configs = [get_configuration(i) for i in (1, 15)]
    kwargs = dict(kernels_per_mode=2, modes=(Mode.BARRIER,), options=_FAST,
                  max_steps=300_000, curate_on=get_configuration(15))
    serial = run_clsmith_campaign(configs, **kwargs)
    parallel = run_clsmith_campaign(configs, parallelism=2, **kwargs)
    assert serial.table_rows() == parallel.table_rows()
    # Curation on configuration 15 (high build-failure rate) must discard at
    # least the kernels that fail to build there with optimisations on.
    for mode in (Mode.BARRIER,):
        assert serial.cell(mode, "config15", True).build_failure == 0


def test_emi_campaign_parallel_rows_match_serial():
    configs = [get_configuration(i) for i in (1, 19)]
    kwargs = dict(n_bases=2, variants_per_base=4, optimisation_levels=(True,),
                  options=_FAST, max_steps=300_000, seed=2)
    serial = run_emi_campaign(configs, **kwargs)
    parallel = run_emi_campaign(configs, parallelism=2, **kwargs)
    assert serial.rows == parallel.rows
    assert serial.n_bases == parallel.n_bases
    assert serial.n_variants == parallel.n_variants == 4
    # The fast engine gives the same rows on both backends.
    compiled = run_emi_campaign(configs, engine="compiled", **kwargs)
    compiled_parallel = run_emi_campaign(
        configs, engine="compiled", parallelism=2, **kwargs
    )
    assert compiled.rows == compiled_parallel.rows == serial.rows


def test_generate_emi_bases_parallel_matches_serial():
    serial = generate_emi_bases(2, seed=0, options=_FAST)
    parallel = generate_emi_bases(2, seed=0, options=_FAST, parallelism=2)
    assert [program_fingerprint(b) for b in serial] == [
        program_fingerprint(b) for b in parallel
    ]


# ---------------------------------------------------------------------------
# Campaign-level guards
# ---------------------------------------------------------------------------


def test_merge_emi_job_results_rejects_heterogeneous_families():
    result = EmiCampaignResult(2, 0)
    job_results = [
        JobResult("emi-family", seed=0, n_variants=3),
        JobResult("emi-family", seed=1, n_variants=4),
    ]
    with pytest.raises(ValueError, match="heterogeneous EMI families"):
        _merge_emi_job_results(result, job_results)


def test_custom_config_objects_are_shipped_by_value():
    """A caller-modified DeviceConfig (same id, bug models stripped) must be
    used verbatim, not silently swapped for its registry namesake — on both
    backends."""
    import dataclasses

    stripped = dataclasses.replace(get_configuration(15), bug_models=[])
    # BARRIER mode with optimisations off discriminates deterministically:
    # registry config 15's barrier build-failure multiplier rejects every
    # barrier kernel there, while the stripped copy is defect-free.
    kwargs = dict(kernels_per_mode=2, modes=(Mode.BARRIER,), options=_FAST,
                  max_steps=300_000)
    serial = run_clsmith_campaign([stripped], **kwargs)
    cell = serial.cell(Mode.BARRIER, "config15", False)
    assert cell.build_failure == 0 and cell.passed == 2
    registry = run_clsmith_campaign([get_configuration(15)], **kwargs)
    assert registry.cell(Mode.BARRIER, "config15", False).build_failure == 2
    assert registry.table_rows() != serial.table_rows()
    parallel = run_clsmith_campaign([stripped], parallelism=2, **kwargs)
    assert serial.table_rows() == parallel.table_rows()


def test_campaign_results_surface_cache_counters():
    configs = [get_configuration(1)]
    result = run_clsmith_campaign(configs, kernels_per_mode=2, modes=(Mode.BASIC,),
                                  options=_FAST, max_steps=300_000)
    assert result.cache_stats.lookups > 0
    assert result.cache_stats.as_dict()["misses"] > 0
