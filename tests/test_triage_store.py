"""Tests for the persistent campaign store and ``resume=``.

These lock the store's contract (see TRIAGE.md):

* job identities hash the *work*, not the origin: equal-valued jobs share
  results, any execution-relevant field change separates them;
* the JSONL codec round-trips every ``JobResult`` shape (tables, EMI cells,
  reduction summaries, bisections) to equal values;
* the file is append-only and idempotent: re-recording is a no-op, a
  reopened store sees everything, and a tail truncated by a kill (even
  mid-line) is repaired away on open;
* the acceptance property: a campaign killed mid-run and resumed from the
  store produces byte-identical tables, reductions, buckets and reports to
  an uninterrupted run, on both the serial and the process backend;
* cross-campaign dedup: reductions recorded by different campaigns bucket
  together through ``CampaignStore.reductions()``.
"""

import json

import pytest

from repro.generator.options import GeneratorOptions, Mode
from repro.orchestration.jobs import (
    CLSMITH_DIFFERENTIAL,
    CampaignJob,
    JobResult,
)
from repro.orchestration.pool import WorkerPool
from repro.reduction.corpus import clean_config, wrong_code_config
from repro.testing.campaign import (
    generate_emi_bases,
    run_clsmith_campaign,
    run_emi_campaign,
)
from repro.testing.emi_harness import EmiBaseResult
from repro.testing.outcomes import Outcome, OutcomeCounts
from repro.triage import CampaignStore, StoreBackedPool, bucket_reductions
from repro.triage.store import (
    decode_job_result,
    encode_job_result,
    job_identity,
)

_FAST_OPTIONS = GeneratorOptions(
    min_total_threads=4,
    max_total_threads=12,
    max_group_size=4,
    max_statements=8,
    max_expr_depth=2,
)


def _job(**overrides) -> CampaignJob:
    fields = dict(
        kind=CLSMITH_DIFFERENTIAL, seed=3, mode=Mode.BASIC.value,
        config_ids=(1, 19), optimisation_levels=(False, True),
        options=_FAST_OPTIONS, max_steps=300_000,
    )
    fields.update(overrides)
    return CampaignJob(**fields)


# ---------------------------------------------------------------------------
# Identities and the record codec
# ---------------------------------------------------------------------------


def test_job_identity_hashes_work_not_origin():
    assert job_identity(_job()) == job_identity(_job())
    base = job_identity(_job())
    assert job_identity(_job(seed=4)) != base
    assert job_identity(_job(engine="compiled")) != base
    assert job_identity(_job(max_steps=400_000)) != base
    assert job_identity(_job(config_ids=(1,))) != base
    assert job_identity(_job(config_overrides=(wrong_code_config(), None))) != base


def test_job_result_round_trips_through_the_codec():
    counts = {("BASIC", "config1", True): OutcomeCounts(wrong_code=2, passed=3)}
    cell = EmiBaseResult(
        config_name="config9", optimisations=False,
        variant_outcomes=[Outcome.PASS, Outcome.WRONG_CODE, Outcome.TIMEOUT],
        distinct_values=2, bad_base=False, wrong_code=True,
        induced_build_failure=False, induced_crash=False,
        induced_timeout=True, stable=False,
    )
    result = JobResult(
        kind=CLSMITH_DIFFERENTIAL, seed=7, counts=counts, emi_cells=[cell],
        n_variants=4,
    )
    encoded = json.loads(json.dumps(encode_job_result(result), sort_keys=True))
    assert "prepared" not in encoded
    # Schema-1 records also carry prepared-cache counters; they are ignored.
    legacy = dict(encoded, prepared={"hits": 0, "misses": 3, "evictions": 0})
    for data in (encoded, legacy):
        decoded = decode_job_result(data)
        assert decoded.counts == counts
        assert decoded.emi_cells == [cell]
        assert decoded.n_variants == 4
        assert decoded.seed == 7
        assert decoded.reduction is None and decoded.bisection is None
        assert encode_job_result(decoded) == encoded


def test_reduction_summaries_round_trip_with_programs(tmp_path):
    """A campaign's reduce-kernel record decodes to an equal summary whose
    program re-serialises identically (the resume byte-identity input)."""
    configs = [clean_config(911), clean_config(912), wrong_code_config()]
    result = run_clsmith_campaign(
        configs, kernels_per_mode=1, modes=(Mode.BASIC,), options=_FAST_OPTIONS,
        auto_reduce=True, reduce_budget=200,
        resume=str(tmp_path / "store.jsonl"),
    )
    assert len(result.reductions) == 1
    with CampaignStore(str(tmp_path / "store.jsonl")) as store:
        pairs = store.reductions()
        # Records are tagged with the issuing campaign's key, and filtering
        # by it finds them again.
        [campaign] = store.campaigns()
        assert all(
            record["campaign"] == campaign["key"]
            for record in store.records("reduction")
        )
        assert len(store.reductions(campaign=campaign["key"])) == 1
        assert store.reductions(campaign="no-such-campaign") == []
    assert len(pairs) == 1
    stored, context = pairs[0]
    original = result.reductions[0]
    assert stored.reduced_source == original.reduced_source
    assert stored.signature == original.signature
    assert stored.pass_attribution == original.pass_attribution
    assert stored.evaluations == original.evaluations
    assert context["config_ids"] == (911, 912, 901)
    assert context["optimisation_levels"] == (False, True)


# ---------------------------------------------------------------------------
# File behaviour: idempotence, reopen, truncation repair
# ---------------------------------------------------------------------------


def test_record_once_is_idempotent_and_survives_reopen(tmp_path):
    path = str(tmp_path / "store.jsonl")
    with CampaignStore(path) as store:
        assert store.record_once("campaign", "k1", {"meta": {"a": 1}}) is True
        assert store.record_once("campaign", "k1", {"meta": {"a": 2}}) is False
    with CampaignStore(path) as store:
        assert store.record_once("campaign", "k1", {"meta": {"a": 3}}) is False
        records = list(store.records("campaign"))
    assert len(records) == 1
    assert records[0]["meta"] == {"a": 1}
    assert len(open(path).read().splitlines()) == 1


def test_truncated_tail_is_repaired_on_open(tmp_path):
    path = str(tmp_path / "store.jsonl")
    with CampaignStore(path) as store:
        store.record_once("campaign", "k1", {"meta": {}})
        store.record_once("campaign", "k2", {"meta": {}})
    lines = open(path).read().splitlines(keepends=True)
    with open(path, "w") as handle:
        handle.writelines(lines[:1])
        handle.write(lines[1][: len(lines[1]) // 2])  # a kill mid-append
    with CampaignStore(path) as store:
        assert [r["key"] for r in store.records("campaign")] == ["k1"]
        # Appending after the repair lands on a clean line.
        store.record_once("campaign", "k3", {"meta": {}})
    with CampaignStore(path) as store:
        assert [r["key"] for r in store.records("campaign")] == ["k1", "k3"]


def test_newer_schema_records_are_skipped_not_misread(tmp_path):
    path = str(tmp_path / "store.jsonl")
    with open(path, "w") as handle:
        handle.write(json.dumps({"v": 999, "kind": "job", "key": "x"}) + "\n")
    with CampaignStore(path) as store:
        assert store.lookup_job("x") is None


class _CountingPool:
    """A WorkerPool stand-in that counts the jobs actually executed."""

    def __init__(self) -> None:
        self.inner = WorkerPool()
        self.executed = 0

    backend = "serial"
    parallelism = 1

    def run(self, jobs):
        jobs = list(jobs)
        self.executed += len(jobs)
        return self.inner.run(jobs)


def test_store_backed_pool_replays_instead_of_re_executing(tmp_path):
    job = _job()
    with CampaignStore(str(tmp_path / "store.jsonl")) as store:
        counting = _CountingPool()
        pool = StoreBackedPool(counting, store)
        first = pool.run([job])
        assert counting.executed == 1
        second = pool.run([job, job])
        assert counting.executed == 1  # both served from the store
    assert first[0].counts == second[0].counts == second[1].counts


# ---------------------------------------------------------------------------
# The acceptance property: kill mid-run, resume, byte-identical outputs
# ---------------------------------------------------------------------------


# parallelism=2 saturates the pool with the 2 anomalies (reduce-kernel
# dispatch); parallelism=4 leaves idle workers, taking the per-candidate
# reduce-check path -- both must resume byte-identically.
@pytest.mark.parametrize("parallelism", [None, 2, 4])
def test_killed_and_resumed_campaign_is_byte_identical(tmp_path, parallelism):
    configs = [clean_config(911), clean_config(912), wrong_code_config()]
    kwargs = dict(
        kernels_per_mode=2, modes=(Mode.BASIC,), options=_FAST_OPTIONS,
        auto_triage=True, reduce_budget=200, parallelism=parallelism,
    )
    full_path = str(tmp_path / "full.jsonl")
    part_path = str(tmp_path / "part.jsonl")

    full = run_clsmith_campaign(configs, resume=full_path, **kwargs)
    lines = open(full_path).read().splitlines(keepends=True)
    assert len(lines) > 4
    # Simulate the kill: the store is an append-only log, so dying mid-run
    # leaves a prefix -- possibly with a half-written final line.
    with open(part_path, "w") as handle:
        handle.writelines(lines[: len(lines) // 2])
        handle.write(lines[len(lines) // 2][:20])
    resumed = run_clsmith_campaign(configs, resume=part_path, **kwargs)

    assert resumed.table_rows() == full.table_rows()
    assert resumed.render() == full.render()
    assert [s.reduced_source for s in resumed.reductions] == [
        s.reduced_source for s in full.reductions
    ]
    assert [s.evaluations for s in resumed.reductions] == [
        s.evaluations for s in full.reductions
    ]
    assert [b.key for b in resumed.triage.buckets] == [
        b.key for b in full.triage.buckets
    ]
    assert resumed.triage.render_markdown() == full.triage.render_markdown()


def test_killed_and_resumed_emi_campaign_is_byte_identical(tmp_path):
    """The EMI entry point's resume path: caller-supplied bases travel by
    value, so job identities key on the program fingerprint."""
    from repro.reduction.corpus import emi_parity_config
    from repro.testing.campaign import generate_emi_bases, run_emi_campaign

    options = GeneratorOptions(
        min_total_threads=4, max_total_threads=12, max_group_size=4,
        max_statements=6, max_expr_depth=2,
    )
    bases = generate_emi_bases(2, seed=0, options=options)
    kwargs = dict(bases=bases, variants_per_base=6, optimisation_levels=(False,),
                  options=options, auto_triage=True, reduce_budget=250)
    full_path = str(tmp_path / "full.jsonl")
    part_path = str(tmp_path / "part.jsonl")
    full = run_emi_campaign([emi_parity_config()], resume=full_path, **kwargs)
    lines = open(full_path).read().splitlines(keepends=True)
    with open(part_path, "w") as handle:
        handle.writelines(lines[: len(lines) // 2])
    resumed = run_emi_campaign([emi_parity_config()], resume=part_path, **kwargs)
    assert resumed.rows == full.rows
    assert resumed.render() == full.render()
    assert resumed.triage.render_markdown() == full.triage.render_markdown()
    assert [b.culprit.label for b in full.triage.buckets] == [
        "wrong-code@synthetic-emi-parity"
    ]


def test_resume_without_interruption_replays_everything(tmp_path):
    configs = [clean_config(911), clean_config(912), wrong_code_config()]
    kwargs = dict(kernels_per_mode=1, modes=(Mode.BASIC,),
                  options=_FAST_OPTIONS, auto_reduce=True, reduce_budget=150)
    path = str(tmp_path / "store.jsonl")
    first = run_clsmith_campaign(configs, resume=path, **kwargs)
    size_after_first = len(open(path).read().splitlines())
    second = run_clsmith_campaign(configs, resume=path, **kwargs)
    # A complete replay appends nothing and reproduces the run exactly --
    # including the surfaced cache counters, whose deltas replay from the
    # job and reduction records.
    assert len(open(path).read().splitlines()) == size_after_first
    assert second.render() == first.render()
    assert [s.reduced_source for s in second.reductions] == [
        s.reduced_source for s in first.reductions
    ]
    assert second.cache_stats.as_dict() == first.cache_stats.as_dict()


def test_schema_1_store_resumes_as_a_full_replay(tmp_path, monkeypatch):
    """Schema 2 dropped the ``prepared`` counters.  A finished store written
    as schema 1 (``v: 1``, counters present) must still resume by replaying
    every job: nothing executes, nothing is appended, and the table and
    triage report are unchanged."""
    import repro.orchestration.pool as pool_module

    configs = [clean_config(911), clean_config(912), wrong_code_config()]
    kwargs = dict(kernels_per_mode=1, modes=(Mode.BASIC,),
                  options=_FAST_OPTIONS, auto_triage=True, reduce_budget=150)
    path = str(tmp_path / "store.jsonl")
    first = run_clsmith_campaign(configs, resume=path, **kwargs)
    legacy = {"hits": 0, "misses": 2, "evictions": 0}
    lines, kinds = [], set()
    for line in open(path).read().splitlines():
        record = json.loads(line)
        assert record["v"] == 2 and "prepared" not in record.get("result", record)
        kinds.add(record["kind"])
        record["v"] = 1
        if record["kind"] == "job":
            record["result"]["prepared"] = legacy
        elif record["kind"] == "reduction":
            record["prepared"] = legacy
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    assert {"job", "reduction", "bucket"} <= kinds
    with open(path, "w") as handle:
        handle.writelines(lines)
    before = open(path, "rb").read()

    executed = []
    execute_job = pool_module.execute_job

    def counting_execute_job(job, **kw):
        executed.append(job.kind)
        return execute_job(job, **kw)

    monkeypatch.setattr(pool_module, "execute_job", counting_execute_job)
    second = run_clsmith_campaign(configs, resume=path, **kwargs)
    assert executed == []
    assert open(path, "rb").read() == before
    assert second.render() == first.render()
    assert second.triage.render_markdown() == first.triage.render_markdown()
    assert second.cache_stats.as_dict() == first.cache_stats.as_dict()


# ---------------------------------------------------------------------------
# Cross-campaign dedup
# ---------------------------------------------------------------------------


def test_bucket_aware_scheduling_skips_known_anomalies(tmp_path):
    """A triaging campaign must not re-reduce an anomaly another campaign
    already reduced: the stored representative attaches instead.

    Campaign B runs with ``reduce_budget=1`` -- far too small to reproduce
    campaign A's reduction -- so B's seed-0 summary matching A's
    byte-for-byte (with ``evaluations`` impossible under B's budget) proves
    the reduction was attached from the store, not re-run.  B's genuinely
    new seed-1 anomaly still reduces (within its tiny budget) and records.
    """
    configs = [clean_config(911), clean_config(912), wrong_code_config()]
    path = str(tmp_path / "store.jsonl")
    shared = dict(modes=(Mode.BASIC,), options=_FAST_OPTIONS, auto_triage=True,
                  seed=0, resume=path)
    first = run_clsmith_campaign(
        configs, kernels_per_mode=1, reduce_budget=200, **shared
    )
    assert len(first.reductions) == 1
    assert first.reductions[0].evaluations > 1
    second = run_clsmith_campaign(
        configs, kernels_per_mode=2, reduce_budget=1, **shared
    )
    assert len(second.reductions) == 2
    attached, fresh = second.reductions
    assert attached.reduced_source == first.reductions[0].reduced_source
    assert attached.evaluations == first.reductions[0].evaluations > 1
    assert fresh.evaluations <= 1
    with CampaignStore(path) as store:
        campaigns = [record["key"] for record in store.campaigns()]
        assert len(campaigns) == 2
        by_campaign = {key: 0 for key in campaigns}
        for record in store.records("reduction"):
            by_campaign[record["campaign"]] += 1
        # One reduction record per campaign: B recorded only its new
        # anomaly, the skipped one stays owned by A.
        assert sorted(by_campaign.values()) == [1, 1]
        anomalies = list(store.records("anomaly"))
    assert len(anomalies) == 2
    assert all("reduction_key" in record for record in anomalies)
    # The dedup still buckets the shared reproducer once across campaigns.
    assert second.triage.n_buckets >= 1


def test_bucket_aware_skip_does_not_break_resume(tmp_path):
    """Skip decisions ignore the campaign's *own* anomaly records, so a
    killed-and-resumed triage campaign cannot skip reductions its first
    attempt already recorded -- the resumed output stays byte-identical."""
    configs = [clean_config(911), clean_config(912), wrong_code_config()]
    kwargs = dict(kernels_per_mode=1, modes=(Mode.BASIC,), options=_FAST_OPTIONS,
                  auto_triage=True, reduce_budget=200)
    full_path = str(tmp_path / "full.jsonl")
    part_path = str(tmp_path / "part.jsonl")
    full = run_clsmith_campaign(configs, resume=full_path, **kwargs)
    lines = open(full_path).read().splitlines(keepends=True)
    # Keep everything up to and including the anomaly/reduction records'
    # neighbourhood: even a prefix holding the anomaly record must replay
    # (not skip) the reduction, because it belongs to this campaign.
    with open(part_path, "w") as handle:
        handle.writelines(lines[:-1])
    resumed = run_clsmith_campaign(configs, resume=part_path, **kwargs)
    assert resumed.render() == full.render()
    assert [s.reduced_source for s in resumed.reductions] == [
        s.reduced_source for s in full.reductions
    ]
    assert resumed.triage.render_markdown() == full.triage.render_markdown()


# ---------------------------------------------------------------------------
# Compaction
# ---------------------------------------------------------------------------


def test_compact_on_clean_store_is_byte_identical(tmp_path):
    """A log with no superseded records compacts to the very same bytes,
    and the compacted store still resumes a campaign as a full replay."""
    configs = [clean_config(911), clean_config(912), wrong_code_config()]
    kwargs = dict(kernels_per_mode=1, modes=(Mode.BASIC,),
                  options=_FAST_OPTIONS, auto_reduce=True, reduce_budget=150)
    path = str(tmp_path / "store.jsonl")
    first = run_clsmith_campaign(configs, resume=path, **kwargs)
    before = open(path, "rb").read()
    with CampaignStore(path) as store:
        assert store.compact() == 0
    assert open(path, "rb").read() == before
    second = run_clsmith_campaign(configs, resume=path, **kwargs)
    assert open(path, "rb").read() == before  # replay appends nothing
    assert second.render() == first.render()


def test_compact_drops_superseded_and_damaged_records(tmp_path):
    path = str(tmp_path / "store.jsonl")
    with CampaignStore(path) as store:
        store.record_once("campaign", "k1", {"meta": {"a": 1}})
        store.record_once("campaign", "k2", {"meta": {}})
    clean = open(path, "rb").read()
    # Simulate a supersede: a later occurrence of k1 (as a crashed writer or
    # manual merge might produce).  The loaded index serves the *last*
    # occurrence, so compaction must keep that record -- at k1's original
    # position -- and drop the stale first line.
    superseded = json.dumps(
        {"v": 1, "kind": "campaign", "key": "k1", "meta": {"a": 2}},
        sort_keys=True, separators=(",", ":"),
    )
    with open(path, "a") as handle:
        handle.write(superseded + "\n")
        handle.write('{"v": 1, "kind": "campaign", "key"')  # torn tail
    with CampaignStore(path) as store:
        # The torn tail is already repaired away at open; compaction then
        # drops the stale first occurrence of k1.
        assert store.compact() == 1
        records = list(store.records("campaign"))
    assert [record["key"] for record in records] == ["k1", "k2"]
    assert records[0]["meta"] == {"a": 2}
    lines = open(path).read().splitlines()
    assert len(lines) == 2
    assert lines[0] == superseded
    # Compacting again is a fixpoint: nothing further to drop.
    with CampaignStore(path) as store:
        assert store.compact() == 0
    # An exact duplicate line compacts back to the clean bytes.
    with open(path, "w") as handle:
        handle.write(clean.decode("utf-8"))
        handle.write(clean.decode("utf-8").splitlines(keepends=True)[0])
    with CampaignStore(path) as store:
        assert store.compact() == 1
    assert open(path, "rb").read() == clean


def test_compact_preserves_newer_schema_records_verbatim(tmp_path):
    """Forward compatibility: records a newer writer appended (which this
    reader skips) must survive compaction untouched."""
    path = str(tmp_path / "store.jsonl")
    future = json.dumps({"v": 999, "kind": "job", "key": "x", "payload": [1]})
    with CampaignStore(path) as store:
        store.record_once("campaign", "k1", {"meta": {}})
    with open(path, "a") as handle:
        handle.write(future + "\n")
    with CampaignStore(path) as store:
        assert store.compact() == 0
    assert future in open(path).read().splitlines()


def test_cli_compact_flag_compacts_and_exits(tmp_path, capsys):
    from repro.triage.cli import main

    path = str(tmp_path / "store.jsonl")
    with CampaignStore(path) as store:
        store.record_once("campaign", "k1", {"meta": {}})
    line = open(path).read()
    with open(path, "a") as handle:
        handle.write(line)  # duplicate to drop
    assert main(["--store", path, "--compact"]) == 0
    assert "dropped 1 record(s), kept 1" in capsys.readouterr().err
    assert open(path).read() == line


# ---------------------------------------------------------------------------
# Stores written under an engine that is no longer registered
# ---------------------------------------------------------------------------


def test_store_from_a_removed_engine_fails_loudly(tmp_path, monkeypatch, capsys):
    """A store written while an engine was registered must never replay
    for it once the engine is gone: every campaign entry point raises the
    registry's KeyError before touching the store (left byte-identical),
    and ``repro-triage`` names the engine and exits 2 instead of dying with
    a traceback when bisection would need it."""
    from repro.runtime import engine as registry
    from repro.triage.cli import main

    configs = [clean_config(911), clean_config(912), wrong_code_config()]
    path = str(tmp_path / "store.jsonl")
    kwargs = dict(kernels_per_mode=1, modes=(Mode.BASIC,),
                  options=_FAST_OPTIONS, auto_reduce=True, reduce_budget=20,
                  resume=path)
    with monkeypatch.context() as patch:
        patch.setitem(registry._ENGINE_FACTORIES, "jit", registry.ReferenceEngine)
        patch.setitem(registry._ENGINE_INSTANCES, "jit", registry.ReferenceEngine())
        run_clsmith_campaign(configs, engine="jit", **kwargs)
    before = open(path, "rb").read()
    with CampaignStore(path) as store:
        assert store.reductions(), "the store should hold a reduction"

    unknown = "unknown execution engine 'jit'"
    with pytest.raises(KeyError, match=unknown):
        run_clsmith_campaign(configs, engine="jit", **kwargs)
    with pytest.raises(KeyError, match=unknown):
        run_emi_campaign(configs, n_bases=1, options=_FAST_OPTIONS,
                         engine="jit", resume=path)
    with pytest.raises(KeyError, match=unknown):
        generate_emi_bases(1, options=_FAST_OPTIONS, engine="jit")
    assert open(path, "rb").read() == before

    capsys.readouterr()
    assert main(["--store", path]) == 2
    assert unknown in capsys.readouterr().err
    # A dedup-only report never executes anything, so it needs no engine.
    assert main(["--store", path, "--no-bisect"]) == 0
    assert open(path, "rb").read() == before


def test_cross_campaign_dedup_merges_buckets_from_two_campaigns(tmp_path):
    configs = [clean_config(911), clean_config(912), wrong_code_config()]
    path = str(tmp_path / "store.jsonl")
    kwargs = dict(kernels_per_mode=1, modes=(Mode.BASIC,),
                  options=_FAST_OPTIONS, auto_reduce=True, reduce_budget=200)
    run_clsmith_campaign(configs, seed=0, resume=path, **kwargs)
    run_clsmith_campaign(configs, seed=50, resume=path, **kwargs)
    with CampaignStore(path) as store:
        campaigns = store.campaigns()
        pairs = store.reductions()
    assert len(campaigns) == 2
    assert len(pairs) == 2
    buckets = bucket_reductions([summary for summary, _ in pairs])
    # Different campaign seeds, same injected defect, same minimal
    # reproducer: one bucket spanning both campaigns.
    assert len(buckets) == 1
    assert buckets[0].occurrences == 2
    assert sorted(m.seed for m in buckets[0].members) == [0, 50]
