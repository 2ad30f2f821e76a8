"""Network jobs in the campaign pipeline: digests, records, cache, pools."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.campaign import (
    NETWORK_SCHEMA,
    CampaignRunner,
    NetworkJob,
    NetworkRecord,
    ResultCache,
    execute_job,
)
from repro.experiments.fabric import run_fabric
from repro.experiments.fabric.demo import TARGET_FLOW_ID, demo_tandem
from repro.obs.registry import MetricsRegistry


def small_job(seed=1, churn=True):
    return NetworkJob(demo_tandem(hops=2, sim_time=3.0, seed=seed, churn=churn))


@pytest.fixture(scope="module")
def executed():
    """One executed job/record pair shared by the read-only tests."""
    job = small_job()
    return job, execute_job(job)


class TestDigest:
    def test_digest_is_stable(self):
        assert small_job().digest() == small_job().digest()

    def test_digest_covers_the_seed(self):
        assert small_job(seed=1).digest() != small_job(seed=2).digest()

    def test_digest_covers_churn(self):
        assert small_job(churn=True).digest() != small_job(churn=False).digest()

    def test_job_round_trips(self):
        job = small_job()
        assert NetworkJob.from_dict(job.to_dict()) == job

    def test_schema_mismatch_rejected(self):
        raw = small_job().to_dict()
        raw["schema"] = "repro-campaign-v1"
        with pytest.raises(ConfigurationError, match="schema"):
            NetworkJob.from_dict(raw)


class TestExecuteJob:
    def test_returns_a_network_record_with_telemetry(self, executed):
        job, record = executed
        assert isinstance(record, NetworkRecord)
        assert record.job_digest == job.digest()
        assert record.telemetry is not None
        assert record.telemetry.cache_hit is False
        assert record.telemetry.events == record.events_processed

    def test_record_carries_the_fabric_measurements(self, executed):
        _job, record = executed
        assert set(record.links) == {"n0->n1", "n1->n2"}
        assert record.delivery_packets[TARGET_FLOW_ID] > 0
        assert record.churn is not None
        assert 0.0 <= record.blocking_probability() <= 1.0
        assert record.delay_percentile(TARGET_FLOW_ID, 50.0) > 0.0

    def test_one_link_job_records_its_deliveries(self):
        # One link, no churn: a single port.  Every packet it transmits
        # over the whole run is delivered, and the record carries the
        # end-to-end measurements of any other tandem.
        scenario = demo_tandem(
            hops=1, sim_time=1.0, seed=1, churn=False, delay_histograms=True
        )
        record = execute_job(NetworkJob(scenario))
        registry = MetricsRegistry()
        run_fabric(scenario, registry=registry)
        transmitted = registry.snapshot()["port.transmitted_packets"]
        assert transmitted > 0
        assert sum(record.delivery_packets.values()) == transmitted
        assert record.delivered_throughput(TARGET_FLOW_ID) > 0.0
        assert record.delay_percentile(TARGET_FLOW_ID, 50.0) > 0.0

    def test_record_round_trips(self, executed):
        _job, record = executed
        raw = record.to_dict()
        assert raw["schema"] == NETWORK_SCHEMA
        assert NetworkRecord.from_dict(raw) == record


class TestResultCache:
    def test_put_get_round_trip(self, executed, tmp_path):
        job, record = executed
        cache = ResultCache(tmp_path)
        cache.put(record)
        cached = cache.get(job.digest())
        assert isinstance(cached, NetworkRecord)
        assert cached == record

    def test_runner_replays_network_jobs_from_cache(self, tmp_path):
        jobs = [small_job(seed=seed) for seed in (1, 2)]
        cold = CampaignRunner(cache=ResultCache(tmp_path))
        first = cold.run(jobs)
        assert cold.last_stats.executed == 2
        warm = CampaignRunner(cache=ResultCache(tmp_path))
        second = warm.run(jobs)
        assert warm.last_stats.cache_hits == 2
        assert warm.last_stats.executed == 0
        assert second == first
        assert all(record.telemetry.cache_hit for record in second)


class TestParallelism:
    def test_parallel_run_matches_serial_blocking_probabilities(self):
        # Acceptance criterion: the same seeded churn jobs produce
        # identical records — blocking probabilities included — whether
        # simulated in-process or across a process pool.
        jobs = [small_job(seed=seed) for seed in (1, 2, 3)]
        serial = CampaignRunner(workers=1).run(jobs)
        parallel = CampaignRunner(workers=2).run(jobs)
        assert serial == parallel
        assert [r.blocking_probability() for r in serial] == [
            r.blocking_probability() for r in parallel
        ]

    def test_duplicate_jobs_simulate_once(self):
        runner = CampaignRunner()
        records = runner.run([small_job(seed=7), small_job(seed=7)])
        assert runner.last_stats.submitted == 2
        assert runner.last_stats.unique == 1
        assert records[0] is records[1]
