"""Batched pipeline: block generation, closed-form shaping, gating.

``repro.traffic.batched`` replaces the per-packet source/shaper event
chains with numpy block computation.  The load-bearing claims, each
pinned here:

* the closed-form leaky bucket (``shaped_release_times``) is *exact* —
  it must match the event-driven :class:`LeakyBucketShaper` release for
  release, including the bucket cap after idle periods;
* block generation is deterministic and block-size invariant;
* the pipeline is gated off by default and ``REPRO_BATCHED`` switches
  the single-port fabric over, deterministically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import BATCHED_ENV_VAR, batched_pipeline_enabled
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.traffic.batched import (
    BatchedOnOffSource,
    onoff_arrival_times,
    shaped_release_times,
)
from repro.traffic.shaper import LeakyBucketShaper
from repro.units import mbps

PACKET = 1000.0


class Recorder:
    """Sink that records (time, flow_id, size) per received packet."""

    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def receive(self, packet):
        self.received.append((self.sim.now, packet.flow_id, packet.size))


def _scalar_release_times(arrivals, sigma, rho, size=PACKET):
    """Release schedule of the event-driven shaper for the same input."""
    sim = Simulator()
    sink = Recorder(sim)
    shaper = LeakyBucketShaper(sim, sigma, rho, sink)

    def feed():
        shaper.receive(Packet.acquire(0, size, sim.now))

    for t in arrivals:
        sim.schedule_at(float(t), feed)
    sim.run()
    return [t for t, _fid, _size in sink.received]


class TestGeneration:
    KW = dict(
        peak_rate=mbps(48.0),
        avg_rate=mbps(12.0),
        mean_burst=8 * PACKET,
        until=5.0,
        packet_size=PACKET,
    )

    def test_deterministic_given_seed(self):
        a = onoff_arrival_times(np.random.default_rng(7), **self.KW)
        b = onoff_arrival_times(np.random.default_rng(7), **self.KW)
        assert np.array_equal(a, b)
        assert a.size > 0

    def test_block_size_does_not_change_the_stream(self):
        reference = onoff_arrival_times(
            np.random.default_rng(7), block_bursts=512, **self.KW
        )
        for block in (1, 3, 64, 4096):
            got = onoff_arrival_times(
                np.random.default_rng(7), block_bursts=block, **self.KW
            )
            assert np.array_equal(got, reference), f"block_bursts={block}"

    def test_times_sorted_and_inside_horizon(self):
        times = onoff_arrival_times(np.random.default_rng(3), **self.KW)
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= 0.0
        assert times[-1] < self.KW["until"]

    def test_peak_rate_bounds_intra_burst_spacing(self):
        times = onoff_arrival_times(np.random.default_rng(3), **self.KW)
        spacing = PACKET / self.KW["peak_rate"]
        # No two packets closer than the peak-rate spacing (up to float).
        assert np.all(np.diff(times) >= spacing * (1 - 1e-9))

    def test_long_run_rate_approaches_average(self):
        kw = dict(self.KW, until=200.0)
        times = onoff_arrival_times(np.random.default_rng(11), **kw)
        rate = times.size * PACKET / kw["until"]
        assert rate == pytest.approx(kw["avg_rate"], rel=0.15)

    def test_empty_horizon_is_empty(self):
        assert onoff_arrival_times(
            np.random.default_rng(0), **dict(self.KW, until=0.0)
        ).size == 0

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            onoff_arrival_times(rng, **dict(self.KW, avg_rate=mbps(96.0)))
        with pytest.raises(ConfigurationError):
            onoff_arrival_times(rng, **dict(self.KW, mean_burst=PACKET / 2))
        with pytest.raises(ConfigurationError):
            onoff_arrival_times(rng, block_bursts=0, **self.KW)


class TestShapedReleaseTimes:
    SIGMA = 4 * PACKET
    RHO = mbps(8.0)

    def test_matches_event_driven_shaper_on_random_stream(self):
        arrivals = onoff_arrival_times(
            np.random.default_rng(5),
            peak_rate=mbps(48.0),
            avg_rate=mbps(12.0),
            mean_burst=8 * PACKET,
            until=3.0,
            packet_size=PACKET,
        )
        closed = shaped_release_times(arrivals, PACKET, self.SIGMA, self.RHO)
        scalar = _scalar_release_times(arrivals, self.SIGMA, self.RHO)
        assert len(scalar) == closed.size
        np.testing.assert_allclose(closed, scalar, rtol=1e-9, atol=1e-7)

    def test_bucket_cap_after_idle_period(self):
        # A long idle gap must not earn more than sigma of credit: after
        # the gap only 4 packets (the bucket) pass back-to-back, the
        # rest wait for tokens.  The from-zero cumsum formula gets this
        # wrong; the event-driven shaper is the referee.
        burst = np.array([10.0 + i * 1e-4 for i in range(8)])
        arrivals = np.concatenate(([0.0], burst))
        closed = shaped_release_times(arrivals, PACKET, self.SIGMA, self.RHO)
        scalar = _scalar_release_times(arrivals, self.SIGMA, self.RHO)
        np.testing.assert_allclose(closed, scalar, rtol=1e-9, atol=1e-7)
        # Tokens for packets beyond the bucket arrive at rho.
        assert closed[-1] >= 10.0 + (8 - 4) * PACKET / self.RHO - 1e-6

    def test_conformant_stream_passes_untouched(self):
        arrivals = np.arange(20) * (PACKET / self.RHO) * 2.0
        released = shaped_release_times(arrivals, PACKET, self.SIGMA, self.RHO)
        np.testing.assert_allclose(released, arrivals)

    def test_releases_never_precede_arrivals(self):
        arrivals = np.sort(np.random.default_rng(9).uniform(0, 1.0, 200))
        released = shaped_release_times(arrivals, PACKET, self.SIGMA, self.RHO)
        assert np.all(released >= arrivals - 1e-12)
        assert np.all(np.diff(released) >= -1e-12)

    def test_start_offset_means_full_bucket_at_start(self):
        arrivals = np.array([2.0, 2.0, 2.0, 2.0])
        released = shaped_release_times(
            arrivals, PACKET, 4 * PACKET, self.RHO, start=2.0
        )
        np.testing.assert_allclose(released, arrivals)

    def test_empty_input(self):
        assert shaped_release_times(
            np.empty(0), PACKET, self.SIGMA, self.RHO
        ).size == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            shaped_release_times(np.array([0.0]), PACKET, 0.0, self.RHO)
        with pytest.raises(ConfigurationError):
            shaped_release_times(np.array([0.0]), PACKET, self.SIGMA, 0.0)
        with pytest.raises(ConfigurationError):
            shaped_release_times(np.array([0.0]), 2 * self.SIGMA, self.SIGMA, self.RHO)


class TestBatchedOnOffSource:
    KW = dict(
        peak_rate=mbps(48.0),
        avg_rate=mbps(12.0),
        mean_burst=8 * PACKET,
        packet_size=PACKET,
    )

    def _replay(self, shaping=None, until=2.0, seed=13):
        sim = Simulator()
        sink = Recorder(sim)
        source = BatchedOnOffSource(
            sim,
            flow_id=4,
            sink=sink,
            rng=np.random.default_rng(seed),
            until=until,
            shaping=shaping,
            **self.KW,
        )
        sim.run(until=until)
        return source, sink

    def test_replays_the_precomputed_schedule_exactly(self):
        times = onoff_arrival_times(
            np.random.default_rng(13), until=2.0, **self.KW
        )
        source, sink = self._replay()
        assert source.scheduled_packets == times.size
        assert source.emitted_packets == times.size
        assert [t for t, _f, _s in sink.received] == pytest.approx(times.tolist())
        assert all(fid == 4 and size == PACKET for _t, fid, size in sink.received)
        assert source.emitted_bytes == times.size * PACKET

    def test_shaping_collapses_the_chain(self):
        sigma, rho = 4 * PACKET, mbps(8.0)
        source, sink = self._replay(shaping=(sigma, rho))
        assert source.shaped_packets == len(sink.received)
        released = np.array([t for t, _f, _s in sink.received])
        arrivals = onoff_arrival_times(
            np.random.default_rng(13), until=2.0, **self.KW
        )
        expected = shaped_release_times(arrivals, PACKET, sigma, rho)
        expected = expected[expected < 2.0]
        np.testing.assert_allclose(released, expected)

    def test_stop_silences_the_source(self):
        sim = Simulator()
        sink = Recorder(sim)
        source = BatchedOnOffSource(
            sim,
            flow_id=1,
            sink=sink,
            rng=np.random.default_rng(13),
            until=2.0,
            **self.KW,
        )
        sim.schedule_at(1.0, source.stop)
        sim.run(until=2.0)
        assert source.emitted_packets < source.scheduled_packets
        assert all(t <= 1.0 for t, _f, _s in sink.received)

    def test_requires_finite_horizon(self):
        with pytest.raises(ConfigurationError, match="finite horizon"):
            BatchedOnOffSource(
                Simulator(),
                flow_id=1,
                sink=None,
                rng=np.random.default_rng(0),
                until=None,
                **self.KW,
            )


class TestGating:
    @pytest.mark.parametrize("raw", ["", "0", "false", "no", " 0 "])
    def test_off_values(self, raw, monkeypatch):
        monkeypatch.setenv(BATCHED_ENV_VAR, raw)
        assert not batched_pipeline_enabled()

    @pytest.mark.parametrize("raw", ["1", "true", "yes", "on"])
    def test_on_values(self, raw, monkeypatch):
        monkeypatch.setenv(BATCHED_ENV_VAR, raw)
        assert batched_pipeline_enabled()

    def test_unset_means_off(self, monkeypatch):
        monkeypatch.delenv(BATCHED_ENV_VAR, raising=False)
        assert not batched_pipeline_enabled()


class TestFabricIntegration:
    """REPRO_BATCHED swaps the single-port pipeline over, deterministically."""

    @staticmethod
    def _run(seed=1):
        from repro.experiments.runner import run_scenario
        from repro.experiments.schemes import Scheme
        from repro.experiments.workloads import table1_flows
        from repro.units import mbytes

        result = run_scenario(
            table1_flows(),
            Scheme.FIFO_THRESHOLD,
            mbytes(1),
            seed=seed,
            sim_time=1.0,
            warmup=0.1,
        )
        return {
            fid: (fs.offered_packets, fs.dropped_packets, fs.departed_packets)
            for fid, fs in result.flow_stats.items()
        }

    def test_batched_run_is_deterministic(self, monkeypatch):
        monkeypatch.setenv(BATCHED_ENV_VAR, "1")
        assert self._run() == self._run()

    def test_batched_stream_differs_from_scalar(self, monkeypatch):
        # Same process, different (equally valid) random stream — which
        # is exactly why the pipeline is opt-in and the goldens pin only
        # the scalar path.
        monkeypatch.setenv(BATCHED_ENV_VAR, "1")
        batched = self._run()
        monkeypatch.delenv(BATCHED_ENV_VAR)
        scalar = self._run()
        assert set(batched) == set(scalar)
        assert batched != scalar
        assert sum(c[0] for c in batched.values()) > 0
