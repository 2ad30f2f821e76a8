"""Micro-benchmark: the batched source pipeline.

A block-generated, closed-form-shaped on-off source replayed into a
null sink — the whole per-flow source/shaper chain of
``repro.traffic.batched`` in one event per packet.  The engine's own
push, pop, cancel and compaction costs are measured in
``bench_micro_engine.py``.
"""

import numpy as np

from repro.sim.engine import Simulator
from repro.traffic.batched import BatchedOnOffSource
from repro.units import mbps


def test_batched_pipeline_replay(benchmark):
    """Block-generated, closed-form-shaped source replayed into a sink."""

    class Sink:
        __slots__ = ("count",)

        def __init__(self):
            self.count = 0

        def receive(self, packet):
            self.count += 1

    def run() -> int:
        sim = Simulator()
        sink = Sink()
        BatchedOnOffSource(
            sim,
            flow_id=1,
            peak_rate=mbps(48.0),
            avg_rate=mbps(12.0),
            mean_burst=8_000.0,
            sink=sink,
            rng=np.random.default_rng(7),
            until=60.0,
            shaping=(4_000.0, mbps(16.0)),
        )
        sim.run(until=60.0)
        return sink.count

    emitted = benchmark(run)
    assert emitted > 1_000
