"""Tier-1 gate on per-packet work: exact Python calls per emitted packet.

The four Table 1 scheme families run for 0.25 simulated seconds each
under ``sys.setprofile``, which sees every Python-level ``call`` event.
Calls are attributed to the ``repro`` module whose code ran and divided
by the packets the sources emitted (one ``Packet.acquire`` each).  The
counts are exact and host-independent, so this locks the flat per-packet
path (one frame per layer per packet, see DESIGN.md) without any timing
noise.

Measured on the flat path (seeds and configuration below, heap event
queue), calls per emitted packet:

    total 13.69 = core 1.88 + port 3.48 + engine 1.79 + sched 1.92
                + metrics 1.94 + sources 1.01 + shaper 0.95
                + other 0.72 (mostly the ``lambda: sim.now`` clock the
                  WFQ and hybrid schedulers call, built in
                  ``repro.experiments.schemes``)

The generic template path it replaced measured 25.53 in total, with
``core`` at 8.48.
"""

import os
import sys
from collections import Counter

import pytest

import repro
import repro.sim.packet as packet_module
from repro.experiments.runner import run_scenario
from repro.experiments.schemes import Scheme
from repro.experiments.workloads import CASE1_GROUPS, table1_flows
from repro.sim.packet import Packet
from repro.units import mbytes

SIM_TIME = 0.25
SEED = 20_240_611

FAMILIES = (
    (Scheme.FIFO_THRESHOLD, {}),
    (Scheme.FIFO_SHARING, {"headroom": mbytes(0.5)}),
    (Scheme.WFQ_THRESHOLD, {"delay_histograms": True}),
    (Scheme.HYBRID_SHARING, {"headroom": mbytes(0.5), "groups": CASE1_GROUPS}),
)

#: The measured 13.69 plus under 5 % headroom.
MAX_CALLS_PER_PACKET = 14.3
#: The buffer manager's budget: one frame per admission, one per
#: departure (the hybrid composite adds one more per packet).
MAX_CORE_CALLS_PER_PACKET = 3.0

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
ACQUIRE = Packet.acquire.__func__.__code__


def run_families():
    for index, (scheme, extra) in enumerate(FAMILIES):
        run_scenario(
            table1_flows(),
            scheme,
            mbytes(1.0),
            sim_time=SIM_TIME,
            warmup=0.0,
            seed=SEED + index,
            **extra,
        )


def counted_pass():
    """Python calls per code object over one run of the four families."""
    # The packet freelist is process-wide: start from the same (empty)
    # state so the allocation calls repeat exactly.
    packet_module._freelist.clear()
    counts = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            counts[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        run_families()
    finally:
        sys.setprofile(None)
    return counts


def module_of(code):
    filename = os.path.abspath(code.co_filename)
    if not filename.startswith(PACKAGE_DIR):
        return None
    relative = filename[len(PACKAGE_DIR):-len(".py")].replace(os.sep, ".")
    return "repro." + relative


def by_module(counts):
    modules = Counter()
    for code, calls in counts.items():
        module = module_of(code)
        if module is not None:
            modules[module] += calls
    return modules


@pytest.fixture(scope="module")
def passes():
    env = {key: os.environ.pop(key) for key in list(os.environ) if key.startswith("REPRO_")}
    try:
        # Warm once uncounted: first-use imports and caches would
        # otherwise land in the first counted pass only.
        run_families()
        return counted_pass(), counted_pass()
    finally:
        os.environ.update(env)


class TestHotPathCalls:
    def test_two_passes_count_identically(self, passes):
        first, second = passes
        assert by_module(first) == by_module(second)

    def test_calls_per_packet_stay_flat(self, passes):
        counts = passes[0]
        emitted = counts[ACQUIRE]
        assert emitted > 10_000
        modules = by_module(counts)
        per_packet = {name: calls / emitted for name, calls in sorted(modules.items())}
        total = sum(modules.values()) / emitted
        core = sum(per_packet[name] for name in per_packet if name.startswith("repro.core."))
        detail = ", ".join(f"{name} {value:.2f}" for name, value in per_packet.items())
        assert total <= MAX_CALLS_PER_PACKET, f"{total:.2f} calls/pkt: {detail}"
        assert core <= MAX_CORE_CALLS_PER_PACKET, f"core {core:.2f} calls/pkt: {detail}"
