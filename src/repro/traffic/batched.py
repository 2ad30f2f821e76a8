"""Batched pipeline: on-off generation and shaping in numpy blocks.

The scalar pipeline spends most of its source-side time in per-packet
Python bookkeeping: every emission is a callback that draws from the
burst state machine, and every conformant flow adds a
:class:`~repro.traffic.shaper.LeakyBucketShaper` whose refills and
release events double the event count on the shaping path.  This module
trades that for block computation:

* :func:`onoff_arrival_times` expands whole *blocks* of bursts — drawn
  from two child streams spawned off the flow's generator — into
  per-packet emission times with three numpy ops (``repeat`` +
  ``arange`` + ``cumsum``);
* :func:`shaped_release_times` is the leaky bucket solved in closed
  form: the token-bucket recursion with a capped bucket reduces, after a
  change of variable, to one ``cummax`` scan (see the function
  docstring), so a conformant flow's entire release schedule is
  computed without simulating a single shaper event;
* :class:`BatchedOnOffSource` replays the (optionally shaped) stream
  into a sink, one handle-free event per packet but zero per-packet
  draws, branches, or token arithmetic.

The batched path is **gated off by default**.  It is deterministic
given the seed and independent of the block size, but it is a
*different* random stream than the scalar pipeline — enabling it
changes measurement values (never their statistics), so the equivalence
goldens only cover the scalar path.  Set ``REPRO_BATCHED=1`` (read by
:func:`repro.experiments.config.batched_pipeline_enabled`) to switch
:func:`~repro.experiments.fabric.run_fabric`'s single-port pipeline
over; see ``docs/engine.md`` for the applicability limits.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.traffic.sources import DEFAULT_PACKET_SIZE

__all__ = [
    "onoff_arrival_times",
    "shaped_release_times",
    "BatchedOnOffSource",
]

#: Bursts expanded per generation block.  Large enough that the numpy
#: fixed costs amortise, small enough that short horizons do not draw
#: orders of magnitude more randomness than they replay.
DEFAULT_BLOCK_BURSTS = 512


def onoff_arrival_times(
    rng: np.random.Generator,
    *,
    peak_rate: float,
    avg_rate: float,
    mean_burst: float,
    until: float,
    packet_size: float = DEFAULT_PACKET_SIZE,
    start: float = 0.0,
    block_bursts: int = DEFAULT_BLOCK_BURSTS,
) -> np.ndarray:
    """Emission times of a Markov-modulated on-off stream on ``[start, until)``.

    Same process as :class:`~repro.traffic.sources.OnOffSource`:
    geometric bursts of back-to-back maximum-size packets at the peak
    rate, exponential OFF gaps sized for the long-run average rate, and
    a randomised initial phase.  Bursts and gaps come from two child
    streams spawned off ``rng`` (``rng.spawn(2)``: bursts, then gaps),
    so the result is deterministic given the seed and independent of
    ``block_bursts`` — but it is not the scalar source's stream.

    Returns a sorted float array of emission times, one per packet.
    """
    if not 0 < avg_rate <= peak_rate:
        raise ConfigurationError(
            f"need 0 < avg_rate <= peak_rate, got ({avg_rate}, {peak_rate})"
        )
    if mean_burst < packet_size:
        raise ConfigurationError(
            f"mean burst {mean_burst} smaller than one packet ({packet_size})"
        )
    if until <= start:
        return np.empty(0)
    if block_bursts < 1:
        raise ConfigurationError(f"block_bursts must be >= 1, got {block_bursts}")
    spacing = packet_size / peak_rate
    burst_p = min(1.0, packet_size / max(mean_burst, packet_size))
    mean_off = (mean_burst / peak_rate) * (peak_rate / avg_rate - 1.0)
    burst_rng, off_rng = rng.spawn(2)

    clock = start
    if mean_off > 0:
        clock += float(off_rng.exponential(mean_off))
    # Draw burst/gap blocks until the horizon is covered.  Burst i
    # starts one full burst + trailing spacing + gap after burst i-1
    # (the last packet "occupies" one spacing at peak rate before the
    # OFF period, exactly like the scalar source).  All arithmetic on
    # the emission times runs over the *concatenated* arrays below, so
    # float rounding — and therefore the result — is independent of
    # ``block_bursts``; the per-block running total here only decides
    # when to stop drawing, and any over-draw is filtered at the end.
    burst_blocks: list[np.ndarray] = []
    off_blocks: list[np.ndarray] = []
    bursts = offs = strides = np.empty(0)
    while clock + (float(strides.sum()) if strides.size else 0.0) < until:
        burst_blocks.append(burst_rng.geometric(burst_p, size=block_bursts))
        if mean_off > 0:
            off_blocks.append(off_rng.exponential(mean_off, size=block_bursts))
        else:
            off_blocks.append(np.zeros(block_bursts))
        # Recomputed over the concatenation each round (cheap next to
        # the draws): summing the same array always rounds the same
        # way, where a per-block running total would not.
        bursts = np.concatenate(burst_blocks)
        offs = np.concatenate(off_blocks)
        strides = bursts * spacing + offs
    if not burst_blocks:
        return np.empty(0)
    starts = clock + np.concatenate(([0.0], np.cumsum(strides)[:-1]))
    total = int(bursts.sum())
    burst_base = np.repeat(starts, bursts)
    within = np.arange(total) - np.repeat(np.cumsum(bursts) - bursts, bursts)
    times = burst_base + within * spacing
    return times[times < until]


def shaped_release_times(
    times: np.ndarray,
    sizes: np.ndarray | float,
    sigma: float,
    rho: float,
    *,
    start: float = 0.0,
) -> np.ndarray:
    """Exact leaky-bucket release schedule, one ``cummax`` scan.

    Solves the same system as
    :class:`~repro.traffic.shaper.LeakyBucketShaper` — a ``(sigma,
    rho)`` token bucket that starts full at ``start``, refills
    continuously, caps at ``sigma``, and releases FIFO as early as the
    tokens allow.  The per-packet recursion over release time ``d_i``
    and bucket-empty time ``X_i``

        d_i = max(a_i, X_{i-1} + s_i / rho)
        X_i = max(d_i - (sigma - s_i) / rho,  X_{i-1} + s_i / rho)

    becomes, after substituting ``Y_i = X_i - cumsum(s)_i / rho``,

        Y_i = max(a_i - (sigma - s_i) / rho - cumsum(s)_i / rho,  Y_{i-1})

    — a plain running maximum, which numpy evaluates as
    ``np.maximum.accumulate`` over the whole stream at once.  Unlike
    the from-zero formula ``(cumsum(s) - sigma) / rho`` this keeps the
    bucket *cap*: credit earned during an idle period saturates at
    ``sigma`` instead of accumulating without bound.
    """
    if sigma <= 0 or rho <= 0:
        raise ConfigurationError(
            f"sigma and rho must be positive, got ({sigma}, {rho})"
        )
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        return np.empty(0)
    sizes = np.broadcast_to(np.asarray(sizes, dtype=float), times.shape)
    if float(sizes.max()) > sigma:
        raise ConfigurationError(
            f"packet of {float(sizes.max())} bytes can never conform to "
            f"sigma={sigma}"
        )
    cum = np.cumsum(sizes)
    y = np.maximum.accumulate(times - (sigma - sizes) / rho - cum / rho)
    # Y_{i-1} with the initial state Y_{-1} = start - sigma/rho (a full
    # bucket at the start instant).
    y_prev = np.empty_like(y)
    y_prev[0] = start - sigma / rho
    y_prev[1:] = y[:-1]
    return np.maximum(times, y_prev + cum / rho)


class BatchedOnOffSource:
    """Replay a block-precomputed (optionally shaped) on-off stream.

    A drop-in source for finite-horizon runs: emits the same *process*
    as ``OnOffSource`` (different stream, see module docstring), and
    with ``shaping=(sigma, rho)`` emits the already-shaped release
    schedule directly — the chain ``source -> shaper -> port`` collapses
    to ``replay -> port`` with zero shaper events.

    The replay costs one handle-free event per packet (packets must
    still interleave with the port at their true sim times), but the
    callback is a bare array walk: no draws, no token arithmetic, no
    burst branching.

    Args:
        sim: simulation engine.
        flow_id: id stamped on emitted packets.
        peak_rate / avg_rate / mean_burst: the on-off process, as for
            :class:`~repro.traffic.sources.OnOffSource`.
        sink: downstream ``receive(packet)`` target.
        rng: numpy generator; two child streams are spawned off it.
        until: end of the horizon — required, the whole schedule is
            materialised up front (the batched pipeline's one structural
            limit; see ``docs/engine.md``).
        shaping: optional ``(sigma, rho)`` leaky-bucket envelope applied
            via :func:`shaped_release_times`.
        packet_size: bytes per packet.
        start: time of the first burst decision.
        block_bursts: generation block size (result-invariant).
    """

    __slots__ = (
        "sim",
        "flow_id",
        "sink",
        "packet_size",
        "until",
        "emitted_packets",
        "emitted_bytes",
        "shaped_packets",
        "_times",
        "_i",
    )

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        peak_rate: float,
        avg_rate: float,
        mean_burst: float,
        sink,
        rng: np.random.Generator,
        until: float,
        shaping: tuple[float, float] | None = None,
        packet_size: float = DEFAULT_PACKET_SIZE,
        start: float = 0.0,
        block_bursts: int = DEFAULT_BLOCK_BURSTS,
    ) -> None:
        if until is None:
            raise ConfigurationError(
                "BatchedOnOffSource needs a finite horizon (until=...)"
            )
        self.sim = sim
        self.flow_id = flow_id
        self.sink = sink
        self.packet_size = float(packet_size)
        self.until: float | None = float(until)
        self.emitted_packets = 0
        self.emitted_bytes = 0.0
        times = onoff_arrival_times(
            rng,
            peak_rate=peak_rate,
            avg_rate=avg_rate,
            mean_burst=mean_burst,
            until=until,
            packet_size=packet_size,
            start=start,
            block_bursts=block_bursts,
        )
        if shaping is not None:
            sigma, rho = shaping
            times = shaped_release_times(
                times, self.packet_size, sigma, rho, start=start
            )
            times = times[times < until]
        self.shaped_packets = int(times.size) if shaping is not None else 0
        self._times = times
        self._i = 0
        if times.size:
            sim.schedule_at(float(times[0]), self._emit)

    @property
    def scheduled_packets(self) -> int:
        """Packets in the materialised schedule (emitted + pending)."""
        return int(self._times.size)

    def stop(self) -> None:
        """Silence the source from the current instant onwards."""
        self.until = self.sim.now

    def _emit(self) -> None:
        if self.until is not None and self.sim.now >= self.until:
            return
        packet = Packet.acquire(self.flow_id, self.packet_size, self.sim.now)
        self.emitted_packets += 1
        self.emitted_bytes += packet.size
        self.sink.receive(packet)
        i = self._i + 1
        self._i = i
        if i < self._times.size:
            self.sim.schedule_fast(float(self._times[i]) - self.sim.now, self._emit)
