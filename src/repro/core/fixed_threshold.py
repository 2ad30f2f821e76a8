"""Fixed-partition threshold policy (Sections 2 and 3.2).

The buffer is *logically* partitioned: each flow has an occupancy
threshold and a packet is admitted iff

* it fits in the remaining buffer space, and
* it would not raise its flow's occupancy above the flow's threshold.

Enforcing the policy takes a constant number of operations per packet —
the property that makes the scheme scale to backbone flow counts.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.occupancy import BufferManager
from repro.errors import ConfigurationError, SimulationError

__all__ = ["FixedThresholdManager"]


class FixedThresholdManager(BufferManager):
    """Per-flow occupancy thresholds over a shared buffer.

    Args:
        capacity: total buffer size ``B`` in bytes.
        thresholds: mapping flow id -> occupancy threshold in bytes
            (typically from :func:`repro.core.thresholds.compute_thresholds`).
        default_threshold: threshold applied to flows absent from
            ``thresholds``; defaults to 0 (unknown flows are dropped),
            which is the safe choice for guaranteed-service buffers.
    """

    __slots__ = ("thresholds", "default_threshold")

    DROP_REASON = "threshold"

    has_flow_thresholds = True

    # Admission enforces occupancy + size <= threshold, so the
    # threshold is a hard cap the conformance monitor may check.
    enforces_thresholds = True

    def __init__(
        self,
        capacity: float,
        thresholds: Mapping[int, float],
        default_threshold: float = 0.0,
    ) -> None:
        super().__init__(capacity)
        for flow_id, threshold in thresholds.items():
            if threshold < 0:
                raise ConfigurationError(
                    f"threshold for flow {flow_id} must be non-negative, got {threshold}"
                )
        if default_threshold < 0:
            raise ConfigurationError(
                f"default threshold must be non-negative, got {default_threshold}"
            )
        self.thresholds = dict(thresholds)
        self.default_threshold = float(default_threshold)

    def threshold(self, flow_id: int) -> float:
        """Occupancy threshold applied to ``flow_id``."""
        return self.thresholds.get(flow_id, self.default_threshold)

    def reprovision(self, flow_id: int, threshold: float) -> None:
        """Install or change ``flow_id``'s threshold while live.

        Drain-safe: a shrinking threshold only binds future admissions;
        occupancy already above it departs normally.
        """
        if threshold < 0:
            raise ConfigurationError(
                f"threshold for flow {flow_id} must be non-negative, got {threshold}"
            )
        previous = self.threshold(flow_id)
        self.thresholds[flow_id] = threshold
        self._trace_reprovision(flow_id, threshold, previous)

    def retire(self, flow_id: int) -> None:
        """Withdraw the flow's threshold; queued packets still drain."""
        previous = self.thresholds.pop(flow_id, None)
        if previous is not None:
            self._trace_reprovision(flow_id, self.default_threshold, previous)
        super().retire(flow_id)

    def _reference_threshold(self, flow_id: int) -> float | None:
        return self.threshold(flow_id)

    # -- flat per-packet path ----------------------------------------------
    #
    # try_admit/on_depart inline the base template (predicate, charge,
    # release) into one frame each; _admits below is the same predicate
    # for the generic BufferManager template, which the differential
    # tests drive as the reference.

    def try_admit(self, flow_id: int, size: float) -> bool:
        """Admit iff the packet fits the buffer and the flow's threshold."""
        if size <= 0:
            raise SimulationError(f"packet size must be positive, got {size}")
        # Passing this capacity test is also the "admitted beyond
        # capacity" check of the template's charge: the charged total is
        # exactly the total tested here.
        total = self._total + size
        if total > self.capacity:
            return False
        occupancy = self._occupancy
        after = occupancy.get(flow_id, 0.0) + size
        if not after <= self.thresholds.get(flow_id, self.default_threshold):
            return False
        occupancy[flow_id] = after
        self._total = total
        if self._sink is not None:
            self._trace_occupancy_step(flow_id, after - size, after)
        return True

    def on_depart(self, flow_id: int, size: float) -> None:
        """Release the buffer space of a departing packet."""
        occupancy = self._occupancy
        remaining = occupancy.get(flow_id, 0.0) - size
        if remaining < -1e-6:
            raise SimulationError(
                f"flow {flow_id} occupancy went negative ({remaining}); "
                "departure without matching admission"
            )
        after = 0.0 if remaining < 0.0 else remaining
        occupancy[flow_id] = after
        total = self._total - size
        self._total = 0.0 if total < 0.0 else total
        if self._sink is not None:
            self._trace_occupancy_step(flow_id, after + size, after)
        retired = self._retired
        if retired and flow_id in retired and remaining <= 1e-9:
            occupancy.pop(flow_id, None)
            retired.discard(flow_id)

    def _admits(self, flow_id: int, size: float) -> bool:
        if self._total + size > self.capacity:
            return False
        return self.occupancy(flow_id) + size <= self.threshold(flow_id)
