"""Buffer sharing with headroom and holes (Section 3.3).

The fixed-partition scheme wastes buffer whenever a flow does not use its
reservation.  The paper's sharing variant keeps the same per-flow
thresholds but lets active flows borrow unused space, while a *headroom*
of up to ``H`` bytes is held back so flows still within their reservation
always find room.  The borrowable space is called *holes*.

Bookkeeping (quotes from the paper, Section 3.3):

* Free space is split between two counters with the invariant
  ``holes + headroom + total_occupancy == B`` and ``headroom <= H``.
* Arrival for a flow **within its reservation** (occupancy + L <= T):
  "we first attempt to use buffer space from the holes ... If the space
  from the holes is insufficient, then buffer space from the reserved
  headroom is used.  If the available space is still insufficient, the
  packet is dropped."  Because holes + headroom equals the free space,
  such packets are admitted exactly when they fit — the scheme is never
  stricter than fixed partitioning for in-profile traffic.
* Arrival for a flow **beyond its reservation**: served from holes only,
  "a packet is accepted only if the amount of buffer space occupied by
  the flow minus its reserved share is less than the amount of remaining
  space in the holes" — we enforce ``occupancy - T + L <= holes`` (and
  ``L <= holes``), so the extra space a flow grabs can never exceed the
  holes that remain.  A packet that would straddle the threshold is
  handled by this path.
* Departure of length L: ``headroom += L; holes += max(headroom - H, 0);
  headroom = min(headroom, H)`` — freed space refills the headroom first.

This mirrors the Dynamic Threshold scheme of Choudhury and Hahne, with the
flow-specific acceptance rule below threshold and the headroom cap as the
paper's stated differences.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.occupancy import BufferManager
from repro.errors import ConfigurationError, SimulationError
from repro.obs.events import HeadroomEvent

__all__ = ["SharedHeadroomManager"]


class SharedHeadroomManager(BufferManager):
    """Threshold-based buffer sharing with a protected headroom.

    Args:
        capacity: total buffer size ``B`` in bytes.
        thresholds: mapping flow id -> reserved threshold ``T_i`` in bytes
            (computed exactly as in the fixed-partition case).
        headroom: the cap ``H`` in bytes on the protected headroom.
        default_threshold: reservation applied to unknown flows
            (0 = unknown flows may only use holes).
    """

    __slots__ = ("thresholds", "default_threshold", "headroom_cap", "headroom", "holes")

    DROP_REASON = "shared-buffer"

    has_flow_thresholds = True

    def __init__(
        self,
        capacity: float,
        thresholds: Mapping[int, float],
        headroom: float,
        default_threshold: float = 0.0,
    ) -> None:
        super().__init__(capacity)
        if headroom < 0:
            raise ConfigurationError(f"headroom must be non-negative, got {headroom}")
        for flow_id, threshold in thresholds.items():
            if threshold < 0:
                raise ConfigurationError(
                    f"threshold for flow {flow_id} must be non-negative, got {threshold}"
                )
        self.thresholds = dict(thresholds)
        self.default_threshold = float(default_threshold)
        self.headroom_cap = float(headroom)
        self.headroom = min(self.headroom_cap, self.capacity)
        self.holes = self.capacity - self.headroom

    def threshold(self, flow_id: int) -> float:
        """Reserved threshold applied to ``flow_id``."""
        return self.thresholds.get(flow_id, self.default_threshold)

    def reprovision(self, flow_id: int, threshold: float) -> None:
        """Install or change ``flow_id``'s reserved threshold while live.

        The holes/headroom split tracks *free space*, not reservations,
        so no counter moves: a changed threshold only re-routes future
        admissions between the privileged (within-reservation) and the
        holes-only path.  Drain-safe as in the fixed-partition case.
        """
        if threshold < 0:
            raise ConfigurationError(
                f"threshold for flow {flow_id} must be non-negative, got {threshold}"
            )
        previous = self.threshold(flow_id)
        self.thresholds[flow_id] = threshold
        self._trace_reprovision(flow_id, threshold, previous)

    def retire(self, flow_id: int) -> None:
        """Withdraw the flow's reservation; queued packets still drain."""
        previous = self.thresholds.pop(flow_id, None)
        if previous is not None:
            self._trace_reprovision(flow_id, self.default_threshold, previous)
        super().retire(flow_id)

    def _reference_threshold(self, flow_id: int) -> float | None:
        return self.threshold(flow_id)

    def register_metrics(self, registry, **labels) -> None:
        super().register_metrics(registry, **labels)
        registry.gauge_callback("buffer.headroom", lambda: self.headroom, **labels)
        registry.gauge_callback("buffer.holes", lambda: self.holes, **labels)

    def _trace_headroom(self) -> None:
        self._sink.emit(
            HeadroomEvent(
                time=self._clock(),
                headroom=self.headroom,
                holes=self.holes,
                node=self._node,
            )
        )

    # -- flat per-packet path ----------------------------------------------
    #
    # try_admit/on_depart inline the base template and the holes/headroom
    # bookkeeping into one frame each.  _admits/_on_accept/_on_release
    # below are the same rules for the generic BufferManager template,
    # which the differential tests drive as the reference.

    def try_admit(self, flow_id: int, size: float) -> bool:
        """Admit per the Section-3.3 rules; move holes/headroom to match."""
        if size <= 0:
            raise SimulationError(f"packet size must be positive, got {size}")
        occupancy = self._occupancy
        before = occupancy.get(flow_id, 0.0)
        after = before + size
        threshold = self.thresholds.get(flow_id, self.default_threshold)
        holes = self.holes
        headroom = self.headroom
        within = after <= threshold
        if within:
            if not holes + headroom >= size:
                return False
        else:
            room = self._excess_room(flow_id)
            if not (size <= room and before - threshold + size <= room):
                return False
        total = self._total + size
        if total > self.capacity + 1e-6:
            raise SimulationError(
                f"policy {type(self).__name__} admitted beyond capacity "
                f"({total} > {self.capacity})"
            )
        occupancy[flow_id] = after
        self._total = total
        if within:
            # Privileged path: holes first, the remainder from headroom.
            from_holes = size if size < holes else holes
            holes -= from_holes
            headroom -= size - from_holes
            self.headroom = headroom
        else:
            holes -= size
        self.holes = holes
        # _check_counters' conditions, inlined; it raises with the details.
        if holes < -1e-6 or headroom < -1e-6 or abs(
            holes + headroom - (self.capacity - total)
        ) > 1e-3:
            self._check_counters()
        if self._sink is not None:
            self._trace_headroom()
            self._trace_occupancy_step(flow_id, after - size, after)
        return True

    def on_depart(self, flow_id: int, size: float) -> None:
        """Release a departing packet; freed space refills headroom first."""
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
        total = 0.0 if total < 0.0 else total
        self._total = total
        holes = self.holes
        headroom = self.headroom + size
        cap = self.headroom_cap
        if headroom > cap:
            holes += headroom - cap
            headroom = cap
            self.holes = holes
        self.headroom = headroom
        if holes < -1e-6 or headroom < -1e-6 or abs(
            holes + headroom - (self.capacity - total)
        ) > 1e-3:
            self._check_counters()
        if self._sink is not None:
            self._trace_headroom()
            self._trace_occupancy_step(flow_id, after + size, after)
        retired = self._retired
        if retired and flow_id in retired and remaining <= 1e-9:
            occupancy.pop(flow_id, None)
            retired.discard(flow_id)

    def _excess_room(self, flow_id: int) -> float:
        """Space a flow beyond its reservation may borrow: the holes."""
        return self.holes

    def _admits(self, flow_id: int, size: float) -> bool:
        occupancy = self.occupancy(flow_id)
        threshold = self.threshold(flow_id)
        if occupancy + size <= threshold:
            return self.holes + self.headroom >= size
        room = self._excess_room(flow_id)
        excess_after = occupancy - threshold + size
        return size <= room and excess_after <= room

    def _on_accept(self, flow_id: int, size: float) -> None:
        # Occupancy has already been charged, so "at or below threshold now"
        # identifies packets admitted through the privileged path: those may
        # take from holes first and the remainder from headroom.  Packets
        # that pushed the flow beyond its threshold were admitted from holes
        # only.
        if self.occupancy(flow_id) <= self.threshold(flow_id):
            from_holes = min(self.holes, size)
            self.holes -= from_holes
            self.headroom -= size - from_holes
        else:
            self.holes -= size
        self._check_counters()
        if self._sink is not None:
            self._trace_headroom()

    def _on_release(self, flow_id: int, size: float) -> None:
        self.headroom += size
        if self.headroom > self.headroom_cap:
            self.holes += self.headroom - self.headroom_cap
            self.headroom = self.headroom_cap
        self._check_counters()
        if self._sink is not None:
            self._trace_headroom()

    def _check_counters(self) -> None:
        if self.holes < -1e-6 or self.headroom < -1e-6:
            raise SimulationError(
                f"sharing counters went negative (holes={self.holes}, "
                f"headroom={self.headroom})"
            )
        expected_free = self.capacity - self._total
        if abs((self.holes + self.headroom) - expected_free) > 1e-3:
            raise SimulationError(
                "holes + headroom diverged from free space: "
                f"{self.holes} + {self.headroom} != {expected_free}"
            )
