"""Per-flow buffer occupancy accounting.

Every buffer-management policy in the paper admits or drops packets based
on two pieces of state: the flow's own occupancy and some global quantity
(total occupancy, free space, hole count...).  :class:`BufferManager`
centralises that accounting so each policy only implements its admission
predicate plus any extra counters.

The contract with the output port is:

* ``try_admit(flow_id, size)`` — called on packet arrival; returns True
  and charges the occupancy if the packet is accepted, returns False (and
  changes nothing) if it must be dropped;
* ``on_depart(flow_id, size)`` — called when the packet finishes
  transmission and its buffer space is released.

Both are O(1) for every policy here, which is the paper's scalability
argument: admission needs constant state and constant work per packet.
The base class implements them as a template over the ``_admits`` /
``_charge`` / ``_on_accept`` / ``_on_release`` hooks.  The paper's own
policies (fixed thresholds, headroom sharing) override both with flat
one-frame versions of the same template; the tests hold them to it.

Runtime reprovisioning extends the contract for dynamic-provisioning
scenarios (churn with reclamation, see :mod:`repro.core.pool`):

* ``reprovision(flow_id, threshold)`` — change a flow's admission
  threshold while the run is live.  Only policies with per-flow
  thresholds support it (``has_flow_thresholds`` is True); the base
  class refuses.
* ``retire(flow_id)`` — the flow is gone for good: withdraw its
  threshold (subclasses) and schedule its occupancy entry for cleanup
  once its queued packets drain.

Both are **drain-safe**: occupancy above a shrunken (or withdrawn)
threshold is never evicted — admission predicates only bind *future*
arrivals, and departures never consult the threshold, so in-flight
packets depart normally.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar

from repro.errors import ConfigurationError, SimulationError
from repro.obs.events import ReprovisionEvent, ThresholdCrossEvent

__all__ = ["BufferManager"]


class BufferManager(ABC):
    """Base class for buffer-admission policies over a shared buffer.

    Args:
        capacity: total buffer size ``B`` in bytes.  Must be positive.
    """

    __slots__ = (
        "capacity",
        "_occupancy",
        "_total",
        "_sink",
        "_clock",
        "_node",
        "_retired",
    )

    #: How :meth:`drop_reason` labels policy (non-capacity) rejections;
    #: subclasses override with their mechanism name.
    DROP_REASON = "policy"

    #: Whether the policy keeps a per-flow threshold that
    #: :meth:`reprovision` can change at run time.  Replaces the old
    #: duck-typed ``getattr(manager, "thresholds", None)`` probing.
    has_flow_thresholds: ClassVar[bool] = False

    #: Whether the per-flow threshold is a *hard* occupancy cap — a
    #: flow's occupancy can never exceed ``threshold(flow_id)`` outside
    #: a drain-safe reprovision window.  True only for strict
    #: partitioning (Prop. 2): sharing schemes deliberately let flows
    #: borrow past their threshold, and dynamic thresholds move under a
    #: flow's feet.  The live conformance monitor only arms its
    #: occupancy-vs-threshold check when this is True.
    enforces_thresholds: ClassVar[bool] = False

    def __init__(self, capacity: float):
        if capacity <= 0:
            raise ConfigurationError(f"buffer capacity must be positive, got {capacity}")
        self.capacity = float(capacity)
        self._occupancy: dict[int, float] = {}
        self._total = 0.0
        self._sink = None
        self._clock = None
        self._node = ""
        self._retired: set[int] | None = None

    @property
    def total_occupancy(self) -> float:
        """Bytes currently held in the buffer across all flows."""
        return self._total

    @property
    def free_space(self) -> float:
        """Unused buffer bytes."""
        return self.capacity - self._total

    def occupancy(self, flow_id: int) -> float:
        """Bytes currently buffered for ``flow_id``."""
        return self._occupancy.get(flow_id, 0.0)

    # -- observability ---------------------------------------------------

    def attach_trace(self, sink, clock, node: str = "") -> None:
        """Emit threshold-cross (and subclass) events into ``sink``.

        Args:
            sink: a :class:`~repro.obs.sink.TraceSink`, or ``None`` to
                detach.
            clock: zero-argument callable returning simulation time
                (managers have no engine reference of their own).
            node: hop label stamped on emitted events in multi-node runs.
        """
        if sink is not None and clock is None:
            raise ConfigurationError("attach_trace needs a clock with its sink")
        self._sink = sink
        self._clock = clock
        self._node = node

    def register_metrics(self, registry, **labels) -> None:
        """Expose occupancy accounting through a metrics registry."""
        registry.gauge_callback(
            "buffer.total_occupancy", lambda: self._total, **labels
        )
        registry.gauge_callback(
            "buffer.free_space", lambda: self.capacity - self._total, **labels
        )
        registry.gauge_callback(
            "buffer.active_flows",
            lambda: sum(1 for value in self._occupancy.values() if value > 0),
            **labels,
        )

    def drop_reason(self, flow_id: int, size: float) -> str:
        """Classify the rejection :meth:`try_admit` just returned.

        Called by the port only on the traced drop path, never during
        admission itself.  The default distinguishes a genuinely full
        buffer from the policy's own predicate; subclasses set
        :attr:`DROP_REASON` (or override) to name their mechanism.
        """
        if self._total + size > self.capacity:
            return "buffer-full"
        return self.DROP_REASON

    def _reference_threshold(self, flow_id: int) -> float | None:
        """The admission threshold traced for ``flow_id``, if any.

        ``None`` (the default) means the policy has no per-flow threshold
        to cross, so no :class:`ThresholdCrossEvent` is ever emitted.
        """
        return None

    def _trace_occupancy_step(self, flow_id: int, before: float, after: float) -> None:
        """Emit a ThresholdCrossEvent when [before, after] straddles T.

        "Up" means the flow *reached or exceeded* its threshold
        (``before < T <= after``) — admission caps occupancy at exactly
        ``T``, so a strict-exceed predicate would never fire.  "Down"
        mirrors it: the flow fell back below ``T``.
        """
        threshold = self._reference_threshold(flow_id)
        if threshold is None:
            return
        if before < threshold <= after:
            self._sink.emit(
                ThresholdCrossEvent(
                    time=self._clock(),
                    flow_id=flow_id,
                    occupancy=after,
                    threshold=threshold,
                    direction="up",
                    node=self._node,
                )
            )
        elif after < threshold <= before:
            self._sink.emit(
                ThresholdCrossEvent(
                    time=self._clock(),
                    flow_id=flow_id,
                    occupancy=after,
                    threshold=threshold,
                    direction="down",
                    node=self._node,
                )
            )

    # -- runtime reprovisioning -------------------------------------------

    def reprovision(self, flow_id: int, threshold: float) -> None:
        """Change ``flow_id``'s admission threshold while live.

        The base class has no per-flow thresholds to change; policies
        that do (``has_flow_thresholds``) override this.  The change is
        drain-safe by construction: thresholds only gate admission, so
        occupancy above a shrunken value simply drains.
        """
        raise ConfigurationError(
            f"{type(self).__name__} has no per-flow thresholds to reprovision"
        )

    def retire(self, flow_id: int) -> None:
        """The flow departed for good: release its accounting state.

        The occupancy entry is dropped immediately when the flow has no
        queued bytes, otherwise once its last packet departs — queued
        packets are never stranded or retro-dropped.  Subclasses with
        per-flow thresholds also withdraw the threshold.
        """
        if self._occupancy.get(flow_id, 0.0) <= 0.0:
            self._occupancy.pop(flow_id, None)
        else:
            if self._retired is None:
                self._retired = set()
            self._retired.add(flow_id)

    def _trace_reprovision(self, flow_id: int, threshold: float, previous: float) -> None:
        """Emit a ReprovisionEvent when a sink is attached."""
        if self._sink is not None and threshold != previous:
            self._sink.emit(
                ReprovisionEvent(
                    time=self._clock(),
                    flow_id=flow_id,
                    threshold=threshold,
                    previous=previous,
                    node=self._node,
                )
            )

    # -- admission contract ----------------------------------------------

    def try_admit(self, flow_id: int, size: float) -> bool:
        """Admit the packet if the policy allows it; charge occupancy."""
        if size <= 0:
            raise SimulationError(f"packet size must be positive, got {size}")
        if not self._admits(flow_id, size):
            return False
        self._charge(flow_id, size)
        if self._sink is not None:
            after = self._occupancy.get(flow_id, 0.0)
            self._trace_occupancy_step(flow_id, after - size, after)
        return True

    def on_depart(self, flow_id: int, size: float) -> None:
        """Release the buffer space of a departing packet."""
        occupancy = self._occupancy.get(flow_id, 0.0) - size
        if occupancy < -1e-6:
            raise SimulationError(
                f"flow {flow_id} occupancy went negative ({occupancy}); "
                "departure without matching admission"
            )
        self._occupancy[flow_id] = max(occupancy, 0.0)
        self._total = max(self._total - size, 0.0)
        self._on_release(flow_id, size)
        if self._sink is not None:
            after = max(occupancy, 0.0)
            self._trace_occupancy_step(flow_id, after + size, after)
        # A retired flow's entry is reclaimed the moment it drains; the
        # empty-set guard keeps the cost off the common (no-churn) path.
        if self._retired and flow_id in self._retired and occupancy <= 1e-9:
            self._occupancy.pop(flow_id, None)
            self._retired.discard(flow_id)

    def _charge(self, flow_id: int, size: float) -> None:
        new_total = self._total + size
        if new_total > self.capacity + 1e-6:
            raise SimulationError(
                f"policy {type(self).__name__} admitted beyond capacity "
                f"({new_total} > {self.capacity})"
            )
        self._occupancy[flow_id] = self._occupancy.get(flow_id, 0.0) + size
        self._total = new_total
        self._on_accept(flow_id, size)

    @abstractmethod
    def _admits(self, flow_id: int, size: float) -> bool:
        """Policy predicate: may this packet enter the buffer?"""

    def _on_accept(self, flow_id: int, size: float) -> None:
        """Hook for policies with extra counters (holes, headroom...)."""

    def _on_release(self, flow_id: int, size: float) -> None:
        """Hook mirroring :meth:`_on_accept` on departures."""
