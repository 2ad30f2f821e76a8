"""Discrete-event simulation engine.

A deliberately small, fast core: the :class:`Simulator` owns the clock,
a shared sequence counter and a lazy-delete binary heap of pending
entries.  Entries are ``(time, sequence, callback, args, handle)``
tuples: the sequence number breaks ties so that events scheduled for the
same instant fire in scheduling order, which makes runs deterministic
for a given seed.  The ``handle`` slot is an :class:`Event` for
cancellable events and ``None`` for events scheduled through the
:meth:`Simulator.schedule_fast` hot path — the per-packet traffic of a
simulation never cancels, so it never pays for the allocation of a
cancellation handle.

Components (sources, shapers, ports) hold a reference to the
:class:`Simulator` and schedule their own callbacks; there is no global
registry.  The engine knows nothing about packets or networking.
"""

from __future__ import annotations

from functools import partial
from heapq import heapify, heappop, heappush
from math import inf
from typing import Any, Callable

from repro.errors import SimulationError
from repro.obs.events import HeapCompactEvent

__all__ = ["COMPACT_MIN_PENDING", "Event", "Simulator"]

#: Smallest heap worth compacting; below this lazy deletion is cheaper
#: than a rebuild.
COMPACT_MIN_PENDING = 64


class Event:
    """Handle for a scheduled callback.

    Returned by :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`;
    the only supported operation is :meth:`cancel`.  Cancelled events stay
    queued but are skipped when reached (lazy deletion); the simulator
    purges them wholesale once they dominate the pending population.
    Events scheduled via :meth:`Simulator.schedule_fast` have no handle
    and cannot be cancelled.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "fired", "_sim")

    def __init__(
        self, time: float, fn: Callable[..., Any], args: tuple, sim: "Simulator | None" = None
    ):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing. Idempotent.

        Cancelling an event that has already fired is a no-op: the entry
        left the queue when it fired, so counting it as cancelled-pending
        would leak phantom weight into the compaction trigger (teardown
        code routinely cancels timers without knowing whether they beat
        it to the clock).
        """
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancelled()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"Event(t={self.time:.6f}, fn={name}, {state})"


class Simulator:
    """Event loop with a monotonically advancing clock.

    Usage::

        sim = Simulator()
        sim.schedule(1.0, callback, arg1, arg2)
        sim.run(until=10.0)

    Hot paths that never cancel (per-packet emissions, transmission
    completions) should use :meth:`schedule_fast`, which skips the
    :class:`Event` handle allocation entirely.
    """

    __slots__ = (
        "now",
        "_heap",
        "_push",
        "_seq",
        "_events_processed",
        "_cancelled",
        "_compactions",
        "_sink",
    )

    #: The event structure, reported in run provenance.  The binary heap
    #: is the only one.
    equeue_backend = "heap"

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple] = []
        # A C-level callable for the scheduling hot path.  Compaction
        # rebuilds the list in place, so this alias never goes stale.
        self._push = partial(heappush, self._heap)
        self._seq: int = 0
        self._events_processed: int = 0
        self._cancelled: int = 0
        self._compactions: int = 0
        self._sink = None

    @property
    def events_processed(self) -> int:
        """Number of events that have fired (cancelled ones excluded)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still queued, including cancelled ones."""
        return len(self._heap)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying queue slots."""
        return self._cancelled

    @property
    def compactions(self) -> int:
        """Times the queue was rebuilt to purge cancelled events."""
        return self._compactions

    def attach_trace(self, sink) -> None:
        """Emit engine events (heap compactions) into ``sink``.

        Pass ``None`` to detach.  Untraced simulators pay a single
        ``is not None`` check per compaction and nothing per event.
        """
        self._sink = sink

    def register_metrics(self, registry, **labels) -> None:
        """Expose the engine's counters through a metrics registry.

        Callback gauges sample the live attributes at snapshot time, so
        the event loop keeps its plain-int hot path.
        """
        registry.gauge_callback(
            "sim.events_processed", lambda: self._events_processed, **labels
        )
        registry.gauge_callback("sim.pending", lambda: len(self._heap), **labels)
        registry.gauge_callback(
            "sim.cancelled_pending", lambda: self._cancelled, **labels
        )
        registry.gauge_callback("sim.compactions", lambda: self._compactions, **labels)
        registry.gauge_callback("sim.now", lambda: self.now, **labels)

    def _note_cancelled(self) -> None:
        """Bookkeeping hook called by :meth:`Event.cancel`.

        Cancel-heavy workloads (shapers, adaptive managers) would
        otherwise grow the heap without bound: lazily-deleted events are
        only reclaimed when their time is reached.  Compact once more
        than half of a non-trivial heap is dead weight.
        """
        self._cancelled += 1
        heap_size = len(self._heap)
        if heap_size >= COMPACT_MIN_PENDING and self._cancelled * 2 > heap_size:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify the survivors.

        The ``(time, seq)`` keys of live entries are untouched, so firing
        order is exactly what lazy deletion would have produced.  The
        list is rebuilt in place: :meth:`run` and the cached push
        callable hold aliases to it and a cancel can arrive from a
        callback mid-loop.
        """
        heap = self._heap
        before = len(heap)
        heap[:] = [entry for entry in heap if entry[4] is None or not entry[4].cancelled]
        heapify(heap)
        self._cancelled = 0
        self._compactions += 1
        if self._sink is not None:
            self._sink.emit(
                HeapCompactEvent(time=self.now, removed=before - len(heap), remaining=len(heap))
            )

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``.

        A NaN ``time`` is rejected along with past times: it compares
        false against everything, so the heap would fire it out of order.
        """
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self.now}"
            )
        event = Event(time, fn, args, self)
        self._seq += 1
        self._push((time, self._seq, fn, args, event))
        return event

    def schedule_fast(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` ``delay`` seconds from now, uncancellably.

        The hot-path twin of :meth:`schedule`: no :class:`Event` handle is
        allocated, so the caller gets nothing back and the event cannot be
        cancelled.  Firing order relative to :meth:`schedule` is identical
        (one shared sequence counter), which keeps runs byte-identical
        whichever entry point a component uses.
        """
        time = self.now + delay
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self.now}"
            )
        self._seq += 1
        self._push((time, self._seq, fn, args, None))

    def step(self) -> bool:
        """Fire the next pending event.

        Returns ``False`` when the queue is empty, ``True`` otherwise.
        """
        heap = self._heap
        while heap:
            entry = heappop(heap)
            event = entry[4]
            if event is not None:
                if event.cancelled:
                    if self._cancelled:
                        self._cancelled -= 1
                    continue
                event.fired = True
            self.now = entry[0]
            self._events_processed += 1
            entry[2](*entry[3])
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run the event loop.

        Args:
            until: stop once the clock would pass this time; the clock is
                left at ``until`` so measurement windows have an exact end.
                ``None`` runs until the queue drains.
            max_events: optional safety valve for tests; raises
                :class:`SimulationError` when exceeded.

        The loop consumes each entry exactly once.  An entry beyond
        ``until`` is pushed back under its original ``(time, seq)`` key,
        so firing order across resumed runs is unchanged — as are the
        ``cancelled_pending``/``compactions`` counters, which an
        overshoot never resets.  Handle-free entries
        (:meth:`schedule_fast`) skip the cancelled-event branch entirely.
        """
        stop = inf if until is None else until
        limit = inf if max_events is None else max_events
        heap = self._heap
        pop = heappop
        fired = 0
        while heap:
            entry = pop(heap)
            event = entry[4]
            if event is not None and event.cancelled:
                if self._cancelled:
                    self._cancelled -= 1
                continue
            time = entry[0]
            if time > stop:
                heappush(heap, entry)
                break
            if event is not None:
                event.fired = True
            self.now = time
            self._events_processed += 1
            entry[2](*entry[3])
            fired += 1
            if fired > limit:
                raise SimulationError(f"exceeded max_events={max_events}")
        if until is not None and self.now < until:
            self.now = until
