"""The module -> layer table and the layer tracer of the benchmark.

Everything here observes ``repro`` from outside.  The traced run swaps
class attributes and module functions for timing wrappers before a
workload builds its scenario and restores the originals afterwards; the
exact-count pass uses ``sys.setprofile``.  Nothing is added to the
package itself.

Layer attribution:

* every wrapped call is one *span*; a span's self time is its inclusive
  time minus the inclusive time of the spans it directly encloses;
* per-packet spans fold into one accumulator per layer (count,
  inclusive, child time, child count); coarse spans (job, build, run,
  record, cache, claim, shard ...) are also kept whole in memory and
  written out when the run ends;
* :func:`calibrate` measures what an empty span costs, split into the
  part inside its own interval and the part its parent sees, so both can
  be taken off the self times.
"""

from __future__ import annotations

import collections
import importlib
import os
import sys
import time

#: Layer name -> the ``repro`` modules (dotted, without the ``repro.``
#: prefix) that belong to it.  A module matches an entry when it equals
#: it or sits below it.  This one table drives the traced run and the
#: exact-count pass alike.
LAYER_MODULES = {
    "engine": ("sim.engine", "sim.equeue"),
    "sources": ("traffic.sources", "traffic.batched"),
    "shaper": ("traffic.shaper",),
    "port": ("sim.port", "sim.packet"),
    "core": ("core",),
    "sched": ("sched",),
    "metrics": ("metrics.collector", "metrics.histogram"),
    "net": ("net.topology",),
    "fabric": ("experiments.fabric",),
    "campaign": ("experiments.campaign",),
    "sweep": ("experiments.sweep",),
    "check": ("check",),
}
LAYERS = tuple(LAYER_MODULES)

#: The benchmark's own spans (the job loop) report under this name.
BENCH_LAYER = "bench"

#: Entry points the traced run wraps: ``(module, qualified name,
#: coarse)``.  The layer of each comes from :func:`layer_of` on its
#: module, never from this list, so the table above stays the single
#: definition.  Coarse spans are also kept whole (see module docstring).
ENTRY_POINTS = (
    ("repro.sim.engine", "Simulator.run", True),
    ("repro.sim.engine", "Simulator.schedule", False),
    ("repro.sim.engine", "Simulator.schedule_at", False),
    ("repro.sim.engine", "Simulator.schedule_fast", False),
    ("repro.traffic.sources", "OnOffSource._begin_burst", False),
    ("repro.traffic.sources", "OnOffSource._emit", False),
    ("repro.traffic.shaper", "LeakyBucketShaper.receive", False),
    ("repro.traffic.shaper", "LeakyBucketShaper._release", False),
    ("repro.sim.port", "OutputPort.receive", False),
    ("repro.sim.port", "OutputPort._finish_transmission", False),
    ("repro.sim.packet", "Packet.acquire", False),
    ("repro.sim.packet", "Packet.release", False),
    ("repro.core.occupancy", "BufferManager.try_admit", False),
    ("repro.core.occupancy", "BufferManager.on_depart", False),
    ("repro.core.occupancy", "BufferManager.reprovision", False),
    ("repro.core.occupancy", "BufferManager.retire", False),
    ("repro.core.fixed_threshold", "FixedThresholdManager.reprovision", False),
    ("repro.core.fixed_threshold", "FixedThresholdManager.retire", False),
    ("repro.core.shared_headroom", "SharedHeadroomManager.reprovision", False),
    ("repro.core.shared_headroom", "SharedHeadroomManager.retire", False),
    ("repro.core.hybrid", "HybridBufferManager.try_admit", False),
    ("repro.core.hybrid", "HybridBufferManager.on_depart", False),
    ("repro.sched.fifo", "FIFOScheduler.enqueue", False),
    ("repro.sched.fifo", "FIFOScheduler.dequeue", False),
    ("repro.sched.wfq", "WFQScheduler.enqueue", False),
    ("repro.sched.wfq", "WFQScheduler.dequeue", False),
    ("repro.sched.hybrid", "HybridScheduler.enqueue", False),
    ("repro.sched.hybrid", "HybridScheduler.dequeue", False),
    ("repro.metrics.collector", "StatsCollector.on_offered", False),
    ("repro.metrics.collector", "StatsCollector.on_drop", False),
    ("repro.metrics.collector", "StatsCollector.on_depart", False),
    ("repro.metrics.histogram", "LogHistogram.record", False),
    ("repro.net.topology", "Node.receive", False),
    ("repro.net.topology", "DeliverySink.record", False),
    ("repro.experiments.fabric.build", "run_fabric", True),
    ("repro.experiments.fabric.churn", "FlowChurnProcess._arrival", False),
    ("repro.experiments.fabric.churn", "FlowChurnProcess._departure", False),
    ("repro.experiments.campaign.runner", "execute_job", True),
    ("repro.experiments.campaign.job", "ScenarioJob.digest", True),
    ("repro.experiments.campaign.network", "NetworkJob.digest", True),
    ("repro.experiments.campaign.record", "ScenarioRecord.from_result", True),
    ("repro.experiments.campaign.cache", "ResultCache.put", True),
    ("repro.experiments.campaign.cache", "ResultCache.get", True),
    ("repro.experiments.campaign.cache", "ResultCache.__contains__", True),
    ("repro.experiments.sweep.spec", "SweepSpec.job_for_cell", True),
    ("repro.experiments.sweep.queue", "run_sweep_worker", True),
    ("repro.experiments.sweep.queue", "reap_stale_claims", True),
    ("repro.experiments.sweep.queue", "try_claim", True),
    ("repro.experiments.sweep.queue", "release_claim", True),
    ("repro.experiments.sweep.aggregate", "append_shard_row", True),
    ("repro.experiments.sweep.aggregate", "metric_row", True),
    ("repro.experiments.sweep.aggregate", "aggregate_sweep", True),
    ("repro.check.invariants", "check_scenario", True),
)

#: Wrapped calls whose truthy results are counted (admission outcomes).
COUNT_TRUE = frozenset({
    "BufferManager.try_admit",
    "HybridBufferManager.try_admit",
})


def layer_of(module: str) -> str | None:
    """The layer a ``repro`` module belongs to, or None if uncovered."""
    if module == "repro":
        return None
    short = module[len("repro."):] if module.startswith("repro.") else module
    for layer, prefixes in LAYER_MODULES.items():
        for prefix in prefixes:
            if short == prefix or short.startswith(prefix + "."):
                return layer
    return None


# -- the tracer ------------------------------------------------------------


class Tracer:
    """Span accumulators for one traced run.

    ``stats[key]`` is ``[count, inclusive, child_time, child_count,
    true_results]`` for each wrapped entry point; :meth:`layer_totals`
    folds them by layer.  ``spans`` holds the coarse spans as ``(name,
    layer, start, end, parent)`` with ``parent`` an index into ``spans``
    (or -1).
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.layer_by_key: dict[str, str] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._coarse: list[int] = []
        self._patched: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _slot(self, key: str, layer: str) -> list:
        slot = self.stats.get(key)
        if slot is None:
            slot = [0, 0.0, 0.0, 0, 0]
            self.stats[key] = slot
            self.layer_by_key[key] = layer
        return slot

    def wrap(self, fn, key: str, layer: str, coarse: bool = False):
        """A timing wrapper around ``fn`` accounting to ``key``/``layer``."""
        slot = self._slot(key, layer)
        stack = self._stack
        clock = time.perf_counter
        count_true = key in COUNT_TRUE

        if coarse:
            spans = self.spans
            coarse_stack = self._coarse

            def coarse_wrapper(*args, **kwargs):
                frame = [0.0, 0]
                stack.append(frame)
                index = len(spans)
                spans.append(None)
                parent = coarse_stack[-1] if coarse_stack else -1
                coarse_stack.append(index)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    coarse_stack.pop()
                    spans[index] = (key, layer, start, end, parent)
                    elapsed = end - start
                    stack.pop()
                    slot[0] += 1
                    slot[1] += elapsed
                    slot[2] += frame[0]
                    slot[3] += frame[1]
                    if stack:
                        outer = stack[-1]
                        outer[0] += elapsed
                        outer[1] += 1

            return coarse_wrapper

        def wrapper(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                slot[0] += 1
                slot[1] += elapsed
                slot[2] += frame[0]
                slot[3] += frame[1]
                if stack:
                    outer = stack[-1]
                    outer[0] += elapsed
                    outer[1] += 1
            if count_true and result:
                slot[4] += 1
            return result

        return wrapper

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a coarse benchmark-layer span."""
        return self.wrap(fn, name, BENCH_LAYER, coarse=True)(*args, **kwargs)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point, class-level, before scenarios are built."""
        for module_name, qualname, coarse in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            layer = layer_of(module_name)
            if layer is None:
                raise RuntimeError(f"entry point module {module_name} has no layer")
            if "." in qualname:
                class_name, attr = qualname.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self.wrap(raw.__func__, qualname, layer, coarse))
                else:
                    wrapped = self.wrap(raw, qualname, layer, coarse)
                self._patched.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            else:
                original = getattr(module, qualname)
                wrapped = self.wrap(original, qualname, layer, coarse)
                # Callers bind module functions by name at import time
                # (``from x import f``); replace every such reference.
                for name, loaded in list(sys.modules.items()):
                    if not name.startswith("repro") or loaded is None:
                        continue
                    namespace = vars(loaded)
                    for attr, value in list(namespace.items()):
                        if value is original:
                            self._patched.append((loaded, attr, original))
                            setattr(loaded, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def count(self, key: str) -> int:
        slot = self.stats.get(key)
        return 0 if slot is None else slot[0]

    def true_count(self, key: str) -> int:
        slot = self.stats.get(key)
        return 0 if slot is None else slot[4]

    def inclusive(self, key: str) -> float:
        slot = self.stats.get(key)
        return 0.0 if slot is None else slot[1]

    def layer_totals(self) -> dict[str, list]:
        """Layer -> ``[spans, inclusive, raw self, child spans]``."""
        totals = {layer: [0, 0.0, 0.0, 0] for layer in LAYERS + (BENCH_LAYER,)}
        for key, (count, inclusive, child, nchild, _true) in self.stats.items():
            total = totals[self.layer_by_key[key]]
            total[0] += count
            total[1] += inclusive
            total[2] += inclusive - child
            total[3] += nchild
        return totals

    def top_level_time(self) -> float:
        """Inclusive time of spans that had no enclosing span."""
        return sum(end - start for _n, _l, start, end, parent in self.spans if parent == -1)

    def coarse_spans(self) -> list[dict]:
        return [
            {"name": name, "layer": layer, "start": start, "end": end, "parent": parent}
            for name, layer, start, end, parent in self.spans
        ]


def _empty(first, second) -> None:
    return None


def calibrate(calls: int = 100_000) -> tuple[float, float]:
    """Cost of one empty span: ``(inside, outside)`` seconds.

    ``inside`` is what a span measures for a body that does nothing (it
    lands in the span's own self time); ``outside`` is the rest of the
    caller-visible cost, which lands in the enclosing span's self time.
    Measured on a two-argument call, like most entry points.  Each part
    is the least of five trials: a host that slows down during a trial
    inflates it, and taking off more than a span costs would turn small
    layers' self times negative.
    """
    inside_trials = []
    outside_trials = []
    clock = time.perf_counter
    for _trial in range(5):
        tracer = Tracer()
        wrapped = tracer.wrap(_empty, "calibration", BENCH_LAYER)
        tracer._stack.append([0.0, 0])
        start = clock()
        for _ in range(calls):
            wrapped(tracer, calls)
        wrapped_time = clock() - start
        start = clock()
        for _ in range(calls):
            _empty(tracer, calls)
        plain_time = clock() - start
        tracer._stack.pop()
        inside = tracer.stats["calibration"][1] / calls
        total = (wrapped_time - plain_time) / calls
        inside_trials.append(inside)
        outside_trials.append(max(total - inside, 0.0))
    return min(inside_trials), min(outside_trials)


# -- exact-count pass --------------------------------------------------------


class CallCounter:
    """Counts Python-level calls per code object under ``sys.setprofile``."""

    def __init__(self, src_root: str, bench_root: str) -> None:
        self._src = os.path.join(os.path.abspath(src_root), "repro") + os.sep
        self._bench = os.path.abspath(bench_root) + os.sep
        self.counts: collections.Counter = collections.Counter()

    def run(self, fn):
        counts = self.counts

        def profile(frame, event, _arg):
            if event == "call":
                counts[frame.f_code] += 1

        sys.setprofile(profile)
        try:
            return fn()
        finally:
            sys.setprofile(None)

    def module_of(self, code) -> str:
        """``repro.x.y`` for package code, ``bench`` or ``external`` otherwise."""
        filename = os.path.abspath(code.co_filename)
        if filename.startswith(self._bench):
            return "bench"
        if not filename.startswith(self._src):
            return "external"
        relative = filename[len(self._src):-len(".py")].replace(os.sep, ".")
        if relative.endswith("__init__"):
            relative = relative[: -len(".__init__")] if "." in relative else ""
        return "repro." + relative if relative else "repro"

    def by_module(self) -> dict[str, int]:
        modules: collections.Counter = collections.Counter()
        for code, count in self.counts.items():
            modules[self.module_of(code)] += count
        return dict(modules)
