"""The three workloads: inputs from a seed, closed-batch rounds, checks.

Each workload builds its inputs from ``--seed`` through public ``repro``
APIs only, then runs *rounds*: the same job list back to back, no arrival
schedule (a closed batch).  A round returns what the metrics and checks
need: per-job host latency, packets emitted, simulation counters, and a
fingerprint that must repeat exactly whenever the same inputs run again.

The instances a job constructs (sources, shapers, ports, simulators) are
recorded by :class:`Capture`, which hooks only ``__init__`` — nothing
runs per packet — so port and source counters can be read after
``run_scenario``/``run_fabric`` return.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import pathlib
import shutil
import statistics
import tempfile
import time

import numpy as np

import repro.experiments.campaign as campaign
import repro.experiments.fabric as fabric
import repro.experiments.fabric.demo as demo
import repro.experiments.runner as runner
import repro.experiments.sweep as sweep
import repro.experiments.sweep.queue as sweep_queue
from repro.experiments.schemes import Scheme
from repro.experiments.workloads import CASE1_GROUPS, TABLE1_CONFORMANT, table1_flows
from repro.units import mbytes

#: Per-job simulated seconds and replications of ``table1-port``.
TABLE1_SIM_TIME = 2.0
TABLE1_REPLICATIONS = 2
#: Per-job simulated seconds and replications of ``tandem-churn``.
TANDEM_SIM_TIME = 2.0
TANDEM_REPLICATIONS = 4
#: The ``sweep-grid`` axes: 4 schemes x 2 buffers x 16 seeds = 128 cells
#: of 0.5 s.  Shorter cells weigh the per-job fixed costs more, but on a
#: shared host their timings spread by over 20 % from run to run; a
#: cell's packet count also varies by 20 % (43 % at 0.1 s) with its
#: seed, so the grid spends its size on seeds.
SWEEP_SCHEMES = ("FIFO_THRESHOLD", "FIFO_SHARING", "WFQ_THRESHOLD", "HYBRID_SHARING")
SWEEP_BUFFERS_MB = (1.0, 2.0)
SWEEP_SEEDS = 16
SWEEP_SIM_TIME = 0.5
#: Warm passes per round; ``warm_replay_s`` takes their median.
WARM_REPEATS = 5
#: Shorter inputs for the ``sys.setprofile`` exact-count pass.
COUNT_TABLE1_SIM_TIME = 0.25
COUNT_TANDEM_SIM_TIME = 0.5

BUFFER = mbytes(1.0)
HEADROOM = mbytes(0.5)

#: The four Table 1 scheme families: (name, scheme, extra run_scenario args).
TABLE1_FAMILIES = (
    ("fifo-threshold", Scheme.FIFO_THRESHOLD, {}),
    ("shared-headroom", Scheme.FIFO_SHARING, {"headroom": HEADROOM}),
    ("wfq-threshold", Scheme.WFQ_THRESHOLD, {"delay_histograms": True}),
    ("hybrid-sharing", Scheme.HYBRID_SHARING, {"headroom": HEADROOM, "groups": CASE1_GROUPS}),
)
#: The seeds the equivalence goldens were captured with, per family.
GOLDEN_SEEDS = {"fifo-threshold": 11, "shared-headroom": 12, "wfq-threshold": 13, "hybrid-sharing": 14}


def derive_seeds(seed: int, count: int) -> list[int]:
    """``count`` job seeds derived from the benchmark seed."""
    return [int(value) for value in np.random.SeedSequence(seed).generate_state(count)]


# -- instance capture ----------------------------------------------------------


class Capture:
    """Records every source, shaper, port and simulator a job constructs."""

    CLASSES = (
        ("repro.traffic.sources", "OnOffSource"),
        ("repro.traffic.shaper", "LeakyBucketShaper"),
        ("repro.sim.port", "OutputPort"),
        ("repro.sim.engine", "Simulator"),
    )

    def __init__(self) -> None:
        self.items: dict[str, list] = {name: [] for _module, name in self.CLASSES}
        self._patched: list[tuple] = []

    @staticmethod
    def _hook(original, bucket):
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            bucket.append(obj)

        return init

    def install(self) -> None:
        for module, name in self.CLASSES:
            cls = getattr(importlib.import_module(module), name)
            original = cls.__dict__["__init__"]
            self._patched.append((cls, original))
            cls.__init__ = self._hook(original, self.items[name])

    def uninstall(self) -> None:
        for cls, original in reversed(self._patched):
            cls.__init__ = original
        self._patched.clear()

    def take(self) -> dict:
        """Counters of everything built since the last call, then forget it."""
        items = self.items
        tally = {
            "emitted": sum(src.emitted_packets for src in items["OnOffSource"]),
            "shaper_backlog": sum(shaper.backlog for shaper in items["LeakyBucketShaper"]),
            "ports": {
                port.label: (
                    port.admitted_packets,
                    port.dropped_packets,
                    port.transmitted_packets,
                    port.backlog_packets,
                )
                for port in items["OutputPort"]
            },
            "events": sum(sim.events_processed for sim in items["Simulator"]),
            "cancelled_pending": sum(sim.cancelled_pending for sim in items["Simulator"]),
            "compactions": sum(sim.compactions for sim in items["Simulator"]),
            "equeue": sorted({sim.equeue_backend for sim in items["Simulator"]}),
        }
        for bucket in items.values():
            bucket.clear()
        return tally


# -- checks --------------------------------------------------------------------


def check_hop(label: str, flow_stats: dict, port: tuple) -> list[str]:
    """Per-hop conservation: offered = departed + dropped + end backlog.

    ``flow_stats`` covers the whole run (the benchmark runs with zero
    warmup), so the collector's counts must agree with the port's own.
    """
    admitted, dropped, transmitted, backlog = port
    offered = sum(fs.offered_packets for fs in flow_stats.values())
    departed = sum(fs.departed_packets for fs in flow_stats.values())
    lost = sum(fs.dropped_packets for fs in flow_stats.values())
    failures = []
    if offered != departed + lost + backlog:
        failures.append(
            f"hop {label!r}: offered {offered} != departed {departed} + "
            f"dropped {lost} + backlog {backlog}"
        )
    if (lost, departed) != (dropped, transmitted):
        failures.append(
            f"hop {label!r}: collector dropped/departed {lost}/{departed} != "
            f"port {dropped}/{transmitted}"
        )
    if admitted != transmitted + backlog:
        failures.append(
            f"hop {label!r}: admitted {admitted} != transmitted {transmitted} + backlog {backlog}"
        )
    return failures


def check_conformant(label: str, flow_stats: dict, conformant) -> list[str]:
    """Prop. 1: conformant flows lose nothing under the threshold schemes."""
    return [
        f"hop {label!r}: conformant flow {fid} dropped {fs.dropped_packets} packets"
        for fid, fs in sorted(flow_stats.items())
        if fid in conformant and fs.dropped_packets
    ]


def flow_counts(flow_stats: dict) -> tuple:
    return tuple(
        (fid, fs.offered_packets, fs.dropped_packets, fs.departed_packets)
        for fid, fs in sorted(flow_stats.items())
    )


@dataclasses.dataclass
class Round:
    """What one pass over a workload's job list produced."""

    wall: float = 0.0
    latencies: list = dataclasses.field(default_factory=list)
    emitted: int = 0
    jobs: int = 0
    failed: int = 0
    failures: list = dataclasses.field(default_factory=list)
    fingerprint: list = dataclasses.field(default_factory=list)
    events: int = 0
    cancelled_pending: int = 0
    compactions: int = 0
    admitted: int = 0
    dropped: int = 0
    transmitted: int = 0
    churn_arrivals: int = 0
    churn_accepted: int = 0
    equeue: set = dataclasses.field(default_factory=set)
    #: Time to produce the results a second time (the warm pass on
    #: ``sweep-grid``; a full re-run elsewhere, where nothing is cached).
    replay: float = 0.0
    extra: dict = dataclasses.field(default_factory=dict)

    def add_tally(self, tally: dict) -> None:
        self.emitted += tally["emitted"]
        self.events += tally["events"]
        self.cancelled_pending += tally["cancelled_pending"]
        self.compactions += tally["compactions"]
        self.equeue.update(tally["equeue"])
        for admitted, dropped, transmitted, _backlog in tally["ports"].values():
            self.admitted += admitted
            self.dropped += dropped
            self.transmitted += transmitted

    def fail(self, failures: list[str]) -> None:
        if failures:
            self.failed += 1
            self.failures.extend(failures)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _job_span(tracer, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.span("job", fn, *args, **kwargs)


class Workload:
    """Defaults shared by the workloads; each overrides what differs."""

    #: Compute latency percentiles per round (True) or over all rounds.
    per_round_latency = False
    replay_note = "nothing is cached, so a replay is a full re-run"

    def extra_checks(self, root: pathlib.Path, capture: Capture) -> tuple[int, int, list[str]]:
        """Checks run once per run: ``(attempted, failed, failures)``."""
        return 0, 0, []

    def settle(self, out: Round) -> list[str]:
        """Checks left for after a round's timing; returns failures."""
        return []


# -- table1-port ---------------------------------------------------------------


class Table1Port(Workload):
    """The paper's Table 1 workload on one 1 MB output port, four families."""

    name = "table1-port"

    def build(self, seed: int) -> list[dict]:
        seeds = derive_seeds(seed, TABLE1_REPLICATIONS * len(TABLE1_FAMILIES))
        flows = table1_flows()
        jobs = []
        for rep in range(TABLE1_REPLICATIONS):
            for index, (family, scheme, extra) in enumerate(TABLE1_FAMILIES):
                jobs.append({
                    "family": family,
                    "flows": flows,
                    "scheme": scheme,
                    "kwargs": dict(
                        extra,
                        sim_time=TABLE1_SIM_TIME,
                        warmup=0.0,
                        seed=seeds[rep * len(TABLE1_FAMILIES) + index],
                    ),
                })
        return jobs

    @staticmethod
    def _shorten(jobs: list[dict], sim_time: float) -> list[dict]:
        """One job per family, simulating only ``sim_time`` seconds."""
        return [
            dict(job, kwargs=dict(job["kwargs"], sim_time=sim_time))
            for job in jobs[: len(TABLE1_FAMILIES)]
        ]

    def warm(self, jobs: list[dict], capture: Capture) -> None:
        self.run(self._shorten(jobs, 0.1), capture)

    def count_inputs(self, jobs: list[dict]) -> list[dict]:
        return self._shorten(jobs, COUNT_TABLE1_SIM_TIME)

    def run(self, jobs: list[dict], capture: Capture, tracer=None) -> Round:
        out = Round()
        round_start = time.perf_counter()
        for job in jobs:
            result, wall = _timed(
                _job_span, tracer, runner.run_scenario,
                job["flows"], job["scheme"], BUFFER, **job["kwargs"],
            )
            tally = capture.take()
            out.latencies.append(wall)
            out.jobs += 1
            out.add_tally(tally)
            stats = result.flow_stats
            conformant = {flow.flow_id for flow in job["flows"] if flow.conformant}
            (port,) = tally["ports"].values()
            failures = check_hop("", stats, port)
            failures += check_conformant("", stats, conformant)
            if tally["emitted"] != port[0] + port[1] + tally["shaper_backlog"]:
                failures.append(
                    f"emitted {tally['emitted']} != offered {port[0] + port[1]} "
                    f"+ shaper backlog {tally['shaper_backlog']}"
                )
            out.fail([f"{job['family']}: {text}" for text in failures])
            out.fingerprint.append((job["family"], tally["events"], flow_counts(stats)))
        out.wall = time.perf_counter() - round_start
        out.replay = out.wall
        return out

    def extra_checks(self, root: pathlib.Path, capture: Capture) -> tuple[int, int, list[str]]:
        """The equivalence goldens at their own configuration (read only)."""
        raw = json.loads(
            (root / "tests" / "data" / "equivalence_goldens.json").read_text(encoding="utf-8")
        )
        sim_time = float(raw["sim_time"])
        failed = 0
        failures = []
        for family, scheme, extra in TABLE1_FAMILIES:
            golden = raw["goldens"][family]
            job = campaign.ScenarioJob.for_scenario(
                table1_flows(), scheme, BUFFER,
                seed=GOLDEN_SEEDS[family], sim_time=sim_time, **extra,
            )
            if job.digest() != golden["job_digest"]:
                failed += 1
                failures.append(f"golden {family}: job digest differs from the goldens")
                continue
            result = runner.run_scenario(list(job.flows), job.scheme, job.buffer_size,
                                         **job.scenario_kwargs())
            capture.take()
            record = campaign.ScenarioRecord.from_result(result, job.digest())
            counts = {
                str(fid): [fs.offered_packets, fs.dropped_packets, fs.departed_packets]
                for fid, fs in sorted(record.flow_stats.items())
            }
            canonical = json.dumps(record.to_dict(), sort_keys=True,
                                   separators=(",", ":"), allow_nan=False)
            problems = []
            if counts != golden["flow_counts"]:
                problems.append("flow counts differ")
            if record.events_processed != golden["events_processed"]:
                problems.append("event count differs")
            if hashlib.sha256(canonical.encode("utf-8")).hexdigest() != golden["record_digest"]:
                problems.append("record digest differs")
            failed += bool(problems)
            failures += [f"golden {family}: {text}" for text in problems]
        return len(TABLE1_FAMILIES), failed, failures


# -- tandem-churn --------------------------------------------------------------


class TandemChurn(Workload):
    """``demo_tandem(hops=3, churn=True)`` on the general fabric path."""

    name = "tandem-churn"

    def build(self, seed: int) -> list:
        return [
            dataclasses.replace(
                demo.demo_tandem(hops=3, churn=True, seed=job_seed, sim_time=TANDEM_SIM_TIME),
                warmup=0.0,
            )
            for job_seed in derive_seeds(seed, TANDEM_REPLICATIONS)
        ]

    def warm(self, scenarios: list, capture: Capture) -> None:
        self.run([dataclasses.replace(scenarios[0], sim_time=0.2)], capture)

    def count_inputs(self, scenarios: list) -> list:
        return [dataclasses.replace(scenarios[0], sim_time=COUNT_TANDEM_SIM_TIME)]

    def run(self, scenarios: list, capture: Capture, tracer=None) -> Round:
        out = Round()
        round_start = time.perf_counter()
        for scenario in scenarios:
            result, wall = _timed(_job_span, tracer, fabric.run_fabric, scenario)
            tally = capture.take()
            out.latencies.append(wall)
            out.jobs += 1
            out.add_tally(tally)
            failures = []
            # Prop. 1 is checked on the static conformant flows only: a
            # churned flow's guarantee ends when its reservation is
            # retired, while its shaper-held packets still drain.
            conformant = {r.spec.flow_id for r in scenario.flows if r.spec.conformant}
            lost = 0
            backlog = 0
            counts = []
            for label, link in sorted(result.links.items()):
                port = tally["ports"][label]
                stats = link.flow_stats
                failures += check_hop(label, stats, port)
                failures += check_conformant(label, stats, conformant)
                lost += port[1]
                backlog += port[3]
                counts.append((label, flow_counts(stats)))
            delivered = sum(result.delivery.packets.values())
            if tally["emitted"] != lost + backlog + tally["shaper_backlog"] + delivered:
                failures.append(
                    f"emitted {tally['emitted']} != dropped {lost} + backlog {backlog} + "
                    f"shaper backlog {tally['shaper_backlog']} + delivered {delivered}"
                )
            churn = result.churn
            out.churn_arrivals += churn.arrivals
            out.churn_accepted += churn.accepted
            out.fail([f"seed {scenario.seed}: {text}" for text in failures])
            out.fingerprint.append(
                (scenario.seed, tally["events"], delivered, counts,
                 json.dumps(churn.to_dict(), sort_keys=True))
            )
        out.wall = time.perf_counter() - round_start
        out.replay = out.wall
        return out


# -- sweep-grid ----------------------------------------------------------------


class SweepGrid(Workload):
    """A scenario-kind sweep of many cells, cold then warm over one cache."""

    name = "sweep-grid"
    per_round_latency = True
    replay_note = "warm worker pass plus aggregate_sweep over the cold cache, median of 5"

    def __init__(self, scratch: pathlib.Path) -> None:
        self.scratch = scratch

    def build(self, seed: int):
        return sweep.SweepSpec(
            name=f"perfbench-sweep-grid-{seed}",
            kind="scenario",
            axes=(
                sweep.SweepAxis("scheme", SWEEP_SCHEMES),
                sweep.SweepAxis("buffer_mb", SWEEP_BUFFERS_MB),
                sweep.SweepAxis("seed", tuple(derive_seeds(seed, SWEEP_SEEDS))),
            ),
            base={"workload": "table1", "sim_time": SWEEP_SIM_TIME, "warmup": 0.0,
                  "headroom_mb": 0.5},
            metrics=("utilization", "loss", "loss:conformant"),
        )

    @staticmethod
    def _narrow(spec, keep: str | None):
        """The spec with every axis but ``keep`` cut to its first value."""
        return dataclasses.replace(spec, axes=tuple(
            axis if axis.name == keep else dataclasses.replace(axis, values=axis.values[:1])
            for axis in spec.axes
        ))

    def warm(self, spec, capture: Capture) -> None:
        self.settle(self.run(self._narrow(spec, None), capture))

    def count_inputs(self, spec):
        return self._narrow(spec, "scheme")

    def run(self, spec, capture: Capture, tracer=None) -> Round:
        """Cold pass, cold aggregate, warm pass, warm aggregate; fresh cache.

        Only the sweep itself runs here; :meth:`settle` checks the
        results and removes the cache afterwards, outside any timing.
        """
        self.scratch.mkdir(parents=True, exist_ok=True)
        workdir = pathlib.Path(tempfile.mkdtemp(prefix="sweep-", dir=self.scratch))
        cache = campaign.ResultCache(workdir / "cache")
        out = Round()
        cells = []
        marks = []
        release = sweep_queue.release_claim

        def release_and_mark(path):
            release(path)
            cells.append((pathlib.Path(path).stem, capture.take()))
            marks.append(time.perf_counter())

        sweep_queue.release_claim = release_and_mark
        try:
            cold_start = time.perf_counter()
            cold = _job_span(tracer, sweep_queue.run_sweep_worker, spec, cache,
                             owner="perfbench", preflight=True)
            out.wall = time.perf_counter() - cold_start
        finally:
            sweep_queue.release_claim = release
        cold_aggregate = _job_span(tracer, sweep.aggregate_sweep, spec, cache)
        warm_passes = []
        replays = []
        for _repeat in range(WARM_REPEATS):
            start = time.perf_counter()
            warm = _job_span(tracer, sweep_queue.run_sweep_worker, spec, cache,
                             owner="perfbench", preflight=True)
            warm_aggregate = _job_span(tracer, sweep.aggregate_sweep, spec, cache)
            replays.append(time.perf_counter() - start)
            warm_passes.append((warm, warm_aggregate))
        out.replay = statistics.median(replays)

        out.latencies = [b - a for a, b in zip([cold_start] + marks, marks)]
        out.jobs = cold.executed
        for _digest, tally in cells:
            out.add_tally(tally)
        out.extra.update(spec=spec, workdir=workdir, cells=cells, cold=cold,
                         cold_aggregate=cold_aggregate, warm_passes=warm_passes)
        return out

    def settle(self, out: Round) -> list[str]:
        extra = out.extra
        workdir = extra.pop("workdir")
        try:
            return self._check(out, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def _check(self, out: Round, workdir: pathlib.Path) -> list[str]:
        extra = out.extra
        spec = extra.pop("spec")
        cells = extra.pop("cells")
        cold = extra.pop("cold")
        cold_bytes = sweep.write_aggregate(extra.pop("cold_aggregate"),
                                           workdir / "cold.json").read_bytes()
        out.fingerprint.append(hashlib.sha256(cold_bytes).hexdigest())

        failures = []
        total = spec.count()
        if cold.executed != total or len(cells) != total:
            failures.append(f"cold pass executed {cold.executed} of {total} cells")
        for warm, warm_aggregate in extra.pop("warm_passes"):
            if warm.executed != 0:
                failures.append(f"warm pass re-executed {warm.executed} cells")
            warm_bytes = sweep.write_aggregate(warm_aggregate, workdir / "warm.json").read_bytes()
            if warm_bytes != cold_bytes:
                failures.append("warm aggregate is not byte-identical to the cold one")
        # The cache's own lifetime counters: the cold pass stores every
        # cell, each warm pass finds every cell.
        stats = campaign.ResultCache(workdir / "cache").persisted_stats()
        out.extra["warm_hits"] = stats["hits"] / WARM_REPEATS
        if (stats["hits"], stats["stores"]) != (WARM_REPEATS * total, total):
            failures.append(f"cache counted {stats['hits']} hits and {stats['stores']} stores "
                            f"for {total} cells and {WARM_REPEATS} warm passes")

        # Per-cell conservation and Prop. 1, from the cached records.
        for digest, tally in cells:
            path = workdir / "cache" / f"{digest}.json"
            record = campaign.ScenarioRecord.from_dict(json.loads(path.read_text(encoding="utf-8")))
            label = f"cell {record.scheme.name}/{record.buffer_size:g}/{record.seed}"
            (port,) = tally["ports"].values()
            problems = check_hop("", record.flow_stats, port)
            problems += check_conformant("", record.flow_stats, TABLE1_CONFORMANT)
            if tally["emitted"] != port[0] + port[1] + tally["shaper_backlog"]:
                problems.append("emitted packets are not conserved through the shapers")
            out.fail([f"{label}: {text}" for text in problems])
            out.fingerprint.append((digest, tally["events"], flow_counts(record.flow_stats)))
        return failures


def make(name: str, scratch: pathlib.Path):
    if name == Table1Port.name:
        return Table1Port()
    if name == TandemChurn.name:
        return TandemChurn()
    if name == SweepGrid.name:
        return SweepGrid(scratch)
    raise KeyError(name)


WORKLOAD_NAMES = (Table1Port.name, TandemChurn.name, SweepGrid.name)
