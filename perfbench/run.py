"""Layer-attributed benchmark of the ``repro`` simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1-port --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics on untraced rounds, with
times in reference seconds (scaled by the host's measured speed, see
``reference_seconds``); ``--trace 1`` runs one traced round (class-level
span wrappers) plus a ``sys.setprofile`` exact-count pass and reports
the per-layer metrics.
Every run checks the simulator's outputs; the last line of standard
output is one JSON object, and the exit code is 1 when any check failed.
See ``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = pathlib.Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: How many fresh interpreters ``setup_s`` takes the median of.
SETUP_PROBES = 3
#: Fewest measured rounds, and fewest jobs over them, however short
#: ``--seconds`` is (enough jobs for the tail to sit above the median).
MIN_ROUNDS = 3
MIN_JOBS = 40
#: Untraced rounds a traced run compares itself with.
UNTRACED_BASELINE_ROUNDS = 2
#: Largest share of traced wall time allowed outside every span.
UNATTRIBUTED_TOLERANCE = 0.02
#: The host-speed reference: a fixed pure-Python loop, and the time it
#: is defined to take.  Untraced time metrics are reported in units of
#: it (see ``reference_seconds``); the loop takes 24-35 ms on the
#: 2-vCPU host the benchmark was tuned on.
REFERENCE_ITERATIONS = 300_000
REFERENCE_NOMINAL_S = 0.030

# Environment hygiene: REPRO_* variables change behaviour (REPRO_BATCHED
# switches the random stream without entering any digest), so none of
# them may reach the package, nor any interpreter started from here.
for _key in [key for key in os.environ if key.startswith("REPRO_")]:
    del os.environ[_key]


def fail_without_result(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path, or stop."""
    if not (SRC / "repro" / "__init__.py").is_file():
        fail_without_result(f"no package source at {SRC / 'repro'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        fail_without_result(f"imported repro from {repro.__file__}, not from {SRC}")


# -- small statistics ------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n}"
    index = n - 11
    return ordered[index], f"p{100.0 * (index + 1) / n:.1f} of {n}"


def median(values) -> float:
    return float(statistics.median(values))


# -- provenance ------------------------------------------------------------------


def git_rev() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    try:
        return (ROOT / ".git" / name).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(equeue: set) -> dict:
    import numpy

    return {
        "equeue": sorted(equeue),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "src_sha256": source_digest(),
        "repro_env": sorted(key for key in os.environ if key.startswith("REPRO_")),
    }


# -- host speed -------------------------------------------------------------------


def reference_seconds() -> float:
    """Least of three timings of the reference loop.

    The benchmark host's speed swings by up to 40 % for minutes at a time
    (its clock rises when neighbours are idle), which moves every wall
    time alike.  Timing this loop between rounds tracks the swing, and
    dividing it out leaves the program's own speed.
    """
    timings = []
    for _trial in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_ITERATIONS):
            total = (total + i * 7) % 1000003
        timings.append(time.perf_counter() - start)
    return min(timings)


# -- fresh-interpreter probes -------------------------------------------------------


def setup_probe_times(workload: str, seed: int, probes: int) -> list[float]:
    """Seconds from spawning an interpreter to its inputs being ready."""
    times = []
    command = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--setup-probe", "--workload", workload, "--seed", str(seed)]
    for _probe in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT, env=dict(os.environ),
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            try:
                proc.stdout.read()
                code = proc.wait(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe exited {code} before its inputs were ready")
        times.append(elapsed)
    return times


def import_profile() -> tuple[float, list[tuple[str, float]]]:
    """``import repro`` time and the three slowest modules (self time)."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import repro"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                          env=dict(os.environ), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr[-500:]}")
    total = None
    selfs = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, cumulative, name = (part.strip() for part in line[len("import time:"):].split("|"))
        selfs.append((name, int(own) / 1e6))
        if name == "repro":
            total = int(cumulative) / 1e6
    if total is None:
        raise RuntimeError("import probe did not import repro")
    selfs.sort(key=lambda item: item[1], reverse=True)
    return total, selfs[:3]


# -- the runs ---------------------------------------------------------------------


class Result:
    """Metrics, notes and check outcomes of one workload run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: dict[str, tuple[float, str, str]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.equeue: set = set()
        self.extra: dict = {}

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit, note)

    def account(self, attempted: int, failures: list[str], failed: int | None = None) -> None:
        self.attempted += attempted
        self.failures.extend(failures)
        self.failed += (1 if failures else 0) if failed is None else failed


def determinism(rounds, result: Result, label: str) -> None:
    """Same inputs, same counters: every round must match the first."""
    for index, other in enumerate(rounds[1:], start=2):
        same = other.fingerprint == rounds[0].fingerprint
        result.account(1, [] if same else [f"{label} round {index} counters differ from round 1"])


def settle(workload, rounds, result: Result) -> None:
    for item in rounds:
        failures = workload.settle(item)
        result.account(item.jobs, item.failures + failures, item.failed + (1 if failures else 0))
        result.equeue.update(item.equeue)


def run_untraced(workload, inputs, capture, seed: int, seconds: float, result: Result) -> None:
    references = [reference_seconds()]
    setup = setup_probe_times(workload.name, seed, SETUP_PROBES)
    rounds = []
    start = time.perf_counter()
    # Stop before a round that would end more than half a round past the
    # deadline, so a run measures close to ``seconds`` whatever its round.
    while (len(rounds) < MIN_ROUNDS or sum(r.jobs for r in rounds) < MIN_JOBS
           or (time.perf_counter() - start) * (1 + 0.5 / len(rounds)) < seconds):
        references.append(reference_seconds())
        rounds.append(workload.run(inputs, capture))
    references.append(reference_seconds())
    settle(workload, rounds, result)
    determinism(rounds, result, workload.name)

    # Every time below is in reference seconds: wall time scaled by how
    # long the reference loop took during this run (see README).
    scale = REFERENCE_NOMINAL_S / median(references)
    result.extra.update(setup_probes=setup, reference_s=references, scale=scale)
    raw = f"x {scale:.3f} host speed"
    result.metric("setup_s", median(setup) * scale, "s",
                  f"median of {len(setup)} fresh interpreters, {raw}")
    result.metric("sim_pkts_per_s", median(r.emitted / r.wall for r in rounds) / scale, "pkt/s",
                  f"median of {len(rounds)} rounds, {rounds[0].emitted} pkts each, {raw}")
    result.metric("jobs_per_s", median(r.jobs / r.wall for r in rounds) / scale, "1/s",
                  f"median of {len(rounds)} rounds, {rounds[0].jobs} jobs each, {raw}")
    if workload.per_round_latency:
        p50 = median(median(r.latencies) for r in rounds)
        tails = [tail(r.latencies) for r in rounds]
        tail_value = median(value for value, _name in tails)
        tail_note = f"{tails[0][1]} jobs per round, median of {len(rounds)} rounds"
        p50_note = f"median of per-round medians, {len(rounds)} rounds"
    else:
        pooled = [value for r in rounds for value in r.latencies]
        p50 = median(pooled)
        tail_value, tail_name = tail(pooled)
        tail_note = f"{tail_name} jobs pooled over {len(rounds)} rounds"
        p50_note = f"median of {len(pooled)} jobs"
    result.metric("job_p50_ms", p50 * 1e3 * scale, "ms", f"{p50_note}, {raw}")
    result.metric("job_tail_ms", tail_value * 1e3 * scale, "ms", f"{tail_note}, {raw}")
    result.metric("warm_replay_s", median(r.replay for r in rounds) * scale, "s",
                  f"median of {len(rounds)} rounds, {raw}; {workload.replay_note}")
    result.extra["rounds"] = [
        {"wall": r.wall, "replay": r.replay, "emitted": r.emitted, "jobs": r.jobs,
         "latencies": r.latencies}
        for r in rounds
    ]


def timed_round(workload, inputs, capture, tracer=None):
    start = time.perf_counter()
    item = workload.run(inputs, capture, tracer)
    return item, time.perf_counter() - start


def run_traced(workload, inputs, capture, result: Result) -> None:
    import layers

    baseline = [timed_round(workload, inputs, capture) for _ in range(UNTRACED_BASELINE_ROUNDS)]
    untraced_wall = statistics.mean(wall for _item, wall in baseline)
    before = layers.calibrate()

    tracer = layers.Tracer()
    tracer.install()
    try:
        traced, traced_wall = timed_round(workload, inputs, capture, tracer)
    finally:
        tracer.uninstall()
    after = layers.calibrate()
    inside, outside = min(before[0], after[0]), min(before[1], after[1])
    rounds = [item for item, _wall in baseline] + [traced]
    settle(workload, rounds, result)
    determinism(rounds, result, f"{workload.name} (traced round is round {len(rounds)})")

    counts = count_pass(workload, inputs, capture, result)
    per_layer_metrics(traced, tracer, traced_wall, untraced_wall, inside, outside, counts, result)
    repro_s, slowest = import_profile()
    result.metric("import.repro_s", repro_s, "s", "cumulative import time of repro")
    for rank, (name, seconds) in enumerate(slowest, start=1):
        result.metric(f"import.top{rank}_s", seconds, "s", f"self import time of {name}")
    OUT_DIR.joinpath("traces").mkdir(parents=True, exist_ok=True)
    trace_path = OUT_DIR / "traces" / f"{workload.name}-seed{result.extra['seed']}.json"
    trace_path.write_text(json.dumps({
        "workload": workload.name,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "empty_span_s": {"inside": inside, "outside": outside},
        "entry_points": {key: dict(zip(("count", "inclusive_s", "child_s", "child_spans",
                                         "true_results"), slot),
                                   layer=tracer.layer_by_key[key])
                         for key, slot in sorted(tracer.stats.items())},
        "spans": tracer.coarse_spans(),
        "py_calls": counts,
    }, indent=1) + "\n", encoding="utf-8")


def count_pass(workload, inputs, capture, result: Result) -> dict:
    """Exact Python call counts per layer, twice; the two must agree."""
    import layers
    import repro.sim.packet as packet

    small = workload.count_inputs(inputs)
    passes = []
    for _attempt in range(2):
        # The packet freelist is process-wide; start both passes from the
        # same (empty) state so allocation calls repeat exactly.
        packet._freelist.clear()
        counter = layers.CallCounter(SRC, BENCH_DIR)
        item = counter.run(lambda: workload.run(small, capture))
        settle(workload, [item], result)
        passes.append((counter.by_module(), item.emitted))
    (modules, emitted), (again, _emitted) = passes
    repro_modules = {name: n for name, n in modules.items() if name.startswith("repro")}
    repro_again = {name: n for name, n in again.items() if name.startswith("repro")}
    result.account(1, [] if repro_modules == repro_again else
                   ["exact-count pass: repro call counts differ between two identical passes"])
    by_layer = {layer: 0 for layer in layers.LAYERS}
    uncovered = {}
    for name, n in sorted(repro_modules.items()):
        layer = layers.layer_of(name)
        if layer is None:
            uncovered[name] = n
        else:
            by_layer[layer] += n
    return {"emitted": emitted, "by_layer": by_layer, "uncovered": uncovered,
            "external": modules.get("external", 0)}


def per_layer_metrics(traced, tracer, traced_wall, untraced_wall, inside, outside, counts,
                      result: Result) -> None:
    import layers

    pkts = max(traced.emitted, 1)
    jobs = max(traced.jobs, 1)
    totals = tracer.layer_totals()
    corrected = {
        layer: raw_self - spans * inside - child_spans * outside
        for layer, (spans, _incl, raw_self, child_spans) in totals.items()
    }
    attributed = tracer.top_level_time()
    unattributed = (traced_wall - attributed) / traced_wall
    result.metric("bench.trace_overhead", traced_wall / untraced_wall, "x",
                  f"traced {traced_wall:.3f} s / untraced {untraced_wall:.3f} s")
    result.metric("bench.unattributed_share", unattributed, "frac",
                  f"traced wall outside every span; tolerance {UNATTRIBUTED_TOLERANCE}")
    result.metric("bench.empty_span_ns", (inside + outside) * 1e9, "ns",
                  f"{inside * 1e9:.0f} ns inside the span, {outside * 1e9:.0f} ns in the parent")
    result.metric("bench.self_share", corrected[layers.BENCH_LAYER] / traced_wall, "frac",
                  "job-loop spans of the benchmark itself")
    calibrated = sum(corrected.values())
    result.metric("bench.calibrated_vs_untraced", calibrated / untraced_wall, "x",
                  "sum of calibrated self times / untraced wall")
    result.account(1, [] if unattributed <= UNATTRIBUTED_TOLERANCE else [
        f"trace attributes only {1 - unattributed:.3%} of traced wall "
        f"(tolerance {UNATTRIBUTED_TOLERANCE:.0%})"])

    def calls(*keys):
        return sum(tracer.count(key) for key in keys)

    def ms_per(keys, n):
        return 1e3 * sum(tracer.inclusive(key) for key in keys) / max(n, 1)

    for layer in layers.LAYERS:
        result.metric(f"{layer}.self_share", corrected[layer] / traced_wall, "frac",
                      f"{totals[layer][0]} spans")
        result.metric(f"{layer}.py_calls_per_pkt",
                      counts["by_layer"][layer] / max(counts["emitted"], 1), "calls/pkt",
                      "sys.setprofile exact-count pass")
    uncovered = sum(counts["uncovered"].values())
    result.metric("bench.uncovered_py_calls_per_pkt", uncovered / max(counts["emitted"], 1),
                  "calls/pkt", "repro modules outside the layer table: "
                  + (", ".join(sorted(counts["uncovered"])) or "none"))

    def layer_calls(layer):
        return totals[layer][0]

    admit_keys = ("BufferManager.try_admit", "HybridBufferManager.try_admit")
    admits = calls(*admit_keys)
    admitted = sum(tracer.true_count(key) for key in admit_keys)
    result.metric("engine.events_per_pkt", traced.events / pkts, "events/pkt")
    result.metric("engine.cancelled_pending", traced.cancelled_pending, "count",
                  "summed over the round's simulations at their end")
    result.metric("engine.compactions", traced.compactions, "count")
    result.metric("sources.calls_per_pkt", layer_calls("sources") / pkts, "calls/pkt")
    result.metric("shaper.calls_per_pkt", layer_calls("shaper") / pkts, "calls/pkt")
    result.metric("port.calls_per_pkt", layer_calls("port") / pkts, "calls/pkt")
    offered = traced.admitted + traced.dropped
    result.metric("port.drop_ratio", traced.dropped / max(offered, 1), "frac",
                  "port drops / port arrivals, all hops")
    result.metric("core.admit_calls_per_pkt", admits / pkts, "calls/pkt")
    result.metric("core.admit_ratio", admitted / max(admits, 1), "frac",
                  "try_admit calls that admitted / calls")
    result.metric("sched.calls_per_pkt", layer_calls("sched") / pkts, "calls/pkt")
    result.metric("metrics.calls_per_departure",
                  layer_calls("metrics") / max(traced.transmitted, 1), "calls/departure",
                  "collector and histogram calls per port transmission")
    result.metric("net.calls_per_pkt", layer_calls("net") / pkts, "calls/pkt")
    build_ms = (tracer.inclusive("run_fabric") - tracer.inclusive("Simulator.run")) * 1e3
    result.metric("fabric.build_ms_per_job", build_ms / max(calls("run_fabric"), 1), "ms",
                  "run_fabric minus Simulator.run, traced")
    result.metric("fabric.churn_accept_ratio",
                  traced.churn_accepted / max(traced.churn_arrivals, 1), "frac",
                  f"{traced.churn_accepted} of {traced.churn_arrivals} churn arrivals")
    result.metric("campaign.digest_ms_per_job",
                  ms_per(("ScenarioJob.digest", "NetworkJob.digest"), jobs), "ms",
                  "all digests a cell costs over both passes and both aggregates")
    result.metric("campaign.record_ms_per_job",
                  ms_per(("ScenarioRecord.from_result",), calls("ScenarioRecord.from_result")),
                  "ms")
    result.metric("campaign.cache_put_ms",
                  ms_per(("ResultCache.put",), calls("ResultCache.put")), "ms")
    warm_hits = traced.extra.get("warm_hits", 0)
    result.metric("campaign.cache_hit_ratio", warm_hits / jobs if warm_hits else 0.0, "frac",
                  "warm-pass cells served from the cache / cells")
    result.metric("sweep.expand_ms_per_cell",
                  ms_per(("SweepSpec.job_for_cell",), calls("SweepSpec.job_for_cell")), "ms")
    result.metric("sweep.claim_ms_per_cell", ms_per(("try_claim", "release_claim"), jobs), "ms",
                  "try_claim + release_claim per executed cell")
    result.metric("sweep.shard_ms_per_cell", ms_per(("append_shard_row",), jobs), "ms")
    aggregates = [span for span in tracer.spans if span[0] == "aggregate_sweep"]
    result.metric("sweep.aggregate_s", aggregates[-1][3] - aggregates[-1][2] if aggregates else 0.0,
                  "s", "the warm aggregate_sweep call")
    result.metric("check.preflight_ms_per_job", ms_per(("check_scenario",), jobs), "ms",
                  f"{calls('check_scenario')} check_scenario calls")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Result:
    import workloads

    result = Result(name)
    result.extra["seed"] = seed
    workload = workloads.make(name, OUT_DIR / "tmp")
    capture = workloads.Capture()
    capture.install()
    try:
        inputs = workload.build(seed)
        workload.warm(inputs, capture)
        attempted, failed, failures = workload.extra_checks(ROOT, capture)
        result.account(attempted, failures, failed)
        if trace:
            run_traced(workload, inputs, capture, result)
        else:
            run_untraced(workload, inputs, capture, seed, seconds, result)
    finally:
        capture.uninstall()
    result.metric("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "MB", "peak resident set of this process")
    ok = 1.0 - result.failed / max(result.attempted, 1)
    result.metric("ok_frac", ok, "frac", f"failed_frac = {1.0 - ok:g} "
                  f"({result.failed} of {result.attempted} runs and checks failed)")
    return result


def report(results: list[Result], trace: bool, names: dict) -> dict:
    """Print each metric by name and unit; return the final JSON object."""
    metrics = {}
    for result in results:
        print(f"# workload {result.workload}  seed {result.extra['seed']}  trace {int(trace)}")
        print("# provenance " + json.dumps(provenance(result.equeue), sort_keys=True))
        for failure in result.failures:
            print(f"# FAILED {failure}")
        for metric in names["end_to_end" if not trace else "per_layer"]:
            value, unit, note = result.metrics[metric]
            print(f"{metric:34s} {value:16.6g} {unit:15s} {note}")
            key = metric if len(results) == 1 else f"{result.workload}/{metric}"
            metrics[key] = {"value": value, "unit": unit}
        OUT_DIR.joinpath("results").mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / "results" / f"{result.workload}-seed{result.extra['seed']}-trace{int(trace)}.json"
        path.write_text(json.dumps({
            "workload": result.workload,
            "provenance": provenance(result.equeue),
            "metrics": {k: {"value": v, "unit": u, "note": n}
                        for k, (v, u, n) in result.metrics.items()},
            "attempted": result.attempted,
            "failed": result.failed,
            "failures": result.failures,
            "extra": result.extra,
        }, indent=1, default=str) + "\n", encoding="utf-8")
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def metric_names() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": [entry["name"] for entry in spec["end_to_end"]],
        "per_layer": [entry["name"] for entry in spec["per_layer"]],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.setup_probe:
        workloads.make(args.workload, OUT_DIR / "tmp").build(args.seed)
        print("ready", flush=True)
        return 0
    names = workloads.WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        if name not in workloads.WORKLOAD_NAMES:
            parser.error(f"unknown workload {name!r}; choose from {workloads.WORKLOAD_NAMES} or all")
    metrics = metric_names()
    results = []
    for name in names:
        try:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
        except Exception:  # noqa: BLE001 - a crashed workload is reported, not a result
            traceback.print_exc()
            fail_without_result(f"workload {name} raised; no result")
    summary = report(results, bool(args.trace), metrics)
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
