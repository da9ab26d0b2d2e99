"""Benchmark entry point: two cold Table-II grids and warm service campaigns.

Run from the root of a checkout::

    python3 perfbench/run.py --workload grid-low --seed 42 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs one untraced pass, one pass with spans around the
program's public calls, and (grids) one cProfile pass inside
``Machine.run``, and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINS = os.path.join(HERE, "pins.json")
#: Scratch (caches, service state) and run records, inside the checkout.
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
RECORDS = os.path.join(ROOT, ".perfbench_runs")

WORKLOADS = ("grid-low", "grid-contention", "service-campaigns")
#: Set-up samples per run; setup_s is their median.
SETUP_SAMPLES = 5
#: Untimed iterations before the service loop is timed.
SERVICE_WARMUP = 5
#: Timed service iterations per second of --seconds.  The count is fixed
#: by the arguments, not by the host's speed, so the service's retained
#: job state (and so its memory and GC work) is the same on every run.
SERVICE_ITERATIONS_PER_S = 16
#: Fixed traced service iterations (100 leaves 10 samples past p90).
SERVICE_TRACED = 100

END_TO_END_UNITS = {
    "grid_s": "s",
    "campaign_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Every per-layer metric, in report order, with its unit.
PER_LAYER_UNITS = {
    "workloads.build_ms": "ms", "workloads.builds": "count",
    "sim.acquire_ms": "ms", "pool.builds": "count", "pool.reuses": "count",
    "sim.run_ms": "ms", "sim.events": "count", "sim.ring_events": "count",
    "sim.heap_events": "count", "sim.host_ns_per_event": "ns",
    "sim.engine_share": "ratio", "sim.cpu_share": "ratio",
    "sim.tx_step_calls": "count",
    "mem.access_calls": "count", "mem.access_per_commit": "ratio",
    "mem.l1_hit_ratio": "ratio", "mem.memsys_share": "ratio",
    "mem.cachearray_share": "ratio", "mem.directory_share": "ratio",
    "noc.messages": "count", "noc.flits": "count", "noc.hops": "count",
    "noc.share": "ratio",
    "core.resolve_calls": "count", "core.share": "ratio",
    "htm.attempts": "count", "htm.commit_ratio": "ratio",
    "htm.aborts.mc": "count", "htm.aborts.lock": "count",
    "htm.aborts.mutex": "count", "htm.aborts.non_tran": "count",
    "htm.aborts.of": "count", "htm.aborts.fault": "count",
    "htm.nacks_issued": "count", "htm.wakeups": "count",
    "htm.fallback_entries": "count", "htm.switch_successes": "count",
    "htm.signature_spills": "count",
    "sim.validate_ms": "ms",
    "runcache.get_ms": "ms", "runcache.put_ms": "ms",
    "runcache.hits": "count", "runcache.misses": "count",
    "runcache.stores": "count",
    "service.submit_ms": "ms", "service.complete_ms": "ms",
    "service.results_ms": "ms", "service.cells_from_cache": "count",
    "service.cells_deduped": "count", "service.cells_scheduled": "count",
    "service.dedup_ratio": "ratio", "service.rejects_429": "count",
    "service.cold_cell_ms": "ms", "service.cold_cell_share": "ratio",
    "service.campaign_ms_p90": "ms",
    "code.src_lines": "lines",
    "trace.overhead_ms": "ms",
}


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", flush=True)


def fail_setup(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready', tear down (set-up sample)")
    return ap.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path, or stop."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        fail_setup(f"no program sources under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        fail_setup(f"imported repro from {repro.__file__}, not {SRC}")


def load_pins(seed: int, workload: str):
    with open(PINS, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["seeds"].get(str(seed), {}).get(workload)


def src_lines() -> int:
    """Non-blank, non-comment lines of Python under src/repro."""
    total = 0
    for dirpath, _dirs, files in os.walk(os.path.join(SRC, "repro")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(
                        1 for line in fh
                        if line.strip() and not line.strip().startswith("#")
                    )
    return total


def peak_rss_mb() -> float:
    """Max ``ru_maxrss`` of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def setup(args, scratch: str):
    """Everything before the first timed round; returns the workload run."""
    pins = load_pins(args.seed, args.workload)
    if args.workload == "service-campaigns":
        from serviceload import ServiceRun

        run = ServiceRun(args.seed, scratch, pins)
        try:
            run.fill()
        except BaseException:
            run.close()
            raise
        return run
    from gridload import GridRun, make_sweep

    return GridRun(make_sweep(args.workload, args.seed), pins, scratch)


def setup_samples(args) -> list:
    """Normalized wall time from process start to ready, in fresh processes.

    Each sample is followed by a calibration slice, like every other
    timed operation, so a slow window does not move the set-up median.
    """
    import calibrate
    import metrics

    samples, slices = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stdin=subprocess.DEVNULL, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up sample exited {code}: {line!r}")
        samples.append(ready)
        slices.append(calibrate.slice_time())
    log(f"raw set-up samples (s, not gated): {samples}")
    return metrics.normalize(samples, slices, calibrate.REF_S)


def run_grid(args, run, deadline_s: float) -> dict:
    import metrics

    start = time.perf_counter()
    while True:
        wall = run.timed_round()
        elapsed = time.perf_counter() - start
        if len(run.rounds) >= 2 and elapsed + wall > deadline_s:
            break
        if elapsed > 3 * deadline_s:
            break  # failing rounds: stop rather than spin
    if not run.rounds:
        return {}
    raw_walls = [sum(r) for r in run.rounds]
    extra = {
        "rounds": len(run.rounds),
        "raw_best_s": metrics.best_of_rounds_sum(run.rounds),
        "raw_round_median_s": statistics.median(raw_walls),
    }
    log(f"raw and alternative figures (printed, not gated): "
        f"{json.dumps(extra, sort_keys=True)}")
    return {
        "grid_s": metrics.best_of_rounds_sum(run.normalized),
        "campaign_ms_p50": 1e3 * statistics.median(
            sum(r) for r in run.normalized),
        "extra": extra,
    }


def run_service(args, run, seconds: float) -> dict:
    import metrics

    for _ in range(SERVICE_WARMUP):
        run.iteration()
    run.samples_ms.clear()
    run.slices.clear()
    for _ in range(max(1, round(SERVICE_ITERATIONS_PER_S * seconds))):
        run.iteration()
    if not run.samples_ms:
        return {}
    normalized = run.normalized_ms()
    q1 = statistics.quantiles(normalized, n=4)[0]
    extra = {
        "iterations": len(normalized),
        "raw_p50_ms": statistics.median(run.samples_ms),
        "raw_min_ms": min(run.samples_ms),
    }
    log(f"raw and alternative figures (printed, not gated): "
        f"{json.dumps(extra, sort_keys=True)}")
    tail = metrics.tail_percentile(normalized)
    if tail is not None:
        log(f"campaign_ms p{tail[0]:g}={tail[1]:.4f} n={tail[2]} "
            "(tail percentile is printed, not gated)")
    return {
        "grid_s": q1 / 1e3,
        "campaign_ms_p50": statistics.median(normalized),
        "extra": extra,
        # Kept in the run record so a run can be re-analysed afterwards.
        "samples": {"raw_ms": run.samples_ms, "slices_s": run.slices},
    }


def trace_pass(args, run):
    """Untraced pass, then traced passes; returns per-layer metrics."""
    values = {name: 0 for name in PER_LAYER_UNITS}
    if args.workload == "service-campaigns":
        import serviceload

        first = len(run.samples_ms)
        for _ in range(SERVICE_TRACED):
            run.iteration()
        untraced_ms = sum(run.normalized_ms()[first:])
        layers, tracer = serviceload.layer_report(run, SERVICE_TRACED,
                                                  untraced_ms)
    else:
        import gridload

        run.timed_round()
        layers, tracer = gridload.layer_report(run, sum(run.normalized[-1]))
    values.update(layers)
    values["code.src_lines"] = src_lines()
    log(f"tracing overhead: normalized traced time - untraced time = "
        f"{values['trace.overhead_ms']:.1f} ms")
    return values, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, HERE)
    from session import Session

    scratch = os.path.join(SCRATCH, f"{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    # Temporary files of this process and its children stay in the checkout.
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = None
    try:
        if args.setup_only:
            run = setup(args, scratch)
            print("ready", flush=True)
            run.close()
            return 0
        pin_to_one_cpu()
        return measure(args, scratch, Session(ROOT))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU.

    Timed work and its calibration slices then share a CPU; on the
    2-vCPU VM the two vCPUs drift between fast and slow independently.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def measure(args, scratch: str, session) -> int:
    setup_s = None
    if not args.trace:
        setup_s = statistics.median(setup_samples(args))
    run = setup(args, scratch)
    tracer = None
    try:
        if args.trace:
            values, tracer = trace_pass(args, run)
            units = PER_LAYER_UNITS
        else:
            if args.workload == "service-campaigns":
                values = run_service(args, run, args.seconds)
            else:
                values = run_grid(args, run, args.seconds)
            units = END_TO_END_UNITS
    finally:
        run.close()
    if not args.trace:
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = peak_rss_mb()
    record = session.finish()
    attempted, failed = run.attempted, run.failed
    correct = failed == 0 and attempted > 0 and set(units) <= set(values)
    log(f"session: {json.dumps(record, sort_keys=True)}")
    log(f"failed: {failed}/{attempted} operations "
        f"({100.0 * failed / max(attempted, 1):.2f}%)")
    for err in run.errors[:5]:
        log(f"error: {err}")
    os.makedirs(RECORDS, exist_ok=True)
    stem = os.path.join(
        RECORDS, f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}-"
        f"{args.workload}-s{args.seed}-t{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "session": record,
                   "values": values, "attempted": attempted,
                   "failed": failed, "errors": run.errors[:20]},
                  fh, sort_keys=True, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")
    for name in units:
        if name in values:
            log(f"{name} = {values[name]} {units[name]}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
