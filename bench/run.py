"""bellband benchmark: one workload in one fresh process.

    python3 bench/run.py --workload {sequences,grid,oracle} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere inside a checkout of the repository; the package is
imported from its ``src/`` directory.  The run repeats the workload's
cycle for S seconds, checks every output, and prints two JSON lines: a
report with the environment, every stage's timings under the names
README.md lists, output hashes and any failures; then, last, the result
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, their times scaled to a
reference machine speed (``calibration``); with ``--trace 1`` the
package is wrapped by ``tracer.Tracer`` and the metrics are the per-layer
ones, and the spans are written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from calibration import REFERENCE_S, Calibrator, scale

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: fresh-interpreter imports timed per run for ``setup_s``
SETUP_REPEATS = 5

#: share of samples dropped at each end before a stage's mean is taken
TRIM = 0.05

#: each workload's named figures in the report, all raw wall-clock figures:
#: (name, stage or None for the throughput, scale, unit)
NAMED = {
    "sequences": [("rows_per_s", None, 1.0, "1/s"), ("simulate_p50_s", "simulate", 1.0, "s"),
                  ("octet_p50_s", "octet", 1.0, "s"), ("boole_p50_s", "boole", 1.0, "s")],
    "grid": [("points_per_s", None, 1.0, "1/s"), ("band_map_p50_s", "band_map", 1.0, "s"),
             ("scan_p50_s", "scan", 1.0, "s"), ("scan_grid_p50_s", "scan_grid", 1.0, "s")],
    "oracle": [("solves_per_s", None, 1.0, "1/s"), ("lp_band_p50_us", "lp_band", 1e6, "us"),
               ("lp_band_p90_us", "lp_band", 1e6, "us"), ("analyze_p50_ms", "analyze", 1e3, "ms")],
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="bellband benchmark")
    parser.add_argument("--workload", required=True, choices=("sequences", "grid", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing ``bellband.cli``, the
    start-up every CLI invocation pays, raw and calibrated."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    calibrator = Calibrator()
    raw = []
    for _ in range(repeats):
        calibrator.now()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import bellband.cli"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL, timeout=120)
        raw.append(time.perf_counter() - t0)
    calibrator.now()
    return raw, [t * calibrator.factor for t in raw]


def quantile(values, q: float) -> float:
    """The q-quantile by linear interpolation; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def trimmed_mean(values, cut: float = TRIM) -> float:
    """Mean of the values left after dropping the lowest and highest
    ``cut`` share of them; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k:len(ordered) - k])


def run_workload(name, seed, seconds, trace, workdir, sizes=None):
    """Run one workload; return (recorder, summary dict, tracer or None)."""
    import layers
    from tracer import Tracer
    from workloads import THROUGHPUT_STAGES, WORKLOADS, Recorder, Sizes

    sizes = sizes or Sizes()
    rec = Recorder(workdir)
    workload = WORKLOADS[name](seed, sizes, workdir, rec)
    workload.setup()
    tracer = Tracer() if trace else None
    items, overheads = 0.0, []
    cycles = 0
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if tracer is None:
            items += workload.cycle(cycles)
        else:
            # the same inputs untraced and traced, in alternating order; each
            # cycle's time is calibrated by the kernel times taken during it
            busy = {}
            for traced in ((False, True) if cycles % 2 == 0 else (True, False)):
                rec.cycle_busy.clear()
                first = len(rec.calibrator.times)
                if traced:
                    layers.install(tracer)
                    rec.tracer = tracer
                try:
                    workload.cycle(cycles)
                finally:
                    rec.tracer = None
                    tracer.uninstall()
                rec.calibrator.maybe()
                kernel = rec.calibrator.times[first:] or rec.calibrator.times[-1:]
                busy[traced] = sum(rec.cycle_busy.values()) * scale(kernel)
            overheads.append(busy[True] - busy[False])
        cycles += 1
        gc.collect()
        now = time.perf_counter()
        # stop before a cycle that would end past the deadline
        if now - start + (now - began) > seconds:
            break
    rec.calibrator.now()
    busy = sum(sum(rec.latencies[s]) for s in THROUGHPUT_STAGES[name])
    raw_rate = items / busy if busy > 0 else 0.0
    summary = {"cycles": cycles, "measured_s": time.perf_counter() - start,
               "items_per_s_raw": raw_rate,
               "items_per_s": raw_rate / rec.calibrator.factor,
               "overhead_s": statistics.median(overheads) if overheads else 0.0}
    return rec, summary, tracer


def environment(args, sizes) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": asdict(sizes),
    }


def end_to_end(name, rec, summary, setup_times) -> dict:
    """The gated metrics; every time in them is calibrated."""
    from workloads import STAGES

    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "items_per_s": (summary["items_per_s"], "1/s"),
    }
    for k, stage in enumerate(STAGES[name], start=1):
        metrics[f"stage{k}_mean_ms"] = (
            trimmed_mean(rec.latencies[stage]) * rec.calibrator.factor * 1e3, "ms")
    return metrics


def named_metrics(name, rec, summary) -> dict:
    out = {}
    for metric, stage, scale, unit in NAMED[name]:
        if stage is None:
            value, samples = summary["items_per_s_raw"], summary["cycles"]
        else:
            q = 0.9 if "_p90_" in metric else 0.5
            value, samples = quantile(rec.latencies[stage], q) * scale, len(rec.latencies[stage])
        out[metric] = {"value": value, "unit": unit, "samples": samples}
    out["fail_ratio"] = {"value": rec.failed / max(rec.attempted, 1), "unit": "ratio",
                         "samples": rec.attempted}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bellband" / "__init__.py").is_file():
        print(f"bench: no bellband package under {SRC}", file=sys.stderr)
        return 2
    setup_raw, setup_times = measure_setup() if not args.trace else ([], [])
    sys.path.insert(0, str(SRC))
    import layers
    from workloads import STAGES, Sizes

    sizes = Sizes()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rec, summary, tracer = run_workload(args.workload, args.seed, args.seconds,
                                            args.trace, workdir, sizes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "bench": "bellband",
        "workload": args.workload,
        "env": environment(args, sizes),
        "stages": {
            stage: {"samples": len(rec.latencies[stage]),
                    "p50_s": quantile(rec.latencies[stage], 0.5),
                    "p90_s": quantile(rec.latencies[stage], 0.9),
                    "trimmed_mean_s": trimmed_mean(rec.latencies[stage])}
            for stage in STAGES[args.workload]
        },
        "calibration_kernel_s": {
            "samples": len(rec.calibrator.times),
            "median": statistics.median(rec.calibrator.times),
            "min": min(rec.calibrator.times), "max": max(rec.calibrator.times),
            "reference": REFERENCE_S,
            "factor": rec.calibrator.factor,
        },
        "cycles": summary["cycles"],
        "measured_s": summary["measured_s"],
        "errors": rec.errors,
        "output_sha256": dict(rec.hashes),
    }
    correct = rec.failed == 0
    if tracer is None:
        report["setup_s_samples"] = {"raw": setup_raw, "calibrated": setup_times}
        report["named"] = named_metrics(args.workload, rec, summary)
        metrics = end_to_end(args.workload, rec, summary, setup_times)
    else:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        spans_path = out / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path)
        values = layers.layer_metrics(tracer, summary["cycles"], summary["overhead_s"],
                                      rec.calibrator.factor)
        metrics = {k: (values[k], unit) for k, unit in layers.LAYER_UNITS.items()}
        report["trace"] = {"spans_file": str(spans_path.relative_to(ROOT)),
                           "spans": len(tracer.spans), "root_gap_s": tracer.root_gap,
                           "band.lp_band.bases": "computed: calls x non-singular bases"}
        if tracer.root_gap > 1e-9:
            correct = False
            report["errors"].append({"stage": "trace", "problems": [
                f"self times miss a root span by {tracer.root_gap} s"]})
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
