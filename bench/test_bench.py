"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

They sit outside the package's ``testpaths``, so the package's own test
run does not collect them.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import pytest

import calibration
import run

sys.path.insert(0, str(run.SRC))

import bellband.band as band  # noqa: E402
import bellband.cli as cli  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = workloads.Sizes(rows=2000, map_resolution=6, scan_resolution=6,
                       grid_scan_resolution=5, candidate_resolution=4,
                       oracle_batch=5, oracle_rows_checked=4)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path, name, trace=0, seconds=0.3):
    return run.run_workload(name, 7, seconds, trace, tmp_path, TINY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["sequences", "grid", "oracle"])
def test_workload_completes_without_failures(tmp_path, name, trace):
    rec, summary, tracer = _run(tmp_path, name, trace)
    assert summary["cycles"] >= 1
    assert rec.attempted > 0 and rec.failed == 0, rec.errors
    for stage in workloads.STAGES[name]:
        assert rec.latencies[stage]
    if trace:
        assert tracer.root_gap <= 1e-9
        assert not tracer.installed


def test_same_seed_gives_same_outputs(tmp_path):
    first, _, _ = run.run_workload("sequences", 11, 1e-6, 0, tmp_path, TINY)
    second, _, _ = run.run_workload("sequences", 11, 1e-6, 0, tmp_path, TINY)
    assert first.hashes == second.hashes


def test_flipped_cell_counts_as_failure(tmp_path, monkeypatch):
    write = cli._write_sequence_csv

    def write_then_flip(path, columns):
        write(path, columns)
        data = bytearray(Path(path).read_bytes())
        cell = data.index(b"\n") + 1            # first cell of the first row
        data[cell] = ord("-") if data[cell] == ord("+") else ord("+")
        Path(path).write_bytes(bytes(data))

    monkeypatch.setattr(cli, "_write_sequence_csv", write_then_flip)
    rec, summary, _ = _run(tmp_path, "sequences", seconds=1e-6)
    # simulate and octet report correlations their files no longer give
    assert rec.failed == 2 and rec.attempted == 3


def test_nudged_band_map_endpoint_counts_as_failure(tmp_path, monkeypatch):
    band_map = cli.band_map

    def nudged(resolution):
        rows = band_map(resolution)
        rows[len(rows) // 2, 3] += 1e-6
        rows[len(rows) // 2, 5] -= 1e-6          # keep width = hi - lo
        return rows

    monkeypatch.setattr(cli, "band_map", nudged)
    rec, _, _ = _run(tmp_path, "grid", seconds=1e-6)
    assert rec.failed == 1
    assert rec.errors[0]["stage"] == "band_map"


def test_nudged_lp_endpoint_counts_as_failure(tmp_path, monkeypatch):
    lp_band = band.lp_band

    @dataclass
    class Nudged:
        min_value: float
        max_value: float
        witness_min: object
        witness_max: object

    def nudged(c1, c2, c3):
        r = lp_band(c1, c2, c3)
        return Nudged(r.min_value - 1e-6, r.max_value, r.witness_min, r.witness_max)

    monkeypatch.setattr(band, "lp_band", nudged)
    rec, _, _ = _run(tmp_path, "oracle", seconds=1e-6)
    lp_attempts = len(rec.latencies["lp_band"])
    assert lp_attempts > 0
    assert rec.failed >= lp_attempts


def test_tracer_restores_every_wrapped_name():
    tracer = Tracer()
    layers.install(tracer)
    wrapped = tracer.installed
    assert len(wrapped) >= 15
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is not original
    tracer.uninstall()
    for owner, attr, original in wrapped:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original
    assert not tracer.installed


def test_self_times_add_up_to_each_root():
    tracer = Tracer()

    class Owner:
        @staticmethod
        def leaf(x):
            return sum(range(x))

        @staticmethod
        def middle(x):
            return Owner.leaf(x) + Owner.leaf(x)

    tracer.wrap(Owner, "leaf", "leaf", kind="agg")
    tracer.wrap(Owner, "middle", "middle")
    try:
        Owner.middle(10)                      # outside any root: not traced
        assert not tracer.spans
        with tracer.root("op"):
            Owner.middle(20000)
            Owner.leaf(20000)
    finally:
        tracer.uninstall()
    (root,) = [s for s in tracer.spans.values() if s[0] == "op"]
    total_self = sum(s[4] for s in tracer.spans.values()) + tracer.totals["leaf"][2]
    assert abs((root[3] - root[2]) - total_self) <= 1e-9
    assert tracer.totals["leaf"][0] == 3
    assert tracer.root_gap <= 1e-9


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_carries_every_declared_metric(monkeypatch, trace):
    @dataclass(frozen=True)
    class Tiny(workloads.Sizes):
        rows: int = TINY.rows
        map_resolution: int = TINY.map_resolution
        scan_resolution: int = TINY.scan_resolution
        grid_scan_resolution: int = TINY.grid_scan_resolution
        candidate_resolution: int = TINY.candidate_resolution
        oracle_batch: int = TINY.oracle_batch

    monkeypatch.setattr(workloads, "Sizes", Tiny)
    monkeypatch.setattr(run, "measure_setup", lambda: ([0.5, 0.6, 0.7], [0.5, 0.6, 0.7]))
    out = io.StringIO()
    with redirect_stdout(out):
        rc = run.main(["--workload", "oracle", "--seed", "3", "--seconds", "0.2",
                       "--trace", str(trace)])
    assert rc == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_calibration_scales_by_the_mean_kernel_time():
    cal = calibration.Calibrator()
    cal.times = [0.002, 0.006]
    assert cal.factor == pytest.approx(calibration.REFERENCE_S / 0.004)
    cal.maybe()                                # first call always times the kernel
    cal.maybe()                                # the second comes too soon
    assert len(cal.times) == 3
