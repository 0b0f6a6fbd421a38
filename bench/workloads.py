"""The three benchmark workloads and the recorder that times and checks
every operation.

A workload is a cycle of operations repeated until the run's time is up.
Cycle k draws its inputs from ``numpy.random.default_rng([seed, k])``, so
a seed fixes every input of a run.  Each cycle has three timed stages;
``STAGES`` maps them to the operations named in the workload's ``why``.
Operations call the public API in-process: ``bellband.cli.main(argv)`` for
commands, ``bellband.band.lp_band`` and ``feasible_distribution`` for the
oracle.  Every name is looked up as a module attribute at call time, so
the traced run's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bellband.band as band
import bellband.cli as cli
import bellband.core as core
from bellband.sampling import JointDistribution4

import checks
from calibration import Calibrator


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, tests shrink them."""

    rows: int = 1_000_000            # simulate / octet / boole
    map_resolution: int = 50         # band-map
    scan_resolution: int = 50        # scan --candidate product
    grid_scan_resolution: int = 25   # scan --candidate grid
    candidate_resolution: int = 10   # the tabulated product grid candidate
    oracle_batch: int = 200          # random triples per oracle cycle
    oracle_rows_checked: int = 32    # band-map rows checked against lp_band


#: workload -> its three stages, in cycle order
STAGES = {
    "sequences": ("simulate", "octet", "boole"),
    "grid": ("band_map", "scan", "scan_grid"),
    "oracle": ("lp_band", "feasible_distribution", "analyze"),
}

#: workload -> the stages whose items count towards ``items_per_s``
THROUGHPUT_STAGES = {
    "sequences": ("simulate", "octet", "boole"),
    "grid": ("band_map", "scan", "scan_grid"),
    "oracle": ("lp_band", "feasible_distribution"),
}

_MAX_ERRORS_SHOWN = 5


def run_cli(argv):
    """(exit code, stdout) of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, buf.getvalue()


class Recorder:
    """Times every operation from outside, runs its output check and
    counts attempts and failures.  Between operations it times the
    calibration kernel, so each wall time can be scaled to the reference
    machine speed (``calibration``)."""

    def __init__(self, workdir: Path):
        self.workdir = str(workdir)
        self.latencies = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.hashes = defaultdict(list)
        self.cycle_busy = defaultdict(float)
        self.tracer = None
        self.calibrator = Calibrator()

    def op(self, stage: str, call, check, output=None):
        """Run ``call()``, time it, and count it failed if it raises or
        ``check(result)`` reports a problem.  ``output(result)`` gives the
        bytes hashed for the record."""
        self.attempted += 1
        self.calibrator.maybe()
        scope = self.tracer.root(stage) if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                result = call()
        except Exception:  # a failing operation is counted, the run goes on
            self._fail(stage, [traceback.format_exc(limit=3)])
            return None
        elapsed = time.perf_counter() - t0
        self.latencies[stage].append(elapsed)
        self.cycle_busy[stage] += elapsed
        try:
            problems = check(result)
        except Exception:  # a check that cannot read the output fails it
            problems = [traceback.format_exc(limit=3)]
        if problems:
            self._fail(stage, problems)
        elif output is not None:
            self.hashes[stage].append(hashlib.sha256(output(result)).hexdigest())
        return result

    def _fail(self, stage, problems):
        self.failed += 1
        if len(self.errors) < _MAX_ERRORS_SHOWN:
            self.errors.append({"stage": stage, "problems": [str(p)[:400] for p in problems[:3]]})
            print(f"bench: {stage} failed: {problems[0]}", file=sys.stderr)

    def cli_output(self, path=None):
        """Hash input for a CLI op: its stdout with the work directory
        masked, then the bytes of its output file."""
        def output(result):
            text = result[1].replace(self.workdir, "<work>").encode()
            return text + (Path(path).read_bytes() if path else b"")
        return output


class Workload:
    """Shared state of one run: inputs, sizes, work directory, recorder."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, recorder: Recorder):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.rec = recorder

    def rng(self, cycle: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, cycle])

    def setup(self) -> None:
        """Work done once per run, before the clock starts."""

    def cycle(self, k: int) -> float:
        """Run cycle k; return the number of items it processed."""
        raise NotImplementedError


class Sequences(Workload):
    """The file pipeline at 10^6 rows: simulate, octet, boole."""

    name = "sequences"

    def cycle(self, k):
        rng = self.rng(k)
        n = self.sizes.rows
        # angles stay 0.2 rad clear of 0 and pi, where every correlation
        # is +-1 and a 6-sigma test has no spread to work with
        theta = float(rng.uniform(0.2, math.pi - 0.2))
        thetas = [float(t) for t in rng.uniform(0.2, math.pi - 0.2, 3)]
        seeds = [int(s) for s in rng.integers(0, 2**63, 2)]
        pairs = self.workdir / "pairs.csv"
        octet = self.workdir / "octet.csv"
        rec = self.rec

        argv = ["simulate", "--theta", repr(theta), "--n", str(n),
                "--seed", str(seeds[0]), "--out", str(pairs)]
        rec.op("simulate", lambda: run_cli(argv),
               lambda r: checks.check_simulate(*r, pairs.read_bytes(), theta, n),
               rec.cli_output(pairs))

        argv_o = ["octet", "--theta1", repr(thetas[0]), "--theta2", repr(thetas[1]),
                  "--theta3", repr(thetas[2]), "--n", str(n), "--seed", str(seeds[1]),
                  "--out", str(octet)]
        lo, hi = checks.closed_band(*(-math.cos(t) for t in thetas))
        rec.op("octet", lambda: run_cli(argv_o),
               lambda r: checks.check_octet(*r, octet.read_bytes(), thetas, n,
                                            (float(lo), float(hi))),
               rec.cli_output(octet))

        argv_b = ["boole", "--in", str(octet)]
        rec.op("boole", lambda: run_cli(argv_b),
               lambda r: checks.check_boole(*r, octet.read_bytes()),
               rec.cli_output())
        return 3.0 * n


def write_grid_candidate(workdir: Path, r: int):
    """Tabulate ``product`` on the resolution-r node lattice as a grid
    candidate document; return the nodes (r, r, r) and the file path."""
    nodes = checks.product_values(checks.grid_points(r))
    path = workdir / "candidate.json"
    doc = {"kind": "grid", "name": f"product-r{r}", "resolution": r, "values": nodes.tolist()}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return nodes.reshape(r, r, r), path


class Grid(Workload):
    """Whole-cube tables: band-map, a product scan and a grid scan."""

    name = "grid"

    def setup(self):
        self.nodes, self.candidate = write_grid_candidate(
            self.workdir, self.sizes.candidate_resolution)

    def cycle(self, k):
        s = self.sizes
        rng = self.rng(k)
        out = self.workdir / "map.csv"
        rec = self.rec
        oracle_rows = rng.choice(s.map_resolution ** 3, size=s.oracle_rows_checked, replace=False)

        argv = ["band-map", "--resolution", str(s.map_resolution), "--out", str(out)]
        rec.op("band_map", lambda: run_cli(argv),
               lambda r: checks.check_band_map(*r, out.read_bytes(), s.map_resolution,
                                               oracle_rows, band.lp_band),
               rec.cli_output(out))

        argv_s = ["scan", "--candidate", "product", "--resolution", str(s.scan_resolution)]
        rec.op("scan", lambda: run_cli(argv_s),
               lambda r: checks.check_scan(*r, s.scan_resolution, checks.product_values),
               rec.cli_output())

        argv_g = ["scan", "--candidate", "grid", "--candidate-file", str(self.candidate),
                  "--resolution", str(s.grid_scan_resolution)]
        rec.op("scan_grid", lambda: run_cli(argv_g),
               lambda r: checks.check_scan(
                   *r, s.grid_scan_resolution,
                   lambda theta: checks.trilinear_values(self.nodes, theta)),
               rec.cli_output())
        return float(s.map_resolution ** 3 + s.scan_resolution ** 3
                     + s.grid_scan_resolution ** 3)


def _edge_triples(rng) -> np.ndarray:
    """Triples with components at 0 or pi, where correlations are +-1:
    the eight corners; every placement of one free angle t with the other
    two at 0 or pi; and every placement of one component at 0 or pi with
    the other two free.  With two or more components at an edge the band
    collapses to a point; with one it stays wide."""
    edges = (0.0, math.pi)
    corners = [[a, b, c] for a in edges for b in edges for c in edges]
    t, s = (float(x) for x in rng.uniform(0.0, math.pi, 2))
    two_edges = [triple[:free] + [t] + triple[free:]
                 for free in range(3) for triple in ([a, b] for a in edges for b in edges)]
    one_edge = [[t, s][:fixed] + [a] + [t, s][fixed:] for fixed in range(3) for a in edges]
    return np.array(corners + two_edges + one_edge)


class Oracle(Workload):
    """Many small calls: lp_band, feasible_distribution and analyze."""

    name = "oracle"

    def setup(self):
        _, self.candidate = write_grid_candidate(self.workdir, self.sizes.candidate_resolution)

    def cycle(self, k):
        rng = self.rng(k)
        thetas = np.vstack([rng.uniform(0.0, math.pi, (self.sizes.oracle_batch, 3)),
                            _edge_triples(rng)])
        fractions = rng.uniform(0.0, 1.0, thetas.shape[0])
        analyze_seed = int(rng.integers(0, 2**32))
        patterns = JointDistribution4.PATTERNS
        rec = self.rec
        lp_bytes, dist_bytes = hashlib.sha256(), hashlib.sha256()

        for theta, u in zip(thetas, fractions):
            c = [-math.cos(t) for t in theta]
            lp = rec.op("lp_band", lambda: band.lp_band(*c),
                        lambda r: checks.check_lp(
                            r, c, band.feasible_band(core.AngleTriple(*theta)), patterns))
            lo, hi = (float(x) for x in checks.closed_band(*c))
            f = lo + u * (hi - lo)
            dist = rec.op("feasible_distribution",
                          lambda: band.feasible_distribution(*c, f),
                          lambda r: checks.check_distribution(r, c, f, patterns))
            if lp is not None:
                lp_bytes.update(np.array([lp.min_value, lp.max_value]).tobytes())
            if dist is not None:
                dist_bytes.update(dist.p.tobytes())
        rec.hashes["lp_band"].append(lp_bytes.hexdigest())
        rec.hashes["feasible_distribution"].append(dist_bytes.hexdigest())

        for kind in ("locality", "product", "product-diagonal", "grid"):
            argv = ["analyze", "--candidate", kind, "--seed", str(analyze_seed)]
            name, grid_r = kind, None
            if kind == "grid":
                argv += ["--candidate-file", str(self.candidate)]
                grid_r = self.sizes.candidate_resolution
                name = f"product-r{grid_r}"
            rec.op("analyze", lambda: run_cli(argv),
                   lambda r: checks.check_analyze(*r, name, grid_r),
                   rec.cli_output())
        return 2.0 * thetas.shape[0]


WORKLOADS = {w.name: w for w in (Sequences, Grid, Oracle)}
