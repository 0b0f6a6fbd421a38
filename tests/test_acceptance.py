"""Acceptance suite: one test per criterion, each printing a pass line."""

import itertools
import json
import math
import time

import numpy as np

from bellband import (
    AngleTriple,
    F4Candidate,
    axis_derivative_check,
    boole_check,
    contradiction_report,
    correlations_from_angles,
    chsh_value,
    direction_quotients,
    feasible_band,
    gradient_at_origin,
    inequality_scan,
    lp_band,
    polytope_member,
)
from bellband.cli import main
from bellband.f4 import BUILTIN_KINDS


def _report(n, text):
    print(f"criterion {n}: PASS - {text}")


def _fuzz_grid(resolution, seed, force_diagonal):
    rng = np.random.default_rng(seed)
    axis = np.linspace(0, math.pi, resolution)
    values = np.empty((resolution,) * 3)
    for i1, t1 in enumerate(axis):
        for i2, t2 in enumerate(axis):
            for i3, t3 in enumerate(axis):
                band = feasible_band(AngleTriple(t1, t2, t3))
                values[i1, i2, i3] = min(max(rng.uniform(-1, 1), band.lo), band.hi)
                if force_diagonal and i1 == i2 == i3:
                    values[i1, i2, i3] = -math.cos(t1)
    return F4Candidate.from_grid(resolution, values.ravel(), name=f"fuzz-{seed}")


def test_criterion_1_band_corner():
    band = feasible_band(AngleTriple(0, 0, 0))
    assert band.lo == -1.0 and band.hi == -1.0  # exact, zero tolerance
    _report(1, "feasible_band(0,0,0) is exactly [-1,-1]")


def test_criterion_2_axis_forcing():
    candidate = F4Candidate.builtin("product-diagonal")
    for t in np.linspace(0.01, math.pi - 0.01, 50):
        band = feasible_band(AngleTriple(t, 0, 0))
        assert abs(band.lo + math.cos(t)) <= 1e-12
        assert abs(band.hi + math.cos(t)) <= 1e-12
        assert axis_derivative_check(candidate, t)[0] <= 1e-4
    _report(2, "axis bands are cosine singletons and axis derivatives match sin t")


def test_criterion_3_bell_violation():
    theta = AngleTriple(3 * math.pi / 4, math.pi / 4, math.pi / 4)
    vector = correlations_from_angles(theta, F4Candidate.builtin("locality"))
    assert abs(chsh_value(vector) - 2 * math.sqrt(2)) <= 1e-12
    assert polytope_member(vector) is False
    _report(3, "locality candidate reaches 2*sqrt(2) and leaves the polytope")


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(2718)
    start = time.perf_counter()
    for _ in range(200):
        theta = AngleTriple(*rng.uniform(0, math.pi, 3))
        band = feasible_band(theta)
        lp = lp_band(
            -math.cos(theta.theta1), -math.cos(theta.theta2), -math.cos(theta.theta3)
        )
        assert abs(band.lo - lp.min_value) <= 1e-7
        assert abs(band.hi - lp.max_value) <= 1e-7
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(4, f"LP band matches the closed form at 200 points in {elapsed:.2f}s")


def test_criterion_5_boole_property():
    rng = np.random.default_rng(31415)
    draws = rng.integers(0, 2, size=(10_000, 4, 1000)) * 2 - 1
    for u, x, v, y in draws:
        result = boole_check(u, x, v, y)
        assert result.holds
    seqs = list(itertools.product((-1, 1), repeat=2))
    for u, x, v, y in itertools.product(seqs, repeat=4):
        assert boole_check(u, x, v, y).holds
    _report(5, "10^4 random quadruples and all 256 length-2 quadruples satisfy Boole")


def test_criterion_6_monte_carlo_fidelity(tmp_path, capsys):
    out = tmp_path / "pairs.csv"
    assert main([
        "simulate", "--theta", str(math.pi / 3), "--n", "1000000", "--seed", "42",
        "--out", str(out),
    ]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert abs(summary["result"]["empirical_correlation"] + 0.5) <= 0.005

    octet_out = tmp_path / "octet.csv"
    assert main([
        "octet", "--theta1", str(math.pi / 3), "--theta2", str(math.pi / 2),
        "--theta3", str(2 * math.pi / 3), "--n", "1000000", "--seed", "42",
        "--out", str(octet_out),
    ]) == 0
    octet = json.loads(capsys.readouterr().out)["result"]
    for key in ("c1", "c2", "c3", "f"):
        assert abs(octet["empirical"][key] - octet["targets"][key]) <= 0.01
    _report(6, "simulate and octet reproduce their target correlations")


def test_criterion_7_gradient_of_clean_candidates():
    checked = []
    for name in BUILTIN_KINDS:
        candidate = F4Candidate.builtin(name)
        if inequality_scan(candidate, 15):
            continue
        assert np.linalg.norm(gradient_at_origin(candidate)) <= 1e-6
        checked.append(name)
    assert "product-diagonal" in checked
    _report(7, f"zero-violation builtins {checked} have vanishing gradients at 0")


def _passes_all_three(candidate, scan_resolution):
    if inequality_scan(candidate, scan_resolution):
        return False
    report = contradiction_report(candidate)
    diagonal_ok = abs(report.diagonal_sum - 0.5) <= 0.05
    smooth = report.fit.residual <= 1e-6 and report.jump_spread <= 0.05
    return diagonal_ok and smooth


def test_criterion_8_mutual_exclusion():
    for candidate in map(F4Candidate.builtin, BUILTIN_KINDS):
        assert not _passes_all_three(candidate, scan_resolution=15)
    for seed in range(100):
        candidate = _fuzz_grid(4, seed=seed, force_diagonal=seed % 2 == 0)
        assert not _passes_all_three(candidate, scan_resolution=4)
    _report(8, "no builtin or fuzzed candidate is feasible, diagonal-consistent and smooth")


def test_criterion_9_escape_route():
    candidate = F4Candidate.builtin("product-diagonal")
    assert inequality_scan(candidate, 25) == []
    quotients = direction_quotients(candidate, t=1e-2, n_directions=32)
    spread = quotients.max() - quotients.min()
    assert abs(spread - 1 / 3) <= 0.05
    _report(9, f"product-diagonal is feasible yet jumps with spread {spread:.4f}")


def test_criterion_10_determinism(tmp_path, capsys):
    commands = [
        ["simulate", "--theta", "1.0472", "--n", "20000", "--seed", "42"],
        ["lhv", "--theta-a", "0", "--theta-b", "2.0", "--n", "20000", "--seed", "9"],
        [
            "octet", "--theta1", "1.0472", "--theta2", "1.5708", "--theta3", "2.0944",
            "--n", "20000", "--seed", "11",
        ],
        ["band-map", "--resolution", "7"],
    ]
    for args in commands:
        out1 = tmp_path / f"{args[0]}-1.csv"
        out2 = tmp_path / f"{args[0]}-2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        first = capsys.readouterr().out
        assert main(args + ["--out", str(out2)]) == 0
        second = capsys.readouterr().out
        assert out1.read_bytes() == out2.read_bytes()
        assert first.replace(out1.name, "x") == second.replace(out2.name, "x")
    # seeded analysis reports are reproducible too
    assert main(["analyze", "--candidate", "product", "--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", "--candidate", "product", "--seed", "1"]) == 0
    assert first == capsys.readouterr().out
    _report(10, "repeated seeded runs produce byte-identical outputs")
