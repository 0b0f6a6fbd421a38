"""Output checks that do not depend on how bellband computes its results.

Each check takes what one operation produced and returns a list of
problems; an empty list means the output is correct.  The references are
the documented formats and the mathematics, recomputed here with numpy:

* sequence files are CSV with cells exactly ``+1`` or ``-1``;
* a singlet pair at relative angle theta has correlation -cos(theta), so
  an empirical correlation over n rows lies within 6 sigma of it, with
  sigma = sqrt((1 - c^2) / n);
* by Fine's theorem (PRL 48, 291, 1982) the values f of the fourth
  correlation that some joint distribution allows are exactly those with
  |c1 + c2| + |c3 - f| <= 2 and |c1 - c2| + |c3 + f| <= 2, which gives
  the closed band below; the LP oracle must agree with it.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

#: closed form against LP oracle, and a distribution against its moments
BAND_TOL = 1e-9
#: the same arithmetic recomputed from a file or a formula
EXACT_TOL = 1e-12
#: the scan's own violation tolerance (``inequality_scan`` default)
SCAN_TOL = 1e-9
SIGMAS = 6.0

OCTET_COLUMNS = ("a_oo", "b_oo", "a_bo", "b_ob")


def parse_report(rc, stdout: str, command: str):
    """The ``result`` object of a CLI report, or None with the problems."""
    if rc != 0:
        return None, [f"{command}: exit code {rc}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, [f"{command}: stdout is not JSON ({exc})"]
    if doc.get("tool") != "bellband" or doc.get("command") != command:
        return None, [f"{command}: report header is {doc.get('tool')!r}/{doc.get('command')!r}"]
    return doc.get("result"), []


def parse_sequences(data: bytes, names) -> tuple[dict, list]:
    """Columns of a sequence CSV as int8 arrays; every row must be
    ``+1``/``-1`` cells separated by commas."""
    header = (",".join(names) + "\n").encode()
    if not data.startswith(header):
        return {}, [f"header is not {header!r}"]
    width = 3 * len(names)
    body = np.frombuffer(data, dtype=np.uint8, offset=len(header))
    if body.size % width:
        return {}, [f"body of {body.size} bytes is not whole rows of {width} bytes"]
    cells = body.reshape(-1, width)
    signs, ones, seps = cells[:, 0::3], cells[:, 1::3], cells[:, 2::3]
    problems = []
    if not np.all((signs == ord("+")) | (signs == ord("-"))) or not np.all(ones == ord("1")):
        problems.append("a cell is not +1 or -1")
    if not np.all(seps[:, :-1] == ord(",")) or not np.all(seps[:, -1] == ord("\n")):
        problems.append("a row has a bad separator")
    columns = np.where(signs == ord("+"), 1, -1).astype(np.int8)
    return {name: columns[:, k] for k, name in enumerate(names)}, problems


def correlation(u: np.ndarray, v: np.ndarray) -> float:
    return int(np.dot(u.astype(np.int64), v.astype(np.int64))) / u.size


def _near(name, got, want, tol) -> list:
    if got is None or not abs(got - want) <= tol:
        return [f"{name} = {got!r}, expected {want!r} within {tol:g}"]
    return []


def _within_sigmas(name, got, target, n) -> list:
    sigma = math.sqrt(max(1.0 - target * target, 1.0 / n) / n)
    return _near(name, got, target, SIGMAS * sigma)


def check_simulate(rc, stdout, data: bytes, theta: float, n: int) -> list:
    result, problems = parse_report(rc, stdout, "simulate")
    if result is None:
        return problems
    cols, problems = parse_sequences(data, ("a", "b"))
    if problems:
        return problems
    if len(cols["a"]) != n:
        return [f"{len(cols['a'])} rows, expected {n}"]
    target = -math.cos(theta)
    measured = correlation(cols["a"], cols["b"])
    return (
        _near("expected_correlation", result.get("expected_correlation"), target, EXACT_TOL)
        + _near("reported empirical_correlation", result.get("empirical_correlation"),
                measured, EXACT_TOL)
        + _within_sigmas("empirical_correlation", measured, target, n)
    )


def octet_moments(cols: dict) -> dict:
    a_oo, b_oo, a_bo, b_ob = (cols[name] for name in OCTET_COLUMNS)
    return {
        "c1": correlation(a_oo, b_oo),
        "c2": correlation(a_bo, b_oo),
        "c3": correlation(a_oo, b_ob),
        "f": correlation(a_bo, b_ob),
    }


def check_octet(rc, stdout, data: bytes, thetas, n: int, band) -> list:
    """``band`` is the CHSH band (lo, hi) at the three targets; the
    fourth target must lie in it."""
    result, problems = parse_report(rc, stdout, "octet")
    if result is None:
        return problems
    cols, problems = parse_sequences(data, OCTET_COLUMNS)
    if problems:
        return problems
    if len(cols["a_oo"]) != n:
        return [f"{len(cols['a_oo'])} rows, expected {n}"]
    targets = result.get("targets", {})
    reported = result.get("empirical", {})
    for k, theta in enumerate(thetas, start=1):
        problems += _near(f"target c{k}", targets.get(f"c{k}"), -math.cos(theta), EXACT_TOL)
    f = targets.get("f")
    if f is None or not band[0] - BAND_TOL <= f <= band[1] + BAND_TOL:
        problems.append(f"target f = {f!r} lies outside the band {band}")
    for key, measured in octet_moments(cols).items():
        problems += _near(f"reported empirical {key}", reported.get(key), measured, EXACT_TOL)
        if targets.get(key) is not None:
            problems += _within_sigmas(f"empirical {key}", measured, targets[key], n)
    return problems


def check_boole(rc, stdout, data: bytes) -> list:
    result, problems = parse_report(rc, stdout, "boole")
    if result is None:
        return problems
    cols, problems = parse_sequences(data, OCTET_COLUMNS)
    if problems:
        return problems
    m = octet_moments(cols)
    ux, vx, uy, vy = m["c1"], m["c2"], m["c3"], m["f"]
    lhs1 = abs(ux + vx) + abs(uy - vy)
    lhs2 = abs(ux - vx) + abs(uy + vy)
    problems = _near("lhs1", result.get("lhs1"), lhs1, EXACT_TOL)
    problems += _near("lhs2", result.get("lhs2"), lhs2, EXACT_TOL)
    if result.get("holds") is not (lhs1 <= 2.0 + EXACT_TOL and lhs2 <= 2.0 + EXACT_TOL):
        problems.append(f"holds = {result.get('holds')!r} for lhs ({lhs1}, {lhs2})")
    return problems


# --- band, scans and the LP oracle -----------------------------------------

def closed_band(c1, c2, c3):
    """The interval of f allowed by both CHSH inequalities, elementwise."""
    c1, c2, c3 = (np.asarray(c, dtype=float) for c in (c1, c2, c3))
    r1 = 2.0 - np.abs(c1 + c2)
    r2 = 2.0 - np.abs(c1 - c2)
    lo = np.maximum(np.maximum(c3 - r1, -c3 - r2), -1.0)
    hi = np.minimum(np.minimum(c3 + r1, -c3 + r2), 1.0)
    return lo, hi


def grid_points(resolution: int) -> np.ndarray:
    """Nodes of the uniform grid on [0, pi]^3, theta1-major, shape (r^3, 3)."""
    axis = np.linspace(0.0, math.pi, resolution)
    mesh = np.meshgrid(axis, axis, axis, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def product_values(theta: np.ndarray) -> np.ndarray:
    return -np.cos(theta[:, 0]) * np.cos(theta[:, 1]) * np.cos(theta[:, 2])


def trilinear_values(nodes: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of node values on the uniform [0, pi]^3 grid."""
    r = nodes.shape[0]
    x = theta / math.pi * (r - 1)
    i0 = np.clip(np.floor(x).astype(int), 0, r - 2)
    w = x - i0
    out = np.zeros(theta.shape[0])
    for corner in np.ndindex(2, 2, 2):
        weight = np.ones(theta.shape[0])
        for axis, d in enumerate(corner):
            weight *= w[:, axis] if d else 1.0 - w[:, axis]
        out += weight * nodes[i0[:, 0] + corner[0], i0[:, 1] + corner[1], i0[:, 2] + corner[2]]
    return out


def check_band_map(rc, stdout, data: bytes, resolution: int, oracle_rows, lp_band) -> list:
    """Every row against the closed band; ``oracle_rows`` also against
    the LP oracle ``lp_band``."""
    result, problems = parse_report(rc, stdout, "band-map")
    if result is None:
        return problems
    header = b"theta1,theta2,theta3,lo,hi,width\n"
    if not data.startswith(header):
        return ["band-map header is wrong"]
    rows = np.loadtxt(io.BytesIO(data[len(header):]), delimiter=",", ndmin=2)
    expected = grid_points(resolution)
    if rows.shape != (expected.shape[0], 6) or result.get("rows") != expected.shape[0]:
        return [f"band-map has shape {rows.shape}, report says {result.get('rows')}"]
    if not np.allclose(rows[:, :3], expected, rtol=0.0, atol=EXACT_TOL):
        problems.append("band-map grid nodes are not the uniform theta1-major grid")
    theta, lo, hi, width = rows[:, :3], rows[:, 3], rows[:, 4], rows[:, 5]
    c = -np.cos(theta)
    ref_lo, ref_hi = closed_band(c[:, 0], c[:, 1], c[:, 2])
    bad = (np.abs(lo - ref_lo) > BAND_TOL) | (np.abs(hi - ref_hi) > BAND_TOL)
    bad |= np.abs(width - (hi - lo)) > EXACT_TOL
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        problems.append(f"{int(bad.sum())} band-map rows are off the closed band, first {rows[k]}")
    for k in oracle_rows:
        lp = lp_band(*(-math.cos(t) for t in theta[k]))
        problems += _near(f"band-map lo at {theta[k]}", lo[k], lp.min_value, BAND_TOL)
        problems += _near(f"band-map hi at {theta[k]}", hi[k], lp.max_value, BAND_TOL)
    return problems


def _expected_set(distance: np.ndarray, tol: float):
    """Indices sure to be reported and those within rounding of ``tol``."""
    sure = set(np.flatnonzero(distance > tol + EXACT_TOL).tolist())
    maybe = set(np.flatnonzero(np.abs(distance - tol) <= EXACT_TOL).tolist())
    return sure, maybe


def check_scan(rc, stdout, resolution: int, candidate_values) -> list:
    """Each reported violation lies outside its band (or off -cos theta on
    the diagonal), and the reported set is the complete one."""
    result, problems = parse_report(rc, stdout, "scan")
    if result is None:
        return problems
    violations = result.get("violations", [])
    if result.get("violation_count") != len(violations):
        problems.append("violation_count differs from the number of violations listed")
    theta = grid_points(resolution)
    values = candidate_values(theta)
    c = -np.cos(theta)
    lo, hi = closed_band(c[:, 0], c[:, 1], c[:, 2])
    on_diag = (theta[:, 0] == theta[:, 1]) & (theta[:, 1] == theta[:, 2])
    band_out = np.maximum(np.maximum(lo - values, values - hi), 0.0)
    diag_off = np.where(on_diag, np.abs(values - c[:, 0]), 0.0)
    found = {"band": set(), "diagonal": set()}
    step = math.pi / (resolution - 1)
    for v in violations:
        t = np.asarray(v["theta"], dtype=float)
        idx = np.rint(t / step).astype(int)
        k = int((idx[0] * resolution + idx[1]) * resolution + idx[2])
        if not np.allclose(t, theta[k], rtol=0.0, atol=EXACT_TOL):
            problems.append(f"violation at {t} is not a grid node")
            continue
        found.setdefault(v["kind"], set()).add(k)
        problems += _near(f"value at {t}", v["value"], values[k], EXACT_TOL)
        if v["kind"] == "band":
            if v["lo"] <= v["value"] <= v["hi"]:
                problems.append(f"band violation at {t} lies inside [{v['lo']}, {v['hi']}]")
            problems += _near(f"lo at {t}", v["lo"], lo[k], BAND_TOL)
            problems += _near(f"hi at {t}", v["hi"], hi[k], BAND_TOL)
        elif v["kind"] == "diagonal":
            if not on_diag[k] or v["lo"] != v["hi"] or v["value"] == v["lo"]:
                problems.append(f"diagonal violation at {t} is not off the diagonal value")
            problems += _near(f"-cos at {t}", v["lo"], c[k, 0], EXACT_TOL)
        else:
            problems.append(f"unknown violation kind {v['kind']!r}")
    for kind, distance in (("band", band_out), ("diagonal", diag_off)):
        sure, maybe = _expected_set(distance, SCAN_TOL)
        if not sure <= found[kind] <= sure | maybe:
            problems.append(
                f"{len(found[kind])} {kind} violations reported, {len(sure)} expected"
            )
    return problems


def distribution_moments(p: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """(c1, c2, c3, f) of a distribution over sign patterns
    (a_oo, b_oo, a_bo, b_ob)."""
    s = patterns.astype(float)
    return np.array([p @ (s[:, 0] * s[:, 1]), p @ (s[:, 2] * s[:, 1]),
                     p @ (s[:, 0] * s[:, 3]), p @ (s[:, 2] * s[:, 3])])


def _distribution_problems(name, p, patterns, want) -> list:
    p = np.asarray(p, dtype=float)
    problems = []
    if p.shape != (16,) or np.any(p < 0.0) or abs(p.sum() - 1.0) > EXACT_TOL:
        problems.append(f"{name} is not a probability vector")
    else:
        got = distribution_moments(p, patterns)
        if np.max(np.abs(got - want)) > BAND_TOL:
            problems.append(f"{name} has moments {got.tolist()}, expected {list(want)}")
    return problems


def check_lp(result, c, interval, patterns) -> list:
    """``interval`` is the program's closed form at the source angles."""
    lo, hi = closed_band(*c)
    problems = _near("lp min vs feasible_band", result.min_value, interval.lo, BAND_TOL)
    problems += _near("lp max vs feasible_band", result.max_value, interval.hi, BAND_TOL)
    problems += _near("lp min vs CHSH band", result.min_value, float(lo), BAND_TOL)
    problems += _near("lp max vs CHSH band", result.max_value, float(hi), BAND_TOL)
    for name, witness, value in (("witness_min", result.witness_min, result.min_value),
                                 ("witness_max", result.witness_max, result.max_value)):
        problems += _distribution_problems(name, witness.p, patterns, [*c, value])
    return problems


def check_distribution(dist, c, f, patterns) -> list:
    return _distribution_problems("feasible_distribution", dist.p, patterns, [*c, f])


#: analytic facts about the builtins at the origin: every builtin is flat
#: there, and its diagonal coefficient is that of -cos(t) (0.5) or of
#: -cos(t)^3 (1.5)
DIAGONAL_SUM = {"locality": 0.5, "product": 1.5, "product-diagonal": 0.5}


def _all_finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def check_analyze(rc, stdout, name: str, grid_resolution=None) -> list:
    """``grid_resolution`` is set for a trilinear grid tabulating
    ``product``: its slope at the origin along each axis is that of the
    first grid cell, (1 - cos h) / h with h the spacing."""
    result, problems = parse_report(rc, stdout, "analyze")
    if result is None:
        return problems
    if result.get("candidate") != name:
        problems.append(f"report is for {result.get('candidate')!r}, not {name!r}")
    if not _all_finite(result):
        problems.append("report holds a non-finite number")
    problems += _near("value_at_origin", result.get("value_at_origin"), -1.0, EXACT_TOL)
    grad = np.asarray(result.get("gradient_at_origin", [math.nan] * 3), dtype=float)
    if grid_resolution is None:
        if not np.linalg.norm(grad) <= 1e-6:
            problems.append(f"builtin {name} has gradient {grad.tolist()} at the origin")
        problems += _near("diagonal_sum", result.get("diagonal_sum"), DIAGONAL_SUM[name], 1e-3)
    else:
        h = math.pi / (grid_resolution - 1)
        if not np.allclose(grad, (1.0 - math.cos(h)) / h, rtol=0.0, atol=1e-6):
            problems.append(f"grid gradient {grad.tolist()} is not the first-cell slope")
        if result.get("disclaimer") is None:
            problems.append("a grid coarser than the fit radius carries no disclaimer")
    return problems
