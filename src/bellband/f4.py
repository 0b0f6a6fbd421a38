"""Candidate fourth-correlation functions and the finite-difference
machinery that probes their regularity at the origin of the positive
cube: gradient, axis derivatives, second-order quotients over cone
directions, quadratic fitting, the coefficient-consistency
(contradiction) report, whose quotient spread flags a directional jump,
and the inequality scan.

A candidate is any object with ``values(points)``, its values over
triples of shape (..., 3); ``name`` is optional, and a ``kind == "grid"``
object also needs ``grid_resolution``.  The scan asks an ``F4Candidate``
first for its values from the lattice walk's -cos tables through the
private hook ``_lattice_values``; the product builtins answer with the
same bits, and every other candidate is read through ``values(points)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# feasible_band's one reader here is bench/layers.py, which wraps f4.feasible_band
from .band import _band, feasible_band  # noqa: F401
from .core import (
    BAND_TOL, AngleTriple, _ArrayFields, _check_seed, _integer, _real, grid_blocks,
    q_plus_points, singlet_correlation,
)
from .errors import DomainError, GridFormatError

_DIAG_DIR = np.full(3, 1.0 / math.sqrt(3.0))

BUILTIN_KINDS = ("locality", "product", "product-diagonal")


def _product(c1, c2, c3):
    """The product kernel -cos(theta1) cos(theta2) cos(theta3) from the three
    correlations c_k = -cos(theta_k), elementwise over arrays that broadcast
    together.  Rounding does not depend on signs, so (c1 * c2) * c3 has the
    bits of (c1 * -c2) * -c3, the product of c1 and the two cosines."""
    return c1 * c2 * c3


@dataclass(frozen=True, eq=False)
class F4Candidate(_ArrayFields):
    """An evaluable candidate for the unknown fourth correlation on the
    positive cube.

    Builtins: ``locality`` is -cos(theta2 + theta3 - theta1), ``product``
    is -cos(theta1) cos(theta2) cos(theta3), and ``product-diagonal``
    equals -cos(theta) on the exact diagonal and the product value
    elsewhere.  ``grid`` candidates interpolate trilinearly between node
    values on a uniform grid over [0, pi]^3.
    """

    kind: str
    name: str
    grid_resolution: int | None = None
    grid_values: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise GridFormatError("candidate name must be a string")
        if self.kind in BUILTIN_KINDS:
            if self.grid_values is not None:
                raise GridFormatError(f"builtin candidate {self.kind!r} takes no grid")
            return
        if self.kind != "grid":
            raise GridFormatError(f"unknown candidate kind {self.kind!r}")
        try:
            r = int(self.grid_resolution)
            values = np.asarray(self.grid_values, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise GridFormatError(f"grid resolution and values must be numbers: {exc}") from exc
        if r != self.grid_resolution:
            raise GridFormatError(f"grid resolution must be an integer, got {self.grid_resolution!r}")
        if r < 2:
            raise GridFormatError(f"grid resolution must be >= 2, got {r}")
        if values.size != r ** 3:
            raise GridFormatError(
                f"grid needs {r ** 3} values for resolution {r}, got {values.size}"
            )
        if not np.all(np.isfinite(values)) or np.any(np.abs(values) > 1.0):
            raise GridFormatError("grid values must lie in [-1, 1]")
        values = values.reshape(r, r, r).copy()
        values.flags.writeable = False
        object.__setattr__(self, "grid_resolution", r)
        object.__setattr__(self, "grid_values", values)

    @classmethod
    def builtin(cls, kind: str) -> "F4Candidate":
        if kind not in BUILTIN_KINDS:
            raise GridFormatError(f"unknown builtin candidate {kind!r}")
        return cls(kind=kind, name=kind)

    @classmethod
    def from_grid(cls, resolution: int, values, name: str = "grid") -> "F4Candidate":
        return cls(kind="grid", name=name, grid_resolution=resolution, grid_values=values)

    @classmethod
    def from_json(cls, text) -> "F4Candidate":
        """Load a grid document from JSON text or its UTF-8 bytes."""
        try:
            doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
        except (json.JSONDecodeError, UnicodeDecodeError, TypeError) as exc:
            raise GridFormatError(f"grid document is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("kind") != "grid":
            raise GridFormatError('grid document must be an object with kind:"grid"')
        try:
            resolution = doc["resolution"]
            values = doc["values"]
        except KeyError as exc:
            raise GridFormatError(f"grid document is missing field {exc}") from exc
        # checked after from_grid's own checks, whose messages it keeps
        candidate = cls.from_grid(resolution, values, name=doc.get("name", "grid"))
        if not (isinstance(values, list) and set(map(type, values)) <= {int, float}):
            raise GridFormatError("grid values must be a flat list of JSON numbers")
        return candidate

    def _interpolate(self, pts: np.ndarray) -> np.ndarray:
        """Trilinear interpolation, summing from zero the eight corners in
        d1, d2, d3 order, each weighted by (w1 * w2) * w3."""
        r = self.grid_resolution
        x = pts / math.pi * (r - 1)
        i0 = np.clip(np.floor(x).astype(int), 0, r - 2)
        w = x - i0
        # each axis's weights (1 - w, w), and the nodes' flat index at corner d = 0
        weights = [(1.0 - w[..., k], w[..., k]) for k in range(3)]
        base = (i0[..., 0] * r + i0[..., 1]) * r + i0[..., 2]
        nodes = self.grid_values.reshape(-1)
        v = np.zeros(pts.shape[:-1])
        for d1, d2 in np.ndindex(2, 2):
            w12 = weights[0][d1] * weights[1][d2]
            for d3 in (0, 1):
                v += w12 * weights[2][d3] * nodes[base + ((d1 * r + d2) * r + d3)]
        return v

    def values(self, points) -> np.ndarray:
        """Candidate values, elementwise over triples of shape (..., 3) in
        the positive cube."""
        pts = q_plus_points(points)
        t1, t2, t3 = pts[..., 0], pts[..., 1], pts[..., 2]
        if self.kind == "locality":
            return singlet_correlation(t2 + t3 - t1)
        if self.kind == "grid":
            return self._interpolate(pts)
        c1 = singlet_correlation(t1)
        product = _product(c1, singlet_correlation(t2), singlet_correlation(t3))
        if self.kind == "product-diagonal":
            return np.where((t1 == t2) & (t2 == t3), c1, product)
        return product

    def _lattice_values(self, c1, c2, c3, on_diagonal):
        """The values at a ``grid_blocks`` block's nodes, the bits of
        ``values`` there, from its correlation tables (c1, c2, c3) and its
        diagonal mask; None for a candidate the tables do not give."""
        if self.kind not in ("product", "product-diagonal"):
            return None
        product = _product(c1, c2, c3)
        if self.kind == "product-diagonal":
            return np.where(on_diagonal, c1, product)
        return product

    def evaluate(self, theta: AngleTriple) -> float:
        return float(self.values(theta.as_array()))


def gradient_at_origin(candidate, h: float = 1e-6) -> np.ndarray:
    """One-sided finite-difference gradient at the corner of the positive
    cube, Richardson-extrapolated from steps h and h/2."""
    h = _real(h, "step")
    if not (0.0 < h <= 0.1):
        raise DomainError(f"step must lie in (0, 0.1], got {h}")
    steps = np.array([h / 2.0, h])
    # row 0 is the origin, then steps[k] * e_i at row 1 + 2*i + k
    points = np.vstack([np.zeros(3), (np.eye(3)[:, None, :] * steps[:, None]).reshape(6, 3)])
    values = candidate.values(points)
    diffs = (values[1:].reshape(3, 2) - values[0]) / steps
    return (4.0 * diffs[:, 0] - diffs[:, 1]) / 3.0


def axis_derivative_check(candidate, t: float, h: float = 1e-4) -> np.ndarray:
    """Absolute deviations, shape (3,), of the central-difference partial
    derivatives at t*e_1, t*e_2 and t*e_3 from the forced value sin(t)."""
    t, h = _real(t, "t"), _real(h, "step")
    if not h > 0.0:
        raise DomainError(f"step must be positive, got {h}")
    if not (h < t < math.pi - h):
        raise DomainError(f"t = {t} is too close to the boundary for step {h}")
    # rows 2i and 2i + 1 are the points (t - h) e_i and (t + h) e_i
    lo, hi = candidate.values(np.kron(np.eye(3), [[t - h], [t + h]])).reshape(3, 2).T
    return np.abs((hi - lo) / (2.0 * h) - math.sin(t))


def _norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (N, 3) array, bit for bit those of
    ``np.linalg.norm`` on each row: a dot product, which ``axis=1`` is not."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])).reshape(-1)


def _quotients(candidate, directions: np.ndarray, t: float) -> np.ndarray:
    """(F(t*v) + 1) / t^2 for each row v of ``directions`` scaled to unit length."""
    t = _real(t, "step")
    if not (0.0 < t <= 0.5):
        raise DomainError(f"step must lie in (0, 0.5], got {t}")
    v = directions / _norms(directions)[:, None]
    return (candidate.values(t * v) + 1.0) / (t * t)


#: the longest draw ``_halton`` keeps, in points (96 KB): a report draws 800
_HALTON_KEEP = 4096
# (seed, its longest draw of at most _HALTON_KEEP points so far)
_halton_kept = (None, None)


def _halton(seed: int, n: int) -> np.ndarray:
    """The first n points, shape (n, 3) and read-only, of Owen's scrambled
    Halton sequence in bases 2, 3 and 5 (A. B. Owen, arXiv:1706.02808),
    bit for bit those of ``stats.qmc.Halton(d=3, scramble=True, seed=seed)``.

    A point does not depend on n, so the last seed's longest draw of at
    most ``_HALTON_KEEP`` points is kept, and a shorter draw is its prefix.
    """
    global _halton_kept
    seed = _check_seed(seed)
    kept_seed, points = _halton_kept
    if kept_seed != seed or len(points) < n:
        if 3 * 8 * n > np.iinfo(np.intp).max:
            raise DomainError(f"{n} Halton points of three float64s exceed the address space")
        points = _draw_halton(seed, n)
        points.flags.writeable = False
        if n <= _HALTON_KEEP:
            _halton_kept = (seed, points)
    return points[:n]


def _draw_halton(seed: int, n: int) -> np.ndarray:
    """The first n points of ``_halton``, computed.

    Coordinate d of point i adds ``terms[j, digit j of i]`` in order over
    the places j; a place whose power of the base reaches n has digit 0
    at every point, so it adds its constant ``terms[j, 0]``.
    """
    rng = np.random.default_rng(seed)
    points = np.zeros((3, n))
    for column, base in zip(points, (2, 3, 5)):
        # one permutation of the digits per place whose weight base**-(j+1)
        # still shows in a double; the rows draw from rng in order
        places = math.ceil(54 / math.log2(base)) - 1
        perms = rng.permuted(np.repeat(np.arange(base)[None], places, axis=0), axis=1)
        scales = np.divide.accumulate(np.r_[1.0, np.full(places, float(base))])[1:]
        terms = perms * scales[:, None]
        quotient = np.arange(n)
        for j in range(places):
            if base ** j < n:
                quotient, digit = np.divmod(quotient, base)
                column += terms[j, digit]
            else:
                column += terms[j, 0]
    return points.T


def _cone_directions(n: int, seed: int) -> np.ndarray:
    """The first n nonzero Halton points, scaled to unit length.  Base-2
    coordinates of distinct indices below 2**53 are distinct exact dyadic
    sums, so at most one of the first n + 1 points is 0."""
    rows = _halton(seed, n + 1)
    norms = _norms(rows)
    keep = norms > 0.0
    return (rows[keep] / norms[keep, None])[:n]


def direction_quotients(candidate, t: float, n_directions: int, seed: int = 0) -> np.ndarray:
    """Second-order quotients over quasi-random cone directions plus the
    exact diagonal (appended last)."""
    n_directions = _integer(n_directions, "n_directions")
    if n_directions < 8:
        raise DomainError(f"need at least 8 directions, got {n_directions}")
    dirs = np.vstack([_cone_directions(n_directions, seed), _DIAG_DIR])
    return _quotients(candidate, dirs, t)


@dataclass(frozen=True)
class QuadraticFit:
    """Least-squares quadratic model c0 + sum c_i t_i + sum_{i<=j} c_ij
    t_i t_j near the origin; ``c_quad`` holds the rows of the symmetric (c_ij)."""

    c0: float
    c_lin: tuple
    c_quad: tuple
    residual: float

    @property
    def diagonal_coeff_sum(self) -> float:
        return float(np.trace(self.c_quad))

    @property
    def max_cross_coeff(self) -> float:
        (_, c01, c02), (_, _, c12), _ = self.c_quad
        return float(np.max(np.abs((c01, c02, c12))))


def _ball_points(radius: float, count: int, seed: int) -> np.ndarray:
    """The first count nonzero Halton points, scaled by radius, that lie in
    the ball of that radius."""
    size = 4 * count
    while True:
        batch = _halton(seed, size) * radius
        norms = np.linalg.norm(batch, axis=1)
        points = batch[(norms <= radius) & (norms > 0.0)]
        if points.shape[0] >= count:
            return points[:count]
        size *= 2


def quadratic_fit(candidate, radius: float, samples: int, seed: int = 0) -> QuadraticFit:
    """Fit a quadratic model to the candidate over quasi-random points in
    the ball of the given radius intersected with the positive cube."""
    radius = _real(radius, "radius")
    if not (0.0 < radius <= 0.3):
        raise DomainError(f"radius must lie in (0, 0.3], got {radius}")
    samples = _integer(samples, "samples")
    if samples < 10:
        raise DomainError(f"fit is underdetermined with {samples} samples")
    pts = _ball_points(radius, samples, seed)
    t1, t2, t3 = pts[:, 0], pts[:, 1], pts[:, 2]
    design = np.column_stack(
        [np.ones(samples), t1, t2, t3, t1 * t1, t1 * t2, t1 * t3, t2 * t2, t2 * t3, t3 * t3]
    )
    values = candidate.values(pts)
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    pred = design @ coef
    residual = float(np.sqrt(np.mean((pred - values) ** 2)))
    # off-diagonal entries hold the i<j coefficients themselves
    c_quad = tuple(map(tuple, coef[[4, 5, 6, 5, 7, 8, 6, 8, 9]].reshape(3, 3).tolist()))
    return QuadraticFit(float(coef[0]), tuple(coef[1:4].tolist()), c_quad, residual)


# the report's thresholds: fit residual, coefficient mismatch, quotient spread
_RESIDUAL_MAX, _COEFF_TOL, _JUMP_MAX = 1e-8, 0.05, 0.05
# the report's finite-difference step, and the cross probes' multiples k of it
_STEP = 1e-2
_CROSS_KS = np.array([2.0, 5.0, 10.0, 50.0])


def _cross_coeffs(candidate) -> np.ndarray:
    """Cross coefficients c_01, c_02 and c_12 from mixed second differences
    along the (0, x, kx) schedule, x = _STEP, extrapolated linearly in k;
    the three pairs are the right-hand sides of one least-squares solve."""
    ks, x = _CROSS_KS, _STEP
    # x*e_i + k*x*e_j, x*e_i and k*x*e_j for each pair (i, j) and each k
    pair, (i, j) = np.arange(3)[:, None], np.triu_indices(3, k=1)
    steps = np.zeros((3, 3, ks.size, 3))
    steps[[0, 1], pair, :, i[:, None]] = x
    steps[[0, 2], pair, :, j[:, None]] = ks * x
    values = candidate.values(np.vstack([steps.reshape(-1, 3), np.zeros(3)]))
    f_ij, f_i, f_j = values[:-1].reshape(3, 3, ks.size)
    estimates = (f_ij - f_i - f_j + values[-1]) / (ks * x * x)
    design = np.column_stack([np.ones(ks.size), ks])
    coef, *_ = np.linalg.lstsq(design, estimates.T, rcond=None)
    return coef[0]


@dataclass(frozen=True)
class AnalysisReport:
    """Numerical regularity summary of one candidate near the origin."""

    candidate: str
    value_at_origin: float
    gradient_at_origin: tuple
    axis_residuals: tuple
    second_quotient_bound: float
    fit: QuadraticFit
    diagonal_sum: float
    axis_forced_sum: float
    cross_term_max: float
    contradiction: bool
    jump_spread: float
    flags: tuple = ()
    disclaimer: str | None = None


def _diagonal_coeff(candidate) -> float:
    """Total quadratic coefficient of the candidate along the diagonal,
    from (F(t,t,t) + cos t)/t^2, t = _STEP, with Richardson extrapolation."""
    s = np.array([_STEP / 2.0, _STEP])
    values = candidate.values(np.repeat(s[:, None], 3, axis=1))
    quotient = (values - singlet_correlation(s)) / (s * s)
    extrapolated = (4.0 * quotient[0] - quotient[1]) / 3.0
    return float(extrapolated + 0.5)


def contradiction_report(candidate, seed: int = 0) -> AnalysisReport:
    """Assemble the full regularity report.

    The contradiction flag is raised when the fit residual certifies
    apparently smooth second-order behavior while the coefficient system
    is inconsistent: the axes force diagonal coefficients summing to 3/2
    with vanishing cross terms, yet the diagonal demands a total of 1/2.
    """
    value_at_origin = float(candidate.values(np.zeros((1, 3)))[0])
    grad = tuple(gradient_at_origin(candidate).tolist())
    axis_residuals = tuple(axis_derivative_check(candidate, math.pi / 4.0).tolist())
    fit_radius = 0.1
    fit = quadratic_fit(candidate, radius=fit_radius, samples=200, seed=seed)
    diagonal_sum = _diagonal_coeff(candidate)
    axis_forced_sum = fit.diagonal_coeff_sum
    probes = _cross_coeffs(candidate).tolist()
    cross_term_max = max(fit.max_cross_coeff, max(abs(p) for p in probes))
    quotients = direction_quotients(candidate, t=_STEP, n_directions=32, seed=seed)
    second_quotient_bound = float(np.max(np.abs(quotients)))
    jump_spread = float(quotients.max() - quotients.min())

    # each test passes only on a number inside its tolerance, so NaN fails it
    diagonal_ok = abs(diagonal_sum - 0.5) <= _COEFF_TOL
    axis_ok = abs(axis_forced_sum - 1.5) <= _COEFF_TOL
    tests = {
        "diagonal-constraint-violated": diagonal_ok,
        "axis-coefficients-off": axis_ok,
        "directional-jump-detected": jump_spread <= _JUMP_MAX,
    }
    flags = [flag for flag, ok in tests.items() if not ok]
    contradiction = (
        fit.residual <= _RESIDUAL_MAX and axis_ok and cross_term_max <= _COEFF_TOL and diagonal_ok
    )

    disclaimer = None
    if getattr(candidate, "kind", None) == "grid":
        spacing = math.pi / (candidate.grid_resolution - 1)
        if fit_radius < spacing:
            disclaimer = (
                f"fit radius {fit_radius} is below the grid spacing "
                f"{spacing:.6g}; the fit sees interpolation artifacts only"
            )

    return AnalysisReport(
        candidate=getattr(candidate, "name", type(candidate).__name__),
        value_at_origin=value_at_origin,
        gradient_at_origin=grad,
        axis_residuals=axis_residuals,
        second_quotient_bound=second_quotient_bound,
        fit=fit,
        diagonal_sum=diagonal_sum,
        axis_forced_sum=axis_forced_sum,
        cross_term_max=cross_term_max,
        contradiction=contradiction,
        jump_spread=jump_spread,
        flags=tuple(flags),
        disclaimer=disclaimer,
    )


@dataclass(frozen=True)
class Violation:
    """One grid point where a candidate breaks a constraint."""

    theta: tuple
    kind: str  # "band" or "diagonal"
    value: float
    lo: float
    hi: float


_KINDS = ("band", "diagonal")  # a Violation's kind, by its code in ``_violations``


def _violations(candidate, resolution: int):
    """The violations of ``inequality_scan`` in report order, as a list of
    rows (theta1, theta2, theta3, value, lo, hi) and a list of their int8
    codes in ``_KINDS``, one array in each for every block with a violation:
    nodes in lattice order, a node's band row before its diagonal row, whose
    lo and hi are the forced value -cos(theta1).  Beside the violations, the
    walk holds one ``grid_blocks`` block's points and temporaries at a time."""
    lattice_values = getattr(candidate, "_lattice_values", None)
    rows, kinds = [], []
    for _, points, (c1, c2, c3) in grid_blocks(resolution):
        shape = (len(c1), len(c3))
        on_diagonal = ((points[:, 0] == points[:, 1])
                       & (points[:, 1] == points[:, 2])).reshape(shape)
        values = None if lattice_values is None else lattice_values(c1, c2, c3, on_diagonal)
        if values is None:
            values = np.asarray(candidate.values(points), dtype=float).reshape(shape)
        lo, hi = _band(c1, c2, c3)
        band_bad = ~((lo - BAND_TOL <= values) & (values <= hi + BAND_TOL))
        # the forced value -cos(theta1) is the row's c1
        diagonal_bad = on_diagonal & (np.abs(values - c1) > BAND_TOL)
        k = np.flatnonzero(band_bad | diagonal_bad)
        if not len(k):
            continue
        # a (node, kind) pair for each violation, in node order and then kind order
        i, kind = np.nonzero(np.column_stack([band_bad.flat[k], diagonal_bad.flat[k]]))
        node = k[i]
        forced = c1[node // len(c3), 0]
        limits = [np.where(kind, forced, bound.flat[node]) for bound in (lo, hi)]
        rows.append(np.column_stack([points[node], values.flat[node], *limits]))
        # a copy: ``kind`` is a view that would keep the node indices too
        kinds.append(kind.astype(np.int8))
    return rows, kinds


def inequality_scan(candidate, resolution: int) -> list[Violation]:
    """Scan the uniform resolution^3 grid over the positive cube for band
    violations, and the diagonal nodes for departures from -cos(theta): the
    rows of ``_violations`` as Violations."""
    rows, kinds = _violations(candidate, resolution)
    return [Violation((t1, t2, t3), _KINDS[kind], value, lo, hi)
            for part, codes in zip(rows, kinds)
            for (t1, t2, t3, value, lo, hi), kind in zip(part.tolist(), codes.tolist())]
