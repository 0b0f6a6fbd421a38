"""Candidate fourth-correlation functions and the finite-difference
machinery that probes their regularity at the origin of the positive
cube: gradient, axis derivatives, second-order quotients, quadratic
fitting, the coefficient-consistency (contradiction) report, and the
directional-jump and inequality scans.

A candidate is any object with ``values(points)``, its values over
triples of shape (..., 3); ``name`` is optional, and a ``kind == "grid"``
object also needs ``grid_resolution``.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# feasible_band stays importable from this module for existing callers
from .band import band_limits, feasible_band  # noqa: F401
from .core import BAND_TOL, AngleTriple, grid_points, q_plus_points, singlet_correlation
from .errors import DomainError, GridFormatError
from .sampling import _check_seed

_DIAG_DIR = np.full(3, 1.0 / math.sqrt(3.0))

BUILTIN_KINDS = ("locality", "product", "product-diagonal")


@dataclass(frozen=True)
class F4Candidate:
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
    grid_resolution: Optional[int] = None
    grid_values: Optional[np.ndarray] = None

    def __post_init__(self):
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
    def locality(cls) -> "F4Candidate":
        return cls(kind="locality", name="locality")

    @classmethod
    def product(cls) -> "F4Candidate":
        return cls(kind="product", name="product")

    @classmethod
    def product_diagonal(cls) -> "F4Candidate":
        return cls(kind="product-diagonal", name="product-diagonal")

    @classmethod
    def builtin(cls, kind: str) -> "F4Candidate":
        if kind not in BUILTIN_KINDS:
            raise GridFormatError(f"unknown builtin candidate {kind!r}")
        return cls(kind=kind, name=kind)

    @classmethod
    def from_grid(cls, resolution: int, values, name: str = "grid") -> "F4Candidate":
        return cls(kind="grid", name=name, grid_resolution=resolution, grid_values=values)

    @classmethod
    def from_json(cls, text, name: str = "grid") -> "F4Candidate":
        """Load a grid document from JSON text or its UTF-8 bytes."""
        try:
            doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise GridFormatError(f"grid document is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("kind") != "grid":
            raise GridFormatError('grid document must be an object with kind:"grid"')
        try:
            resolution = doc["resolution"]
            values = doc["values"]
        except KeyError as exc:
            raise GridFormatError(f"grid document is missing field {exc}") from exc
        # checked after from_grid's own checks, whose messages it keeps
        candidate = cls.from_grid(resolution, values, name=str(doc.get("name", name)))
        if not (isinstance(values, list) and set(map(type, values)) <= {int, float}):
            raise GridFormatError("grid values must be a flat list of JSON numbers")
        return candidate

    def to_json(self) -> str:
        if self.kind != "grid":
            raise GridFormatError("only grid candidates serialize to a grid document")
        return json.dumps(
            {
                "kind": "grid",
                "name": self.name,
                "resolution": self.grid_resolution,
                "values": list(self.grid_values.ravel()),
            }
        )

    def _key(self) -> tuple:
        values = None if self.grid_values is None else self.grid_values.tobytes()
        return (self.kind, self.name, self.grid_resolution, values)

    def __eq__(self, other):
        return isinstance(other, F4Candidate) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _interpolate(self, pts: np.ndarray) -> np.ndarray:
        """Trilinear interpolation, summing the eight corners in d1, d2, d3 order."""
        r = self.grid_resolution
        x = pts / math.pi * (r - 1)
        i0 = np.clip(np.floor(x).astype(int), 0, r - 2)
        w = x - i0
        v = np.zeros(pts.shape[:-1])
        for d in np.ndindex(2, 2, 2):
            node = self.grid_values[tuple(i0[..., k] + d[k] for k in range(3))]
            weight = (
                (w[..., 0] if d[0] else 1.0 - w[..., 0])
                * (w[..., 1] if d[1] else 1.0 - w[..., 1])
                * (w[..., 2] if d[2] else 1.0 - w[..., 2])
            )
            v += weight * node
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
        product = singlet_correlation(t1) * np.cos(t2) * np.cos(t3)
        if self.kind == "product-diagonal":
            return np.where((t1 == t2) & (t2 == t3), singlet_correlation(t1), product)
        return product

    def evaluate(self, theta: AngleTriple) -> float:
        return float(self.values(theta.as_array()))


def builtins() -> dict[str, F4Candidate]:
    return {kind: F4Candidate.builtin(kind) for kind in BUILTIN_KINDS}


def gradient_at_origin(candidate, h: float = 1e-6) -> np.ndarray:
    """One-sided finite-difference gradient at the corner of the positive
    cube, Richardson-extrapolated from steps h and h/2."""
    h = float(h)
    if not (0.0 < h <= 0.1):
        raise DomainError(f"step must lie in (0, 0.1], got {h}")
    steps = np.array([h / 2.0, h])
    # row 0 is the origin, then steps[k] * e_i at row 1 + 2*i + k
    points = np.vstack([np.zeros(3), (np.eye(3)[:, None, :] * steps[:, None]).reshape(6, 3)])
    values = candidate.values(points)
    diffs = (values[1:].reshape(3, 2) - values[0]) / steps
    return (4.0 * diffs[:, 0] - diffs[:, 1]) / 3.0


def axis_derivative_check(candidate, t: float, i: int, h: float = 1e-4) -> float:
    """Absolute deviation of the central-difference partial derivative at
    t*e_i from the forced value sin(t)."""
    t = float(t)
    if i not in (1, 2, 3):
        raise DomainError(f"axis index must be 1, 2 or 3, got {i}")
    if not (h < t < math.pi - h):
        raise DomainError(f"t = {t} is too close to the boundary for step {h}")
    points = np.zeros((2, 3))
    points[:, i - 1] = (t - h, t + h)
    lo, hi = candidate.values(points)
    deriv = (hi - lo) / (2.0 * h)
    return float(abs(deriv - math.sin(t)))


def _norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (N, 3) array, bit for bit those of
    ``np.linalg.norm`` on each row: a dot product, which ``axis=1`` is not."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])).reshape(-1)


def _quotients(candidate, directions: np.ndarray, t: float) -> np.ndarray:
    """(F(t*v) + 1) / t^2 for each row v of ``directions`` scaled to unit length."""
    t = float(t)
    if not (0.0 < t <= 0.5):
        raise DomainError(f"step must lie in (0, 0.5], got {t}")
    v = directions / _norms(directions)[:, None]
    return (candidate.values(t * v) + 1.0) / (t * t)


def second_quotient(candidate, direction, t: float) -> float:
    """The quotient (F(t*v) + 1) / t^2 along a direction v in the positive
    cone."""
    v = np.asarray(direction, dtype=float)
    if v.shape != (3,):
        raise DomainError(f"direction must be a 3-vector, got shape {v.shape}")
    if np.any(v < 0.0):
        raise DomainError(f"direction {v} leaves the positive cone")
    if float(np.linalg.norm(v)) == 0.0:
        raise DomainError("direction must be nonzero")
    return float(_quotients(candidate, v[None, :], t)[0])


def _halton(seed: int):
    """A scrambled 3-d Halton engine."""
    # imported here: scipy.stats is most of the package's import time
    from scipy.stats import qmc

    return qmc.Halton(d=3, scramble=True, seed=_check_seed(seed))


def _cone_directions(n: int, seed: int) -> np.ndarray:
    """n quasi-random unit directions in the positive cone (Halton)."""
    engine = _halton(seed)
    dirs = np.empty((0, 3))
    while dirs.shape[0] < n:
        rows = engine.random(2 * n)
        norms = _norms(rows)
        keep = norms > 0.0
        dirs = np.vstack([dirs, rows[keep] / norms[keep, None]])
    return dirs[:n]


def direction_quotients(candidate, t: float, n_directions: int, seed: int = 0) -> np.ndarray:
    """Second-order quotients over quasi-random cone directions plus the
    exact diagonal (appended last)."""
    n_directions = int(n_directions)
    if n_directions < 8:
        raise DomainError(f"need at least 8 directions, got {n_directions}")
    dirs = np.vstack([_cone_directions(n_directions, seed), _DIAG_DIR])
    return _quotients(candidate, dirs, t)


def jump_measure(candidate, t: float, n_directions: int, seed: int = 0) -> float:
    """Spread (max - min) of the second-order quotient over directions; a
    large value certifies a directional jump at the origin."""
    t = float(t)
    if not (0.0 < t <= 0.1):
        raise DomainError(f"step must lie in (0, 0.1], got {t}")
    q = direction_quotients(candidate, t, n_directions, seed)
    return float(q.max() - q.min())


@dataclass(frozen=True)
class QuadraticFit:
    """Least-squares quadratic model c0 + sum c_i t_i + sum_{i<=j} c_ij
    t_i t_j near the origin."""

    c0: float
    c_lin: np.ndarray
    c_quad: np.ndarray
    residual: float

    @property
    def diagonal_coeff_sum(self) -> float:
        return float(np.trace(self.c_quad))

    @property
    def max_cross_coeff(self) -> float:
        off = self.c_quad[np.triu_indices(3, k=1)]
        return float(np.max(np.abs(off)))


def _ball_points(radius: float, count: int, seed: int) -> np.ndarray:
    engine = _halton(seed)
    points = np.empty((0, 3))
    while points.shape[0] < count:
        batch = engine.random(4 * count) * radius
        norms = np.linalg.norm(batch, axis=1)
        keep = batch[(norms <= radius) & (norms > 0.0)]
        points = np.vstack([points, keep])
    return points[:count]


def quadratic_fit(candidate, radius: float, samples: int, seed: int = 0) -> QuadraticFit:
    """Fit a quadratic model to the candidate over quasi-random points in
    the ball of the given radius intersected with the positive cube."""
    radius = float(radius)
    if not (0.0 < radius <= 0.3):
        raise DomainError(f"radius must lie in (0, 0.3], got {radius}")
    samples = int(samples)
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
    c_quad = coef[[4, 5, 6, 5, 7, 8, 6, 8, 9]].reshape(3, 3)
    return QuadraticFit(c0=float(coef[0]), c_lin=coef[1:4].copy(), c_quad=c_quad, residual=residual)


def _cross_probe(candidate, i: int, j: int, x: float = 1e-2, ks=(2, 5, 10, 50)) -> float:
    """Cross coefficient c_ij estimated along the (0, x, kx) probe
    schedule via mixed second differences, extrapolated linearly in k."""
    ks = np.asarray(ks, dtype=float)
    # for each k the points x*e_i + k*x*e_j, x*e_i and k*x*e_j; then the origin
    steps = np.zeros((3, ks.size, 3))
    steps[[0, 1], :, i] = x
    steps[[0, 2], :, j] = ks * x
    values = candidate.values(np.vstack([steps.reshape(-1, 3), np.zeros(3)]))
    f_ij, f_i, f_j = values[:-1].reshape(3, ks.size)
    estimates = (f_ij - f_i - f_j + values[-1]) / (ks * x * x)
    design = np.column_stack([np.ones(ks.size), ks])
    coef, *_ = np.linalg.lstsq(design, estimates, rcond=None)
    return float(coef[0])


@dataclass(frozen=True)
class ReportTolerances:
    """Thresholds used when assembling an analysis report."""

    residual_max: float = 1e-8
    coeff_tol: float = 0.05
    jump_max: float = 0.05


@dataclass(frozen=True)
class AnalysisReport:
    """Numerical regularity summary of one candidate near the origin."""

    candidate: str
    value_at_origin: float
    gradient_at_origin: np.ndarray
    axis_residuals: np.ndarray
    second_quotient_bound: float
    fit: QuadraticFit
    diagonal_sum: float
    axis_forced_sum: float
    cross_term_max: float
    contradiction: bool
    jump_spread: float
    flags: tuple = ()
    disclaimer: Optional[str] = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self, dict_factory=_plain_dict)


def _plain_dict(items) -> dict:
    """``dataclasses.asdict`` factory that turns arrays and tuples into lists."""
    out = {}
    for key, value in items:
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out


def _diagonal_coeff(candidate, t: float = 1e-2) -> float:
    """Total quadratic coefficient of the candidate along the diagonal,
    from (F(t,t,t) + cos t)/t^2 with Richardson extrapolation."""
    s = np.array([t / 2.0, t])
    values = candidate.values(np.repeat(s[:, None], 3, axis=1))
    quotient = (values - singlet_correlation(s)) / (s * s)
    extrapolated = (4.0 * quotient[0] - quotient[1]) / 3.0
    return float(extrapolated + 0.5)


def contradiction_report(
    candidate,
    tolerances: ReportTolerances = ReportTolerances(),
    seed: int = 0,
) -> AnalysisReport:
    """Assemble the full regularity report.

    The contradiction flag is raised when the fit residual certifies
    apparently smooth second-order behavior while the coefficient system
    is inconsistent: the axes force diagonal coefficients summing to 3/2
    with vanishing cross terms, yet the diagonal demands a total of 1/2.
    """
    tol = tolerances
    value_at_origin = float(candidate.values(np.zeros((1, 3)))[0])
    grad = gradient_at_origin(candidate)
    axis_residuals = np.array(
        [axis_derivative_check(candidate, math.pi / 4.0, i) for i in (1, 2, 3)]
    )
    fit_radius = 0.1
    fit = quadratic_fit(candidate, radius=fit_radius, samples=200, seed=seed)
    diagonal_sum = _diagonal_coeff(candidate)
    axis_forced_sum = fit.diagonal_coeff_sum
    probes = [_cross_probe(candidate, i, j) for i, j in ((0, 1), (0, 2), (1, 2))]
    cross_term_max = max(fit.max_cross_coeff, max(abs(p) for p in probes))
    quotients = direction_quotients(candidate, t=1e-2, n_directions=32, seed=seed)
    second_quotient_bound = float(np.max(np.abs(quotients)))
    jump_spread = float(quotients.max() - quotients.min())

    # each test passes only on a number inside its tolerance, so NaN fails it
    diagonal_ok = abs(diagonal_sum - 0.5) <= tol.coeff_tol
    axis_ok = abs(axis_forced_sum - 1.5) <= tol.coeff_tol
    tests = {
        "diagonal-constraint-violated": diagonal_ok,
        "axis-coefficients-off": axis_ok,
        "directional-jump-detected": jump_spread <= tol.jump_max,
    }
    flags = [flag for flag, ok in tests.items() if not ok]
    contradiction = (
        fit.residual <= tol.residual_max and axis_ok and cross_term_max <= tol.coeff_tol and diagonal_ok
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


def inequality_scan(candidate, resolution: int, tol: float = BAND_TOL) -> list[Violation]:
    """Scan the uniform resolution^3 grid over the positive cube for band
    violations, and the diagonal nodes for departures from -cos(theta)."""
    points = grid_points(resolution)
    values = candidate.values(points)
    lo, hi = band_limits(points)
    forced = singlet_correlation(points[:, 0])
    band_bad = ~((lo - tol <= values) & (values <= hi + tol))
    on_diagonal = (points[:, 0] == points[:, 1]) & (points[:, 1] == points[:, 2])
    diagonal_bad = on_diagonal & (np.abs(values - forced) > tol)
    violations = []
    for k in np.flatnonzero(band_bad | diagonal_bad):
        theta, value = tuple(points[k].tolist()), float(values[k])
        if band_bad[k]:
            violations.append(Violation(theta, "band", value, float(lo[k]), float(hi[k])))
        if diagonal_bad[k]:
            violations.append(Violation(theta, "diagonal", value, float(forced[k]), float(forced[k])))
    return violations
