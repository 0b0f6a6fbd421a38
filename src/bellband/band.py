"""The feasible band for the fourth correlation.

Two independent routes compute the interval of values compatible with
both CHSH inequalities given the three cosine correlations: a closed
form derived directly from the inequalities, and an exact linear
program over joint distributions on the 16 sign patterns solved by
enumeration of basic feasible solutions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import BAND_TOL, ROUND_TOL, AngleTriple, grid_points, q_plus_points, singlet_correlation
from .errors import DomainError, InfeasibleError
from .sampling import JointDistribution4


@dataclass(frozen=True)
class Interval:
    """A closed subinterval of [-1, 1]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise DomainError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol


def band_limits(points) -> tuple[np.ndarray, np.ndarray]:
    """Exact endpoints (lo, hi) of the fourth-correlation values allowed
    by the CHSH inequalities, elementwise over triples of shape (..., 3)
    in the positive cube."""
    pts = q_plus_points(points)
    c1, c2, c3 = (singlet_correlation(pts[..., k]) for k in range(3))
    r1 = 2.0 - np.abs(c1 + c2)
    r2 = 2.0 - np.abs(c1 - c2)
    lo = np.maximum(np.maximum(c3 - r1, -c3 - r2), -1.0)
    hi = np.minimum(np.minimum(c3 + r1, -c3 + r2), 1.0)
    # nonempty by r1 + r2 = 4 - 2*max(|c1|,|c2|) >= 2 >= 2|c3|;
    # collapse pure rounding gaps
    gap = lo - hi
    if np.any(gap > ROUND_TOL):
        raise DomainError("band unexpectedly empty")
    collapsed = gap > 0.0
    mid = 0.5 * (lo + hi)
    return np.where(collapsed, mid, lo), np.where(collapsed, mid, hi)


def feasible_band(theta: AngleTriple) -> Interval:
    """Exact interval of fourth-correlation values allowed by the CHSH
    inequalities at a configuration in the positive cube."""
    lo, hi = band_limits(theta.as_array())
    return Interval(float(lo), float(hi))


def band_map(resolution: int) -> np.ndarray:
    """Band endpoints over the uniform resolution^3 grid on the positive
    cube, as rows (theta1, theta2, theta3, lo, hi, width) in theta1-major
    order."""
    points = grid_points(resolution)
    rows = np.empty((len(points), 6))
    rows[:, :3] = points
    del points
    # one theta1 slab at a time, so the kernel's temporaries stay slab-sized
    slab = len(rows) // int(resolution)
    for start in range(0, len(rows), slab):
        part = rows[start:start + slab]
        lo, hi = band_limits(part[:, :3])
        part[:, 3] = lo
        part[:, 4] = hi
        np.subtract(hi, lo, out=part[:, 5])
    return rows


# --- LP oracle over distributions on {+-1}^4 -------------------------------

_P = JointDistribution4.PATTERNS.astype(float)
# the product of each correlation's two columns at every pattern
_M = {name: _P[:, i] * _P[:, j] for name, (i, j) in JointDistribution4.CORRELATIONS.items()}
_OBJ = _M.pop("f")
_EQ = np.vstack([np.ones(16), *_M.values()])

_BASES = np.array(list(itertools.combinations(range(16), 4)))
_MATS = np.ascontiguousarray(_EQ[:, _BASES].transpose(1, 0, 2))
# entries are +-1, so each determinant is an exact integer (0, +-8 or +-16)
# up to rounding far below 1/2
_NONSING = np.rint(np.linalg.det(_MATS)) != 0
_BASES_NS = _BASES[_NONSING]
_INV = np.linalg.inv(_MATS[_NONSING])
_OBJ_NS = _OBJ[_BASES_NS]


@dataclass(frozen=True)
class LpResult:
    """Extremes of the fourth moment over all joint distributions matching
    three given moments, with attaining witness distributions."""

    min_value: float
    max_value: float
    witness_min: JointDistribution4
    witness_max: JointDistribution4


def _witness(basis: np.ndarray, sol: np.ndarray) -> JointDistribution4:
    p = np.zeros(16)
    p[basis] = np.clip(sol, 0.0, None)
    p /= p.sum()
    return JointDistribution4(p)


def lp_band(c1: float, c2: float, c3: float) -> LpResult:
    """Minimize and maximize E[a_bo * b_ob] over probability vectors on the
    16 sign patterns with E[a_oo b_oo] = c1, E[a_bo b_oo] = c2,
    E[a_oo b_ob] = c3.

    Exact at this size: every basic feasible solution of the 4x16 system
    is enumerated.  Rounding in the basic solutions can push an extreme
    past +-1 by about 1e-12 near the edges of the cube, so the reported
    extremes are clipped to [-1, 1].
    """
    for name, v in (("c1", c1), ("c2", c2), ("c3", c3)):
        if not math.isfinite(float(v)) or abs(v) > 1.0:
            raise DomainError(f"{name} = {v} is not a correlation in [-1, 1]")
    b = np.array([1.0, c1, c2, c3])
    sols = _INV @ b
    # basic solutions are probabilities: a basis is feasible only to
    # probability rounding, or extremes escape [-1, 1] at collapsed bands
    feasible = np.all(sols >= -ROUND_TOL, axis=1)
    if not feasible.any():
        raise InfeasibleError(f"no distribution matches moments ({c1}, {c2}, {c3})")
    objs = np.sum(sols * _OBJ_NS, axis=1)
    objs_feas = np.where(feasible, objs, np.nan)

    def pick(extreme: float) -> tuple[np.ndarray, np.ndarray]:
        # among bases attaining the extreme, prefer the least degenerate one
        near = feasible & (np.abs(objs - extreme) <= ROUND_TOL)
        idx = np.flatnonzero(near)
        best = idx[np.argmax(np.min(sols[idx], axis=1))]
        return _BASES_NS[best], sols[best]

    min_value = float(np.nanmin(objs_feas))
    max_value = float(np.nanmax(objs_feas))
    return LpResult(
        min_value=max(min_value, -1.0),
        max_value=min(max_value, 1.0),
        witness_min=_witness(*pick(min_value)),
        witness_max=_witness(*pick(max_value)),
    )


def feasible_distribution(c1: float, c2: float, c3: float, f: float) -> JointDistribution4:
    """A joint distribution on the 16 sign patterns matching all four
    moments (c1, c2, c3, f), built as a convex combination of the two LP
    witnesses."""
    result = lp_band(c1, c2, c3)
    if not (result.min_value - BAND_TOL <= f <= result.max_value + BAND_TOL):
        raise InfeasibleError(
            f"fourth moment {f} lies outside the feasible band "
            f"[{result.min_value}, {result.max_value}]"
        )
    span = result.max_value - result.min_value
    if span <= BAND_TOL:
        return result.witness_min
    lam = (result.max_value - f) / span
    lam = min(max(lam, 0.0), 1.0)
    p = lam * result.witness_min.p + (1.0 - lam) * result.witness_max.p
    return JointDistribution4(p)
