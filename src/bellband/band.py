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

from .core import (
    BAND_TOL, ROUND_TOL, AngleTriple, _finite, _grid_resolution, _real, grid_blocks,
    q_plus_points, singlet_correlation,
)
from .errors import DomainError, InfeasibleError
from .sampling import JointDistribution4


@dataclass(frozen=True)
class Interval:
    """A closed subinterval of [-1, 1]."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = _real(self.lo, "lo"), _real(self.hi, "hi")
        if not (lo <= hi):
            raise DomainError(f"empty interval: lo={self.lo} > hi={self.hi}")
        if not (-1.0 <= lo and hi <= 1.0):
            raise DomainError(f"interval [{lo}, {hi}] is not within [-1, 1]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


def band_limits(points) -> tuple[np.ndarray, np.ndarray]:
    """Exact endpoints (lo, hi) of the fourth-correlation values allowed
    by the CHSH inequalities, elementwise over triples of shape (..., 3)
    in the positive cube."""
    pts = q_plus_points(points)
    return _band(*(singlet_correlation(pts[..., k]) for k in range(3)))


def _band(c1, c2, c3) -> tuple[np.ndarray, np.ndarray]:
    """The band kernel: endpoints (lo, hi) from the three known correlations,
    elementwise over arrays that broadcast together."""
    r1 = 2.0 - np.abs(c1 + c2)
    r2 = 2.0 - np.abs(c1 - c2)
    lo = np.maximum(np.maximum(c3 - r1, -c3 - r2), -1.0)
    hi = np.minimum(np.minimum(c3 + r1, -c3 + r2), 1.0)
    # nonempty by r1 + r2 = 4 - 2*max(|c1|,|c2|) >= 2 >= 2|c3|; a rounding
    # crossing collapses to its midpoint, which lies in [lo, hi] if lo <= hi
    if np.any(lo - hi > ROUND_TOL):
        raise DomainError("band unexpectedly empty")
    mid = 0.5 * (lo + hi)
    return np.minimum(lo, mid), np.maximum(hi, mid)


def feasible_band(theta: AngleTriple) -> Interval:
    """Exact interval of fourth-correlation values allowed by the CHSH
    inequalities at a configuration in the positive cube."""
    return Interval(*band_limits(theta.as_array()))


def band_map(resolution: int) -> np.ndarray:
    """Band endpoints over the uniform resolution^3 grid on the positive
    cube, as rows (theta1, theta2, theta3, lo, hi, width) in theta1-major
    order.  The table is filled one ``grid_blocks`` block at a time, so
    beside it the walk holds one block's points and temporaries."""
    r = _grid_resolution(resolution)
    rows = np.empty((r ** 3, 6))
    for nodes, points, c in grid_blocks(r):
        part = rows[nodes]
        part[:, :3] = points
        lo, hi = _band(*c)
        part[:, 3] = lo.reshape(-1)
        part[:, 4] = hi.reshape(-1)
        np.subtract(part[:, 4], part[:, 3], out=part[:, 5])
    return rows


# --- LP oracle over distributions on {+-1}^4 -------------------------------

_P = JointDistribution4.PATTERNS.astype(float)
# the product of each correlation's two columns at every pattern
_M = {name: _P[:, i] * _P[:, j] for name, (i, j) in JointDistribution4.CORRELATIONS.items()}
_OBJ = _M.pop("f")
_EQ = np.vstack([np.ones(16), *_M.values()])

_BASES = np.array(list(itertools.combinations(range(16), 4)))
# entries are +-1, so each determinant is an exact integer (0, +-8 or +-16)
# up to rounding far below 1/2
_BASES_NS = _BASES[np.rint(np.linalg.det(_EQ[:, _BASES].transpose(1, 0, 2))) != 0]
# entry-major: row 928 * i + j of _INV_ROWS is row i of basis j's inverse,
# so all basic solutions are one gemv, read as (4, 928) with one contiguous
# row per entry, and column j of _OBJ_ROWS is basis j's objective
_INV_ROWS = np.linalg.inv(_EQ[:, _BASES_NS].transpose(1, 0, 2)).transpose(1, 0, 2).reshape(-1, 4)
_OBJ_ROWS = np.ascontiguousarray(_OBJ[_BASES_NS].T)


@dataclass(frozen=True)
class LpResult:
    """Extremes of the fourth moment over all joint distributions matching
    three given moments, with attaining witness distributions."""

    min_value: float
    max_value: float
    witness_min: JointDistribution4
    witness_max: JointDistribution4


def lp_band(c1: float, c2: float, c3: float) -> LpResult:
    """Minimize and maximize E[a_bo * b_ob] over probability vectors on the
    16 sign patterns with E[a_oo b_oo] = c1, E[a_bo b_oo] = c2,
    E[a_oo b_ob] = c3.

    Exact at this size: every basic feasible solution of the 4x16 system
    is enumerated.  Rounding in the basic solutions can push an extreme
    past +-1 by about 1e-12 near the edges of the cube, so the reported
    extremes are clipped to [-1, 1].
    """
    b = np.array([1.0, _real(c1, "c1"), _real(c2, "c2"), _real(c3, "c3")])
    for name, v, c in zip(("c1", "c2", "c3"), (c1, c2, c3), b[1:]):
        if not (math.isfinite(c) and abs(c) <= 1.0):
            raise DomainError(f"{name} = {v} is not a correlation in [-1, 1]")
    sols = (_INV_ROWS @ b).reshape(4, -1)
    # basic solutions are probabilities: a basis is feasible only to
    # probability rounding, or extremes escape [-1, 1] at collapsed bands
    worst = sols.min(axis=0)
    feasible = worst >= -ROUND_TOL
    # the order of np.sum over each basis's four terms, so the same bits
    terms = sols * _OBJ_ROWS
    objs = ((terms[0] + terms[1]) + terms[2]) + terms[3]
    feasible_objs = objs[feasible]
    if feasible_objs.size == 0:
        raise InfeasibleError(f"no distribution matches moments ({c1}, {c2}, {c3})")

    def pick(extreme: float) -> JointDistribution4:
        # among bases attaining the extreme, prefer the least degenerate one
        idx = np.flatnonzero(feasible & (np.abs(objs - extreme) <= ROUND_TOL))
        best = idx[np.argmax(worst[idx])]
        p = np.zeros(16)
        p[_BASES_NS[best]] = np.maximum(sols[:, best], 0.0)
        p /= p.sum()
        return JointDistribution4(p)

    min_value = float(feasible_objs.min())
    max_value = float(feasible_objs.max())
    return LpResult(
        min_value=max(min_value, -1.0),
        max_value=min(max_value, 1.0),
        witness_min=pick(min_value),
        witness_max=pick(max_value),
    )


def feasible_distribution(c1: float, c2: float, c3: float, f: float) -> JointDistribution4:
    """A joint distribution on the 16 sign patterns matching all four
    moments (c1, c2, c3, f), built as a convex combination of the two LP
    witnesses."""
    result = lp_band(c1, c2, c3)
    target = _finite(f, "f")
    if not (result.min_value - BAND_TOL <= target <= result.max_value + BAND_TOL):
        raise InfeasibleError(
            f"fourth moment {f} lies outside the feasible band "
            f"[{result.min_value}, {result.max_value}]"
        )
    span = result.max_value - result.min_value
    if span <= BAND_TOL:
        return result.witness_min
    lam = (result.max_value - target) / span
    lam = min(max(lam, 0.0), 1.0)
    p = lam * result.witness_min.p + (1.0 - lam) * result.witness_max.p
    return JointDistribution4(p)
