"""Angle conventions, the twisted Malus law, singlet outcome statistics,
and empirical correlation of +/-1 sequences.

Angles are radians as 64-bit floats.  A detector configuration enters as
its reduced triple (theta_a - theta_b, theta_a' - theta_b, theta_a - theta_b'),
taken as given; the positive cube Q+ = [0, pi]^3 is its domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

TWO_PI = 2.0 * math.pi

# The package's only rounding tolerances; a test keeps every other module
# from spelling one.

#: rounding slack on order-one float64 quantities; tests/test_exact.py finds
#: the closed-form band within 2.1e-16 of an exact rational LP solve
ROUND_TOL = 1e-12

#: slack for a fourth-correlation value checked against a band;
#: tests/test_exact.py finds the float LP extremes within 3.9e-12 of exact
BAND_TOL = 1e-9

# The rules for a caller's scalar arguments; each raises DomainError naming one.


def _integer(value, name: str) -> int:
    """``value`` as an int, if it is equal to one: 3.0 and np.int64(3)
    pass, while 2.9, NaN and "3" raise DomainError."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{name} must be an integer, got {value!r}")


def _real(value, name: str) -> float:
    """``value`` as a float; whatever ``float()`` rejects raises DomainError,
    while a numeric string such as "0.5" counts as its number."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be a real number, got {value!r}") from None


def _finite(value, name: str) -> float:
    """``_real(value)``, which must also be finite."""
    value = _real(value, name)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def _check_seed(seed) -> int:
    """An RNG seed: an integer in [0, 2^64)."""
    seed = _integer(seed, "seed")
    if not 0 <= seed < (1 << 64):
        raise DomainError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


def singlet_correlation(theta):
    """Singlet correlation -cos(theta), elementwise over arrays of relative
    detector angles; callers validate the angles."""
    return -np.cos(theta)


def twisted_malus(theta: float) -> float:
    """Singlet correlation -cos(theta) at relative detector angle theta."""
    return float(singlet_correlation(_finite(theta, "angle")))


@dataclass(frozen=True)
class AngleTriple:
    """Reduced coordinates (theta1, theta2, theta3) of a detector
    configuration.  Any finite triple is accepted; operations defined only
    on the positive cube check it with ``q_plus_points``.
    """

    theta1: float
    theta2: float
    theta3: float

    def __post_init__(self):
        for name in ("theta1", "theta2", "theta3"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))

    def as_array(self) -> np.ndarray:
        return np.array([self.theta1, self.theta2, self.theta3])


def q_plus_points(points) -> np.ndarray:
    """Validate reduced triples given as an array of shape (..., 3) with
    every component in [0, pi]; return them as float64."""
    try:
        pts = np.asarray(points, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"triples must be real numbers: {exc}") from None
    if pts.ndim == 0 or pts.shape[-1] != 3:
        raise ShapeError(f"expected triples of shape (..., 3), got shape {pts.shape}")
    # one elementwise pass that NaN fails too; rows are reduced only to name a bad one
    inside = (pts >= 0.0) & (pts <= math.pi)
    if not inside.all():
        bad = tuple(pts[~inside.all(axis=-1)][0].tolist())
        raise DomainError(f"triple {bad} lies outside the positive cube [0, pi]^3")
    return pts


#: largest grid resolution, checked before any table is allocated: 8e6 points
MAX_GRID_RESOLUTION = 200


def _grid_resolution(value) -> int:
    """A grid resolution: an integer in [2, MAX_GRID_RESOLUTION]."""
    resolution = _integer(value, "resolution")
    if not 2 <= resolution <= MAX_GRID_RESOLUTION:
        raise DomainError(f"resolution must lie in [2, {MAX_GRID_RESOLUTION}], got {resolution}")
    return resolution


def grid_axis(resolution) -> np.ndarray:
    """The r angles 0, ..., pi of each axis of the uniform resolution^3 node
    lattice, the one statement of its nodes."""
    return np.linspace(0.0, math.pi, _grid_resolution(resolution))


#: most lattice nodes that a walk over a grid holds at a time; a block is
#: GRID_BLOCK // r whole theta3-rows, so the 25^3 = 15,625 nodes of a
#: resolution-25 grid are one block
GRID_BLOCK = 1 << 14


def grid_blocks(resolution: int):
    """Walk the uniform resolution^3 lattice in theta1-major order, in blocks
    of GRID_BLOCK // r whole theta3-rows of r nodes.  Each block yields its
    node slice, its (m, 3) points, and its correlations -cos(theta) as
    (c1, c2, c3): a (rows, 1) column, a (rows, 1) column and the (r,) axis
    table, which broadcast to the block's (rows, r) nodes.  The r cosines
    of the axis are the only ones computed."""
    axis = grid_axis(resolution)
    r = len(axis)
    table = singlet_correlation(axis)
    step = GRID_BLOCK // r
    for first in range(0, r * r, step):
        # theta3-row q of the lattice holds the nodes with (i1, i2) = divmod(q, r)
        i1, i2 = np.divmod(np.arange(first, min(first + step, r * r))[:, None], r)
        points = np.empty((len(i1), r, 3))
        points[..., 0] = axis[i1]
        points[..., 1] = axis[i2]
        points[..., 2] = axis
        nodes = slice(first * r, (first + len(i1)) * r)
        yield nodes, points.reshape(-1, 3), (table[i1], table[i2], table)


class _ArrayFields:
    """The dataclass ``==`` and ``hash``, with array fields compared by dtype, shape and bytes."""

    def _key(self) -> tuple:
        return tuple((v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
                     for v in vars(self).values())

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())


def _check_probabilities(p: np.ndarray) -> None:
    """Reject a probability vector with an entry below -ROUND_TOL or a sum
    more than ROUND_TOL from 1; written so that NaN fails it too."""
    low = p.min()
    if low < -ROUND_TOL:
        raise DomainError(f"negative probability {low}")
    total = p.sum()
    if not abs(total - 1.0) <= ROUND_TOL:
        raise DomainError(f"probabilities sum to {total}, not 1")


@dataclass(frozen=True)
class JointDistribution2:
    """Joint outcome distribution of one measured pair: probabilities of
    (+,+), (+,-), (-,+), (-,-).  Marginals must be uniform."""

    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float

    def __post_init__(self):
        for name in ("p_pp", "p_pm", "p_mp", "p_mm"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        _check_probabilities(self.as_array())
        # written so that NaN fails it too
        marginals = (self.p_pp + self.p_pm, self.p_pp + self.p_mp)
        if not all(abs(m - 0.5) <= ROUND_TOL for m in marginals):
            raise DomainError("marginals are not uniform")

    def as_array(self) -> np.ndarray:
        return np.array([self.p_pp, self.p_pm, self.p_mp, self.p_mm])


def singlet_joint(theta: float) -> JointDistribution2:
    """Joint outcome distribution of a singlet pair measured at relative
    angle theta: uniform marginals with product mean -cos(theta)."""
    e = twisted_malus(theta)
    # rounding can leave a tiny negative lobe at the endpoints
    same = max((1.0 + e) / 4.0, 0.0)
    diff = max((1.0 - e) / 4.0, 0.0)
    return JointDistribution2(p_pp=same, p_pm=diff, p_mp=diff, p_mm=same)


def as_outcomes(values) -> np.ndarray:
    """Validate a finite +/-1 sequence and return it as an int8 array."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ShapeError(f"expected a 1-d sequence, got shape {arr.shape}")
    if arr.size == 0:
        raise DomainError("outcome sequence must be non-empty")
    if not np.issubdtype(arr.dtype, np.number):
        raise DomainError(f"outcomes must be numeric, got dtype {arr.dtype}")
    if arr.dtype.kind in "iu":
        # three reductions that allocate nothing: no entry past -1 or +1, and none is 0
        valid = arr.min() >= -1 and arr.max() <= 1 and np.count_nonzero(arr) == arr.size
    else:
        valid = np.all((arr == 1) | (arr == -1))
    if not valid:
        raise DomainError("outcomes must all be +1 or -1")
    return arr.astype(np.int8, copy=False)


def empirical_correlation(u, v) -> float:
    """Finite-sample correlation (1/n) sum u_i v_i of two +/-1 sequences."""
    u = as_outcomes(u)
    v = as_outcomes(v)
    if u.size != v.size:
        raise ShapeError(f"length mismatch: {u.size} vs {v.size}")
    # sum u_i v_i: +1 where the outcomes agree, -1 where they differ
    s = u.size - 2 * int(np.count_nonzero(u != v))
    return s / u.size
