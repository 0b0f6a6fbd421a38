"""Seeded Monte Carlo generation of outcome sequences.

All samplers are deterministic functions of (parameters, seed).  Draws
are produced in fixed-size chunks; the generator for chunk ``i`` is
PCG64 seeded with ``SeedSequence([seed, i])``, so the output does not
depend on how chunks are scheduled.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import ROUND_TOL, singlet_joint
from .errors import DomainError, ShapeError

#: draws per sub-seeded chunk
CHUNK = 1 << 16

_U64_MAX = (1 << 64) - 1


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if not (0 <= seed <= _U64_MAX):
        raise DomainError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


def _check_count(n: int) -> int:
    n = int(n)
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    return n


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    """PCG64 generator for one chunk, mixed from (seed, chunk index)."""
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _chunks(n: int):
    for index, start in enumerate(range(0, n, CHUNK)):
        yield index, min(CHUNK, n - start)


def _sample_categorical(probs: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Indices of n independent draws from a finite distribution."""
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    out = np.empty(n, dtype=np.int64)
    pos = 0
    for index, m in _chunks(n):
        u = _chunk_rng(seed, index).random(m)
        out[pos:pos + m] = np.searchsorted(cum, u, side="right")
        pos += m
    return out


# outcome pairs in the order of JointDistribution2 fields
_PAIRS2 = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.int8)


def sample_singlet_pairs(theta: float, n: int, seed: int = 0):
    """Draw n singlet outcome pairs at relative angle theta.

    Returns (a, b) as int8 arrays of +/-1.
    """
    n = _check_count(n)
    seed = _check_seed(seed)
    dist = singlet_joint(theta)
    idx = _sample_categorical(dist.as_array(), n, seed)
    drawn = _PAIRS2[idx]
    return drawn[:, 0].copy(), drawn[:, 1].copy()


def sample_lhv_pairs(theta_a: float, theta_b: float, n: int, seed: int = 0):
    """Draw n pairs from a concrete local hidden-variable model.

    A hidden angle lambda is uniform on [0, 2*pi); the stations output
    a = sign(cos(lambda - theta_a)) and b = -sign(cos(lambda - theta_b)),
    with sign(0) := +1.  The model correlation is the sawtooth
    -1 + 2|theta_a - theta_b|/pi for angle gaps up to pi.
    """
    for name, v in (("theta_a", theta_a), ("theta_b", theta_b)):
        if not math.isfinite(float(v)):
            raise DomainError(f"{name} must be finite, got {v}")
    n = _check_count(n)
    seed = _check_seed(seed)
    a = np.empty(n, dtype=np.int8)
    b = np.empty(n, dtype=np.int8)
    pos = 0
    for index, m in _chunks(n):
        lam = _chunk_rng(seed, index).random(m) * (2.0 * math.pi)
        a[pos:pos + m] = np.where(np.cos(lam - theta_a) >= 0.0, 1, -1)
        b[pos:pos + m] = np.where(np.cos(lam - theta_b) >= 0.0, -1, 1)
        pos += m
    return a, b


@dataclass(frozen=True)
class JointDistribution4:
    """Probability vector over the 16 sign patterns of
    (a_oo, b_oo, a_bo, b_ob)."""

    p: np.ndarray

    #: sign patterns, row k holds (a_oo, b_oo, a_bo, b_ob) for index k
    PATTERNS = np.array(list(itertools.product((1, -1), repeat=4)), dtype=np.int8)

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (16,):
            raise ShapeError(f"expected 16 probabilities, got shape {p.shape}")
        if np.any(p < -ROUND_TOL):
            raise DomainError("negative probability entry")
        if abs(p.sum() - 1.0) > ROUND_TOL:
            raise DomainError(f"probabilities sum to {p.sum()}, not 1")
        p = np.clip(p, 0.0, None)
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    def __eq__(self, other):
        return isinstance(other, JointDistribution4) and self.p.tobytes() == other.p.tobytes()

    def __hash__(self):
        return hash(self.p.tobytes())

    def moment(self, i: int, j: int) -> float:
        """Expected product of pattern components i and j."""
        signs = self.PATTERNS[:, i].astype(float) * self.PATTERNS[:, j]
        return float(np.dot(self.p, signs))

    @classmethod
    def point_mass(cls, pattern) -> "JointDistribution4":
        pattern = tuple(int(x) for x in pattern)
        rows = np.flatnonzero(np.all(cls.PATTERNS == np.array(pattern, dtype=np.int8), axis=1))
        if rows.size != 1:
            raise DomainError(f"not a +/-1 sign pattern: {pattern}")
        p = np.zeros(16)
        p[rows[0]] = 1.0
        return cls(p)

    @classmethod
    def uniform(cls) -> "JointDistribution4":
        return cls(np.full(16, 1.0 / 16.0))


@dataclass
class OctetSequences:
    """The four stored outcome sequences of one Bell run.

    The identifications b_bo == b_oo and a_ob == a_oo hold by
    construction and are exposed as aliases rather than stored.
    """

    a_oo: np.ndarray
    b_oo: np.ndarray
    a_bo: np.ndarray
    b_ob: np.ndarray

    def __post_init__(self):
        n = len(self.a_oo)
        if not (len(self.b_oo) == len(self.a_bo) == len(self.b_ob) == n):
            raise ShapeError("all four sequences must have equal length")

    @property
    def b_bo(self) -> np.ndarray:
        return self.b_oo

    @property
    def a_ob(self) -> np.ndarray:
        return self.a_oo

    def __len__(self) -> int:
        return len(self.a_oo)


def sample_octet(dist: JointDistribution4, n: int, seed: int = 0) -> OctetSequences:
    """Draw n independent sign patterns (a_oo, b_oo, a_bo, b_ob)."""
    n = _check_count(n)
    seed = _check_seed(seed)
    idx = _sample_categorical(dist.p, n, seed)
    drawn = JointDistribution4.PATTERNS[idx]
    return OctetSequences(
        a_oo=drawn[:, 0].copy(),
        b_oo=drawn[:, 1].copy(),
        a_bo=drawn[:, 2].copy(),
        b_ob=drawn[:, 3].copy(),
    )
