"""Seeded Monte Carlo generation of outcome sequences.

All samplers are deterministic functions of (parameters, seed).  Draws
are produced in chunks of ``CHUNK``; the generator for chunk ``i`` is
PCG64 seeded with ``SeedSequence([seed, i])``, so the output does not
depend on how chunks are scheduled.  The chunks are filled on a kept pool
of at most ``min(4, os.cpu_count())`` threads, each straight into its own
slice of one int8 block of the sampler's k columns, so a sampler holds k
bytes a draw plus one chunk's temporaries per worker, about 0.7 MB each.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import _ArrayFields, _check_probabilities, _check_seed, _finite, _integer, singlet_joint
from .errors import DomainError, ShapeError

#: draws per sub-seeded chunk
CHUNK = 1 << 16


@functools.cache
def _pool():
    """The thread pool that fills sampler chunks, made on first use:
    importing concurrent.futures costs 5-8 ms, which an import of the CLI
    should not pay.  numpy's generators release the GIL on whole chunks."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1))


# a forked child has none of the parent's worker threads, and a call on the
# inherited pool would wait for them forever; Windows has no fork
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _sample(n: int, seed: int, k: int, draw) -> tuple:
    """The k int8 +/-1 columns of n draws.  Chunk i of the columns is filled
    by ``draw(rng, out)``, which writes the (k, m) values of its m draws into
    ``out``, where rng is PCG64 seeded with ``SeedSequence([seed, i])``."""
    n = _integer(n, "sample count")
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    seed = _check_seed(seed)
    if k * n > np.iinfo(np.intp).max:
        raise DomainError(f"{n} draws of {k} columns exceed the address space")
    block = np.empty((k, n), dtype=np.int8)

    def fill(start):
        rng = np.random.default_rng(np.random.SeedSequence([seed, start // CHUNK]))
        draw(rng, block[:, start:start + CHUNK])

    # reading every result raises the exception of a chunk whose draw failed
    list(_pool().map(fill, range(0, n, CHUNK)))
    return tuple(block)


def _categorical(probs):
    """The draw of k sign columns from a finite distribution over the 2^k
    sign patterns in ``itertools.product((1, -1), repeat=k)`` order, so entry
    j of pattern i is ``1 - 2 * ((i >> (k-1-j)) & 1)``.  A uniform u draws
    the index that counts the edges ``cumsum(probs)[:-1]`` at or below u.
    The edges do not decrease, so those are a prefix and the count is
    ``searchsorted(cum, u, side="right")`` with ``cum[-1] = 1.0``, ties and
    edges rounded past 1.0 included."""
    edges = np.cumsum(probs)[:-1]

    def draw(rng, out):
        u = rng.random(out.shape[1])
        index, below = np.zeros(len(u), dtype=np.int8), np.empty(len(u), dtype=bool)
        for edge in edges:  # 3 or 15 edges, so the count fits in int8
            index += np.less_equal(edge, u, out=below)
        # the index's sign bits decoded in place: about 4x faster than a take
        # from a pattern table, and with no (k, m) temporary
        for j, row in enumerate(out):
            np.right_shift(index, len(out) - 1 - j, out=row)
            row &= 1
            row *= -2
            row += 1

    return draw


_PLUS, _MINUS = np.int8(1), np.int8(-1)


def sample_singlet_pairs(theta: float, n: int, seed: int = 0):
    """Draw n singlet outcome pairs at relative angle theta.

    Returns (a, b) as int8 arrays of +/-1.
    """
    return _sample(n, seed, 2, _categorical(singlet_joint(theta).as_array()))


def sample_lhv_pairs(theta_a: float, theta_b: float, n: int, seed: int = 0):
    """Draw n pairs from a concrete local hidden-variable model.

    A hidden angle lambda is uniform on [0, 2*pi); the stations output
    a = sign(cos(lambda - theta_a)) and b = -sign(cos(lambda - theta_b)),
    with sign(0) := +1.  The model correlation is the sawtooth
    -1 + 2|theta_a - theta_b|/pi for angle gaps up to pi.
    """
    theta_a, theta_b = _finite(theta_a, "theta_a"), _finite(theta_b, "theta_b")

    def draw(rng, out):
        lam = rng.random(out.shape[1]) * (2.0 * math.pi)
        out[0] = np.where(np.cos(lam - theta_a) >= 0.0, _PLUS, _MINUS)
        out[1] = np.where(np.cos(lam - theta_b) >= 0.0, _MINUS, _PLUS)

    return _sample(n, seed, 2, draw)


@dataclass(frozen=True, eq=False)
class JointDistribution4(_ArrayFields):
    """Probability vector over the 16 sign patterns of
    (a_oo, b_oo, a_bo, b_ob)."""

    p: np.ndarray

    #: sign patterns, row k holds (a_oo, b_oo, a_bo, b_ob) for index k
    PATTERNS = np.array(list(itertools.product((1, -1), repeat=4)), dtype=np.int8)
    #: each correlation is the mean product of these two pattern columns;
    #: c1, c2 and c3 are the known ones and f is the unknown fourth
    CORRELATIONS = {"c1": (0, 1), "c2": (2, 1), "c3": (0, 3), "f": (2, 3)}

    def __post_init__(self):
        try:
            p = np.array(self.p, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"probabilities must be real numbers: {exc}") from None
        if p.shape != (16,):
            raise ShapeError(f"expected 16 probabilities, got shape {p.shape}")
        _check_probabilities(p)
        np.maximum(p, 0.0, out=p)
        p.flags.writeable = False
        object.__setattr__(self, "p", p)


@dataclass(frozen=True, eq=False)
class OctetSequences(_ArrayFields):
    """The four stored outcome sequences of one Bell run, read-only and of
    equal length; the identified b_bo == b_oo and a_ob == a_oo are not stored."""

    a_oo: np.ndarray
    b_oo: np.ndarray
    a_bo: np.ndarray
    b_ob: np.ndarray

    def __post_init__(self):
        for name, column in tuple(vars(self).items()):
            # a view, so no copy is made and the caller's array keeps its flags
            column = np.asarray(column).view()
            if column.ndim == 0:
                raise ShapeError(f"{name} must be a sequence, got {column.item()!r}")
            if column.ndim != 1:
                raise ShapeError(f"{name} must be 1-d, got shape {column.shape}")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        n = len(self.a_oo)
        if not (len(self.b_oo) == len(self.a_bo) == len(self.b_ob) == n):
            raise ShapeError("all four sequences must have equal length")

    def __len__(self) -> int:
        return len(self.a_oo)


def sample_octet(dist: JointDistribution4, n: int, seed: int = 0) -> OctetSequences:
    """Draw n independent sign patterns (a_oo, b_oo, a_bo, b_ob)."""
    return OctetSequences(*_sample(n, seed, 4, _categorical(dist.p)))
