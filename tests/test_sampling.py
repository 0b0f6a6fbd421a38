import contextlib
import dataclasses
import hashlib
import math
import multiprocessing
import queue
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bellband import (
    AngleTriple,
    DomainError,
    JointDistribution4,
    OctetSequences,
    ShapeError,
    boole_check,
    empirical_correlation,
    feasible_band,
    feasible_distribution,
    sample_lhv_pairs,
    sample_octet,
    sample_singlet_pairs,
)
from bellband import sampling
from bellband.core import singlet_joint
from bellband.sampling import CHUNK, _categorical

UNIFORM = JointDistribution4(np.full(16, 1.0 / 16.0))


def point_mass(pattern):
    """The distribution with all its mass on one sign pattern."""
    return JointDistribution4(np.eye(16)[JointDistribution4.PATTERNS.tolist().index(list(pattern))])


def lhv_correlation_by_quadrature(theta_a, theta_b, points=200_000):
    """Independent oracle: Riemann average of the deterministic outcome
    product over the hidden angle."""
    lam = (np.arange(points) + 0.5) / points * 2 * math.pi
    a = np.where(np.cos(lam - theta_a) >= 0, 1, -1)
    b = np.where(np.cos(lam - theta_b) >= 0, -1, 1)
    return float(np.mean(a * b))


class TestSingletSampler:
    def test_theta_zero_forces_opposite(self):
        a, b = sample_singlet_pairs(0.0, 100, seed=7)
        assert np.array_equal(b, -a)
        assert empirical_correlation(a, b) == -1.0

    def test_theta_pi_forces_equal(self):
        a, b = sample_singlet_pairs(math.pi, 100, seed=7)
        assert np.array_equal(b, a)
        assert empirical_correlation(a, b) == 1.0

    def test_convergence_at_pi_over_three(self):
        a, b = sample_singlet_pairs(math.pi / 3, 10**6, seed=42)
        assert empirical_correlation(a, b) == pytest.approx(-0.5, abs=0.005)

    def test_deterministic(self):
        a1, b1 = sample_singlet_pairs(1.1, 5000, seed=9)
        a2, b2 = sample_singlet_pairs(1.1, 5000, seed=9)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
        a3, _ = sample_singlet_pairs(1.1, 5000, seed=10)
        assert not np.array_equal(a1, a3)

    def test_zero_count_rejected(self):
        with pytest.raises(DomainError):
            sample_singlet_pairs(0.5, 0)

    def test_concentration(self):
        # empirical correlation within 4/sqrt(n) of -cos(theta) in at
        # least 99.99% of trials; checked at a desk-scale trial count
        n, trials, misses = 400, 400, 0
        rng = np.random.default_rng(5)
        for k in range(trials):
            theta = rng.uniform(0, math.pi)
            a, b = sample_singlet_pairs(theta, n, seed=k)
            if abs(empirical_correlation(a, b) + math.cos(theta)) > 4 / math.sqrt(n):
                misses += 1
        assert misses == 0


class TestLhvSampler:
    def test_equal_settings(self):
        a, b = sample_lhv_pairs(0.7, 0.7, 1000, seed=3)
        assert empirical_correlation(a, b) == -1.0

    def test_right_angle_gap(self):
        oracle = lhv_correlation_by_quadrature(0.0, math.pi / 2)
        assert oracle == pytest.approx(0.0, abs=1e-3)
        a, b = sample_lhv_pairs(0.0, math.pi / 2, 10**6, seed=11)
        assert empirical_correlation(a, b) == pytest.approx(0.0, abs=0.005)

    def test_opposite_settings(self):
        oracle = lhv_correlation_by_quadrature(0.0, math.pi)
        assert oracle == pytest.approx(1.0, abs=1e-3)
        a, b = sample_lhv_pairs(0.0, math.pi, 10**6, seed=11)
        assert empirical_correlation(a, b) == pytest.approx(1.0, abs=0.005)

    def test_sawtooth(self):
        for gap in (0.4, 1.0, 2.0, 3.0):
            expected = -1 + 2 * gap / math.pi
            assert lhv_correlation_by_quadrature(0.2, 0.2 + gap) == pytest.approx(
                expected, abs=1e-3
            )
            a, b = sample_lhv_pairs(0.2, 0.2 + gap, 200_000, seed=int(gap * 10))
            assert empirical_correlation(a, b) == pytest.approx(expected, abs=0.01)


class TestJointDistribution4:
    def test_validation(self):
        with pytest.raises(DomainError):
            JointDistribution4(np.full(16, 0.1))
        with pytest.raises(ShapeError):
            JointDistribution4(np.full(8, 0.125))

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, entry):
        # every comparison with NaN is false, so a check that rejects only on
        # a true comparison once let an all-NaN vector through to sample_octet
        for p in (np.full(16, entry), np.r_[entry, np.full(15, 1.0 / 15.0)]):
            with pytest.raises(DomainError):
                JointDistribution4(p)

    def test_probability_messages_are_one_line(self):
        with pytest.raises(DomainError) as negative:
            JointDistribution4(np.r_[-0.5, 1.5, np.zeros(14)])
        with pytest.raises(DomainError) as total:
            JointDistribution4(np.full(16, 0.125))
        assert str(negative.value) == "negative probability -0.5"
        assert str(total.value) == "probabilities sum to 2.0, not 1"

    def test_value_equality_and_hash(self):
        d = JointDistribution4(np.full(16, 1.0 / 16.0))
        assert d == UNIFORM
        assert hash(d) == hash(UNIFORM)
        assert d != point_mass((1, 1, 1, 1))


class TestOctetSampler:
    def test_point_mass(self):
        octet = sample_octet(point_mass((1, 1, 1, 1)), 10, seed=0)
        for seq in (octet.a_oo, octet.b_oo, octet.a_bo, octet.b_ob):
            assert np.all(seq == 1)

    def test_uniform_independence(self):
        octet = sample_octet(UNIFORM, 10**6, seed=1)
        seqs = [octet.a_oo, octet.b_oo, octet.a_bo, octet.b_ob]
        for i in range(4):
            for j in range(i + 1, 4):
                assert empirical_correlation(seqs[i], seqs[j]) == pytest.approx(
                    0.0, abs=0.005
                )

    def test_band_midpoint_targets(self):
        theta = AngleTriple(math.pi / 3, math.pi / 2, 2 * math.pi / 3)
        c1, c2, c3 = (-math.cos(t) for t in (theta.theta1, theta.theta2, theta.theta3))
        f = feasible_band(theta).midpoint
        octet = sample_octet(feasible_distribution(c1, c2, c3, f), 10**6, seed=42)
        assert empirical_correlation(octet.a_oo, octet.b_oo) == pytest.approx(-0.5, abs=0.01)
        assert empirical_correlation(octet.a_bo, octet.b_oo) == pytest.approx(0.0, abs=0.01)
        assert empirical_correlation(octet.a_oo, octet.b_ob) == pytest.approx(0.5, abs=0.01)
        assert empirical_correlation(octet.a_bo, octet.b_ob) == pytest.approx(f, abs=0.01)

    def test_frozen_with_read_only_columns(self):
        octet = sample_octet(UNIFORM, 100, seed=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            octet.a_oo = np.ones(3)
        for column in vars(octet).values():
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1

    def test_columns_are_read_only_views(self):
        # no copy is made, and the caller's array stays writeable
        ones = np.ones(4, dtype=np.int8)
        octet = OctetSequences(ones, ones, ones, ones)
        assert np.shares_memory(octet.a_oo, ones) and ones.flags.writeable

    def test_equality_compares_dtype_shape_and_bytes(self):
        octet = OctetSequences(*[np.ones(4, dtype=np.int8)] * 4)
        assert octet == OctetSequences(*[np.ones(4, dtype=np.int8)] * 4)
        assert octet != OctetSequences(*[np.ones(4)] * 4)
        assert octet != OctetSequences(*[np.ones((4, 1), dtype=np.int8)] * 4)
        assert octet != OctetSequences(*[np.ones(4, dtype=np.int8)] * 3, -np.ones(4, dtype=np.int8))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            OctetSequences(np.ones(3), np.ones(3), np.ones(3), np.ones(4))

    def test_sampled_octets_satisfy_boole(self):
        rng = np.random.default_rng(8)
        for seed in range(20):
            p = rng.dirichlet(np.ones(16))
            octet = sample_octet(JointDistribution4(p), 500, seed=seed)
            result = boole_check(octet.a_oo, octet.b_oo, octet.a_bo, octet.b_ob)
            assert result.holds

    def test_deterministic(self):
        d = UNIFORM
        first = sample_octet(d, 70_000, seed=123)
        second = sample_octet(d, 70_000, seed=123)
        assert np.array_equal(first.a_oo, second.a_oo)
        assert np.array_equal(first.b_ob, second.b_ob)


# The chunk contract, spelled out the way the samplers first implemented
# it: chunk i of n draws uses PCG64 seeded with SeedSequence([seed, i]); a
# categorical sampler turns the chunk's uniforms into int64 indices of a
# sign-pattern table and gathers the patterns, and the LHV sampler maps the
# chunk's hidden angles to signs.
def _chunk_uniforms(n, seed):
    for index, start in enumerate(range(0, n, CHUNK)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        yield start, rng.random(min(CHUNK, n - start))


def _reference_index(probs, u):
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return np.searchsorted(cum, u, side="right")


def _reference_categorical(probs, patterns, n, seed):
    idx = np.empty(n, dtype=np.int64)
    for start, u in _chunk_uniforms(n, seed):
        idx[start:start + len(u)] = _reference_index(probs, u)
    drawn = patterns[idx]
    return [drawn[:, j].copy() for j in range(patterns.shape[1])]


def _reference_lhv(theta_a, theta_b, n, seed):
    a = np.empty(n, dtype=np.int8)
    b = np.empty(n, dtype=np.int8)
    for start, u in _chunk_uniforms(n, seed):
        lam = u * (2.0 * math.pi)
        a[start:start + len(u)] = np.where(np.cos(lam - theta_a) >= 0.0, 1, -1)
        b[start:start + len(u)] = np.where(np.cos(lam - theta_b) >= 0.0, -1, 1)
    return [a, b]


_PAIRS = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.int8)


def _assert_columns_equal(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.dtype == np.int8
        assert np.array_equal(g, e)


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
class TestChunkContract:
    def test_singlet(self, n, seed):
        for theta in (0.0, 1.1, math.pi):
            _assert_columns_equal(
                sample_singlet_pairs(theta, n, seed),
                _reference_categorical(singlet_joint(theta).as_array(), _PAIRS, n, seed),
            )

    def test_lhv(self, n, seed):
        for theta_a, theta_b in ((0.0, 2.0), (1.0, 5.0)):
            _assert_columns_equal(
                sample_lhv_pairs(theta_a, theta_b, n, seed),
                _reference_lhv(theta_a, theta_b, n, seed),
            )

    def test_octet(self, n, seed):
        p = np.random.default_rng(3).dirichlet(np.ones(16))
        for dist in (JointDistribution4(p), point_mass((1, -1, -1, 1))):
            octet = sample_octet(dist, n, seed)
            _assert_columns_equal(
                [octet.a_oo, octet.b_oo, octet.a_bo, octet.b_ob],
                _reference_categorical(dist.p, JointDistribution4.PATTERNS, n, seed),
            )


class _FixedUniforms:
    """A stand-in generator whose uniforms are chosen by the test."""

    def __init__(self, u):
        self.u = u

    def random(self, m):
        assert m == len(self.u)
        return self.u.copy()


def _edge_uniforms(probs):
    """0, each cumulative edge and the float just below it, and the largest
    uniform below 1: every place where a draw can change pattern."""
    cum = np.cumsum(probs)
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cum, np.nextafter(cum, 0.0)])
    return u[u < 1.0]


def _over_one():
    # sums to 1 + 5e-13, within ROUND_TOL, so the last edge lies past 1.0
    p = np.r_[np.full(15, 1.0 / 15.0), 0.0]
    p[14] += 5e-13
    return JointDistribution4(p).p


_EDGE_DISTRIBUTIONS = {
    "singlet-0": singlet_joint(0.0).as_array(),
    "singlet-pi": singlet_joint(math.pi).as_array(),
    "singlet-1.1": singlet_joint(1.1).as_array(),
    "zeros-between": np.array([0, 0, 0.25, 0, 0, 0.25, 0.25, 0, 0, 0, 0, 0.25, 0, 0, 0, 0]),
    "dirichlet": np.random.default_rng(4).dirichlet(np.full(16, 0.3)),
    **{f"point-mass-{k}": np.eye(16)[k] for k in range(16)},
    "sum-over-one": _over_one(),
}


@pytest.mark.parametrize("probs", _EDGE_DISTRIBUTIONS.values(), ids=_EDGE_DISTRIBUTIONS.keys())
def test_categorical_edges_match_searchsorted(probs):
    # an identity pattern table makes the drawn column the drawn index
    identity = np.arange(len(probs), dtype=np.int8)[:, None]
    u = _edge_uniforms(probs)
    (drawn,) = _categorical(probs, identity)(_FixedUniforms(u), len(u))
    assert np.array_equal(drawn, _reference_index(probs, u))


def test_sum_over_one_has_an_edge_past_one():
    assert np.cumsum(_over_one())[-2] > 1.0


#: each sampler as a function of n, returning its columns
_SAMPLERS = {
    "singlet": lambda n: sample_singlet_pairs(1.0, n, seed=3),
    "lhv": lambda n: sample_lhv_pairs(0.0, 2.0, n, seed=3),
    "octet": lambda n: tuple(vars(sample_octet(UNIFORM, n, seed=3)).values()),
}


@pytest.mark.parametrize("sampler", _SAMPLERS.values(), ids=_SAMPLERS.keys())
def test_sampler_memory_is_its_columns_plus_one_chunk_per_worker(sampler):
    sampler(1)  # first-call caches are not part of the sampler's working set
    tracemalloc.start()
    try:
        columns = sampler(10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # each worker of the pool holds one chunk's temporaries at a time
    assert peak <= sum(c.nbytes for c in columns) + 2_000_000 * sampling._pool()._max_workers


def _digest(columns) -> str:
    return hashlib.sha256(b"".join(c.tobytes() for c in columns)).hexdigest()


class _LastChunkFirst:
    """A pool that fills the chunks in reverse order, in the calling thread."""

    def map(self, fill, starts):
        return [fill(start) for start in reversed(starts)]


_POOLS = {
    "one-thread": lambda: ThreadPoolExecutor(max_workers=1),
    # more threads than cores
    "eight-threads": lambda: ThreadPoolExecutor(max_workers=8),
    "last-chunk-first": lambda: contextlib.nullcontext(_LastChunkFirst()),
}


@pytest.mark.parametrize("n", [1, CHUNK + 1, 5 * CHUNK + 3])
@pytest.mark.parametrize("name", _SAMPLERS)
@pytest.mark.parametrize("pool", _POOLS.values(), ids=_POOLS.keys())
def test_bytes_do_not_depend_on_the_pool(monkeypatch, pool, name, n):
    pooled = _SAMPLERS[name](n)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often
    try:
        with pool() as other:
            monkeypatch.setattr(sampling, "_pool", lambda: other)
            columns = _SAMPLERS[name](n)
    finally:
        sys.setswitchinterval(interval)
    _assert_columns_equal(columns, pooled)


def _sample_in_child(results):
    results.put(_digest(_SAMPLERS["octet"](3 * CHUNK)))


# Python 3.12 warns about any fork of a process with threads; this test
# forks one on purpose, to check that the child does not use them
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_child_forked_after_a_sampler_call_samples():
    expected = _digest(_SAMPLERS["octet"](3 * CHUNK))  # the pool now has threads
    context = multiprocessing.get_context("fork")
    results = context.Queue()
    child = context.Process(target=_sample_in_child, args=(results,))
    child.start()
    try:
        try:
            got = results.get(timeout=60)
        except queue.Empty:
            pytest.fail("the forked child did not sample within 60 s")
        child.join(timeout=60)
        assert not child.is_alive()
    finally:
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
    assert got == expected
    assert child.exitcode == 0


def test_a_failing_chunk_fails_the_sampler():
    def draw(rng, m):
        if m < CHUNK:  # only the last, short chunk
            raise ValueError("the last chunk's draw failed")
        return np.ones((1, m), dtype=np.int8)

    with pytest.raises(ValueError, match="last chunk's draw failed"):
        sampling._sample(2 * CHUNK + 1, 0, 1, draw)
