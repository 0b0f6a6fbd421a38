import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellband import (
    AngleTriple,
    band,
    DomainError,
    InfeasibleError,
    Interval,
    JointDistribution4,
    band_map,
    feasible_band,
    feasible_distribution,
    lp_band,
)
from bellband.band import band_limits
from bellband.core import BAND_TOL, ROUND_TOL
from lattice import grid_points

correlations = st.floats(-1, 1, allow_nan=False)
CORRELATIONS = JointDistribution4.CORRELATIONS
cube_angles = st.floats(0, math.pi, allow_nan=False)


def moments(d):
    """The four correlations of a distribution, each the mean product of
    its two pattern columns."""
    signs = d.PATTERNS.astype(float)
    return {name: float(d.p @ (signs[:, i] * signs[:, j])) for name, (i, j) in CORRELATIONS.items()}


class TestInterval:
    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            Interval(0.5, 0.4)

    @pytest.mark.parametrize("lo, hi", [(-5, 5), (-1.5, 0.0), (0.0, 1.0 + 1e-15)])
    def test_outside_unit_interval_rejected(self, lo, hi):
        with pytest.raises(DomainError, match=r"^interval \[.*\] is not within \[-1, 1\]$"):
            Interval(lo, hi)

    def test_every_band_map_node_fits(self):
        # band_limits clips to +-1 and collapses a rounding gap to a midpoint
        # between the two, so the range check rejects no feasible_band
        lo, hi = band_limits(grid_points(50))
        assert np.all((-1.0 <= lo) & (lo <= hi) & (hi <= 1.0))
        assert Interval(-1.0, 1.0).width == 2.0
        for pair in zip(lo.tolist(), hi.tolist()):
            Interval(*pair)

    def test_width_and_midpoint(self):
        band = Interval(-0.25, 0.75)
        assert band.width == 1.0
        assert band.midpoint == 0.25


class TestFeasibleBand:
    def test_corner_singleton(self):
        band = feasible_band(AngleTriple(0, 0, 0))
        assert band.lo == -1.0 and band.hi == -1.0

    @pytest.mark.parametrize("t", np.linspace(0.05, math.pi - 0.05, 20))
    def test_axis_singleton(self, t):
        for theta in (AngleTriple(t, 0, 0), AngleTriple(0, t, 0), AngleTriple(0, 0, t)):
            band = feasible_band(theta)
            assert band.lo == pytest.approx(-math.cos(t), abs=1e-12)
            assert band.width <= 1e-12

    def test_center_is_full(self):
        band = feasible_band(AngleTriple(math.pi / 2, math.pi / 2, math.pi / 2))
        assert band.lo == -1.0 and band.hi == 1.0

    def test_rejects_outside_cube(self):
        with pytest.raises(DomainError):
            feasible_band(AngleTriple(-0.1, 0, 0))

    @given(cube_angles, cube_angles, cube_angles)
    def test_nonempty_and_symmetric(self, t1, t2, t3):
        band = feasible_band(AngleTriple(t1, t2, t3))
        swapped = feasible_band(AngleTriple(t2, t1, t3))
        assert band.lo <= band.hi
        assert -1.0 <= band.lo and band.hi <= 1.0
        assert (band.lo, band.hi) == (swapped.lo, swapped.hi)

    @given(cube_angles)
    def test_diagonal_containment(self, t):
        band = feasible_band(AngleTriple(t, t, t))
        assert band.lo - 1e-12 <= -math.cos(t) <= band.hi + 1e-12


class TestBandMap:
    def test_resolution_two(self):
        rows = band_map(2)
        assert rows.shape == (8, 6)
        # theta1-major ordering: first row is the origin, last is (pi,pi,pi)
        assert np.allclose(rows[0], [0, 0, 0, -1, -1, 0])
        assert rows[-1][:3] == pytest.approx([math.pi] * 3)
        assert rows[-1][3] == 1.0 and rows[-1][4] == 1.0 and rows[-1][5] == 0.0

    def test_resolution_25(self):
        rows = band_map(25)
        assert rows.shape == (15625, 6)
        assert rows[:, 5].max() == 2.0
        center = rows[np.all(np.isclose(rows[:, :3], math.pi / 2), axis=1)]
        assert center.shape == (1, 6)
        assert center[0, 5] == 2.0

    def test_low_resolution_rejected(self):
        with pytest.raises(DomainError):
            band_map(1)


class TestLpBand:
    def test_corner(self):
        r = lp_band(-1, -1, -1)
        assert r.min_value == pytest.approx(-1.0, abs=1e-9)
        assert r.max_value == pytest.approx(-1.0, abs=1e-9)

    def test_center(self):
        r = lp_band(0, 0, 0)
        assert r.min_value == pytest.approx(-1.0, abs=1e-9)
        assert r.max_value == pytest.approx(1.0, abs=1e-9)

    def test_axis_singleton(self):
        r = lp_band(-math.cos(math.pi / 3), -1, -1)
        assert r.min_value == pytest.approx(-0.5, abs=1e-9)
        assert r.max_value == pytest.approx(-0.5, abs=1e-9)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            lp_band(1.5, 0, 0)

    def test_witnesses_reproduce_moments(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            c1, c2, c3 = rng.uniform(-1, 1, 3)
            r = lp_band(c1, c2, c3)
            for witness, extreme in ((r.witness_min, r.min_value), (r.witness_max, r.max_value)):
                assert moments(witness) == pytest.approx(
                    {"c1": c1, "c2": c2, "c3": c3, "f": extreme}, abs=1e-9
                )

    def test_matches_closed_form(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            theta = AngleTriple(*rng.uniform(0, math.pi, 3))
            band = feasible_band(theta)
            r = lp_band(
                -math.cos(theta.theta1), -math.cos(theta.theta2), -math.cos(theta.theta3)
            )
            assert abs(band.lo - r.min_value) <= 1e-7
            assert abs(band.hi - r.max_value) <= 1e-7

    def test_collapsed_band_stays_inside_unit_interval(self):
        # one correlation within 1e-9 of +1: bases infeasible by ~4e-10 once
        # pushed the maximum to 1.0000000008538987
        theta = AngleTriple(3.141551328082391, 0.0, 0.0)
        band = feasible_band(theta)
        r = lp_band(*(-math.cos(t) for t in (theta.theta1, theta.theta2, theta.theta3)))
        assert r.max_value <= 1.0
        assert (r.min_value, r.max_value) == (band.lo, band.hi)

    def test_near_edge_sweep_matches_closed_form(self):
        # components within 1e-12..1e-3 of 0 or pi, where correlations
        # approach +-1 and the band narrows or collapses
        rng = np.random.default_rng(2024)
        for _ in range(300):
            t = rng.uniform(0, math.pi, 3)
            for i in rng.choice(3, rng.integers(1, 4), replace=False):
                offset = 10.0 ** rng.uniform(-12, -3)
                t[i] = offset if rng.random() < 0.5 else math.pi - offset
            band = feasible_band(AngleTriple(*t))
            r = lp_band(*(-math.cos(x) for x in t))
            assert abs(r.min_value - band.lo) <= 1e-10
            assert abs(r.max_value - band.hi) <= 1e-10


class TestFeasibleDistribution:
    def test_corner_moments(self):
        d = feasible_distribution(-1, -1, -1, -1)
        assert moments(d) == pytest.approx(dict.fromkeys(CORRELATIONS, -1), abs=1e-9)
        # mass concentrates on patterns where both of Bob's columns
        # oppose both of Alice's
        support = np.flatnonzero(d.p > 1e-12)
        for k in support:
            a_oo, b_oo, a_bo, b_ob = d.PATTERNS[k]
            assert b_oo == -a_oo == -a_bo and b_ob == -a_oo

    def test_center_moments(self):
        d = feasible_distribution(0, 0, 0, 0)
        assert moments(d) == pytest.approx(dict.fromkeys(CORRELATIONS, 0), abs=1e-9)

    def test_infeasible_fourth_moment(self):
        with pytest.raises(InfeasibleError):
            feasible_distribution(0, 0, 0, 1.5)

    @pytest.mark.parametrize("f", [math.nan, math.inf, -math.inf])
    def test_non_finite_fourth_moment_named(self, f):
        # a NaN was once reported as lying outside the feasible band
        with pytest.raises(DomainError, match=f"^f must be finite, got {f}$"):
            feasible_distribution(0, 0, 0, f)

    @settings(max_examples=40, deadline=None)
    @given(correlations, correlations, correlations, st.floats(0, 1))
    def test_interpolated_moment(self, c1, c2, c3, frac):
        r = lp_band(c1, c2, c3)
        f = r.min_value + frac * (r.max_value - r.min_value)
        d = feasible_distribution(c1, c2, c3, f)
        assert moments(d) == pytest.approx(
            {"c1": c1, "c2": c2, "c3": c3, "f": f}, abs=1e-9
        )


# --- lp_band against its first form, bit for bit ---------------------------

# the basis inverses (928, 4, 4), stacked basis-major and contiguous as they
# were first built, and the objectives (928, 4)
_INV = np.ascontiguousarray(band._INV_ROWS.reshape(4, -1, 4).transpose(1, 0, 2))
_OBJ_NS = band._OBJ_ROWS.T


def _reference_lp_band(c1, c2, c3):
    """lp_band as first written: basic solutions as the stacked product
    _INV @ b, objectives by np.sum, extremes by nanmin/nanmax over the
    feasible bases.  Returns the extremes and the witness vectors."""
    sols = _INV @ np.array([1.0, c1, c2, c3])
    feasible = np.all(sols >= -ROUND_TOL, axis=1)
    objs = np.sum(sols * _OBJ_NS, axis=1)
    objs_feas = np.where(feasible, objs, np.nan)

    def witness(extreme):
        idx = np.flatnonzero(feasible & (np.abs(objs - extreme) <= ROUND_TOL))
        best = idx[np.argmax(np.min(sols[idx], axis=1))]
        p = np.zeros(16)
        p[band._BASES_NS[best]] = np.clip(sols[best], 0.0, None)
        return p / p.sum()

    lo, hi = float(np.nanmin(objs_feas)), float(np.nanmax(objs_feas))
    return max(lo, -1.0), min(hi, 1.0), witness(lo), witness(hi)


def _reference_distribution(reference, f):
    lo, hi, witness_min, witness_max = reference
    span = hi - lo
    if span <= BAND_TOL:
        return witness_min
    lam = min(max((hi - f) / span, 0.0), 1.0)
    return np.clip(lam * witness_min + (1.0 - lam) * witness_max, 0.0, None)


def _bits(x):
    return np.float64(x).tobytes()


def assert_same_bits(c):
    """lp_band and feasible_distribution at correlations c give the bytes
    of the reference: extremes, witnesses, and distributions at both ends
    and the middle of the band."""
    reference = _reference_lp_band(*c)
    result = lp_band(*c)
    assert _bits(result.min_value) == _bits(reference[0])
    assert _bits(result.max_value) == _bits(reference[1])
    assert result.witness_min.p.tobytes() == reference[2].tobytes()
    assert result.witness_max.p.tobytes() == reference[3].tobytes()
    for f in (reference[0], 0.5 * (reference[0] + reference[1]), reference[1]):
        got = feasible_distribution(*c, f).p
        assert got.tobytes() == _reference_distribution(reference, f).tobytes()


def _edge_and_near_edge_angles():
    # every placement of 0 and pi on the components, the rest drawn, then
    # components within 1e-9..1e-3 of an edge
    rng = np.random.default_rng(8)
    placements = itertools.product((None, 0.0, math.pi), repeat=3)
    for placement in placements:
        for _ in range(3):
            yield [rng.uniform(0, math.pi) if x is None else x for x in placement]
    for _ in range(300):
        t = rng.uniform(0, math.pi, 3)
        for i in rng.choice(3, rng.integers(1, 4), replace=False):
            offset = 10.0 ** rng.uniform(-9, -3)
            t[i] = offset if rng.random() < 0.5 else math.pi - offset
        yield t


_SET = {
    "unit": list(itertools.product((-1.0, 0.0, 1.0), repeat=3)),
    "corner": [-np.cos(t) for t in itertools.product((0.0, math.pi / 2, math.pi), repeat=3)],
    "edge": [-np.cos(t) for t in _edge_and_near_edge_angles()],
}


class TestLpBandBits:
    """The fast lp_band keeps every bit.  Its basic solutions are one BLAS
    gemv over entry-major inverses, so a failure here on a new platform
    points at the BLAS in use (CI prints numpy.show_config())."""

    @pytest.mark.parametrize("name", list(_SET))
    def test_fixed_sets(self, name):
        for c in _SET[name]:
            assert_same_bits(tuple(float(x) for x in c))

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(cube_angles, cube_angles, cube_angles))
    def test_angle_triples(self, theta):
        assert_same_bits(tuple(-math.cos(t) for t in theta))

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(correlations, correlations, correlations))
    def test_correlation_triples(self, c):
        assert_same_bits(c)
