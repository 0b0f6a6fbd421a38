import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import bellband
from bellband import (
    AngleQuadruplet,
    AngleTriple,
    DomainError,
    F4Candidate,
    JointDistribution2,
    ShapeError,
    as_outcomes,
    band_map,
    direction_quotients,
    empirical_correlation,
    inequality_scan,
    quadratic_fit,
    reduce_angles,
    sample_singlet_pairs,
    singlet_joint,
    twisted_malus,
    wrap_angle,
)
from bellband.core import grid_points
from bellband.sampling import _check_seed

finite_angles = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestWrapAngle:
    def test_identity(self):
        assert wrap_angle(0.0) == 0.0

    def test_periodicity(self):
        assert wrap_angle(3 * math.pi) == -math.pi

    def test_boundary_convention(self):
        assert wrap_angle(-math.pi) == -math.pi

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            wrap_angle(math.nan)
        with pytest.raises(DomainError):
            wrap_angle(math.inf)

    @given(finite_angles)
    def test_idempotent(self, x):
        once = wrap_angle(x)
        assert wrap_angle(once) == once

    @given(finite_angles)
    def test_range_and_congruence(self, x):
        w = wrap_angle(x)
        assert -math.pi <= w < math.pi
        k = round((x - w) / (2 * math.pi))
        assert x - w == pytest.approx(2 * math.pi * k, abs=1e-6)


class TestTwistedMalus:
    @pytest.mark.parametrize(
        "theta,expected",
        [(0.0, -1.0), (math.pi / 2, 0.0), (math.pi, 1.0)],
    )
    def test_examples(self, theta, expected):
        assert twisted_malus(theta) == pytest.approx(expected, abs=1e-15)

    @given(finite_angles)
    def test_even_and_periodic(self, theta):
        assert twisted_malus(theta) == twisted_malus(-theta)
        assert twisted_malus(theta + 2 * math.pi) == pytest.approx(
            twisted_malus(theta), abs=1e-9
        )


class TestReduceAngles:
    def test_all_zero(self):
        t = reduce_angles(AngleQuadruplet(0, 0, 0, 0))
        assert (t.theta1, t.theta2, t.theta3, t.theta4) == (0, 0, 0, 0)
        assert t.in_q_plus

    def test_direct_subtraction(self):
        t = reduce_angles(AngleQuadruplet(3 * math.pi / 4, math.pi / 4, 0, 0))
        assert t.theta1 == pytest.approx(3 * math.pi / 4)
        assert t.theta2 == pytest.approx(math.pi / 4)
        assert t.theta3 == pytest.approx(3 * math.pi / 4)
        assert t.theta4 == pytest.approx(-math.pi / 4)
        assert t.in_q_plus

    @pytest.mark.parametrize("theta", [0.3, 1.0, math.pi / 2, 3.0])
    def test_diagonal_configuration(self, theta):
        t = reduce_angles(AngleQuadruplet(theta, theta, 0, 0))
        assert t.theta1 == t.theta2 == t.theta3 == pytest.approx(theta)
        assert t.theta4 == pytest.approx(-theta)

    def test_flags_outside_positive_cube(self):
        t = reduce_angles(AngleQuadruplet(0, 0, 0.5, 0))
        assert t.theta1 == pytest.approx(-0.5)
        assert not t.in_q_plus

    def test_difference_of_pi_stays_inside(self):
        t = reduce_angles(AngleQuadruplet(0, 0, math.pi, 0))
        # the wrapped difference is exactly pi, which belongs to the cube
        assert t.theta1 == math.pi
        assert t.theta2 == math.pi
        assert t.theta3 == 0.0
        assert t.in_q_plus


class TestAngleTriple:
    def test_theta4_is_derived(self):
        t = AngleTriple(1.0, 0.25, 0.5)
        assert t.theta4 == 1.0 - (0.25 + 0.5)

    def test_q_plus_flag(self):
        assert AngleTriple(0, math.pi, 1.0).in_q_plus
        assert not AngleTriple(-0.1, 0.5, 0.5).in_q_plus
        assert not AngleTriple(0.5, 3.2, 0.5).in_q_plus


class TestSingletJoint:
    def test_perfect_anticorrelation(self):
        d = singlet_joint(0.0)
        assert (d.p_pp, d.p_pm, d.p_mp, d.p_mm) == (0.0, 0.5, 0.5, 0.0)

    def test_right_angle(self):
        # oracle: uniform marginals with E[ab] = 0 has the unique solution
        # p = 1/4 for each outcome pair (2x2 moment system)
        d = singlet_joint(math.pi / 2)
        assert d.as_array() == pytest.approx(np.full(4, 0.25), abs=1e-15)

    def test_perfect_correlation(self):
        d = singlet_joint(math.pi)
        assert (d.p_pp, d.p_pm, d.p_mp, d.p_mm) == (0.5, 0.0, 0.0, 0.5)

    def test_matches_twisted_malus(self):
        rng = np.random.default_rng(2024)
        for theta in rng.uniform(-2 * math.pi, 2 * math.pi, size=1000):
            d = singlet_joint(theta)
            assert abs(d.expected_product - twisted_malus(theta)) <= 1e-12

    @pytest.mark.parametrize(
        "p",
        [(math.nan,) * 4, (math.nan, 0.5, 0.5, 0.0), (0.0, 0.5, 0.5, math.nan)],
        ids=["all-nan", "first-nan", "last-nan"],
    )
    def test_nan_entries_rejected(self, p):
        with pytest.raises(DomainError, match="probabilities sum to nan, not 1"):
            JointDistribution2(*p)

    def test_messages_unchanged(self):
        with pytest.raises(DomainError, match="negative probability"):
            JointDistribution2(-0.5, 1.0, 0.5, 0.0)
        with pytest.raises(DomainError, match="sum to 1.5, not 1"):
            JointDistribution2(0.5, 0.5, 0.5, 0.0)
        with pytest.raises(DomainError, match="marginals are not uniform"):
            JointDistribution2(0.5, 0.25, 0.25, 0.0)

    def test_probability_messages_are_one_line(self):
        # the same check as JointDistribution4's, with its 16 entries
        with pytest.raises(DomainError) as negative:
            JointDistribution2(-0.5, 1.0, 0.5, 0.0)
        with pytest.raises(DomainError) as total:
            JointDistribution2(0.5, 0.5, 0.5, 0.0)
        assert str(negative.value) == "negative probability -0.5"
        assert str(total.value) == "probabilities sum to 1.5, not 1"


class TestEmpiricalCorrelation:
    def test_identical(self):
        assert empirical_correlation([1, 1, 1], [1, 1, 1]) == 1.0

    def test_negated(self):
        assert empirical_correlation([1, -1], [-1, 1]) == -1.0

    def test_mixed(self):
        # direct sum: (1 - 1 - 1 + 1) / 4 = 0
        assert empirical_correlation([1, 1, -1, -1], [1, -1, 1, -1]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            empirical_correlation([1, 1], [1])

    def test_empty(self):
        with pytest.raises(DomainError):
            empirical_correlation([], [])

    def test_non_sign_values(self):
        with pytest.raises(DomainError):
            empirical_correlation([1, 2], [1, 1])

    def test_non_finite_values(self):
        with pytest.raises(DomainError):
            empirical_correlation([1.0, math.nan], [1, 1])

    @pytest.mark.parametrize(
        "values, error, message",
        [
            (np.ones((2, 2)), ShapeError, r"expected a 1-d sequence, got shape \(2, 2\)"),
            (np.array(["1", "-1"]), DomainError, "outcomes must be numeric, got dtype <U2"),
        ],
        ids=["2-d", "strings"],
    )
    def test_as_outcomes_rejections(self, values, error, message):
        with pytest.raises(error, match=message):
            as_outcomes(values)

    @given(st.lists(st.tuples(st.sampled_from([-1, 1]), st.sampled_from([-1, 1])), min_size=1))
    def test_matches_direct_sum(self, pairs):
        u, v = (list(t) for t in zip(*pairs))
        expected = sum(a * b for a, b in pairs) / len(pairs)
        assert empirical_correlation(u, v) == expected
        assert empirical_correlation(np.array(u, dtype=float), np.array(v, dtype=np.int64)) == expected

    @given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=50), st.data())
    def test_symmetry_and_sign_flip(self, u, data):
        v = data.draw(
            st.lists(st.sampled_from([-1, 1]), min_size=len(u), max_size=len(u))
        )
        c = empirical_correlation(u, v)
        assert empirical_correlation(v, u) == c
        assert empirical_correlation([-x for x in u], v) == -c
        assert -1.0 <= c <= 1.0


def test_package_exports_what_it_imports():
    # __all__ is written out by hand beside the imports that it lists
    tree = ast.parse(Path(bellband.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    exported = [name for name in bellband.__all__ if name != "__version__"]
    assert sorted(imported) == sorted(exported)


PRODUCT = F4Candidate.builtin("product")
#: every entry point whose argument must be an integer: a call of it on that
#: argument, the argument's name in the message, and a valid integer value
INTEGER_ARGUMENTS = {
    "grid_points": (lambda v: grid_points(v), "resolution", 3),
    "band_map": (lambda v: band_map(v), "resolution", 3),
    "inequality_scan": (lambda v: inequality_scan(PRODUCT, v), "resolution", 3),
    "sample_count": (lambda v: sample_singlet_pairs(0.3, v, 1), "sample count", 3),
    "sample_seed": (lambda v: sample_singlet_pairs(0.3, 3, v), "seed", 1),
    "check_seed": (lambda v: _check_seed(v), "seed", 5),
    "quadratic_fit": (lambda v: quadratic_fit(PRODUCT, 0.1, v).c_quad, "samples", 10),
    "direction_quotients": (lambda v: direction_quotients(PRODUCT, 1e-2, v), "n_directions", 8),
}


@pytest.mark.parametrize("entry", INTEGER_ARGUMENTS)
class TestIntegerArguments:
    # int() once truncated these: grid_points(2.9) gave the r = 2 lattice
    @pytest.mark.parametrize("offset", [0.9, -0.1, 0.5])
    def test_fractions_rejected(self, entry, offset):
        call, name, good = INTEGER_ARGUMENTS[entry]
        value = good + offset
        with pytest.raises(DomainError, match=f"^{name} must be an integer, got {value}$"):
            call(value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, "3", None, [3]])
    def test_non_numbers_rejected(self, entry, value):
        call, name, _ = INTEGER_ARGUMENTS[entry]
        with pytest.raises(DomainError, match=f"^{name} must be an integer"):
            call(value)

    def test_integral_values_accepted(self, entry):
        call, _, good = INTEGER_ARGUMENTS[entry]
        expected = call(good)
        for value in (float(good), np.int64(good), np.uint8(good), np.float32(good)):
            np.testing.assert_equal(call(value), expected)
