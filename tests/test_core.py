import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import bellband
from bellband import (
    AngleTriple,
    CorrelationVector,
    DomainError,
    F4Candidate,
    Interval,
    JointDistribution2,
    JointDistribution4,
    ShapeError,
    Violation,
    as_outcomes,
    axis_derivative_check,
    band_map,
    boole_check,
    contradiction_report,
    direction_quotients,
    empirical_correlation,
    feasible_band,
    feasible_distribution,
    gradient_at_origin,
    inequality_scan,
    lp_band,
    quadratic_fit,
    sample_lhv_pairs,
    sample_octet,
    sample_singlet_pairs,
    singlet_joint,
    twisted_malus,
)
from bellband.band import band_limits
from bellband.core import _check_seed, grid_axis, q_plus_points

finite_angles = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


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
            expected_product = d.p_pp + d.p_mm - d.p_pm - d.p_mp
            assert abs(expected_product - twisted_malus(theta)) <= 1e-12

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


@st.composite
def integer_outcome_arrays(draw):
    """A 1-d array of one integer dtype: half the time all +/-1 (only +1
    for an unsigned dtype), otherwise signs mixed with any value of the dtype."""
    dtype = np.dtype(draw(st.sampled_from([np.int8, np.int16, np.int64, np.uint8, np.uint64])))
    info = np.iinfo(dtype)
    signs = st.sampled_from([s for s in (-1, 1) if s >= info.min])
    if not draw(st.booleans()):
        signs = st.one_of(signs, st.integers(info.min, info.max))
    return np.array(draw(st.lists(signs, min_size=1, max_size=20)), dtype=dtype)


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

    @pytest.mark.parametrize(
        "values",
        [
            np.array([1, -128], dtype=np.int8),
            np.array([-1, 0, 1], dtype=np.int8),
            np.array([127, 1], dtype=np.int8),
            np.array([1, 255], dtype=np.uint8),
            np.array([2**63 - 1], dtype=np.int64),
            np.array([-1, -2**63], dtype=np.int64),
        ],
        ids=["int8-min", "int8-zero", "int8-max", "uint8-max", "int64-max", "int64-min"],
    )
    def test_integer_outcomes_past_the_signs_rejected(self, values):
        with pytest.raises(DomainError, match=r"^outcomes must all be \+1 or -1$"):
            as_outcomes(values)

    @pytest.mark.parametrize(
        "values",
        [np.array([1.0, math.nan]), np.array([-1.0, 0.5]), np.array([1, 1j])],
        ids=["nan", "half", "complex"],
    )
    def test_other_numeric_outcomes_checked_elementwise(self, values):
        with pytest.raises(DomainError, match=r"^outcomes must all be \+1 or -1$"):
            as_outcomes(values)

    def test_bool_outcomes_are_not_numeric(self):
        with pytest.raises(DomainError, match="^outcomes must be numeric, got dtype bool$"):
            as_outcomes(np.array([True, True]))

    @given(integer_outcome_arrays())
    def test_integer_check_matches_the_elementwise_rule(self, values):
        if all(v in (1, -1) for v in values.tolist()):
            got = as_outcomes(values)
            assert got.dtype == np.int8 and got.tolist() == values.tolist()
        else:
            with pytest.raises(DomainError, match=r"^outcomes must all be \+1 or -1$"):
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
    # __all__ is exactly the names imported from the submodules: no submodule and no private
    # name leaks into the exports
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
    # the lattice's rule, applied by grid_axis; the entry keeps the name of
    # the lattice function that core had, and with it its test ids
    "grid_points": (lambda v: grid_axis(v), "resolution", 3),
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
    # int() once truncated these: a resolution of 2.9 gave the r = 2 lattice
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

    # a count past the address space once reached numpy's "Maximum allowed dimension exceeded"
    def test_counts_past_the_address_space_rejected(self, entry):
        call, _, _ = INTEGER_ARGUMENTS[entry]
        with pytest.raises(DomainError):
            call(10**30)

    def test_integral_values_accepted(self, entry):
        call, _, good = INTEGER_ARGUMENTS[entry]
        expected = call(good)
        for value in (float(good), np.int64(good), np.uint8(good), np.float32(good)):
            np.testing.assert_equal(call(value), expected)


#: every entry point that takes a real number: a call of it on that argument,
#: the argument's name in the message, and a valid value
REAL_ARGUMENTS = {
    "lp_band_c1": (lambda v: lp_band(v, 0, 0), "c1", 0.5),
    "lp_band_c3": (lambda v: lp_band(0, 0, v), "c3", 0.5),
    "lhv_theta_a": (lambda v: sample_lhv_pairs(v, 0, 3), "theta_a", 0.5),
    "lhv_theta_b": (lambda v: sample_lhv_pairs(0, v, 3), "theta_b", 0.5),
    "feasible_distribution_f": (lambda v: feasible_distribution(0, 0, 0, v), "f", 0.5),
    "twisted_malus": (lambda v: twisted_malus(v), "angle", 0.5),
    "singlet_joint": (lambda v: singlet_joint(v), "angle", 0.5),
    "singlet_pairs_theta": (lambda v: sample_singlet_pairs(v, 3, 1), "angle", 0.5),
    "AngleTriple_theta1": (lambda v: AngleTriple(v, 0, 0), "theta1", 0.5),
    "AngleTriple_theta2": (lambda v: AngleTriple(0, v, 0), "theta2", 0.5),
    "AngleTriple_theta3": (lambda v: AngleTriple(0, 0, v), "theta3", 0.5),
    "CorrelationVector_c1": (lambda v: CorrelationVector(v, 0, 0, 0), "c1", 0.5),
    "CorrelationVector_c2": (lambda v: CorrelationVector(0, v, 0, 0), "c2", 0.5),
    "CorrelationVector_c3": (lambda v: CorrelationVector(0, 0, v, 0), "c3", 0.5),
    "CorrelationVector_c4": (lambda v: CorrelationVector(0, 0, 0, v), "c4", 0.5),
    # the other three entries complete uniform marginals around v = 0.5
    "JointDistribution2_p_pp": (lambda v: JointDistribution2(v, 0, 0, 0.5), "p_pp", 0.5),
    "JointDistribution2_p_pm": (lambda v: JointDistribution2(0, v, 0.5, 0), "p_pm", 0.5),
    "JointDistribution2_p_mp": (lambda v: JointDistribution2(0, 0.5, v, 0), "p_mp", 0.5),
    "JointDistribution2_p_mm": (lambda v: JointDistribution2(0.5, 0, 0, v), "p_mm", 0.5),
    "Interval_lo": (lambda v: Interval(v, 1), "lo", 0.5),
    "Interval_hi": (lambda v: Interval(0, v), "hi", 0.5),
    "gradient_at_origin_h": (lambda v: gradient_at_origin(PRODUCT, v), "step", 0.05),
    "axis_derivative_t": (lambda v: axis_derivative_check(PRODUCT, v), "t", 0.5),
    "axis_derivative_h": (lambda v: axis_derivative_check(PRODUCT, 1.0, v), "step", 0.5),
    "direction_quotients_t": (lambda v: direction_quotients(PRODUCT, v, 8), "step", 0.5),
    "quadratic_fit_radius": (lambda v: quadratic_fit(PRODUCT, v, 10), "radius", 0.25),
}


@pytest.mark.parametrize("entry", REAL_ARGUMENTS)
class TestRealArguments:
    # each value once passed, or skipped, the check and then raised a bare
    # TypeError, ValueError or numpy UFuncTypeError where it was used
    @pytest.mark.parametrize("value", [None, "x", [0.5]], ids=["None", "x", "list"])
    def test_non_numbers_rejected(self, entry, value):
        call, name, _ = REAL_ARGUMENTS[entry]
        with pytest.raises(DomainError, match=f"^{name} must be a real number, got "):
            call(value)

    def test_computed_with_the_checked_value(self, entry):
        # a value type built from "0.5" compares equal to one built from 0.5
        call, _, good = REAL_ARGUMENTS[entry]
        np.testing.assert_equal(call(str(good)), call(good))


def test_first_bad_angle_is_reported_first():
    with pytest.raises(DomainError, match="^theta_a must be finite, got nan$"):
        sample_lhv_pairs(math.nan, "x", 3)


@pytest.mark.parametrize(
    "call", [q_plus_points, band_limits, PRODUCT.values], ids=["q_plus_points", "band_limits", "values"]
)
def test_non_numeric_triples_rejected(call):
    # numpy's own ValueError once escaped from the conversion
    with pytest.raises(DomainError, match="^triples must be real numbers: could not convert"):
        call([[0.5, "x", 0.5]])
    np.testing.assert_equal(call([["0.5", "1", "2"]]), call([[0.5, 1.0, 2.0]]))


def _converts_an_argument(node, params) -> bool:
    """Whether ``node`` is float() of a parameter, of a getattr or of a self field."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float" and node.args):
        return False
    arg = node.args[0]
    return (
        (isinstance(arg, ast.Name) and arg.id in params)
        or (isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "getattr")
        or (isinstance(arg, ast.Attribute) and getattr(arg.value, "id", None) == "self")
    )


def test_only_core_converts_a_real_argument():
    # core._real and core._finite hold the rule, so a bad argument raises
    # DomainError naming it wherever it enters
    found = []
    for path in sorted(Path(bellband.__file__).parent.glob("*.py")):
        if path.name == "core.py":
            continue
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, ast.FunctionDef):
                params = {a.arg for a in (*func.args.args, *func.args.kwonlyargs)}
                found += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func) if _converts_an_argument(node, params)
                ]
    assert found == []

UNIFORM4 = JointDistribution4(np.full(16, 1.0 / 16.0))
#: every exported value type: a build of it from an integer k, where equal k
#: give equal values and k = 0 and k = 1 give different ones
VALUE_TYPES = {
    "AngleTriple": lambda k: AngleTriple(0.5, 1.0, 1.5 + k),
    "JointDistribution2": lambda k: singlet_joint(0.5 + k),
    "JointDistribution4": lambda k: feasible_distribution(-0.5, 0.0, 0.5, 0.25 * k),
    "OctetSequences": lambda k: sample_octet(UNIFORM4, 100, seed=k),
    "Interval": lambda k: feasible_band(AngleTriple(1.0, 2.0, 0.5 + k)),
    "LpResult": lambda k: lp_band(-0.5, 0.0, 0.5 - 0.25 * k),
    "CorrelationVector": lambda k: CorrelationVector(0.1, 0.2, 0.3, 0.4 - 0.5 * k),
    "BooleResult": lambda k: boole_check(*vars(sample_octet(UNIFORM4, 100, seed=k)).values()),
    "F4Candidate": lambda k: F4Candidate.from_grid(2, np.full(8, -1.0 + 0.5 * k)),
    "QuadraticFit": lambda k: quadratic_fit(PRODUCT, 0.1, 20, seed=k),
    "AnalysisReport": lambda k: contradiction_report(PRODUCT, seed=k),
    "Violation": lambda k: Violation((0.0, 0.0, 0.0), "diagonal", 0.5 * k, -1.0, -1.0),
}


@pytest.mark.parametrize("kind", VALUE_TYPES)
def test_value_types_compare_and_hash(kind):
    a, b, other = (VALUE_TYPES[kind](k) for k in (0, 0, 1))
    assert type(a).__name__ == kind and a is not b
    assert a == b and hash(a) == hash(b)
    assert a != other
    # as with the dataclass-generated ==, a subclass's instance is another
    # value, and so is the tuple of the fields
    subclass = type(kind, (type(a),), {})
    assert a != subclass(**vars(a)) and subclass(**vars(a)) != a
    assert a != tuple(vars(a).values())
