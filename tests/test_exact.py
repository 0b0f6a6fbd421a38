"""The tolerance table in ``bellband.core``, checked against an exact reference.

The reference solves the CHSH linear program of ``band.lp_band`` in rational
arithmetic: every 4x4 basis of the moment system is inverted by Cramer's
rule in integers, and each correlation is taken as the exact
``fractions.Fraction`` value of the float the package computes.  Nothing in
it rounds, so it needs no tolerance of its own.  By Fine's theorem its extremes are the CHSH band
(A. Fine, PRL 48, 291, 1982), so it bounds the error of both float routes:
the closed form ``band.band_limits`` must stay within ``ROUND_TOL`` of it and
the LP oracle within ``BAND_TOL``.
"""

import ast
import itertools
import math
import tokenize
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bellband import band, lp_band
from bellband.core import BAND_TOL, ROUND_TOL, singlet_correlation
from lattice import grid_points

# sign patterns (a_oo, b_oo, a_bo, b_ob), in the order of JointDistribution4
_PATTERNS = list(itertools.product((1, -1), repeat=4))
# total mass, E[a_oo b_oo], E[a_bo b_oo], E[a_oo b_ob]
_ROWS = [[1] * 16] + [[p[i] * p[j] for p in _PATTERNS] for i, j in ((0, 1), (2, 1), (0, 3))]
_OBJECTIVE = [p[2] * p[3] for p in _PATTERNS]  # E[a_bo b_ob]
# the package's basis inverses (928, 4, 4) and objectives (928, 4), viewed
# basis-major from its entry-major tables
_INV = band._INV_ROWS.reshape(4, -1, 4).transpose(1, 0, 2)
_OBJ_NS = band._OBJ_ROWS.T


def _minor(matrix, i, j):
    return [row[:j] + row[j + 1:] for k, row in enumerate(matrix) if k != i]


def _det(matrix):
    """Determinant of a square integer matrix, at least 2x2, by cofactor
    expansion."""
    if len(matrix) == 2:
        return matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    return sum(
        (-1) ** j * x * _det(_minor(matrix, 0, j)) for j, x in enumerate(matrix[0]) if x
    )


def _build_reference():
    """Every non-singular basis in lexicographic order, with its exact
    inverse (Cramer's rule: adjugate over determinant) as integers over one
    common denominator ``scale``."""
    bases, adjugates, dets = [], [], []
    for basis in itertools.combinations(range(16), 4):
        matrix = [[row[j] for j in basis] for row in _ROWS]
        det = _det(matrix)
        if det:
            bases.append(basis)
            dets.append(det)
            adjugates.append(
                [[(-1) ** (i + j) * _det(_minor(matrix, j, i)) for j in range(4)] for i in range(4)]
            )
    scale = math.lcm(*dets)
    inverses = [[[x * (scale // d) for x in row] for row in adj] for adj, d in zip(adjugates, dets)]
    return bases, inverses, scale


BASES, INVERSES, SCALE = _build_reference()


def exact_band(c1, c2, c3):
    """Exact extremes (lo, hi) of E[a_bo b_ob] given the three moments, and
    for each basis in ``BASES`` whether its basic solution is feasible."""
    rhs = [Fraction(1), Fraction(c1), Fraction(c2), Fraction(c3)]
    denominator = math.lcm(*(x.denominator for x in rhs))
    b = [int(x * denominator) for x in rhs]
    feasible, objectives = [], []
    for basis, inverse in zip(BASES, INVERSES):
        # the basic solution times SCALE * denominator, in integers
        solution = [sum(a * x for a, x in zip(row, b)) for row in inverse]
        ok = all(x >= 0 for x in solution)
        feasible.append(ok)
        if ok:
            objectives.append(sum(_OBJECTIVE[j] * x for j, x in zip(basis, solution)))
    lo, hi = (Fraction(v, SCALE * denominator) for v in (min(objectives), max(objectives)))
    return lo, hi, np.array(feasible)


def check_lp(c1, c2, c3):
    """lp_band against the exact reference: extremes within BAND_TOL and in
    [-1, 1], and every exactly feasible basis feasible in floats at ROUND_TOL."""
    lo, hi, feasible = exact_band(c1, c2, c3)
    result = lp_band(c1, c2, c3)
    assert -1.0 <= result.min_value <= result.max_value <= 1.0
    assert abs(Fraction(result.min_value) - lo) <= BAND_TOL
    assert abs(Fraction(result.max_value) - hi) <= BAND_TOL
    solutions = _INV @ np.array([1.0, c1, c2, c3])
    assert np.all(solutions[feasible] >= -ROUND_TOL)
    return lo, hi


def check_theta(theta):
    """The closed form within ROUND_TOL of the exact band at a triple, and
    lp_band checked at the correlations the package computes there."""
    c1, c2, c3 = singlet_correlation(np.asarray(theta, dtype=float)).tolist()
    lo, hi = check_lp(c1, c2, c3)
    closed_lo, closed_hi = band.band_limits(theta)
    assert abs(Fraction(float(closed_lo)) - lo) <= ROUND_TOL
    assert abs(Fraction(float(closed_hi)) - hi) <= ROUND_TOL


def test_reference_bases_are_the_package_bases():
    # the exact reference finds the same non-singular bases, in the same order
    assert len(BASES) == 928
    assert [tuple(b) for b in band._BASES_NS.tolist()] == BASES


def test_inverses_are_dyadic():
    # every entry of a basis inverse is exactly k/16, so each basic solution
    # is a sum of four exact products and is off by a few ulp at most
    scaled = _INV * 16
    assert np.array_equal(scaled, np.rint(scaled))


def dual_vertices():
    """The distinct dual basic solutions y_B = _INV[B]^T _OBJ_NS[B] that are
    dual feasible for the minimum (every reduced cost _OBJ - y_B . _EQ is at
    least 0) and for the maximum (every one at most 0), in integers: each
    array is scaled by 16, which makes the inverses integral."""
    inv16 = np.rint(_INV * 16).astype(np.int64)
    eq, obj = band._EQ.astype(np.int64), band._OBJ.astype(np.int64)
    assert np.array_equal(inv16, _INV * 16)
    assert np.array_equal(eq, band._EQ) and np.array_equal(obj, band._OBJ)
    y16 = np.einsum("bij,bi->bj", inv16, _OBJ_NS.astype(np.int64))
    reduced16 = 16 * obj - y16 @ eq
    assert np.all(y16 % 16 == 0)
    lower = {tuple(y) for y in (y16[np.all(reduced16 >= 0, axis=1)] // 16).tolist()}
    upper = {tuple(y) for y in (y16[np.all(reduced16 <= 0, axis=1)] // 16).tolist()}
    return lower, upper


def test_dual_vertices_are_the_chsh_facets():
    # Fine's theorem from the LP data: four CHSH facets and the trivial bound
    # on each side, those of the maximum mirrored, -y a (-2, s) with s1 s2 s3 = -1
    signs = list(itertools.product((1, -1), repeat=3))
    lower, upper = dual_vertices()
    assert lower == {(-2, *s) for s in signs if math.prod(s) == 1} | {(-1, 0, 0, 0)}
    assert upper == {(2, *s) for s in signs if math.prod(s) == 1} | {(1, 0, 0, 0)}


def test_closed_form_is_the_dual_bound_on_the_whole_grid():
    # weak duality makes each vertex a bound on f, and the LP optimum attains
    # the best one, so the band is [max of the lower, min of the upper]
    points = grid_points(50)
    moments = np.column_stack([np.ones(len(points)), singlet_correlation(points)])
    lower, upper = (np.array(sorted(v), dtype=float).T for v in dual_vertices())
    closed_lo, closed_hi = band.band_limits(points)
    assert np.abs(closed_lo - (moments @ lower).max(axis=1)).max() <= ROUND_TOL
    assert np.abs(closed_hi - (moments @ upper).min(axis=1)).max() <= ROUND_TOL


def test_reference_on_known_bands():
    assert exact_band(0, 0, 0)[:2] == (-1, 1)
    assert exact_band(-1, -1, -1)[:2] == (-1, -1)
    assert exact_band(Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2))[:2] == (-1, Fraction(1, 2))
    assert exact_band(Fraction(-1, 2), -1, -1)[:2] == (Fraction(-1, 2), Fraction(-1, 2))


@pytest.mark.parametrize("c", list(itertools.product((-1, 0, 1), repeat=3)))
def test_lp_band_on_unit_correlations(c):
    check_lp(*c)


@pytest.mark.parametrize("theta", list(itertools.product((0.0, math.pi / 2, math.pi), repeat=3)))
def test_corners_and_face_centres(theta):
    check_theta(theta)


cube_angles = st.floats(0, math.pi, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(st.tuples(cube_angles, cube_angles, cube_angles))
# the band reaches 1; lp_band once returned a maximum of 1.0000000000000002
@example((1.2795551804096081, 2.596369190128366, 1.2263341551368163))
def test_random_triples(theta):
    check_theta(theta)


def _near_edge():
    offset = st.floats(-9, -3).map(lambda e: 10.0 ** e)
    return st.one_of(cube_angles, offset, offset.map(lambda d: math.pi - d))


@settings(max_examples=40, deadline=None)
@given(st.tuples(_near_edge(), _near_edge(), _near_edge()))
# lp_band once returned a maximum of 1.0000000000019766 here
@example((1.194797791976557e-06, 3.141592652263023, 1.5891920713047022e-06))
@example((3.141551328082391, 0.0, 0.0))
def test_near_edge_triples(theta):
    check_theta(theta)


def test_only_core_spells_a_tolerance():
    # a float literal in (0, 1e-9] is a tolerance; core.py holds the table
    source = Path(__file__).resolve().parents[1] / "src" / "bellband"
    spelled = []
    for path in sorted(source.glob("*.py")):
        if path.name == "core.py":
            continue
        with tokenize.open(path) as fh:
            for token in tokenize.generate_tokens(fh.readline):
                if token.type != tokenize.NUMBER:
                    continue
                value = ast.literal_eval(token.string)
                if isinstance(value, float) and 0.0 < value <= 1e-9:
                    spelled.append(f"{path.name}:{token.start[0]}: {token.string}")
    assert spelled == []
