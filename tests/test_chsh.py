import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellband import (
    AngleTriple,
    CorrelationVector,
    DomainError,
    F4Candidate,
    JointDistribution4,
    ShapeError,
    boole_check,
    chsh_value,
    correlations_from_angles,
    empirical_correlation,
    feasible_band,
    polytope_member,
)
from bellband.chsh import octet_correlations

SQRT2_HALF = math.sqrt(2) / 2


class TestBooleCheck:
    def test_all_ones(self):
        r = boole_check([1], [1], [1], [1])
        assert r.lhs1 == 2.0 and r.lhs2 == 2.0 and r.holds

    def test_zero_correlations(self):
        # direct sums: all four correlations vanish, so both sides are 0
        r = boole_check([1, -1], [1, 1], [1, -1], [-1, -1])
        assert r.lhs1 == 0.0 and r.lhs2 == 0.0 and r.holds

    def test_exhaustive_length_two(self):
        seqs = list(itertools.product((-1, 1), repeat=2))
        for u, x, v, y in itertools.product(seqs, repeat=4):
            r = boole_check(u, x, v, y)
            assert r.holds
            assert r.lhs1 <= 2.0 + 1e-12 and r.lhs2 <= 2.0 + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            boole_check([1, 1], [1, 1], [1, 1], [1])

    @given(st.integers(1, 60), st.integers(0, 2**32))
    def test_random_sequences_always_hold(self, n, seed):
        rng = np.random.default_rng(seed)
        u, x, v, y = rng.integers(0, 2, size=(4, n)) * 2 - 1
        assert boole_check(u, x, v, y).holds


class TestOctetCorrelations:
    @given(st.integers(1, 60), st.integers(0, 2**32))
    def test_the_four_pairs_in_correlations_order(self, n, seed):
        a_oo, b_oo, a_bo, b_ob = np.random.default_rng(seed).integers(0, 2, size=(4, n)) * 2 - 1
        result = octet_correlations(a_oo, b_oo, a_bo, b_ob)
        assert list(result) == list(JointDistribution4.CORRELATIONS) == ["c1", "c2", "c3", "f"]
        expected = [
            empirical_correlation(a_oo, b_oo),
            empirical_correlation(a_bo, b_oo),
            empirical_correlation(a_oo, b_ob),
            empirical_correlation(a_bo, b_ob),
        ]
        assert np.array(list(result.values())).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("short", range(4))
    def test_length_mismatch(self, short):
        seqs = [[1, -1, 1]] * 4
        seqs[short] = [1, -1]
        with pytest.raises(ShapeError, match="length mismatch"):
            octet_correlations(*seqs)


class TestChshValue:
    def test_corner(self):
        assert chsh_value(CorrelationVector(-1, -1, -1, -1)) == 2.0

    def test_tsirelson_point(self):
        c = CorrelationVector(SQRT2_HALF, -SQRT2_HALF, -SQRT2_HALF, -SQRT2_HALF)
        assert chsh_value(c) == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_center(self):
        assert chsh_value(CorrelationVector(0, 0, 0, 0)) == 0.0

    def test_component_out_of_range(self):
        with pytest.raises(DomainError):
            CorrelationVector(1.5, 0, 0, 0)

    @given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=4, max_size=4))
    def test_bounded_and_sign_flip_invariant(self, comps):
        c = CorrelationVector(*comps)
        flipped = CorrelationVector(*(-x for x in comps))
        assert chsh_value(c) <= 4.0
        assert chsh_value(flipped) == chsh_value(c)


class TestPolytopeMember:
    def test_corner_is_member(self):
        assert polytope_member(CorrelationVector(-1, -1, -1, -1))

    def test_tsirelson_point_is_not(self):
        c = CorrelationVector(SQRT2_HALF, -SQRT2_HALF, -SQRT2_HALF, -SQRT2_HALF)
        assert not polytope_member(c)

    def test_center_is_member(self):
        assert polytope_member(CorrelationVector(0, 0, 0, 0))


class TestCorrelationsFromAngles:
    def test_origin(self):
        c = correlations_from_angles(AngleTriple(0, 0, 0), F4Candidate.builtin("product"))
        assert (c.c1, c.c2, c.c3, c.c4) == (-1.0, -1.0, -1.0, -1.0)

    def test_symmetric_point_with_locality(self):
        t = math.pi / 2
        c = correlations_from_angles(AngleTriple(t, t, t), F4Candidate.builtin("locality"))
        for comp in (c.c1, c.c2, c.c3, c.c4):
            assert comp == pytest.approx(0.0, abs=1e-12)

    def test_tsirelson_angles_with_locality(self):
        theta = AngleTriple(3 * math.pi / 4, math.pi / 4, math.pi / 4)
        c = correlations_from_angles(theta, F4Candidate.builtin("locality"))
        assert c.c1 == pytest.approx(SQRT2_HALF, abs=1e-12)
        assert c.c2 == pytest.approx(-SQRT2_HALF, abs=1e-12)
        assert c.c3 == pytest.approx(-SQRT2_HALF, abs=1e-12)
        assert c.c4 == pytest.approx(-SQRT2_HALF, abs=1e-12)
        assert not polytope_member(c)

    def test_rejects_outside_cube(self):
        with pytest.raises(DomainError):
            correlations_from_angles(AngleTriple(-0.5, 0, 0), F4Candidate.builtin("product"))


class TestMembershipMatchesBand:
    # polytope membership of the assembled vector is equivalent to the
    # candidate value lying in the feasible band at that configuration
    @pytest.mark.parametrize("kind", ["product", "locality", "product-diagonal"])
    def test_grid_equivalence(self, kind):
        candidate = F4Candidate.builtin(kind)
        axis = np.linspace(0, math.pi, 9)
        disagreements = 0
        locality_violations = 0
        for t1 in axis:
            for t2 in axis:
                for t3 in axis:
                    theta = AngleTriple(t1, t2, t3)
                    member = polytope_member(correlations_from_angles(theta, candidate))
                    band = feasible_band(theta)
                    in_band = band.lo - 1e-12 <= candidate.evaluate(theta) <= band.hi + 1e-12
                    if member != in_band:
                        disagreements += 1
                    if not member and kind == "locality":
                        locality_violations += 1
        assert disagreements == 0
        if kind == "locality":
            assert locality_violations > 0
