import json
import math

import numpy as np
import pytest

from bellband import (
    AngleTriple,
    DomainError,
    F4Candidate,
    GridFormatError,
    axis_derivative_check,
    contradiction_report,
    direction_quotients,
    feasible_band,
    gradient_at_origin,
    inequality_scan,
    jump_measure,
    quadratic_fit,
    second_quotient,
)

DIAG = np.full(3, 1 / math.sqrt(3))


def constant_grid(value=-1.0, resolution=2, name="constant"):
    return F4Candidate.from_grid(resolution, np.full(resolution**3, value), name=name)


def banded_grid(resolution, seed, force_diagonal=False):
    """Random node values projected into the feasible band at every node."""
    rng = np.random.default_rng(seed)
    axis = np.linspace(0, math.pi, resolution)
    values = np.empty((resolution,) * 3)
    for i1, t1 in enumerate(axis):
        for i2, t2 in enumerate(axis):
            for i3, t3 in enumerate(axis):
                band = feasible_band(AngleTriple(t1, t2, t3))
                v = rng.uniform(-1, 1)
                values[i1, i2, i3] = min(max(v, band.lo), band.hi)
                if force_diagonal and i1 == i2 == i3:
                    values[i1, i2, i3] = -math.cos(t1)
    return F4Candidate.from_grid(resolution, values.ravel(), name=f"fuzz-{seed}")


class SyntheticSmooth:
    """Isotropic quadratic bowl with the diagonal value overridden to the
    forced cosine; realizes the coefficient arithmetic 3/2 vs 1/2."""

    name = "synthetic-smooth"

    def values(self, points):
        t1, t2, t3 = np.moveaxis(np.asarray(points, dtype=float), -1, 0)
        bowl = -1.0 + 0.5 * (t1 * t1 + t2 * t2 + t3 * t3)
        return np.where((t1 == t2) & (t2 == t3), -np.cos(t1), bowl)


class TestCandidates:
    def test_product_at_origin(self):
        assert F4Candidate.product().evaluate(AngleTriple(0, 0, 0)) == -1.0

    def test_locality_value(self):
        theta = AngleTriple(3 * math.pi / 4, math.pi / 4, math.pi / 4)
        assert F4Candidate.locality().evaluate(theta) == pytest.approx(
            -math.sqrt(2) / 2, abs=1e-15
        )

    def test_product_diagonal_on_diagonal(self):
        t = math.pi / 3
        value = F4Candidate.product_diagonal().evaluate(AngleTriple(t, t, t))
        assert value == pytest.approx(-0.5, abs=1e-15)

    def test_product_diagonal_off_diagonal(self):
        theta = AngleTriple(0.5, 0.5, 0.6)
        expected = -math.cos(0.5) ** 2 * math.cos(0.6)
        assert F4Candidate.product_diagonal().evaluate(theta) == pytest.approx(expected)

    def test_rejects_outside_cube(self):
        with pytest.raises(DomainError):
            F4Candidate.product().evaluate(AngleTriple(-0.1, 0, 0))

    def test_grid_interpolates_nodes(self):
        grid = banded_grid(4, seed=0)
        axis = np.linspace(0, math.pi, 4)
        for i, t in enumerate(axis):
            assert grid.evaluate(AngleTriple(t, 0, 0)) == pytest.approx(
                grid.grid_values[i, 0, 0], abs=1e-12
            )

    def test_grid_json_round_trip(self):
        grid = banded_grid(3, seed=1)
        clone = F4Candidate.from_json(grid.to_json())
        theta = AngleTriple(1.0, 2.0, 0.5)
        assert clone.evaluate(theta) == grid.evaluate(theta)

    def test_value_equality_and_hash(self):
        grid = banded_grid(3, seed=1)
        clone = F4Candidate.from_json(grid.to_json())
        assert clone == grid and hash(clone) == hash(grid)
        assert banded_grid(3, seed=2) != grid
        assert F4Candidate.product() == F4Candidate.builtin("product")
        assert len({F4Candidate.product(), F4Candidate.locality(), F4Candidate.product()}) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            "not json",
            '{"kind": "other"}',
            '{"kind": "grid", "resolution": 1, "values": [0]}',
            '{"kind": "grid", "resolution": 2, "values": [0, 0]}',
            '{"kind": "grid", "resolution": 2, "values": [0,0,0,0,0,0,0,2]}',
            '{"kind": "grid", "resolution": 2, "values": ["a",0,0,0,0,0,0,0]}',
            '{"kind": "grid", "resolution": "two", "values": [0,0,0,0,0,0,0,0]}',
            '{"kind": "grid", "resolution": 1e400, "values": [0]}',
            '{"kind": "grid", "resolution": 2.9, "values": [0,0,0,0,0,0,0,0]}',
            '{"kind": "grid", "resolution": 2, "values": [true,false,0,0,0,0,0,0]}',
            '{"kind": "grid", "resolution": 2, "values": [[0,0],[0,0],[0,0],[0,0]]}',
            '{"kind": "grid", "resolution": 2, "values": ["0","0","0","0","0","0","0","0"]}',
            pytest.param(b"\xff\xfe{", id="not-utf-8"),
            pytest.param(
                '{"kind": "grid", "resolution": 2, "values": [0,0,0,0,0,0,0,0]}'.encode("utf-16"),
                id="utf-16",
            ),
        ],
    )
    def test_malformed_grid_documents(self, doc):
        with pytest.raises(GridFormatError):
            F4Candidate.from_json(doc)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
@pytest.mark.parametrize(
    "probe",
    [
        lambda c, seed: contradiction_report(c, seed=seed),
        lambda c, seed: quadratic_fit(c, radius=0.1, samples=20, seed=seed),
        lambda c, seed: direction_quotients(c, 1e-2, 8, seed=seed),
        lambda c, seed: jump_measure(c, 1e-2, 8, seed=seed),
    ],
    ids=["contradiction_report", "quadratic_fit", "direction_quotients", "jump_measure"],
)
def test_halton_seed_outside_u64_rejected(probe, seed):
    with pytest.raises(DomainError, match="unsigned 64-bit integer"):
        probe(F4Candidate.product(), seed)


class TestGradientAtOrigin:
    @pytest.mark.parametrize("kind", ["product", "locality", "product-diagonal"])
    def test_builtin_gradients_vanish(self, kind):
        g = gradient_at_origin(F4Candidate.builtin(kind))
        assert np.linalg.norm(g) <= 1e-6

    def test_step_validation(self):
        with pytest.raises(DomainError):
            gradient_at_origin(F4Candidate.product(), h=0.2)
        with pytest.raises(DomainError):
            gradient_at_origin(F4Candidate.product(), h=0.0)

    def test_banded_grid_gradient_is_step_bounded(self):
        # zero-violation grid candidates: gradient norm stays within 10*h
        # once h resolves the grid spacing
        grid = banded_grid(25, seed=4, force_diagonal=True)
        h = 0.05
        assert np.linalg.norm(gradient_at_origin(grid, h=h)) <= 10 * h


class TestAxisDerivative:
    @pytest.mark.parametrize("kind", ["product", "locality", "product-diagonal"])
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_builtin_axis_derivatives(self, kind, i):
        residual = axis_derivative_check(F4Candidate.builtin(kind), math.pi / 3, i)
        assert residual <= 1e-4

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            axis_derivative_check(F4Candidate.product(), 1e-6, 1)
        with pytest.raises(DomainError):
            axis_derivative_check(F4Candidate.product(), math.pi, 2)


class TestSecondQuotient:
    def test_product_axis(self):
        q = second_quotient(F4Candidate.product(), (1, 0, 0), 1e-3)
        assert q == pytest.approx(0.5, abs=1e-3)

    def test_product_diagonal_direction(self):
        q = second_quotient(F4Candidate.product(), DIAG, 1e-3)
        assert q == pytest.approx(0.5, abs=1e-3)

    def test_piecewise_diagonal_limit(self):
        q = second_quotient(F4Candidate.product_diagonal(), DIAG, 1e-3)
        assert q == pytest.approx(1 / 6, abs=1e-3)

    def test_negative_direction_rejected(self):
        with pytest.raises(DomainError):
            second_quotient(F4Candidate.product(), (1, -0.2, 0), 1e-3)


class TestQuadraticFit:
    def test_product_coefficients(self):
        fit = quadratic_fit(F4Candidate.product(), radius=0.1, samples=200, seed=0)
        assert fit.c0 == pytest.approx(-1.0, abs=1e-3)
        assert fit.c_lin == pytest.approx(np.zeros(3), abs=1e-3)
        # quartic bias at radius 0.1 leaves the diagonal coefficients a
        # hair over 1e-3 from 1/2; a smaller radius recovers it
        assert np.diag(fit.c_quad) == pytest.approx(np.full(3, 0.5), abs=2e-3)
        assert fit.max_cross_coeff <= 2e-3
        small = quadratic_fit(F4Candidate.product(), radius=0.05, samples=200, seed=0)
        assert np.diag(small.c_quad) == pytest.approx(np.full(3, 0.5), abs=1e-3)

    def test_locality_cross_terms(self):
        fit = quadratic_fit(F4Candidate.locality(), radius=0.1, samples=200, seed=0)
        assert np.diag(fit.c_quad) == pytest.approx(np.full(3, 0.5), abs=2e-3)
        assert fit.c_quad[1, 2] == pytest.approx(1.0, abs=2e-3)
        assert fit.c_quad[0, 1] == pytest.approx(-1.0, abs=2e-3)
        assert fit.c_quad[0, 2] == pytest.approx(-1.0, abs=2e-3)

    def test_constant_grid(self):
        fit = quadratic_fit(constant_grid(), radius=0.1, samples=200, seed=0)
        assert fit.c0 == pytest.approx(-1.0, abs=1e-9)
        assert fit.c_lin == pytest.approx(np.zeros(3), abs=1e-9)
        assert np.abs(fit.c_quad).max() <= 1e-9

    def test_deterministic(self):
        a = quadratic_fit(F4Candidate.product(), radius=0.1, samples=100, seed=5)
        b = quadratic_fit(F4Candidate.product(), radius=0.1, samples=100, seed=5)
        assert a.c0 == b.c0 and np.array_equal(a.c_quad, b.c_quad)

    def test_underdetermined_rejected(self):
        with pytest.raises(DomainError):
            quadratic_fit(F4Candidate.product(), radius=0.1, samples=5, seed=0)


class TestJumpMeasure:
    def test_product_is_isotropic(self):
        assert jump_measure(F4Candidate.product(), 1e-2, 16) <= 1e-3

    def test_piecewise_jump_is_one_third(self):
        spread = jump_measure(F4Candidate.product_diagonal(), 1e-2, 16)
        assert spread == pytest.approx(1 / 3, abs=0.05)

    def test_constant_grid_has_no_jump(self):
        assert jump_measure(constant_grid(), 1e-2, 16) <= 1e-9


class TestInequalityScan:
    def test_product_diagonal_is_clean(self):
        assert inequality_scan(F4Candidate.product_diagonal(), 15) == []

    def test_locality_violates_at_tsirelson_cell(self):
        violations = inequality_scan(F4Candidate.locality(), 25)
        assert violations
        target = (3 * math.pi / 4, math.pi / 4, math.pi / 4)
        assert any(
            v.kind == "band" and v.theta == pytest.approx(target) for v in violations
        )

    def test_constant_candidate_violations(self):
        violations = inequality_scan(constant_grid(), 25)
        kinds = {v.kind for v in violations}
        assert kinds == {"band", "diagonal"}
        assert any(
            v.kind == "band" and v.theta == pytest.approx((math.pi, 0, 0))
            for v in violations
        )

    def test_product_violates_diagonal_only(self):
        violations = inequality_scan(F4Candidate.product(), 9)
        assert violations
        assert all(v.kind == "diagonal" for v in violations)

    def test_sandwich_bound_for_clean_candidates(self):
        # |F + 1| <= 3 - cos t1 - cos t2 - cos t3 wherever the scan is clean
        candidate = F4Candidate.product_diagonal()
        axis = np.linspace(0, math.pi, 9)
        for t1 in axis:
            for t2 in axis:
                for t3 in axis:
                    value = candidate.evaluate(AngleTriple(t1, t2, t3))
                    bound = 3 - math.cos(t1) - math.cos(t2) - math.cos(t3)
                    assert abs(value + 1) <= bound + 1e-9

    def test_axis_forcing_for_clean_candidates(self):
        candidate = F4Candidate.product_diagonal()
        for t in np.linspace(0, math.pi, 9):
            for theta in (AngleTriple(t, 0, 0), AngleTriple(0, t, 0), AngleTriple(0, 0, t)):
                assert abs(candidate.evaluate(theta) + math.cos(t)) <= 1e-9


class TestContradictionReport:
    def test_piecewise_candidate_escapes_via_jump(self):
        report = contradiction_report(F4Candidate.product_diagonal())
        assert not report.contradiction
        assert "directional-jump-detected" in report.flags
        assert report.jump_spread == pytest.approx(1 / 3, abs=0.05)
        assert report.diagonal_sum == pytest.approx(0.5, abs=0.01)
        assert report.axis_forced_sum == pytest.approx(1.5, abs=0.01)

    def test_product_violates_diagonal_constraint(self):
        report = contradiction_report(F4Candidate.product())
        assert not report.contradiction
        assert "diagonal-constraint-violated" in report.flags
        assert report.diagonal_sum == pytest.approx(1.5, abs=0.01)

    def test_synthetic_smooth_candidate_contradicts(self):
        report = contradiction_report(SyntheticSmooth())
        assert report.contradiction
        assert report.axis_forced_sum == pytest.approx(1.5, abs=1e-6)
        assert report.cross_term_max <= 1e-6
        assert report.diagonal_sum == pytest.approx(0.5, abs=1e-6)
        assert report.fit.residual <= 1e-8

    def test_nan_coefficients_raise_their_flags(self):
        class NanDiagonal(SyntheticSmooth):
            """NaN on the diagonal away from the origin."""

            def values(self, points):
                t1, t2, t3 = np.moveaxis(np.asarray(points, dtype=float), -1, 0)
                diagonal = (t1 == t2) & (t2 == t3) & (t1 > 0.0)
                return np.where(diagonal, np.nan, super().values(points))

        report = contradiction_report(NanDiagonal())
        assert math.isnan(report.diagonal_sum) and math.isnan(report.jump_spread)
        assert report.flags == ("diagonal-constraint-violated", "directional-jump-detected")
        assert not report.contradiction

    def test_grid_disclaimer(self):
        report = contradiction_report(constant_grid(resolution=3))
        assert report.disclaimer is not None

    def test_report_serializes(self):
        doc = contradiction_report(F4Candidate.product()).to_dict()
        text = json.dumps(doc)
        assert "diagonal_sum" in text
