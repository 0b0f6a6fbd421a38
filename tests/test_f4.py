import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from bellband import (
    AngleTriple,
    DomainError,
    F4Candidate,
    GridFormatError,
    QuadraticFit,
    axis_derivative_check,
    contradiction_report,
    direction_quotients,
    feasible_band,
    gradient_at_origin,
    inequality_scan,
    quadratic_fit,
)
from bellband import f4
from bellband.core import _check_seed
from bellband.f4 import BUILTIN_KINDS, _ball_points, _halton, _quotients

PRODUCT = F4Candidate.builtin("product")


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
        assert F4Candidate.builtin("product").evaluate(AngleTriple(0, 0, 0)) == -1.0

    def test_locality_value(self):
        theta = AngleTriple(3 * math.pi / 4, math.pi / 4, math.pi / 4)
        assert F4Candidate.builtin("locality").evaluate(theta) == pytest.approx(
            -math.sqrt(2) / 2, abs=1e-15
        )

    def test_product_diagonal_on_diagonal(self):
        t = math.pi / 3
        value = F4Candidate.builtin("product-diagonal").evaluate(AngleTriple(t, t, t))
        assert value == pytest.approx(-0.5, abs=1e-15)

    def test_product_diagonal_off_diagonal(self):
        theta = AngleTriple(0.5, 0.5, 0.6)
        expected = -math.cos(0.5) ** 2 * math.cos(0.6)
        assert F4Candidate.builtin("product-diagonal").evaluate(theta) == pytest.approx(expected)

    def test_rejects_outside_cube(self):
        with pytest.raises(DomainError):
            F4Candidate.builtin("product").evaluate(AngleTriple(-0.1, 0, 0))

    def test_grid_interpolates_nodes(self):
        grid = banded_grid(4, seed=0)
        axis = np.linspace(0, math.pi, 4)
        for i, t in enumerate(axis):
            assert grid.evaluate(AngleTriple(t, 0, 0)) == pytest.approx(
                grid.grid_values[i, 0, 0], abs=1e-12
            )

    def test_grid_json_document_equals_from_grid(self):
        values = [-1, -0.5, 0, 0.5, 1, 0.25, -0.25, 0.125]
        doc = json.dumps({"kind": "grid", "name": "g", "resolution": 2, "values": values})
        assert F4Candidate.from_json(doc) == F4Candidate.from_grid(2, values, name="g")
        assert F4Candidate.from_json(doc.encode()) == F4Candidate.from_grid(2, values, name="g")

    def test_value_equality_and_hash(self):
        grid = banded_grid(3, seed=1)
        clone = F4Candidate.from_grid(3, grid.grid_values.tolist(), name=grid.name)
        assert clone == grid and hash(clone) == hash(grid)
        assert banded_grid(3, seed=2) != grid
        assert F4Candidate.builtin("product") == F4Candidate.builtin("product")
        kinds = ("product", "locality", "product")
        assert len({F4Candidate.builtin(kind) for kind in kinds}) == 2

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
            # neither text nor bytes: json.loads's TypeError
            pytest.param(5, id="int"),
            pytest.param(None, id="None"),
            pytest.param(
                '{"kind": "grid", "resolution": 2, "values": [0,0,0,0,0,0,0,0]}'.encode("utf-16"),
                id="utf-16",
            ),
        ],
    )
    def test_malformed_grid_documents(self, doc):
        with pytest.raises(GridFormatError):
            F4Candidate.from_json(doc)


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(lambda: F4Candidate(kind="product", name="p", grid_values=np.zeros(8)),
                     "builtin candidate 'product' takes no grid", id="builtin-with-grid"),
        pytest.param(lambda: F4Candidate(kind="cubic", name="c"),
                     "unknown candidate kind 'cubic'", id="unknown-kind"),
        pytest.param(lambda: F4Candidate.builtin("nope"),
                     "unknown builtin candidate 'nope'", id="unknown-builtin"),
        pytest.param(lambda: F4Candidate.from_json('{"kind": "grid", "resolution": 2}'),
                     "grid document is missing field 'values'", id="no-values"),
        # a name that is not a string was once reported as its Python str()
        *(pytest.param(lambda name=name: F4Candidate.from_json(
            f'{{"kind": "grid", "name": {name}, "resolution": 2, "values": [0,0,0,0,0,0,0,0]}}'),
                       "^candidate name must be a string$", id=f"name-{name}")
          for name in ("null", '{"a": 1}', "true", "5", '["grid"]')),
        # and was not checked at all in a library call
        pytest.param(lambda: F4Candidate(kind="product", name=5),
                     "^candidate name must be a string$", id="builtin-name-5"),
        pytest.param(lambda: F4Candidate.from_grid(2, [0.0] * 8, name=None),
                     "^candidate name must be a string$", id="from-grid-name-None"),
    ],
)
def test_candidate_rejections(make, message):
    with pytest.raises(GridFormatError, match=message):
        make()


@pytest.mark.parametrize(
    "probe, message",
    [
        *(pytest.param(lambda t=t: direction_quotients(PRODUCT, t, 8),
                       r"step must lie in \(0, 0.5\], got", id=f"quotient-step-{t}")
          for t in (0.0, -1e-3, 0.6, math.nan)),
        pytest.param(lambda: direction_quotients(PRODUCT, 0.7, 8),
                     r"step must lie in \(0, 0.5\], got 0.7", id="directions-step"),
        pytest.param(lambda: direction_quotients(PRODUCT, 1e-2, 7),
                     "need at least 8 directions, got 7", id="seven-directions"),
        *(pytest.param(lambda r=r: quadratic_fit(PRODUCT, r, 20),
                       r"radius must lie in \(0, 0.3\], got", id=f"fit-radius-{r}")
          for r in (0.0, -0.1, 0.31, math.nan)),
    ],
)
def test_probe_domain_rejections(probe, message):
    with pytest.raises(DomainError, match=message):
        probe()


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
@pytest.mark.parametrize(
    "probe",
    [
        lambda c, seed: contradiction_report(c, seed=seed),
        lambda c, seed: quadratic_fit(c, radius=0.1, samples=20, seed=seed),
        lambda c, seed: direction_quotients(c, 1e-2, 8, seed=seed),
    ],
    ids=["contradiction_report", "quadratic_fit", "direction_quotients"],
)
def test_halton_seed_outside_u64_rejected(probe, seed):
    with pytest.raises(DomainError, match="unsigned 64-bit integer"):
        probe(F4Candidate.builtin("product"), seed)


def cold_halton(seed, n):
    """_halton(seed, n) computed afresh, on an emptied memo."""
    f4._halton_kept = (None, None)
    return _halton(seed, n)


class TestHalton:
    """The computation itself: every draw here is made on an empty memo."""

    SEEDS = [0, 1, 2, 7, 708, 2**32, 2**63, 2**64 - 1]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "draws", [(64, 800, 5000, 1), (1,), (2,), (3,), (5, 20), (25, 1), (125,)], ids=str
    )
    def test_matches_scipy_consecutive_draws(self, seed, draws):
        # the draws cross the digit boundaries of bases 2, 3 and 5
        qmc = pytest.importorskip("scipy.stats").qmc
        engine = qmc.Halton(d=3, scramble=True, seed=seed)
        expected = np.concatenate([engine.random(k) for k in draws])
        points = cold_halton(seed, sum(draws))
        assert points.shape == expected.shape
        assert points.tobytes() == expected.tobytes()

    # float.hex of the first three points; the sequence holds without scipy
    @pytest.mark.parametrize(
        "seed, first",
        [
            (0, [
                ["0x1.9600b82ecb948p-4", "0x1.b9a95a7ee723ap-5", "0x1.33feaf0d8d01bp-2"],
                ["0x1.32c01705d9729p-1", "0x1.70efeafd43c79p-1", "0x1.66cc2453934dap-1"],
                ["0x1.65802e0bb2e52p-2", "0x1.8c8a80a53239bp-2", "0x1.9cc7890300d35p-4"],
            ]),
            (2**64 - 1, [
                ["0x1.23ce156f32db0p-2", "0x1.fd36ea7ee56bcp-1", "0x1.4cfc17fb04c5dp-1"],
                ["0x1.91e70ab7996d8p-1", "0x1.4fc32a53202cdp-2", "0x1.9c8e4c7d19289p-5"],
                ["0x1.1e70ab7996d80p-5", "0x1.528c3fd43ac12p-1", "0x1.005e965c6ff20p-2"],
            ]),
        ],
    )
    def test_first_points_pinned(self, seed, first):
        assert [[x.hex() for x in row] for row in cold_halton(seed, 3).tolist()] == first

    @pytest.mark.parametrize("seed", SEEDS)
    def test_prefixes_hold_the_same_points(self, seed):
        points = cold_halton(seed, 4097)
        for n in (1, 2, 3, 4, 5, 9, 26, 125, 126, 4096):
            assert cold_halton(seed, n).tobytes() == points[:n].tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_base_2_coordinates_are_distinct(self, seed):
        # so at most one point is 0, which _cone_directions relies on
        assert np.unique(cold_halton(seed, 4096)[:, 0]).size == 4096


class TestHaltonMemo:
    """_halton keeps the last seed's longest short draw and serves its prefixes."""

    @pytest.mark.parametrize("seed", [0, 708, 2**64 - 1])
    @pytest.mark.parametrize(
        "first, second", [(4097, 26), (26, 4097), (800, 33), (33, 800), (800, 801)]
    )
    def test_draw_after_another_is_the_cold_draw(self, seed, first, second):
        f4._halton_kept = (None, None)
        _halton(seed, first)
        points = _halton(seed, second)
        expected = cold_halton(seed, second)
        assert points.shape == expected.shape == (second, 3)
        assert points.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 33, 800])
    def test_draws_are_read_only(self, n):
        f4._halton_kept = (None, None)
        for points in (_halton(5, n), _halton(5, n)):
            assert not points.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                points[0, 0] = 0.5

    def test_keeps_the_last_seed_only(self):
        first = cold_halton(3, 800)
        second = _halton(4, 33)
        seed, kept = f4._halton_kept
        assert seed == 4 and kept.tobytes() == second.tobytes()
        assert _halton(3, 33).tobytes() == first[:33].tobytes()
        assert f4._halton_kept[0] == 3 and len(f4._halton_kept[1]) == 33

    def test_keeps_no_long_draw(self):
        candidate = F4Candidate.builtin("product")
        contradiction_report(candidate, seed=9)
        kept = f4._halton_kept[1]
        assert f4._halton_kept[0] == 9 and len(kept) == 800
        # 4 * 2000 points are drawn, more than are kept
        fit = quadratic_fit(candidate, radius=0.1, samples=2000, seed=9)
        assert f4._halton_kept[1] is kept
        f4._halton_kept = (None, None)
        assert quadratic_fit(candidate, radius=0.1, samples=2000, seed=9) == fit
        assert f4._halton_kept == (None, None)

    @pytest.mark.parametrize("seed", [-1, 2**64, "3", None, [1]], ids=repr)
    def test_bad_seed_is_rejected_and_not_kept(self, seed):
        f4._halton_kept = (None, None)
        with pytest.raises(DomainError) as expected:
            _check_seed(seed)
        with pytest.raises(DomainError) as raised:
            _halton(seed, 5)
        assert str(raised.value) == str(expected.value)
        assert f4._halton_kept == (None, None)

    @pytest.mark.parametrize("kind", [*BUILTIN_KINDS, "grid"])
    def test_report_does_not_depend_on_the_memo(self, kind):
        candidate = banded_grid(5, 3) if kind == "grid" else F4Candidate.builtin(kind)
        seeds = [0, 7, 2**64 - 1, 100, 101]

        def report(seed):
            return json.dumps(dataclasses.asdict(contradiction_report(candidate, seed)))

        cold = {}
        for seed in seeds:
            f4._halton_kept = (None, None)
            cold[seed] = report(seed)
        # warm: the same seed again at once
        for seed in seeds:
            assert report(seed) == report(seed) == cold[seed]
        # interleaved
        for seed in seeds[::-1] + seeds[::2] + seeds:
            assert report(seed) == cold[seed]


class TestGradientAtOrigin:
    @pytest.mark.parametrize("kind", ["product", "locality", "product-diagonal"])
    def test_builtin_gradients_vanish(self, kind):
        g = gradient_at_origin(F4Candidate.builtin(kind))
        assert np.linalg.norm(g) <= 1e-6

    def test_step_validation(self):
        with pytest.raises(DomainError):
            gradient_at_origin(F4Candidate.builtin("product"), h=0.2)
        with pytest.raises(DomainError):
            gradient_at_origin(F4Candidate.builtin("product"), h=0.0)

    def test_banded_grid_gradient_is_step_bounded(self):
        # zero-violation grid candidates: gradient norm stays within 10*h
        # once h resolves the grid spacing
        grid = banded_grid(25, seed=4, force_diagonal=True)
        h = 0.05
        assert np.linalg.norm(gradient_at_origin(grid, h=h)) <= 10 * h


@functools.cache
def _builtin_axis_residuals(kind: str) -> np.ndarray:
    """The three-axis residuals of a builtin at pi/3, computed once per kind."""
    residuals = axis_derivative_check(F4Candidate.builtin(kind), math.pi / 3)
    residuals.flags.writeable = False
    return residuals


class TestAxisDerivative:
    @pytest.mark.parametrize("kind", ["product", "locality", "product-diagonal"])
    @pytest.mark.parametrize("i", [1, 2, 3, np.int64(1), np.int32(2), np.uint8(3)])
    def test_builtin_axis_derivatives(self, kind, i):
        # entry i - 1 of the residuals is axis i's
        residuals = _builtin_axis_residuals(kind)
        assert residuals.shape == (3,)
        assert residuals[i - 1] <= 1e-4

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            axis_derivative_check(F4Candidate.builtin("product"), 1e-6)
        with pytest.raises(DomainError):
            axis_derivative_check(F4Candidate.builtin("product"), math.pi)

    @pytest.mark.parametrize("h", [0.0, -1e-4, math.nan])
    def test_step_validation(self, h):
        with pytest.raises(DomainError, match="step must be positive"):
            axis_derivative_check(F4Candidate.builtin("product"), 1.0, h=h)


class TestSecondQuotient:
    # direction_quotients appends the exact diagonal last
    def test_product_axis(self):
        q = _quotients(F4Candidate.builtin("product"), np.eye(3), 1e-3)
        assert q == pytest.approx(np.full(3, 0.5), abs=1e-3)

    def test_product_diagonal_direction(self):
        q = direction_quotients(F4Candidate.builtin("product"), 1e-3, 8)[-1]
        assert q == pytest.approx(0.5, abs=1e-3)

    def test_piecewise_diagonal_limit(self):
        q = direction_quotients(F4Candidate.builtin("product-diagonal"), 1e-3, 8)[-1]
        assert q == pytest.approx(1 / 6, abs=1e-3)


class TestQuadraticFit:
    def test_product_coefficients(self):
        fit = quadratic_fit(F4Candidate.builtin("product"), radius=0.1, samples=200, seed=0)
        assert fit.c0 == pytest.approx(-1.0, abs=1e-3)
        assert fit.c_lin == pytest.approx(np.zeros(3), abs=1e-3)
        # quartic bias at radius 0.1 leaves the diagonal coefficients a
        # hair over 1e-3 from 1/2; a smaller radius recovers it
        assert np.diag(fit.c_quad) == pytest.approx(np.full(3, 0.5), abs=2e-3)
        assert fit.max_cross_coeff <= 2e-3
        small = quadratic_fit(F4Candidate.builtin("product"), radius=0.05, samples=200, seed=0)
        assert np.diag(small.c_quad) == pytest.approx(np.full(3, 0.5), abs=1e-3)

    def test_locality_cross_terms(self):
        fit = quadratic_fit(F4Candidate.builtin("locality"), radius=0.1, samples=200, seed=0)
        assert np.diag(fit.c_quad) == pytest.approx(np.full(3, 0.5), abs=2e-3)
        assert fit.c_quad[1][2] == pytest.approx(1.0, abs=2e-3)
        assert fit.c_quad[0][1] == pytest.approx(-1.0, abs=2e-3)
        assert fit.c_quad[0][2] == pytest.approx(-1.0, abs=2e-3)

    def test_constant_grid(self):
        fit = quadratic_fit(constant_grid(), radius=0.1, samples=200, seed=0)
        assert fit.c0 == pytest.approx(-1.0, abs=1e-9)
        assert fit.c_lin == pytest.approx(np.zeros(3), abs=1e-9)
        assert np.abs(fit.c_quad).max() <= 1e-9

    def test_deterministic(self):
        a = quadratic_fit(F4Candidate.builtin("product"), radius=0.1, samples=100, seed=5)
        b = quadratic_fit(F4Candidate.builtin("product"), radius=0.1, samples=100, seed=5)
        assert a.c0 == b.c0 and np.array_equal(a.c_quad, b.c_quad)

    def test_max_cross_coeff_reads_the_upper_triangle(self):
        rows = ((9.0, 1.0, -3.0), (1.0, 9.0, 2.0), (-3.0, 2.0, 9.0))
        assert QuadraticFit(0.0, (0.0,) * 3, rows, 0.0).max_cross_coeff == 3.0
        rows = ((0.0, 1.0, 1.0), (1.0, 0.0, math.nan), (1.0, math.nan, 0.0))
        assert math.isnan(QuadraticFit(0.0, (0.0,) * 3, rows, 0.0).max_cross_coeff)

    def test_underdetermined_rejected(self):
        with pytest.raises(DomainError):
            quadratic_fit(F4Candidate.builtin("product"), radius=0.1, samples=5, seed=0)

    def test_ball_points_draw_past_their_first_prefix(self):
        # none of the first 4 points of seed 111 is a nonzero point of the
        # ball, so the first prefix of 4 * count points is not enough
        radius = 0.1
        draw = _halton(111, 64) * radius
        norms = np.linalg.norm(draw, axis=1)
        in_ball = np.flatnonzero((norms <= radius) & (norms > 0.0))
        assert in_ball[0] >= 4
        assert np.array_equal(_ball_points(radius, 1, 111), draw[in_ball[:1]])


def quotient_spread(candidate):
    """The spread of the second-order quotients, as contradiction_report's
    jump_spread takes it."""
    q = direction_quotients(candidate, 1e-2, 16)
    return q.max() - q.min()


class TestJumpMeasure:
    def test_product_is_isotropic(self):
        assert quotient_spread(F4Candidate.builtin("product")) <= 1e-3

    def test_piecewise_jump_is_one_third(self):
        spread = quotient_spread(F4Candidate.builtin("product-diagonal"))
        assert spread == pytest.approx(1 / 3, abs=0.05)

    def test_constant_grid_has_no_jump(self):
        assert quotient_spread(constant_grid()) <= 1e-9


class TestInequalityScan:
    def test_product_diagonal_is_clean(self):
        assert inequality_scan(F4Candidate.builtin("product-diagonal"), 15) == []

    def test_locality_violates_at_tsirelson_cell(self):
        violations = inequality_scan(F4Candidate.builtin("locality"), 25)
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
        violations = inequality_scan(F4Candidate.builtin("product"), 9)
        assert violations
        assert all(v.kind == "diagonal" for v in violations)

    def test_sandwich_bound_for_clean_candidates(self):
        # |F + 1| <= 3 - cos t1 - cos t2 - cos t3 wherever the scan is clean
        candidate = F4Candidate.builtin("product-diagonal")
        axis = np.linspace(0, math.pi, 9)
        for t1 in axis:
            for t2 in axis:
                for t3 in axis:
                    value = candidate.evaluate(AngleTriple(t1, t2, t3))
                    bound = 3 - math.cos(t1) - math.cos(t2) - math.cos(t3)
                    assert abs(value + 1) <= bound + 1e-9

    def test_axis_forcing_for_clean_candidates(self):
        candidate = F4Candidate.builtin("product-diagonal")
        for t in np.linspace(0, math.pi, 9):
            for theta in (AngleTriple(t, 0, 0), AngleTriple(0, t, 0), AngleTriple(0, 0, t)):
                assert abs(candidate.evaluate(theta) + math.cos(t)) <= 1e-9


class TestContradictionReport:
    def test_piecewise_candidate_escapes_via_jump(self):
        report = contradiction_report(F4Candidate.builtin("product-diagonal"))
        assert not report.contradiction
        assert "directional-jump-detected" in report.flags
        assert report.jump_spread == pytest.approx(1 / 3, abs=0.05)
        assert report.diagonal_sum == pytest.approx(0.5, abs=0.01)
        assert report.axis_forced_sum == pytest.approx(1.5, abs=0.01)

    def test_product_violates_diagonal_constraint(self):
        report = contradiction_report(F4Candidate.builtin("product"))
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

    def test_one_values_call_per_probe(self, monkeypatch):
        # origin, gradient, axes, fit, diagonal, cross pairs, cone directions
        shapes, solves = [], []

        class Counting:
            name = "product"

            def values(self, points):
                shapes.append(np.shape(points))
                return PRODUCT.values(points)

        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: solves.append(1) or lstsq(*a, **k))
        report = contradiction_report(Counting(), seed=3)
        assert shapes == [(1, 3), (7, 3), (6, 3), (200, 3), (2, 3), (37, 3), (33, 3)]
        assert len(solves) == 2
        assert report == contradiction_report(PRODUCT, seed=3)

    def test_grid_disclaimer(self):
        report = contradiction_report(constant_grid(resolution=3))
        assert report.disclaimer is not None

    def test_report_serializes(self):
        doc = dataclasses.asdict(contradiction_report(F4Candidate.builtin("product")))
        text = json.dumps(doc)
        assert "diagonal_sum" in text
