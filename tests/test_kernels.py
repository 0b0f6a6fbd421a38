"""The array kernels against plain per-point references.

Each reference below is the scalar, ``math.cos``-based formula evaluated
one point at a time in a Python loop.  The kernels must agree with them
bit for bit: the arithmetic is the same, only the loop moved into numpy.
The report's axis and cross probes are checked the same way against their
one-axis and one-pair forms, one ``values`` call and one solve each.
"""

import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bellband import DomainError, F4Candidate, ShapeError, band_map, inequality_scan
from bellband import f4
from bellband.band import band_limits
from bellband.core import (
    GRID_BLOCK, MAX_GRID_RESOLUTION, AngleTriple, grid_blocks, q_plus_points, singlet_correlation,
)
from bellband.f4 import Violation
from lattice import grid_points


def ref_band(t1, t2, t3):
    c1, c2, c3 = -math.cos(t1), -math.cos(t2), -math.cos(t3)
    r1 = 2.0 - abs(c1 + c2)
    r2 = 2.0 - abs(c1 - c2)
    lo = max(c3 - r1, -c3 - r2, -1.0)
    hi = min(c3 + r1, -c3 + r2, 1.0)
    if lo > hi:
        lo = hi = 0.5 * (lo + hi)
    return lo, hi


def where_collapsed(points):
    """The band kernel's endpoints settled by the rule its clamp replaced: a
    mask of crossed pairs and two np.where passes to their midpoints.
    Returns the number of crossed pairs and (lo, hi)."""
    pts = q_plus_points(points)
    c1, c2, c3 = (singlet_correlation(pts[..., k]) for k in range(3))
    r1 = 2.0 - np.abs(c1 + c2)
    r2 = 2.0 - np.abs(c1 - c2)
    lo = np.maximum(np.maximum(c3 - r1, -c3 - r2), -1.0)
    hi = np.minimum(np.minimum(c3 + r1, -c3 + r2), 1.0)
    collapsed = lo - hi > 0.0
    mid = 0.5 * (lo + hi)
    return np.count_nonzero(collapsed), np.where(collapsed, mid, lo), np.where(collapsed, mid, hi)


def corner_interpolation(candidate, points):
    """A grid candidate's values by the formula the flat gathers replaced:
    each of the eight corners indexed from the (r, r, r) nodes, and its
    weight built whole from the three axis weights, summed from zero in d1,
    d2, d3 order."""
    r = candidate.grid_resolution
    x = points / math.pi * (r - 1)
    i0 = np.clip(np.floor(x).astype(int), 0, r - 2)
    w = x - i0
    v = np.zeros(points.shape[:-1])
    for d in np.ndindex(2, 2, 2):
        node = candidate.grid_values[tuple(i0[..., k] + d[k] for k in range(3))]
        weight = (
            (w[..., 0] if d[0] else 1.0 - w[..., 0])
            * (w[..., 1] if d[1] else 1.0 - w[..., 1])
            * (w[..., 2] if d[2] else 1.0 - w[..., 2])
        )
        v += weight * node
    return v


def ref_axis(resolution):
    return np.linspace(0.0, math.pi, resolution).tolist()


def ref_lattice(resolution):
    """The lattice as one meshgrid, as grid_points built it before the walk."""
    axis = np.linspace(0.0, math.pi, resolution)
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)


def ref_band_map(resolution):
    rows = []
    axis = ref_axis(resolution)
    for t1 in axis:
        for t2 in axis:
            for t3 in axis:
                lo, hi = ref_band(t1, t2, t3)
                rows.append((t1, t2, t3, lo, hi, hi - lo))
    return np.array(rows)


def ref_value(candidate, t1, t2, t3):
    if candidate.kind == "locality":
        return -math.cos(t2 + t3 - t1)
    if candidate.kind == "product-diagonal" and t1 == t2 == t3:
        return -math.cos(t1)
    if candidate.kind in ("product", "product-diagonal"):
        return -math.cos(t1) * math.cos(t2) * math.cos(t3)
    # trilinear: the eight corners in d1, d2, d3 order
    r = candidate.grid_resolution
    x = [t / math.pi * (r - 1) for t in (t1, t2, t3)]
    i0 = [min(max(math.floor(xk), 0), r - 2) for xk in x]
    w = [xk - ik for xk, ik in zip(x, i0)]
    v = 0.0
    for d in itertools.product((0, 1), repeat=3):
        weight = 1.0
        for k in range(3):
            weight *= w[k] if d[k] else 1.0 - w[k]
        v += weight * candidate.grid_values[i0[0] + d[0], i0[1] + d[1], i0[2] + d[2]]
    return v


def ref_scan(candidate, resolution, tol=1e-9):
    violations = []
    axis = ref_axis(resolution)
    for t1 in axis:
        for t2 in axis:
            for t3 in axis:
                value = ref_value(candidate, t1, t2, t3)
                lo, hi = ref_band(t1, t2, t3)
                if not lo - tol <= value <= hi + tol:
                    violations.append(Violation((t1, t2, t3), "band", value, lo, hi))
                if t1 == t2 == t3:
                    forced = -math.cos(t1)
                    if abs(value - forced) > tol:
                        violations.append(Violation((t1, t2, t3), "diagonal", value, forced, forced))
    return violations


def old_product_values(kind, points):
    """The product builtins as values() computed them before the product
    kernel: three cosines a point, and the diagonal by np.where."""
    t1, t2, t3 = points[:, 0], points[:, 1], points[:, 2]
    c1 = singlet_correlation(t1)
    product = c1 * np.cos(t2) * np.cos(t3)
    if kind == "product-diagonal":
        return np.where((t1 == t2) & (t2 == t3), c1, product)
    return product


class Delegate:
    """A candidate with only values(), which the builtin answers: the scan
    reads it through values(points), not through the builtin's tables."""

    def __init__(self, candidate):
        self.name = candidate.name
        self.values = candidate.values


def whole_grid_scan(candidate, resolution, tol=1e-9):
    """The array scan as it was before it walked the grid in blocks: every
    array spans the whole grid."""
    points = grid_points(resolution)
    values = candidate.values(points)
    lo, hi = band_limits(points)
    forced = -np.cos(points[:, 0])
    band_bad = ~((lo - tol <= values) & (values <= hi + tol))
    on_diagonal = (points[:, 0] == points[:, 1]) & (points[:, 1] == points[:, 2])
    diagonal_bad = on_diagonal & (np.abs(values - forced) > tol)
    violations = []
    for k in np.flatnonzero(band_bad | diagonal_bad):
        theta, value = tuple(points[k].tolist()), float(values[k])
        if band_bad[k]:
            violations.append(Violation(theta, "band", value, float(lo[k]), float(hi[k])))
        if diagonal_bad[k]:
            violations.append(Violation(theta, "diagonal", value, float(forced[k]), float(forced[k])))
    return violations


def assert_plain_fields(violations):
    """Each Violation holds a tuple of three Python floats, one of the two
    kinds and three Python floats, as the per-node reference builds it."""
    for v in violations:
        assert type(v.theta) is tuple and len(v.theta) == 3
        assert v.kind in ("band", "diagonal")
        assert {type(x) for x in (*v.theta, v.value, v.lo, v.hi)} == {float}


def hex_rows(violations):
    """Violations with every float as its float.hex, so -0.0 and 0.0 differ."""
    return [
        (*map(float.hex, v.theta), v.kind, *map(float.hex, (v.value, v.lo, v.hi)))
        for v in violations
    ]


def ref_axis_residual(candidate, t, i, h=1e-4):
    """One axis's central difference at t*e_i, two points a call."""
    points = np.zeros((2, 3))
    points[:, i - 1] = (t - h, t + h)
    lo, hi = candidate.values(points)
    deriv = (hi - lo) / (2.0 * h)
    return float(abs(deriv - math.sin(t)))


def ref_cross_probe(candidate, i, j):
    """One pair's cross coefficient c_ij, one evaluation and one solve a pair."""
    ks, x = f4._CROSS_KS, f4._STEP
    steps = np.zeros((3, ks.size, 3))
    steps[[0, 1], :, i] = x
    steps[[0, 2], :, j] = ks * x
    values = candidate.values(np.vstack([steps.reshape(-1, 3), np.zeros(3)]))
    f_ij, f_i, f_j = values[:-1].reshape(3, ks.size)
    estimates = (f_ij - f_i - f_j + values[-1]) / (ks * x * x)
    design = np.column_stack([np.ones(ks.size), ks])
    coef, *_ = np.linalg.lstsq(design, estimates, rcond=None)
    return float(coef[0])


def fuzzed_grid(resolution, seed):
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, resolution ** 3)
    return F4Candidate.from_grid(resolution, values, name=f"fuzz-{seed}")


def tabulated_product(resolution):
    values = F4Candidate.builtin("product").values(grid_points(resolution))
    return F4Candidate.from_grid(resolution, values, name=f"product-{resolution}")


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


#: traced bytes a walk over a grid may hold beside its output: one block's
#: points and kernel temporaries, about 80-90 bytes a node
BLOCK_BYTES = 128 * GRID_BLOCK


# components that hit the edges of the cube, where correlations are +-1 and
# the band collapses to a point
EDGES = (0.0, math.pi, 1e-300, 5e-324, math.pi / 2, 3.141551328082391, math.nextafter(math.pi, 0))
cube_angle = st.one_of(st.sampled_from(EDGES), st.floats(0.0, math.pi, allow_nan=False))
triples = st.tuples(cube_angle, cube_angle, cube_angle)
# components within 1e-9 of 0 or pi, or anywhere: rounding crosses the
# endpoints at some triples with two components on the edges
near_edge = st.one_of(st.floats(0.0, 1e-9), st.floats(math.pi - 1e-9, math.pi), cube_angle)
# a node of the r = 25 lattice where the endpoints cross by one ulp
CROSSED = (0.0, float(np.linspace(0.0, math.pi, 25)[11]), 0.0)

CANDIDATES = [F4Candidate.builtin(kind) for kind in f4.BUILTIN_KINDS] + [fuzzed_grid(6, 3)]
# the report's probes: coarse grids put the stencil points in one cell or across several
PROBE_CANDIDATES = [
    *CANDIDATES[:3],
    *(fuzzed_grid(r, r) for r in (2, 3, 10)),
    *(tabulated_product(r) for r in (2, 3, 10)),
]


def sample_points():
    rng = np.random.default_rng(21)
    points = rng.uniform(0.0, math.pi, (500, 3))
    points[:50, 1:] = points[:50, :1]  # exact diagonal
    points[50:100] = rng.choice(EDGES, (50, 3))
    return np.vstack([points, grid_points(7)])


class TestBandKernel:
    def test_band_map_rows_match_reference(self):
        assert bits(band_map(25)) == bits(ref_band_map(25))

    # up to r = 25 the grid is one block; above it a block of whole theta3-rows
    # mostly ends part-way through a theta1-plane, and the last block is short
    # at 127 and 129, while at 128 each block is one plane
    @pytest.mark.parametrize("resolution", [*range(2, 61), 127, 128, 129])
    def test_band_map_is_the_lattice_and_its_band_limits(self, resolution):
        points = grid_points(resolution)
        assert bits(points) == bits(ref_lattice(resolution))
        lo, hi = band_limits(points)
        assert bits(band_map(resolution)) == bits(np.column_stack([points, lo, hi, hi - lo]))

    @given(st.lists(triples, min_size=1, max_size=20))
    def test_band_limits_match_reference(self, points):
        lo, hi = band_limits(points)
        ref = [ref_band(*t) for t in points]
        assert bits(lo) == bits([r[0] for r in ref])
        assert bits(hi) == bits([r[1] for r in ref])

    @staticmethod
    def assert_clamp_matches_the_where_collapse(points):
        """band_limits gives the bits of where_collapsed; returns the number
        of crossed pairs the input holds."""
        crossed, *want = where_collapsed(points)
        for got, ref in zip(band_limits(points), want):
            np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))
        return crossed

    @pytest.mark.parametrize("resolution", [25, 101])
    def test_clamp_matches_the_where_collapse_on_lattices(self, resolution):
        # the lattice holds crossed pairs, so it exercises the clamp
        assert self.assert_clamp_matches_the_where_collapse(grid_points(resolution)) > 0

    @given(st.lists(st.tuples(near_edge, near_edge, near_edge), min_size=1, max_size=20))
    @example([CROSSED])
    def test_clamp_matches_the_where_collapse_near_edges(self, points):
        self.assert_clamp_matches_the_where_collapse(points)

    def test_band_map_memory_stays_near_its_output(self):
        # the table and one block
        for resolution in (50, 100):
            tracemalloc.start()
            try:
                rows = band_map(resolution)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= rows.nbytes + BLOCK_BYTES, resolution

    def test_band_limits_keep_leading_shape(self):
        points = grid_points(4).reshape(4, 16, 3)
        lo, hi = band_limits(points)
        assert lo.shape == hi.shape == (4, 16)
        assert bits(lo.ravel()) == bits(band_limits(grid_points(4))[0])


class TestCandidateKernel:
    @pytest.mark.parametrize("candidate", CANDIDATES, ids=lambda c: c.name)
    def test_values_match_reference(self, candidate):
        points = sample_points()
        ref = [ref_value(candidate, *p) for p in points.tolist()]
        assert bits(candidate.values(points)) == bits(ref)

    @pytest.mark.parametrize("resolution", [2, 3, 7, 10])
    def test_interpolation_matches_the_corner_formula(self, resolution):
        rng = np.random.default_rng(resolution)
        # nodes of +-0.0 too, whose signs the sum from zero settles
        values = rng.uniform(-1.0, 1.0, resolution ** 3)
        zero = rng.random(values.size) < 0.25
        values[zero] = rng.choice([0.0, -0.0], np.count_nonzero(zero))
        candidate = F4Candidate.from_grid(resolution, values)
        points = rng.uniform(0.0, math.pi, (3000, 3))
        # the first 1000 on the faces of the cube: one component 0 or pi
        points[np.arange(1000), rng.integers(0, 3, 1000)] = rng.choice([0.0, math.pi], 1000)
        points = np.vstack([points, sample_points(), grid_points(resolution)])
        assert bits(candidate.values(points)) == bits(corner_interpolation(candidate, points))

    @pytest.mark.parametrize("candidate", CANDIDATES, ids=lambda c: c.name)
    def test_scan_matches_reference(self, candidate):
        found = inequality_scan(candidate, 15)
        assert found == ref_scan(candidate, 15)
        assert_plain_fields(found)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.float64])
    def test_scan_fields_are_python_floats_for_any_dtype(self, dtype):
        class Cast:
            name = "cast"

            def values(self, points):
                return F4Candidate.builtin("locality").values(points).astype(dtype)

        found = inequality_scan(Cast(), 9)
        assert found
        assert_plain_fields(found)
        assert hex_rows(found) == hex_rows(whole_grid_scan(Cast(), 9))

    # 25^3 nodes are one block of the scan and 26^3 are two; at 81 the last
    # block ends part-way through the grid, and at 128 a block is a theta1-plane.
    # locality and the fuzzed grid break the band at most nodes (1.4 and 1.1
    # million Violations at 128, 23 s and 0.8 GB for locality), so they stop at 81
    @pytest.mark.parametrize("candidate,resolution", [
        pytest.param(c, r, id=f"{c.name}-{r}")
        for r in (2, 25, 26, 50, 81, 128) for c in CANDIDATES
        if r < 128 or c.kind in ("product", "product-diagonal")
    ])
    def test_scan_matches_the_whole_grid_scan(self, candidate, resolution):
        blocks = inequality_scan(candidate, resolution)
        whole = whole_grid_scan(candidate, resolution)
        assert len(blocks) == len(whole)
        # row by row, so the hex text of at most two violations is held at once
        for got, want in zip(blocks, whole):
            assert hex_rows([got]) == hex_rows([want])

    # up to r = 25 the lattice is one block of the walk; 50 and 129 are several
    @pytest.mark.parametrize("kind", ["product", "product-diagonal"])
    @pytest.mark.parametrize("resolution", [*range(2, 31), 50, 129])
    def test_product_kernel_keeps_the_old_formula(self, kind, resolution):
        candidate = F4Candidate.builtin(kind)
        for _, points, (c1, c2, c3) in grid_blocks(resolution):
            want = bits(old_product_values(kind, points))
            assert bits(candidate.values(points)) == want
            shape = (len(c1), len(c3))
            on_diagonal = ((points[:, 0] == points[:, 1])
                           & (points[:, 1] == points[:, 2])).reshape(shape)
            got = candidate._lattice_values(c1, c2, c3, on_diagonal)
            assert got.shape == shape and bits(got) == want

    @pytest.mark.parametrize("candidate", CANDIDATES, ids=lambda c: c.name)
    def test_only_the_product_builtins_read_the_tables(self, candidate):
        _, _, c = next(grid_blocks(5))
        on_diagonal = np.zeros((len(c[0]), 5), dtype=bool)
        got = candidate._lattice_values(*c, on_diagonal)
        assert (got is None) == (candidate.kind in ("locality", "grid"))

    # the hook and the values() fallback give the scan the same arrays
    @pytest.mark.parametrize("kind", f4.BUILTIN_KINDS)
    @pytest.mark.parametrize("resolution", [2, 7, 25, 26, 50])
    def test_scan_of_a_candidate_without_the_hook_has_the_same_bits(self, kind, resolution):
        builtin = F4Candidate.builtin(kind)
        want_rows, want_kinds = f4._violations(builtin, resolution)
        got_rows, got_kinds = f4._violations(Delegate(builtin), resolution)
        assert [bits(a) for a in got_rows] == [bits(a) for a in want_rows]
        assert [a.tobytes() for a in got_kinds] == [a.tobytes() for a in want_kinds]
        assert all(len(a) for a in want_rows)

    def test_scan_holds_its_violations_once(self):
        # locality breaks the band at 275,840 of the 75^3 nodes: 12.9 MiB of
        # rows and int8 codes, 14.6 MiB traced (32.7 MiB for 14.7 MiB when
        # the blocks were joined and each code array held the node indices)
        tracemalloc.start()
        try:
            rows, kinds = f4._violations(F4Candidate.builtin("locality"), 75)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * sum(a.nbytes for a in (*rows, *kinds))

    def test_scan_memory_stays_near_the_lattice(self):
        # one block, whatever the resolution: product-diagonal breaks nothing
        for resolution in (100, 150):
            tracemalloc.start()
            try:
                inequality_scan(F4Candidate.builtin("product-diagonal"), resolution)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= BLOCK_BYTES, resolution

    @pytest.mark.parametrize("candidate", CANDIDATES, ids=lambda c: c.name)
    def test_batched_probes_match_pointwise_evaluation(self, candidate):
        class Pointwise:
            name = candidate.name

            def values(self, points):
                return np.array([candidate.evaluate(AngleTriple(*p)) for p in points], dtype=float)

        batched = dataclasses.asdict(f4.contradiction_report(candidate, seed=3))
        pointwise = dataclasses.asdict(f4.contradiction_report(Pointwise(), seed=3))
        batched.pop("disclaimer")
        pointwise.pop("disclaimer")
        assert batched == pointwise

    @pytest.mark.parametrize("candidate", PROBE_CANDIDATES, ids=lambda c: c.name)
    def test_axis_residuals_match_one_axis_at_a_time(self, candidate):
        for t in [math.pi / 4, *np.linspace(0.011, math.pi - 0.011, 30).tolist()]:
            for h in (1e-4, 1e-2):
                ref = [ref_axis_residual(candidate, t, i, h) for i in (1, 2, 3)]
                assert bits(f4.axis_derivative_check(candidate, t, h)) == bits(ref), (t, h)

    @pytest.mark.parametrize("candidate", PROBE_CANDIDATES, ids=lambda c: c.name)
    def test_cross_coeffs_match_one_pair_at_a_time(self, candidate):
        ref = [ref_cross_probe(candidate, i, j) for i, j in ((0, 1), (0, 2), (1, 2))]
        assert bits(f4._cross_coeffs(candidate)) == bits(ref)

    def test_row_norms_match_linalg_norm(self):
        rows = np.random.default_rng(8).random((2000, 3))
        ref = [np.linalg.norm(row) for row in rows]
        assert bits(f4._norms(rows)) == bits(ref)


class TestValidation:
    @pytest.mark.parametrize(
        "points",
        [[math.nan, 0.0, 0.0], [-0.1, 0.0, 0.0], [0.0, math.pi + 1e-12, 0.0],
         [[0.0, 0.0, math.inf]]],
    )
    def test_rejects_points_outside_the_cube(self, points):
        with pytest.raises(DomainError):
            q_plus_points(points)

    @pytest.mark.parametrize("first,second", [
        ((0.5, math.nan, 0.5), (0.5, 0.5, -0.25)),
        ((4.0, 0.5, 0.5), (0.5, 0.5, math.nan)),
    ])
    def test_names_the_first_bad_triple_in_c_order(self, first, second):
        points = np.full((2, 3, 3), 0.5)
        points[0, 2], points[1, 0] = first, second
        message = f"triple {first} lies outside the positive cube [0, pi]^3"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            q_plus_points(points)

    @pytest.mark.parametrize("points", [0.5, [0.0, 0.0], np.zeros((4, 2)), np.zeros((3, 0))])
    def test_rejects_wrong_shapes(self, points):
        with pytest.raises(ShapeError):
            q_plus_points(points)

    def test_kernels_validate(self):
        with pytest.raises(DomainError):
            band_limits([[0.0, -1.0, 0.0]])
        with pytest.raises(ShapeError):
            F4Candidate.builtin("product").values(np.zeros((5, 2)))

    @pytest.mark.parametrize("resolution", [1, MAX_GRID_RESOLUTION + 1])
    def test_grid_resolution_bounds(self, resolution):
        with pytest.raises(DomainError):
            grid_points(resolution)

    def test_grid_points_are_theta1_major(self):
        points = grid_points(3)
        axis = np.linspace(0.0, math.pi, 3)
        assert bits(points) == bits(list(itertools.product(axis, repeat=3)))
