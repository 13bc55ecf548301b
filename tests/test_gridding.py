"""Gridding, gridding reverse and feature sampling, with their adjoints."""

import numpy as np
import pytest

from pointcarve import (
    BoundingRange,
    FeatureGrid,
    PointCloud,
    VoxelGrid,
    feature_sample,
    feature_sample_grad,
    gridding,
    gridding_reverse,
    gridding_reverse_grad,
)
from pointcarve.gradcheck import check_feature_sample, check_gridding_reverse
from pointcarve.gridding import (
    _CORNERS,
    _corner_at,
    _corner_table,
    _reverse_select,
    feature_sample_query_grad,
)

from conftest import random_cloud

RES = (4, 4, 4)


class TestGridding:
    def test_vertex_aligned_point(self, unit_range):
        # Vertex (1, 2, 3) of a 4^3 lattice over the unit cube.
        p = PointCloud(np.array([[1 / 3, 2 / 3, 1.0]]))
        grid = gridding(p, RES, unit_range)
        assert grid.values[1, 2, 3] == pytest.approx(1.0)
        assert grid.values.sum() == pytest.approx(1.0)

    def test_edge_midpoint_splits_half_half(self, unit_range):
        # Midpoint of the edge between vertices (0,0,0) and (1,0,0):
        # trilinear weights are 0.5 on each, 0 elsewhere.
        p = PointCloud(np.array([[1 / 6, 0.0, 0.0]]))
        grid = gridding(p, RES, unit_range)
        assert grid.values[0, 0, 0] == pytest.approx(0.5)
        assert grid.values[1, 0, 0] == pytest.approx(0.5)
        assert grid.values.sum() == pytest.approx(1.0)

    def test_mass_equals_point_count(self, rng, unit_range):
        cloud = random_cloud(rng, 377)
        grid = gridding(cloud, (5, 6, 7), unit_range)
        assert grid.values.sum() == pytest.approx(377.0)

    def test_permutation_invariant(self, rng, unit_range):
        cloud = random_cloud(rng, 64)
        perm = PointCloud(cloud.points[rng.permutation(64)])
        a = gridding(cloud, RES, unit_range)
        b = gridding(perm, RES, unit_range)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_out_of_range_clamped(self, unit_range):
        cloud = PointCloud(np.array([[2.0, 0.5, 0.5]]))
        grid = gridding(cloud, RES, unit_range)
        assert grid.values.sum() == pytest.approx(1.0)

    def test_rejects_small_resolution(self, unit_range):
        with pytest.raises(ValueError):
            gridding(PointCloud.empty(), (1, 4, 4), unit_range)

    def test_partition_of_unity_weights(self, rng, unit_range):
        # Any in-range point contributes exactly unit mass.
        for _ in range(20):
            cloud = PointCloud(rng.random((1, 3)))
            grid = gridding(cloud, (3, 5, 4), unit_range)
            assert grid.values.sum() == pytest.approx(1.0, abs=1e-12)


class TestGriddingReverse:
    def test_uniform_cell_emits_center(self, unit_range):
        values = np.zeros(RES)
        values[1:3, 1:3, 1:3] = 2.0  # cell (1,1,1): all 8 vertices equal
        cloud = gridding_reverse(VoxelGrid(values, unit_range), m=1)
        np.testing.assert_allclose(cloud.points[0], [0.5, 0.5, 0.5])

    def test_single_vertex_emits_vertex_position(self, unit_range):
        values = np.zeros(RES)
        values[1, 1, 1] = 1.0
        # Score-weighted centroid with one positive vertex is that vertex.
        cloud = gridding_reverse(VoxelGrid(values, unit_range), m=1, threshold=0.0)
        np.testing.assert_allclose(cloud.points[0], [1 / 3, 1 / 3, 1 / 3])

    def test_padding_to_m(self, unit_range):
        values = np.zeros(RES)
        values[1, 1, 1] = 1.0
        cloud = gridding_reverse(VoxelGrid(values, unit_range), m=10)
        assert len(cloud) == 10

    def test_all_below_threshold_errors(self, unit_range):
        with pytest.raises(ValueError, match="empty carve result"):
            gridding_reverse(VoxelGrid(np.zeros(RES), unit_range), m=4, threshold=0.5)

    def test_points_inside_source_cells(self, rng, unit_range):
        values = rng.random(RES)
        cloud = gridding_reverse(VoxelGrid(values, unit_range), m=27)
        cell = 1.0 / 3.0  # 4 vertices -> 3 cells per axis on the unit cube
        assert np.all(cloud.points >= 0.0) and np.all(cloud.points <= 1.0)
        # every emitted point lies within one cell's span of a lattice cell
        idx = np.floor(cloud.points / cell - 1e-12)
        frac = cloud.points / cell - idx
        assert np.all(frac <= 1.0 + 1e-9)

    def test_round_trip_within_cell_diagonal(self, unit_range):
        p = np.array([[1 / 3, 2 / 3, 1 / 3]])
        grid = gridding(PointCloud(p), RES, unit_range)
        back = gridding_reverse(grid, m=1, threshold=0.0)
        diagonal = np.linalg.norm(np.ones(3) / 3.0)
        assert np.linalg.norm(back.points[0] - p[0]) <= diagonal


def reference_reverse_select(values, m, threshold):
    """Corner-tensor + lexsort selection, kept as the oracle.

    Returns (sel, corner_w, centroids) like `_reverse_select`, with corner_w
    flattened to (n_sel, 8) in corner order dx*4 + dy*2 + dz.
    """
    H, W, M = values.shape
    w = np.maximum(values - threshold, 0.0)
    corners = np.empty((H - 1, W - 1, M - 1, 2, 2, 2), dtype=values.dtype)
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                corners[..., dx, dy, dz] = w[dx : dx + H - 1, dy : dy + W - 1, dz : dz + M - 1]
    total = corners.reshape(H - 1, W - 1, M - 1, 8).sum(axis=3)
    qual = np.argwhere(total > 0)
    if len(qual) == 0:
        raise ValueError("empty carve result")
    scores = total[qual[:, 0], qual[:, 1], qual[:, 2]]
    order = np.lexsort((qual[:, 2], qual[:, 1], qual[:, 0], -scores))
    sel = qual[np.sort(order[: min(m, len(order))])]
    corner_w = corners[sel[:, 0], sel[:, 1], sel[:, 2]].reshape(len(sel), 8)
    wsum = corner_w.sum(axis=1)
    frac = np.zeros((len(sel), 3), dtype=np.float64)
    for k in range(8):
        d = np.array([k >> 2, (k >> 1) & 1, k & 1], dtype=np.float64)
        frac += corner_w[:, k, None] * d
    frac /= wsum[:, None]
    return sel, corner_w, sel.astype(np.float64) + frac


def reference_reverse_grad(values, m, threshold, upstream, scale):
    """The adjoint on the oracle selection, scattered with np.add.at."""
    sel, corner_w, centroids = reference_reverse_select(values, m, threshold)
    n_sel = len(sel)
    up = np.zeros((n_sel, 3))
    np.add.at(up, np.arange(m) % n_sel, upstream)
    wsum = corner_w.sum(axis=1)
    grad = np.zeros_like(values)
    for k in range(8):
        corner = sel + np.array([k >> 2, (k >> 1) & 1, k & 1])
        diff = (corner.astype(np.float64) - centroids) * scale
        contrib = np.where(corner_w[:, k] > 0, (up * diff).sum(axis=1) / wsum, 0.0)
        np.add.at(grad, (corner[:, 0], corner[:, 1], corner[:, 2]), contrib)
    return grad


def oracle_grids(seed=99, count=120):
    """(values, m, threshold): tie-heavy integer grids, continuous grids and
    sparse grids, float32 and float64, with m below and above the number of
    qualifying cells (recycling)."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        shape = tuple(int(n) for n in rng.integers(2, 10, 3))
        dtype = (np.float32, np.float64)[t % 2]
        kind = (t // 2) % 3
        if kind == 0:
            values = rng.integers(-2, 3, shape)
        elif kind == 1:
            values = rng.standard_normal(shape)
        else:
            values = rng.random(shape) * (rng.random(shape) < 0.15)
        values = values.astype(dtype)
        values.flat[0] = 2.0  # at least one qualifying cell
        threshold = float(rng.choice([0.0, 0.5, 1.0, -0.25]))
        m = int(rng.integers(1, 2 * np.prod(shape)))
        yield values, m, threshold


class TestReverseSelectOracle:
    def test_cases_cover_ties_and_recycling(self):
        ties = recycled = truncated = 0
        for values, m, threshold in oracle_grids():
            sel, _, _ = reference_reverse_select(values, m, threshold)
            recycled += len(sel) < m
            truncated += len(sel) == m
            w = np.maximum(values - threshold, 0.0)
            ties += len(np.unique(w)) < w.size
        assert ties > 30 and recycled > 20 and truncated > 20

    def test_matches_corner_tensor_lexsort(self):
        for values, m, threshold in oracle_grids():
            sel, corner_w, centroids = _reverse_select(values, m, threshold)
            ref_sel, ref_w, ref_centroids = reference_reverse_select(values, m, threshold)
            np.testing.assert_array_equal(sel, ref_sel)
            assert corner_w.dtype == ref_w.dtype
            np.testing.assert_array_equal(corner_w, ref_w)
            np.testing.assert_array_equal(centroids, ref_centroids)

    def test_grad_matches_reference(self, unit_range):
        rng = np.random.default_rng(5)
        for values, m, threshold in oracle_grids(seed=7, count=60):
            upstream = rng.standard_normal((m, 3))
            grid = VoxelGrid(values, unit_range)
            grad = gridding_reverse_grad(grid, m, threshold, upstream)
            scale = unit_range.extent / (np.asarray(values.shape) - 1)
            ref = reference_reverse_grad(values.astype(np.float64), m, threshold, upstream, scale)
            assert grad.dtype == values.dtype
            np.testing.assert_array_equal(grad, ref.astype(values.dtype))


class TestGriddingReverseGrad:
    def test_zero_upstream(self, rng, unit_range):
        values = rng.random(RES) + 0.1
        grad = gridding_reverse_grad(VoxelGrid(values, unit_range), 27, 0.0, np.zeros((27, 3)))
        np.testing.assert_array_equal(grad, np.zeros(RES))

    def test_below_threshold_vertex_zero_grad(self, unit_range):
        values = np.zeros(RES)
        values[1, 1, 1] = 1.0
        values[2, 2, 2] = -0.5  # below threshold: exactly zero gradient
        grad = gridding_reverse_grad(
            VoxelGrid(values, unit_range), 27, 0.0, np.ones((27, 3))
        )
        assert grad[2, 2, 2] == 0.0

    def test_matches_finite_differences(self):
        result = check_gridding_reverse(seed=42, instances=5)
        assert result.passed, f"max rel err {result.max_rel_err}"

    def test_shape_mismatch_errors(self, unit_range):
        values = np.ones(RES)
        with pytest.raises(ValueError, match="upstream"):
            gridding_reverse_grad(VoxelGrid(values, unit_range), 5, 0.0, np.zeros((4, 3)))


class TestFeatureSample:
    def test_query_on_vertex(self, rng, unit_range):
        values = rng.random((*RES, 6))
        grid = FeatureGrid(values, unit_range)
        out = feature_sample(grid, PointCloud(np.array([[1 / 3, 2 / 3, 0.0]])))
        np.testing.assert_allclose(out[0], values[1, 2, 0], atol=1e-12)

    def test_cell_center_is_corner_mean(self, rng, unit_range):
        values = rng.random((*RES, 3))
        grid = FeatureGrid(values, unit_range)
        center = np.array([[0.5, 0.5, 0.5]])  # center of cell (1,1,1)
        out = feature_sample(grid, PointCloud(center))
        expected = values[1:3, 1:3, 1:3].reshape(8, 3).mean(axis=0)
        np.testing.assert_allclose(out[0], expected, atol=1e-12)

    def test_constant_grid_constant_output(self, rng, unit_range):
        values = np.full((*RES, 2), 3.25)
        out = feature_sample(FeatureGrid(values, unit_range), random_cloud(rng, 40))
        assert out.shape == (40, 2)
        np.testing.assert_allclose(out, 3.25, atol=1e-12)


class TestFeatureSampleGrad:
    def test_zero_upstream(self, rng, unit_range):
        grid = FeatureGrid(rng.random((*RES, 4)), unit_range)
        query = random_cloud(rng, 10)
        grad = feature_sample_grad(grid, query, np.zeros((10, 4)))
        np.testing.assert_array_equal(grad, 0.0)

    def test_vertex_delta(self, unit_range):
        grid = FeatureGrid(np.zeros((*RES, 2)), unit_range)
        query = PointCloud(np.array([[1 / 3, 0.0, 0.0]]))
        upstream = np.array([[1.0, 0.0]])
        grad = feature_sample_grad(grid, query, upstream)
        assert grad.shape == (*RES, 2)
        assert grad[1, 0, 0, 0] == pytest.approx(1.0)
        assert np.sum(np.abs(grad)) == pytest.approx(1.0)

    def test_grid_memory_layout_does_not_matter(self, rng, unit_range):
        values = rng.standard_normal((*RES, 3))
        query = random_cloud(rng, 7)
        upstream = rng.standard_normal((7, 3))
        want = feature_sample_grad(FeatureGrid(values, unit_range), query, upstream)
        assert np.abs(want).sum() > 0
        fortran = FeatureGrid(np.asfortranarray(values), unit_range)
        np.testing.assert_array_equal(feature_sample_grad(fortran, query, upstream), want)

    def test_matches_finite_differences(self):
        result = check_feature_sample(seed=42, instances=5)
        assert result.passed, f"max rel err {result.max_rel_err}"

    def test_shape_mismatch_errors(self, rng, unit_range):
        grid = FeatureGrid(rng.random((*RES, 4)), unit_range)
        with pytest.raises(ValueError, match="upstream"):
            feature_sample_grad(grid, random_cloud(rng, 10), np.zeros((10, 3)))


def padded_interior(values, pad=1):
    """`values` as the interior of a zero-padded buffer: a strided view, as
    the trunk is in the encoder-decoder's padded workspace."""
    buf = np.zeros(tuple(n + 2 * pad for n in values.shape[:3]) + values.shape[3:], values.dtype)
    inner = buf[pad:-pad, pad:-pad, pad:-pad]
    inner[...] = values
    return inner


class TestFeatureTable:
    """A FeatureGrid is an (H, W, M, F) array of any strides, read in place:
    a padded buffer's interior samples like a contiguous copy of it."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_table_gradient_is_dense_gradient_at_listed_voxels(self, rng, unit_range, dtype):
        # The gradient over a strided view is the contiguous grid's, a fresh
        # contiguous (H, W, M, F) array, zero at every vertex no query reads.
        res = (6, 5, 7)
        values = rng.standard_normal((*res, 3)).astype(dtype)
        dense, view = FeatureGrid(values, unit_range), FeatureGrid(padded_interior(values), unit_range)
        assert not view.values.flags.c_contiguous
        query = random_cloud(rng, 9, -0.1, 1.1)
        upstream = rng.standard_normal((9, 3)).astype(dtype)
        np.testing.assert_array_equal(feature_sample(view, query), feature_sample(dense, query))
        grad = feature_sample_grad(view, query, upstream)
        assert grad.shape == (*res, 3) and grad.dtype == dtype and grad.flags.c_contiguous
        np.testing.assert_array_equal(grad, feature_sample_grad(dense, query, upstream))
        read = np.zeros(res, dtype=bool)
        ijk = _corner_table(query.points, res, unit_range)[0]
        for k in range(8):
            read[_corner_at(ijk, k)] = True
        assert (~read).any()
        np.testing.assert_array_equal(grad[~read], 0.0)
        np.testing.assert_array_equal(feature_sample_query_grad(view, query, upstream),
                                      feature_sample_query_grad(dense, query, upstream))

    @pytest.mark.parametrize("strided", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_per_corner_reads_equal_the_gather_form(self, rng, unit_range, dtype, strided):
        # Sampling reads one corner's rows at a time; the reference gathers
        # all 8 into an (N, 8, F) block first. Same adds, same order: equal
        # bit for bit, values and query gradients, whatever the strides.
        res = (6, 5, 7)
        values = rng.standard_normal((*res, 5)).astype(dtype)
        features = FeatureGrid(padded_interior(values) if strided else values, unit_range)
        query = random_cloud(rng, 60, -0.1, 1.1)
        upstream = rng.standard_normal((60, 5))
        ijk, w, (wx, wy, wz) = _corner_table(query.points, res, unit_range)
        vals = np.stack([values[_corner_at(ijk, k)] for k in range(8)], axis=1)
        ref = np.zeros((60, 5), dtype)
        for k in range(8):
            ref += w[:, k, None] * vals[:, k]
        np.testing.assert_array_equal(feature_sample(features, query), ref)

        du = (np.asarray(res) - 1) / unit_range.extent
        pts = query.points
        active = ((pts >= unit_range.lo) & (pts <= unit_range.hi)).astype(np.float64)
        sign = (-1.0, 1.0)
        ref_grad = np.zeros_like(pts)
        for k, (dx, dy, dz) in enumerate(_CORNERS):
            g = (upstream * vals[:, k]).sum(axis=1)
            ref_grad[:, 0] += g * sign[dx] * wy[dy] * wz[dz] * du[0]
            ref_grad[:, 1] += g * wx[dx] * sign[dy] * wz[dz] * du[1]
            ref_grad[:, 2] += g * wx[dx] * wy[dy] * sign[dz] * du[2]
        np.testing.assert_array_equal(
            feature_sample_query_grad(features, query, upstream), ref_grad * active
        )

    def test_table_construction_checks(self, rng, unit_range):
        for shape in ((3, 2), (4, 4, 4)):
            with pytest.raises(ValueError, match="must be 4D"):
                FeatureGrid(np.zeros(shape), unit_range)
        values = padded_interior(rng.standard_normal((*RES, 2)))
        grid = FeatureGrid(values, unit_range)
        assert grid.values is values
        assert grid.resolution == RES and grid.channels == 2


def reference_corners(points, res, range):
    """(vertex index triple, weight) per cell corner from the hand-nested
    loop over (dx, dy, dz), weights wx*wy*wz; kept as the oracle for the
    vectorized corner table."""
    res = np.asarray(res)
    u = (range.clamp(points) - range.lo) / range.extent * (res - 1)
    i0 = np.clip(np.floor(u).astype(np.int64), 0, res - 2)
    f = u - i0
    wx = (1.0 - f[:, 0], f[:, 0])
    wy = (1.0 - f[:, 1], f[:, 1])
    wz = (1.0 - f[:, 2], f[:, 2])
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                v = (i0[:, 0] + dx, i0[:, 1] + dy, i0[:, 2] + dz)
                yield (dx, dy, dz), v, wx[dx] * wy[dy] * wz[dz], (wx[dx], wy[dy], wz[dz])


def corner_cases(seed=11, count=80):
    """(points, features, range): random ranges and resolutions, float32 and
    float64 features, points up to 20 % past the range and on its faces."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        res = tuple(int(n) for n in rng.integers(2, 9, 3))
        lo = rng.uniform(-1.0, 0.0, 3)
        bounds = BoundingRange(lo, lo + rng.uniform(0.2, 2.0, 3))
        n = int(rng.integers(0, 200))
        points = bounds.lo + rng.uniform(-0.2, 1.2, (n, 3)) * bounds.extent
        face = rng.random((n, 3)) < 0.1
        points[face] = np.where(rng.random((n, 3)) < 0.5, bounds.lo, bounds.hi)[face]
        dtype = (np.float32, np.float64)[t % 2]
        channels = int(rng.integers(1, 6))
        features = FeatureGrid(rng.standard_normal(res + (channels,)).astype(dtype), bounds)
        yield points, features, bounds


class TestCornerTableOracle:
    def test_gridding_matches_corner_loop(self):
        for points, features, bounds in corner_cases():
            res = features.resolution
            flat = np.zeros(int(np.prod(res)))
            for _, v, w, _ in reference_corners(points, res, bounds):
                flat += np.bincount(np.ravel_multi_index(v, res), weights=w, minlength=flat.size)
            dtype = features.values.dtype
            got = gridding(PointCloud(points), res, bounds, dtype).values
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, flat.reshape(res).astype(dtype))

    def test_feature_sample_matches_corner_loop(self):
        for points, features, bounds in corner_cases():
            values = features.values
            ref = np.zeros((len(points), features.channels), values.dtype)
            for _, v, w, _ in reference_corners(points, features.resolution, bounds):
                ref += w[:, None] * values[v]
            got = feature_sample(features, PointCloud(points))
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)

    def test_sample_adjoints_match_corner_loop(self):
        rng = np.random.default_rng(3)
        for points, features, bounds in corner_cases(seed=12):
            upstream = rng.standard_normal((len(points), features.channels))
            values = features.values
            grid_upstream = upstream.astype(values.dtype)
            res = np.asarray(features.resolution)
            du = (res - 1) / bounds.extent
            active = ((points >= bounds.lo) & (points <= bounds.hi)).astype(np.float64)
            ref_grid = np.zeros_like(values)
            ref_query = np.zeros_like(points)
            for (dx, dy, dz), v, w, (wx, wy, wz) in reference_corners(points, res, bounds):
                np.add.at(ref_grid, v, (w[:, None] * grid_upstream).astype(ref_grid.dtype))
                g = (upstream * values[v]).sum(axis=1)
                sx, sy, sz = (2.0 * dx - 1.0, 2.0 * dy - 1.0, 2.0 * dz - 1.0)
                ref_query[:, 0] += g * sx * wy * wz * du[0]
                ref_query[:, 1] += g * wx * sy * wz * du[1]
                ref_query[:, 2] += g * wx * wy * sz * du[2]
            cloud = PointCloud(points)
            grad = feature_sample_grad(features, cloud, grid_upstream)
            np.testing.assert_array_equal(grad, ref_grid)
            np.testing.assert_array_equal(
                feature_sample_query_grad(features, cloud, upstream), ref_query * active
            )

