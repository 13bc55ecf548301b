"""Gridding, gridding reverse and feature sampling, with their adjoints."""

import numpy as np
import pytest

from pointcarve import (
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
from pointcarve.gridding import _reverse_select

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
        np.testing.assert_allclose(out.features[0], values[1, 2, 0], atol=1e-12)

    def test_cell_center_is_corner_mean(self, rng, unit_range):
        values = rng.random((*RES, 3))
        grid = FeatureGrid(values, unit_range)
        center = np.array([[0.5, 0.5, 0.5]])  # center of cell (1,1,1)
        out = feature_sample(grid, PointCloud(center))
        expected = values[1:3, 1:3, 1:3].reshape(8, 3).mean(axis=0)
        np.testing.assert_allclose(out.features[0], expected, atol=1e-12)

    def test_constant_grid_constant_output(self, rng, unit_range):
        values = np.full((*RES, 2), 3.25)
        out = feature_sample(FeatureGrid(values, unit_range), random_cloud(rng, 40))
        np.testing.assert_allclose(out.features, 3.25, atol=1e-12)


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
        assert grad[1, 0, 0, 0] == pytest.approx(1.0)
        assert np.sum(np.abs(grad)) == pytest.approx(1.0)

    def test_matches_finite_differences(self):
        result = check_feature_sample(seed=42, instances=5)
        assert result.passed, f"max rel err {result.max_rel_err}"

    def test_shape_mismatch_errors(self, rng, unit_range):
        grid = FeatureGrid(rng.random((*RES, 4)), unit_range)
        with pytest.raises(ValueError, match="upstream"):
            feature_sample_grad(grid, random_cloud(rng, 10), np.zeros((10, 3)))
