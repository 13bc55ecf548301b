"""Cell-wise convolution, the kernel predictor and the engrave composition."""

import numpy as np
import pytest
import scipy.ndimage

from pointcarve import (
    CarveModelConfig,
    CarveModelParams,
    KernelField,
    PointCloud,
    VoxelGrid,
    build_point_block,
    cell_conv,
    cell_conv_grads,
    compute_bounds,
    engrave,
    gridding,
    gridding_reverse,
    predict_kernels,
)
from pointcarve.carving import kernel_offsets
from pointcarve.gradcheck import check_cell_conv

from conftest import random_cloud


def brute_force_cell_conv(grid: np.ndarray, kern: np.ndarray, K: int) -> np.ndarray:
    """Triple-loop oracle: per-cell kernels applied with zero padding."""
    H, W, M = grid.shape
    r = K // 2
    out = np.zeros_like(grid)
    offsets = kernel_offsets(K)
    for i in range(H):
        for j in range(W):
            for k in range(M):
                acc = 0.0
                for idx, (dx, dy, dz) in enumerate(offsets):
                    x, y, z = i + dx, j + dy, k + dz
                    if 0 <= x < H and 0 <= y < W and 0 <= z < M:
                        acc += kern[i, j, k, idx] * grid[x, y, z]
                out[i, j, k] = acc
    return out


def identity_kernels(res, K=3) -> KernelField:
    values = np.zeros((*res, K**3))
    values[..., (K**3 - 1) // 2] = 1.0
    return KernelField(values, K)


class TestCellConv:
    def test_identity_kernels(self, rng, unit_range):
        g = rng.random((5, 5, 5))
        out = cell_conv(VoxelGrid(g, unit_range), identity_kernels((5, 5, 5)))
        np.testing.assert_array_equal(out.values, g)

    def test_zero_kernels(self, rng, unit_range):
        g = rng.random((4, 4, 4))
        out = cell_conv(VoxelGrid(g, unit_range), KernelField(np.zeros((4, 4, 4, 27)), 3))
        np.testing.assert_array_equal(out.values, 0.0)

    def test_matches_brute_force(self, rng, unit_range):
        for _ in range(5):
            g = rng.standard_normal((6, 6, 6))
            kern = rng.standard_normal((6, 6, 6, 27))
            out = cell_conv(VoxelGrid(g, unit_range), KernelField(kern, 3))
            expected = brute_force_cell_conv(g, kern, 3)
            np.testing.assert_allclose(out.values, expected, atol=1e-6)

    def test_constant_kernels_equal_shared_conv(self, rng, unit_range):
        g = rng.standard_normal((6, 6, 6))
        shared = rng.standard_normal(27)
        kern = np.broadcast_to(shared, (6, 6, 6, 27)).copy()
        out = cell_conv(VoxelGrid(g, unit_range), KernelField(kern, 3))
        reference = scipy.ndimage.correlate(
            g, shared.reshape(3, 3, 3), mode="constant", cval=0.0
        )
        np.testing.assert_allclose(out.values, reference, atol=1e-6)

    def test_linearity_in_grid(self, rng, unit_range):
        x = rng.standard_normal((5, 5, 5))
        y = rng.standard_normal((5, 5, 5))
        kern = KernelField(rng.standard_normal((5, 5, 5, 27)), 3)
        a, b = 1.7, -0.4
        left = cell_conv(VoxelGrid(a * x + b * y, unit_range), kern).values
        right = (
            a * cell_conv(VoxelGrid(x, unit_range), kern).values
            + b * cell_conv(VoxelGrid(y, unit_range), kern).values
        )
        np.testing.assert_allclose(left, right, atol=1e-9)

    def test_resolution_mismatch_errors(self, rng, unit_range):
        g = VoxelGrid(rng.random((4, 4, 4)), unit_range)
        with pytest.raises(ValueError, match="resolution"):
            cell_conv(g, KernelField(np.zeros((5, 5, 5, 27)), 3))


class TestCellConvGrads:
    def test_zero_upstream(self, rng, unit_range):
        g = VoxelGrid(rng.random((4, 4, 4)), unit_range)
        kern = KernelField(rng.random((4, 4, 4, 27)), 3)
        gg, gk = cell_conv_grads(g, kern, np.zeros((4, 4, 4)))
        np.testing.assert_array_equal(gg, 0.0)
        np.testing.assert_array_equal(gk, 0.0)

    def test_identity_kernel_adjoint(self, rng, unit_range):
        g = VoxelGrid(rng.random((4, 4, 4)), unit_range)
        upstream = rng.standard_normal((4, 4, 4))
        gg, _ = cell_conv_grads(g, identity_kernels((4, 4, 4)), upstream)
        np.testing.assert_allclose(gg, upstream, atol=1e-12)

    def test_matches_finite_differences(self):
        result = check_cell_conv(seed=42, instances=5)
        assert result.passed, f"max rel err {result.max_rel_err}"

    def test_shape_mismatch_errors(self, rng, unit_range):
        g = VoxelGrid(rng.random((4, 4, 4)), unit_range)
        kern = KernelField(rng.random((4, 4, 4, 27)), 3)
        with pytest.raises(ValueError, match="upstream"):
            cell_conv_grads(g, kern, np.zeros((5, 5, 5)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_kernel_grad_without_grid_grad(self, rng, unit_range, dtype):
        g = VoxelGrid(rng.standard_normal((5, 6, 7)).astype(dtype), unit_range)
        kern = KernelField(rng.standard_normal((5, 6, 7, 27)).astype(dtype), 3)
        upstream = rng.standard_normal((5, 6, 7)).astype(dtype)
        _, gk = cell_conv_grads(g, kern, upstream)
        skipped, gk_only = cell_conv_grads(g, kern, upstream, grid_grad=False)
        assert skipped is None
        assert gk_only.dtype == dtype and gk_only.shape == kern.values.shape
        np.testing.assert_array_equal(gk_only, gk)
        # Tap o of cell c is upstream(c) * grid(c + o), zero outside the grid.
        gp = np.pad(g.values, 1)
        for idx, (dx, dy, dz) in enumerate(kernel_offsets(3)):
            shifted = gp[1 + dx : 6 + dx, 1 + dy : 7 + dy, 1 + dz : 8 + dz]
            np.testing.assert_array_equal(gk[..., idx], upstream * shifted)


DESK = CarveModelConfig(
    resolution=(32, 32, 32), stages=3, base_width=8, kernel_size=3, feature_dim=32
)
TINY = CarveModelConfig(
    resolution=(8, 8, 8), stages=2, base_width=2, feature_dim=4,
    refine_widths=(8, 6), dtype="float64",
)


class TestPredictKernels:
    def test_desk_scale_output_shapes(self):
        params = CarveModelParams.initialize(DESK, seed=0)
        grid = VoxelGrid(
            np.zeros((32, 32, 32), dtype=np.float64), _range_unit()
        )
        kern, feat = predict_kernels(grid, params)
        assert kern.values.shape == (32, 32, 32, 27)
        assert feat.values.shape == (32, 32, 32, 32)

    def test_zero_grid_zero_heads_gives_bias(self, rng):
        params = CarveModelParams.initialize(TINY, seed=1)
        params.tensors["kernel_head.w"][:] = 0.0
        params.tensors["kernel_head.b"][:] = 0.25
        grid = VoxelGrid(np.zeros((8, 8, 8)), _range_unit())
        kern, _ = predict_kernels(grid, params)
        np.testing.assert_allclose(kern.values, 0.25, atol=1e-12)

    def test_deterministic_forward(self, rng):
        params = CarveModelParams.initialize(TINY, seed=2)
        grid = VoxelGrid(rng.random((8, 8, 8)), _range_unit())
        k1, f1 = predict_kernels(grid, params)
        k2, f2 = predict_kernels(grid, params)
        np.testing.assert_array_equal(k1.values, k2.values)
        np.testing.assert_array_equal(f1.values, f2.values)

    def test_resolution_mismatch_errors(self, rng):
        params = CarveModelParams.initialize(TINY, seed=0)
        grid = VoxelGrid(rng.random((16, 16, 16)), _range_unit())
        with pytest.raises(ValueError, match="resolution"):
            predict_kernels(grid, params)

    def test_indivisible_resolution_rejected_at_construction(self):
        with pytest.raises(ValueError, match="divisible"):
            CarveModelConfig(resolution=(12, 12, 12), stages=3)

    def test_order_invariance_end_to_end(self, rng):
        params = CarveModelParams.initialize(TINY, seed=3)
        cloud = random_cloud(rng, 50)
        perm = PointCloud(cloud.points[rng.permutation(50)])
        r = _range_unit()
        k1, _ = predict_kernels(gridding(cloud, (8, 8, 8), r), params)
        k2, _ = predict_kernels(gridding(perm, (8, 8, 8), r), params)
        np.testing.assert_allclose(k1.values, k2.values, atol=1e-12)


def _range_unit():
    from pointcarve import BoundingRange

    return BoundingRange(np.zeros(3), np.ones(3))


class TestEngrave:
    def test_composition_matches_manual_chain(self, rng):
        params = CarveModelParams.initialize(TINY, seed=4)
        partial = random_cloud(rng, 64)
        bounds = compute_bounds(partial, padding=0.1)
        block = build_point_block(partial, bounds, 4)
        coarse, feat = engrave(block, params, m=32)

        block_grid = gridding(PointCloud(block.all_points()), (8, 8, 8), bounds, np.float64)
        partial_grid = gridding(block.partial, (8, 8, 8), bounds, np.float64)
        kern, feat2 = predict_kernels(partial_grid, params)
        carved = cell_conv(block_grid, kern)
        coarse2 = gridding_reverse(carved, 32, 0.0)
        np.testing.assert_array_equal(coarse.points, coarse2.points)
        np.testing.assert_array_equal(feat.values, feat2.values)

    def test_exact_m_points(self, rng):
        params = CarveModelParams.initialize(TINY, seed=5)
        partial = random_cloud(rng, 100)
        block = build_point_block(partial, compute_bounds(partial, 0.05), 4)
        coarse, _ = engrave(block, params, m=77)
        assert len(coarse) == 77

    def test_untrained_model_finite(self, rng):
        params = CarveModelParams.initialize(TINY, seed=6)
        partial = random_cloud(rng, 32)
        block = build_point_block(partial, compute_bounds(partial, 0.05), 3)
        coarse, feat = engrave(block, params, m=16)
        assert np.all(np.isfinite(coarse.points))
        assert np.all(np.isfinite(feat.values))

    def test_deterministic(self, rng):
        params = CarveModelParams.initialize(TINY, seed=7)
        partial = random_cloud(rng, 48)
        block = build_point_block(partial, compute_bounds(partial, 0.05), 4)
        a, _ = engrave(block, params, m=24)
        b, _ = engrave(block, params, m=24)
        np.testing.assert_array_equal(a.points, b.points)


class TestParamsContainer:
    def test_flat_round_trip(self):
        params = CarveModelParams.initialize(TINY, seed=8)
        vec = params.flat()
        assert vec.size == params.param_count
        rebuilt = params.with_flat(vec)
        for name in params.tensors:
            np.testing.assert_array_equal(rebuilt.tensors[name], params.tensors[name])

    def test_wrong_flat_size_rejected(self):
        params = CarveModelParams.initialize(TINY, seed=8)
        with pytest.raises(ValueError):
            params.with_flat(np.zeros(3))

    def test_center_bias_identity_carve_at_init(self):
        params = CarveModelParams.initialize(TINY, seed=9)
        assert params.tensors["kernel_head.b"][13] == 1.0
