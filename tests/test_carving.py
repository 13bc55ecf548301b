"""Cell-wise convolution, the kernel predictor and the engrave composition."""

import importlib
import weakref

import numpy as np
import pytest
import scipy.ndimage

from pointcarve import (
    CarveModelConfig,
    CarveModelParams,
    PointCloud,
    VoxelGrid,
    build_point_block,
    cell_conv,
    cell_conv_grads,
    compute_bounds,
    engrave,
    engrave_grads,
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


def explicit_cell_conv(grid: VoxelGrid, kern: np.ndarray) -> VoxelGrid:
    """cell_conv with the (H, W, M, K^3) kernels `kern`: the identity head
    over them, whose taps reproduce `kern` exactly."""
    taps = kern.shape[-1]
    return cell_conv(grid, kern, np.eye(taps, dtype=kern.dtype), np.zeros(taps, kern.dtype))


class TestCellConv:
    def test_identity_kernels(self, rng, unit_range):
        g = rng.random((5, 5, 5))
        kern = np.zeros((5, 5, 5, 27))
        kern[..., 13] = 1.0
        out = explicit_cell_conv(VoxelGrid(g, unit_range), kern)
        np.testing.assert_array_equal(out.values, g)

    def test_zero_kernels(self, rng, unit_range):
        g = rng.random((4, 4, 4))
        out = explicit_cell_conv(VoxelGrid(g, unit_range), np.zeros((4, 4, 4, 27)))
        np.testing.assert_array_equal(out.values, 0.0)

    def test_matches_brute_force(self, rng, unit_range):
        for K in (1, 3, 5):
            for _ in range(5):
                g = rng.standard_normal((6, 6, 6))
                kern = rng.standard_normal((6, 6, 6, K**3))
                out = explicit_cell_conv(VoxelGrid(g, unit_range), kern)
                expected = brute_force_cell_conv(g, kern, K)
                np.testing.assert_allclose(out.values, expected, atol=1e-6)

    def test_constant_kernels_equal_shared_conv(self, rng, unit_range):
        g = rng.standard_normal((6, 6, 6))
        shared = rng.standard_normal(27)
        kern = np.broadcast_to(shared, (6, 6, 6, 27)).copy()
        out = explicit_cell_conv(VoxelGrid(g, unit_range), kern)
        reference = scipy.ndimage.correlate(
            g, shared.reshape(3, 3, 3), mode="constant", cval=0.0
        )
        np.testing.assert_allclose(out.values, reference, atol=1e-6)

    def test_linearity_in_grid(self, rng, unit_range):
        x = rng.standard_normal((5, 5, 5))
        y = rng.standard_normal((5, 5, 5))
        kern = rng.standard_normal((5, 5, 5, 27))
        a, b = 1.7, -0.4
        left = explicit_cell_conv(VoxelGrid(a * x + b * y, unit_range), kern).values
        right = (
            a * explicit_cell_conv(VoxelGrid(x, unit_range), kern).values
            + b * explicit_cell_conv(VoxelGrid(y, unit_range), kern).values
        )
        np.testing.assert_allclose(left, right, atol=1e-9)

    def test_resolution_mismatch_errors(self, rng, unit_range):
        g = VoxelGrid(rng.random((4, 4, 4)), unit_range)
        with pytest.raises(ValueError, match="resolution"):
            explicit_cell_conv(g, np.zeros((5, 5, 5, 27)))


def kernel_head(rng, res, channels=3, dtype=np.float64, K=3):
    """A random (trunk, w, b): a K^3 kernel head over a (*res, channels) trunk."""
    trunk = rng.standard_normal((*res, channels)).astype(dtype)
    w = rng.standard_normal((channels, K**3)).astype(dtype)
    return trunk, w, rng.standard_normal(K**3).astype(dtype)


def brute_force_head_grads(grid: np.ndarray, trunk: np.ndarray, w: np.ndarray,
                           upstream: np.ndarray, K: int = 3):
    """Reference (trunk, weight, bias) gradients: tap o of cell c gets
    upstream(c) * grid(c + o), zero outside the grid, and one whole-grid
    `nn.conv1_grads` maps those taps to the head."""
    from pointcarve import nn

    H, W, M = grid.shape
    r = K // 2
    gp = np.pad(grid, r)
    d_taps = np.stack([
        upstream * gp[r + dx : r + dx + H, r + dy : r + dy + W, r + dz : r + dz + M]
        for dx, dy, dz in kernel_offsets(K)
    ])
    return nn.conv1_grads(trunk, w, d_taps)


class TestCellConvGrads:
    def test_zero_upstream(self, rng, unit_range):
        g = VoxelGrid(rng.random((4, 4, 4)), unit_range)
        for grad in cell_conv_grads(g, *kernel_head(rng, (4, 4, 4)), np.zeros((4, 4, 4))):
            np.testing.assert_array_equal(grad, 0.0)

    def test_identity_kernel_adjoint(self, rng, unit_range):
        # An untrained model's head: zero weights and a center bias of 1 pass
        # the grid through, so only the center tap sees <upstream, grid>.
        g = VoxelGrid(rng.random((4, 5, 6)), unit_range)
        trunk = rng.standard_normal((4, 5, 6, 3))
        b = np.zeros(27)
        b[13] = 1.0
        head = (trunk, np.zeros((3, 27)), b)
        np.testing.assert_array_equal(cell_conv(g, *head).values, g.values)
        upstream = rng.standard_normal((4, 5, 6))
        d_trunk, d_w, d_b = cell_conv_grads(g, *head, upstream)
        np.testing.assert_array_equal(d_trunk, 0.0)
        assert d_b[13] == pytest.approx(np.sum(upstream * g.values), rel=1e-12)
        np.testing.assert_allclose(
            d_w[:, 13], np.einsum("hwmc,hwm->c", trunk, upstream * g.values), rtol=1e-12
        )

    def test_matches_finite_differences(self):
        result = check_cell_conv(seed=42, instances=5)
        assert result.passed, f"max rel err {result.max_rel_err}"

    def test_shape_mismatch_errors(self, rng, unit_range):
        g = VoxelGrid(rng.random((4, 4, 4)), unit_range)
        with pytest.raises(ValueError, match="upstream"):
            cell_conv_grads(g, *kernel_head(rng, (4, 4, 4)), np.zeros((5, 5, 5)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_head_grads_match_the_brute_force_taps(self, rng, unit_range, dtype):
        for K in (1, 3, 5):
            g = VoxelGrid(rng.standard_normal((5, 6, 7)).astype(dtype), unit_range)
            trunk, w, b = kernel_head(rng, (5, 6, 7), dtype=dtype, K=K)
            upstream = rng.standard_normal((5, 6, 7)).astype(dtype)
            got = cell_conv_grads(g, trunk, w, b, upstream)
            want = brute_force_head_grads(g.values, trunk, w, upstream, K)
            assert [a.shape for a in got] == [(5, 6, 7, 3), (3, K**3), (K**3,)]
            for a, ref in zip(got, want):
                assert a.dtype == dtype
                np.testing.assert_array_equal(a, ref)


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
        assert kern.shape == (32, 32, 32, 27)
        assert feat.values.shape == (32, 32, 32, 32) and feat.resolution == (32, 32, 32)

    def test_zero_grid_zero_heads_gives_bias(self, rng):
        params = CarveModelParams.initialize(TINY, seed=1)
        params.tensors["kernel_head.w"][:] = 0.0
        params.tensors["kernel_head.b"][:] = 0.25
        grid = VoxelGrid(np.zeros((8, 8, 8)), _range_unit())
        kern, _ = predict_kernels(grid, params)
        np.testing.assert_allclose(kern, 0.25, atol=1e-12)

    def test_deterministic_forward(self, rng):
        params = CarveModelParams.initialize(TINY, seed=2)
        grid = VoxelGrid(rng.random((8, 8, 8)), _range_unit())
        k1, f1 = predict_kernels(grid, params)
        k2, f2 = predict_kernels(grid, params)
        np.testing.assert_array_equal(k1, k2)
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
        np.testing.assert_allclose(k1, k2, atol=1e-12)


def _range_unit():
    from pointcarve import BoundingRange

    return BoundingRange(np.zeros(3), np.ones(3))


class TestEngrave:
    def test_composition_matches_manual_chain(self, rng):
        from pointcarve import feature_sample

        params = CarveModelParams.initialize(TINY, seed=4)
        partial = random_cloud(rng, 64)
        bounds = compute_bounds(partial, padding=0.1)
        block = build_point_block(partial, bounds, 4)
        result = engrave(block, params, 32)

        block_grid = gridding(PointCloud(block.all_points()), (8, 8, 8), bounds, np.float64)
        partial_grid = gridding(block.partial, (8, 8, 8), bounds, np.float64)
        kern, feat2 = predict_kernels(partial_grid, params)
        carved = explicit_cell_conv(block_grid, kern)
        coarse2 = gridding_reverse(carved, 32, 0.0)
        np.testing.assert_array_equal(result.coarse.points, coarse2.points)
        # The head after sampling, or sampled after the head: equal up to rounding.
        np.testing.assert_allclose(result.features, feature_sample(feat2, coarse2), rtol=1e-12)
        np.testing.assert_array_equal(result.block_grid.values, block_grid.values)
        np.testing.assert_array_equal(result.carved.values, carved.values)
        assert result.unet_cache is None

    def test_exact_m_points(self, rng):
        params = CarveModelParams.initialize(TINY, seed=5)
        partial = random_cloud(rng, 100)
        block = build_point_block(partial, compute_bounds(partial, 0.05), 4)
        assert len(engrave(block, params, 77).coarse) == 77

    def test_grads_need_the_kept_cache(self, rng):
        params = CarveModelParams.initialize(TINY, seed=5)
        partial = random_cloud(rng, 100)
        block = build_point_block(partial, compute_bounds(partial, 0.05), 4)
        result = engrave(block, params, 32, threshold=0.1)
        assert result.threshold == 0.1
        with pytest.raises(ValueError, match="keep_cache"):
            engrave_grads(result, params, np.zeros((32, 3)), np.zeros(result.features.shape))

    def test_grads_consume_the_kept_cache(self, rng):
        params = CarveModelParams.initialize(TINY, seed=5)
        partial = random_cloud(rng, 100)
        block = build_point_block(partial, compute_bounds(partial, 0.05), 4)
        result = engrave(block, params, 32, keep_cache=True)
        upstreams = np.ones((32, 3)), np.ones(result.features.shape)
        grads = engrave_grads(result, params, *upstreams)
        assert result.unet_cache is None
        assert set(grads) == {n for n in params.tensors if not n.startswith("refine")}
        with pytest.raises(ValueError, match="^engrave_grads needs an engrave run with keep_cache$"):
            engrave_grads(result, params, *upstreams)

    def test_untrained_model_finite(self, rng):
        params = CarveModelParams.initialize(TINY, seed=6)
        partial = random_cloud(rng, 32)
        block = build_point_block(partial, compute_bounds(partial, 0.05), 3)
        result = engrave(block, params, 16)
        assert np.all(np.isfinite(result.coarse.points))
        assert np.all(np.isfinite(result.features))

    def test_non_finite_features_rejected(self, rng):
        params = CarveModelParams.initialize(TINY, seed=6)
        params.tensors["feature_head.b"][1] = np.inf
        partial = random_cloud(rng, 32)
        block = build_point_block(partial, compute_bounds(partial, 0.05), 3)
        with pytest.raises(ValueError, match="feature head output contains non-finite values"):
            engrave(block, params, 16)

    def test_deterministic(self, rng):
        params = CarveModelParams.initialize(TINY, seed=7)
        partial = random_cloud(rng, 48)
        block = build_point_block(partial, compute_bounds(partial, 0.05), 4)
        a = engrave(block, params, 24).coarse
        b = engrave(block, params, 24).coarse
        np.testing.assert_array_equal(a.points, b.points)


def _run_config(preset):
    """desk, or the RunConfig of TINY."""
    from pointcarve import RunConfig

    if preset == "desk":
        return RunConfig.preset("desk")
    return RunConfig(grid_res=8, unet_stages=2, unet_base_width=2, feature_dim=4,
                     refine_widths=(8, 6), coarse_m=64, n_per_axis=4, dtype="float64")


class TestFeaturesAtSampledVoxels:
    """engrave runs the feature head only on the trunk sampled at the m
    coarse points."""

    @pytest.mark.parametrize("preset", ["tiny", "desk"])
    def test_matches_the_dense_reference_in_float64(self, preset):
        from pointcarve import feature_sample, refine
        from pointcarve.training import complete_cloud, make_block

        cfg = _run_config(preset).replace(dtype="float64")
        model = cfg.carve_config()
        params = CarveModelParams.initialize(model, 21)
        partial = random_cloud(np.random.default_rng(22), 300, -0.5, 0.5)
        bounds = compute_bounds(partial, cfg.bounds_padding_partial)
        block = make_block(partial, bounds, cfg)
        result = engrave(block, params, cfg.coarse_m, cfg.carve_threshold, keep_cache=False)

        # Reference: the head over every vertex, sampled at the coarse points.
        block_grid = gridding(
            PointCloud(block.all_points()), model.resolution, bounds, model.np_dtype
        )
        kern, dense_features = predict_kernels(
            gridding(block.partial, model.resolution, bounds, model.np_dtype), params
        )
        coarse = gridding_reverse(
            explicit_cell_conv(block_grid, kern), cfg.coarse_m, cfg.carve_threshold
        )
        want = feature_sample(dense_features, coarse)
        dense = refine(coarse, want, params.refine_layers)[0]

        np.testing.assert_array_equal(result.coarse.points, coarse.points)
        assert result.features.shape == (cfg.coarse_m, model.feature_dim)
        np.testing.assert_allclose(result.features, want, rtol=1e-12)
        got_coarse, got_dense = complete_cloud(partial, params, cfg)
        np.testing.assert_array_equal(got_coarse.points, coarse.points)
        np.testing.assert_allclose(got_dense.points, dense.points, rtol=1e-12)

    @pytest.mark.parametrize("preset", ["tiny", "desk"])
    def test_served_feature_head_reads_m_rows(self, preset, monkeypatch):
        from pointcarve import nn
        from pointcarve.training import make_block

        cfg = _run_config(preset)
        model = cfg.carve_config()
        params = CarveModelParams.initialize(model, 25)
        partial = random_cloud(np.random.default_rng(26), 300, -0.5, 0.5)
        block = make_block(partial, compute_bounds(partial, cfg.bounds_padding_partial), cfg)
        reads = []
        linear = nn.linear

        def counted(x, w, b, out=None):
            reads.append(x.shape)
            return linear(x, w, b, out)

        monkeypatch.setattr(nn, "linear", counted)
        engrave(block, params, cfg.coarse_m, cfg.carve_threshold)
        assert reads == [(cfg.coarse_m, model.base_width)]

    @pytest.mark.parametrize("preset", ["tiny", "desk"])
    def test_no_array_is_feature_grid_sized(self, preset):
        from pointcarve.training import forward_sample

        cfg = _run_config(preset)
        model = cfg.carve_config()
        params = CarveModelParams.initialize(model, 23)
        partial = random_cloud(np.random.default_rng(24), 300, -0.5, 0.5)
        bounds = compute_bounds(partial, cfg.bounds_padding_partial)
        grid_size = int(np.prod(model.resolution)) * model.feature_dim
        for keep_cache in (False, True):
            fwd = forward_sample(partial, bounds, params, cfg, keep_cache=keep_cache)
            arrays = _arrays(fwd)
            assert len(arrays) > 10
            assert [a.shape for a in arrays if a.size == grid_size] == []
            features = fwd.engrave.features
            assert features.shape == (cfg.coarse_m, model.feature_dim)
            if keep_cache:
                rows = fwd.engrave.unet_cache["rows"]
                assert rows.shape == (cfg.coarse_m, model.base_width)
                np.testing.assert_array_equal(fwd.refine_tape.acts[0][:, :-3], features)
            else:
                assert fwd.refine_tape is None


def _slab_planes(monkeypatch, resolution, planes):
    """Run kernel heads in slabs of `planes` x-planes; returns the slabs."""
    from pointcarve import carving

    H, W, M = resolution
    monkeypatch.setattr(carving, "KERNEL_SLAB_VOXELS", planes * W * M)
    return carving._slabs(H, W * M)


class TestKernelHeadInSlabs:
    """cell_conv evaluates the kernel head slab by slab; no whole field exists."""

    @pytest.mark.parametrize("preset", ["tiny", "desk"])
    def test_uneven_slabs_match_the_explicit_reference_bit_for_bit(self, preset, monkeypatch):
        from pointcarve import refine
        from pointcarve.training import complete_cloud, make_block

        cfg = _run_config(preset)
        model = cfg.carve_config()
        params = CarveModelParams.initialize(model, 31)
        partial = random_cloud(np.random.default_rng(32), 300, -0.5, 0.5)
        bounds = compute_bounds(partial, cfg.bounds_padding_partial)
        block = make_block(partial, bounds, cfg)

        # Reference: the whole explicit field, applied in one slab.
        _slab_planes(monkeypatch, model.resolution, model.resolution[0])
        block_grid = gridding(
            PointCloud(block.all_points()), model.resolution, bounds, model.np_dtype
        )
        kern, _ = predict_kernels(
            gridding(block.partial, model.resolution, bounds, model.np_dtype), params
        )
        carved = explicit_cell_conv(block_grid, kern)
        coarse = gridding_reverse(carved, cfg.coarse_m, cfg.carve_threshold)
        features = engrave(block, params, cfg.coarse_m, cfg.carve_threshold).features
        dense = refine(coarse, features, params.refine_layers)[0]

        slabs = _slab_planes(monkeypatch, model.resolution, 3)
        assert len(slabs) > 2 and slabs[-1][1] - slabs[-1][0] != 3
        for keep_cache in (False, True):
            result = engrave(block, params, cfg.coarse_m, cfg.carve_threshold, keep_cache)
            np.testing.assert_array_equal(result.carved.values, carved.values)
        np.testing.assert_array_equal(explicit_cell_conv(block_grid, kern).values, carved.values)
        got_coarse, got_dense = complete_cloud(partial, params, cfg)
        np.testing.assert_array_equal(got_coarse.points, coarse.points)
        np.testing.assert_array_equal(got_dense.points, dense.points)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_end_to_end_gradient_across_slabs(self, seed, monkeypatch):
        from pointcarve.gradcheck import check_end_to_end

        assert len(_slab_planes(monkeypatch, (8, 8, 8), 3)) == 3
        result = check_end_to_end(seed)
        assert result.passed, f"max rel err {result.max_rel_err}"

    @pytest.mark.parametrize("in_slabs", [False, True])
    def test_head_gradients_match_the_whole_grid_chain(self, in_slabs, monkeypatch):
        from pointcarve import carving
        from pointcarve import nn

        rng = np.random.default_rng(33)
        trunk = nn.padded((7, 5, 6, 4), np.float64)
        trunk[...] = rng.standard_normal(trunk.shape)
        w, b = rng.standard_normal((4, 27)), rng.standard_normal(27)
        grid = VoxelGrid(rng.random((7, 5, 6)), _range_unit())
        upstream = rng.standard_normal((7, 5, 6))
        d_trunk_ref, d_w_ref, d_b_ref = brute_force_head_grads(grid.values, trunk, w, upstream)

        if in_slabs:
            assert len(_slab_planes(monkeypatch, (7, 5, 6), 3)) == 3
        else:
            assert len(carving._slabs(7, 5 * 6)) == 1
        explicit = np.moveaxis(nn.conv1(trunk, w, b), 0, -1)
        np.testing.assert_array_equal(
            cell_conv(grid, trunk, w, b).values, explicit_cell_conv(grid, explicit).values
        )
        d_trunk, d_w, d_b = cell_conv_grads(grid, trunk, w, b, upstream)
        np.testing.assert_array_equal(d_trunk, d_trunk_ref)
        np.testing.assert_allclose(d_w, d_w_ref, rtol=1e-12)
        np.testing.assert_allclose(d_b, d_b_ref, rtol=1e-12)

    def test_non_finite_slab_rejected(self, monkeypatch):
        rng = np.random.default_rng(34)
        trunk = rng.standard_normal((6, 4, 4, 2))
        trunk[5, 0, 0, 0] = np.inf  # in the last of three slabs
        w = rng.standard_normal((2, 27))
        _slab_planes(monkeypatch, (6, 4, 4), 2)
        grid = VoxelGrid(rng.random((6, 4, 4)), _range_unit())
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite values"):
            cell_conv(grid, trunk, w, np.zeros(27))

    @pytest.mark.parametrize("grads", [False, True])
    def test_head_that_is_no_odd_cube_or_off_grid_is_rejected(self, rng, grads):
        grid = VoxelGrid(rng.random((4, 4, 4)), _range_unit())

        def carve(trunk, w, b):
            if grads:
                return cell_conv_grads(grid, trunk, w, b, np.zeros((4, 4, 4)))
            return cell_conv(grid, trunk, w, b)

        trunk = rng.random((4, 4, 4, 2))
        for taps in (8, 26, 2):
            with pytest.raises(ValueError, match="does not map trunk"):
                carve(trunk, rng.random((2, taps)), np.zeros(taps))
        with pytest.raises(ValueError, match="does not map trunk"):
            carve(trunk, rng.random((3, 27)), np.zeros(27))  # w's rows are not C
        with pytest.raises(ValueError, match="does not map trunk"):
            carve(trunk, rng.random((2, 27)), np.zeros(26))  # nor b's width w's
        with pytest.raises(ValueError, match="trunk resolution .* grid resolution"):
            carve(rng.random((4, 5, 4, 2)), rng.random((2, 27)), np.zeros(27))

    def test_kernel_size_5_runs_end_to_end(self):
        from pointcarve.training import complete_cloud, loss_and_grads_sample

        cfg = _run_config("tiny").replace(kernel_size=5)
        params = CarveModelParams.initialize(cfg.carve_config(), 37)
        gt = random_cloud(np.random.default_rng(38), 200, -0.5, 0.5)
        partial = PointCloud(gt.points[:100])
        coarse, dense = complete_cloud(partial, params, cfg)
        assert len(coarse) == cfg.coarse_m and np.all(np.isfinite(dense.points))
        step = loss_and_grads_sample(partial, gt, params, cfg, aug_seed=1)
        assert np.isfinite(step.loss.total)
        assert step.grads["kernel_head.w"].shape == (cfg.unet_base_width, 125)
        assert np.any(step.grads["kernel_head.w"] != 0)

    @pytest.mark.parametrize("preset", ["tiny", "desk"])
    def test_no_array_is_kernel_field_sized(self, preset):
        from pointcarve.training import forward_sample

        cfg = _run_config(preset)
        model = cfg.carve_config()
        params = CarveModelParams.initialize(model, 35)
        partial = random_cloud(np.random.default_rng(36), 300, -0.5, 0.5)
        bounds = compute_bounds(partial, cfg.bounds_padding_partial)
        field_size = int(np.prod(model.resolution)) * model.kernel_size**3
        for keep_cache in (False, True):
            arrays = _arrays(forward_sample(partial, bounds, params, cfg, keep_cache=keep_cache))
            assert len(arrays) > 10
            assert [a.shape for a in arrays if a.size == field_size] == []

    def test_heads_see_one_slab_at_a_time(self, monkeypatch):
        from pointcarve import carving, nn
        from pointcarve.training import complete_cloud, loss_and_grads_sample

        cfg = _run_config("desk")
        params = CarveModelParams.initialize(cfg.carve_config(), 37)
        gt = random_cloud(np.random.default_rng(38), 600, -0.5, 0.5)
        partial = PointCloud(gt.points[gt.points[:, 0] < 0.1])
        seen, outputs = [], []

        def spy(fn):
            def wrapper(x, *args, **kwargs):
                seen.append((fn.__name__, int(np.prod(x.shape[:3]))))
                if fn.__name__ == "conv1":
                    # The previous slab's taps are gone before these are made.
                    assert [ref for ref in outputs if ref() is not None] == []
                    out = fn(x, *args, **kwargs)
                    outputs.append(weakref.ref(out))
                    return out
                return fn(x, *args, **kwargs)
            return wrapper

        for name in ("conv1", "conv1_grads"):
            monkeypatch.setattr(nn, name, spy(getattr(nn, name)))
        complete_cloud(partial, params, cfg)
        loss_and_grads_sample(partial, gt, params, cfg, aug_seed=1)
        assert {name for name, _ in seen} == {"conv1", "conv1_grads"}
        assert max(voxels for _, voxels in seen) <= carving.KERNEL_SLAB_VOXELS < 32**3
        assert len(outputs) >= 4

    def test_no_trunk_workspace_buffer(self, monkeypatch):
        from pointcarve import nn
        from pointcarve.training import complete_cloud

        parity = []
        workspace = nn.workspace

        def recording(role, shape, dtype):
            if role == "conv3.parity":
                parity.append(tuple(shape))
            return workspace(role, shape, dtype)

        # Scratch buffers are keyed by (role, dtype), so the parity
        # accumulator's shapes are read off its requests.
        monkeypatch.setattr(nn, "workspace", recording)
        cfg = _run_config("desk")
        params = CarveModelParams.initialize(cfg.carve_config(), 39)
        partial = random_cloud(np.random.default_rng(40), 300, -0.5, 0.5)
        for _ in range(2):
            complete_cloud(partial, params, cfg)
        roles = {role for role, *_ in nn._local.buffers}
        assert "carving.unet.level0" in roles
        assert "carving.unet.trunk" not in roles
        # One buffer per level: each decoder writes over its skip, and the
        # sub-pixel shuffle accumulates one parity at a time.
        assert not [role for role in roles if role.startswith("carving.unet.dec")]
        assert parity and all(len(shape) == 2 for shape in parity)


def _refine_chunks(monkeypatch, rows):
    """Run refine's MLP in chunks of `rows` coarse points."""
    # By module path: the package rebinds `refine` to the function.
    monkeypatch.setattr(importlib.import_module("pointcarve.refine"), "REFINE_CHUNK_ROWS", rows)


def _whole_batch_dense(coarse, features, layers):
    """The refinement MLP over every coarse point at once, one GEMM a layer."""
    from pointcarve import nn

    dtype = layers[0][0].dtype
    h = np.concatenate([features.astype(dtype), coarse.points.astype(dtype)], axis=1)
    for i, (w, b) in enumerate(layers):
        h = h @ w
        h += b
        if i < len(layers) - 1:
            h = np.maximum(h, nn.LEAKY_SLOPE * h)
    offsets = h.astype(np.float64).reshape(len(coarse), -1, 3)
    return (coarse.points[:, None, :] + offsets).reshape(-1, 3)


class TestRefineInChunks:
    """refine runs its MLP over the coarse points in row chunks."""

    @staticmethod
    def _engraved(cfg, seed):
        from pointcarve.training import make_block

        params = CarveModelParams.initialize(cfg.carve_config(), seed)
        partial = random_cloud(np.random.default_rng(seed + 1), 300, -0.5, 0.5)
        block = make_block(partial, compute_bounds(partial, cfg.bounds_padding_partial), cfg)
        result = engrave(block, params, cfg.coarse_m, cfg.carve_threshold)
        return partial, params, result

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("preset", ["tiny", "desk"])
    def test_uneven_chunks_match_the_tape_and_one_chunk(self, preset, dtype, monkeypatch):
        from pointcarve import refine

        cfg = _run_config(preset).replace(dtype=dtype)
        _, params, result = self._engraved(cfg, 41)
        coarse, features, head = result.coarse, result.features, params.refine_layers
        m = len(coarse)
        _refine_chunks(monkeypatch, m)
        one, one_tape = refine(coarse, features, head, keep_cache=True)

        _refine_chunks(monkeypatch, 3)
        assert m % 3
        served, no_tape = refine(coarse, features, head)
        taped, tape = refine(coarse, features, head, keep_cache=True)
        assert no_tape is None
        np.testing.assert_array_equal(served.points, taped.points)
        widths = [w.shape[0] for w, _ in head] + [head[-1][0].shape[1]]
        assert [a.shape for a in tape.acts] == [(m, width) for width in widths]
        if dtype == "float64":
            np.testing.assert_allclose(served.points, one.points, rtol=1e-12)
            for got, want in zip(tape.acts, one_tape.acts):
                np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_desk_completion_is_the_whole_batch_forward(self):
        from pointcarve.training import complete_cloud

        # desk's coarse_m fits in one chunk, so its dense cloud keeps the
        # whole-batch GEMMs' rounding bit for bit.
        cfg = _run_config("desk")
        assert cfg.coarse_m <= importlib.import_module("pointcarve.refine").REFINE_CHUNK_ROWS
        partial, params, result = self._engraved(cfg, 43)
        coarse, dense = complete_cloud(partial, params, cfg)
        np.testing.assert_array_equal(coarse.points, result.coarse.points)
        np.testing.assert_array_equal(
            dense.points, _whole_batch_dense(result.coarse, result.features, params.refine_layers)
        )

    @pytest.mark.parametrize("seed", [0, 7])
    def test_gradients_across_chunks(self, seed, monkeypatch):
        from pointcarve.gradcheck import check_end_to_end, check_refine

        _refine_chunks(monkeypatch, 3)  # 5 coarse points in check_refine, 64 end to end
        result = check_refine(seed, instances=3)
        assert result.passed, f"refine max rel err {result.max_rel_err}"
        result = check_end_to_end(seed)
        assert result.passed, f"end-to-end max rel err {result.max_rel_err}"


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


def _arrays(obj):
    """Every array reachable from a result: dataclass fields, dicts, lists.

    A view brings its base along, so a padded interior brings its halo.
    """
    if isinstance(obj, np.ndarray):
        return [obj] if obj.base is None else [obj, *_arrays(obj.base)]
    if isinstance(obj, dict):
        return [a for v in obj.values() for a in _arrays(v)]
    if isinstance(obj, (list, tuple)):
        return [a for v in obj for a in _arrays(v)]
    if hasattr(obj, "__dataclass_fields__"):
        return [a for name in obj.__dataclass_fields__ for a in _arrays(getattr(obj, name))]
    return []


class TestNoAliasing:
    """Nothing a call returns or tapes is a buffer a later call reuses."""

    def test_results_survive_a_second_call(self):
        from pointcarve import RunConfig
        from pointcarve.training import complete_cloud, forward_sample, make_block

        cfg = RunConfig.preset("desk")
        params = CarveModelParams.initialize(cfg.carve_config(), 3)
        rng = np.random.default_rng(12)
        inputs = [random_cloud(rng, 300, -0.5, 0.5), random_cloud(rng, 200, -0.3, 0.6)]

        def calls(partial):
            bounds = compute_bounds(partial, cfg.bounds_padding_partial)
            block = make_block(partial, bounds, cfg)
            grid = gridding(block.partial, cfg.carve_config().resolution, bounds, np.float32)
            return [
                complete_cloud(partial, params, cfg),
                engrave(block, params, cfg.coarse_m, keep_cache=False),
                engrave(block, params, cfg.coarse_m, keep_cache=True),
                predict_kernels(grid, params),
                forward_sample(partial, bounds, params, cfg, keep_cache=True),
            ]

        first = calls(inputs[0])
        kept = _arrays(first)
        snapshot = [a.copy() for a in kept]
        assert len(kept) > 30
        calls(inputs[1])
        for arr, before in zip(kept, snapshot):
            np.testing.assert_array_equal(arr, before)

    def test_feature_table_is_fresh(self):
        # engrave's (m, F) features: the head's rows at the coarse points.
        from pointcarve import nn

        params = CarveModelParams.initialize(TINY, seed=8)
        partial = random_cloud(np.random.default_rng(14), 48)
        block = build_point_block(partial, compute_bounds(partial, 0.05), 4)
        features = engrave(block, params, 24).features
        assert features.shape == (24, TINY.feature_dim) and features.base is None
        assert not any(np.shares_memory(features, buf) for buf in nn._local.buffers.values())

    def test_threads_keep_their_own_workspace(self, monkeypatch):
        import sys
        import threading

        from pointcarve import gen_shape, SyntheticShapeSpec
        from pointcarve.training import complete_cloud, loss_and_grads_sample, make_block

        params = CarveModelParams.initialize(TINY, seed=8)
        cfg = _run_config("tiny")
        rng = np.random.default_rng(13)
        grids = [VoxelGrid(rng.random((8, 8, 8)), _range_unit()) for _ in range(6)]
        gts = [gen_shape(SyntheticShapeSpec(fam, count=96, seed=i))[0]
               for i, fam in enumerate(["box", "sphere", "torus"] * 2)]
        partials = [PointCloud(gt.points[: len(gt) // 2]) for gt in gts]
        # The served path reads the trunk from a workspace buffer slab by slab,
        # and runs refine's hidden layers in workspace chunks (64 = 12 * 5 + 4).
        _slab_planes(monkeypatch, (8, 8, 8), 3)
        _refine_chunks(monkeypatch, 5)

        def work_on(i):
            coarse, dense = complete_cloud(partials[i], params, cfg)
            bounds = compute_bounds(partials[i], cfg.bounds_padding_partial)
            features = engrave(make_block(partials[i], bounds, cfg), params, cfg.coarse_m).features
            step = loss_and_grads_sample(partials[i], gts[i], params, cfg, aug_seed=i)
            return [predict_kernels(grids[i], params)[0], coarse.points, dense.points,
                    features, np.float64(step.loss.total), *step.grads.values()]

        expected = [[a.copy() for a in work_on(i)] for i in range(len(grids))]
        results: dict[tuple[int, int], list[np.ndarray]] = {}
        # More threads than cores, switching often, each cycling through
        # the inputs from a different start.
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            def work(tid):
                for k in range(8):
                    results[tid, k] = work_on((tid + k) % len(grids))
            threads = [threading.Thread(target=work, args=(tid,)) for tid in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(th.is_alive() for th in threads)
        assert len(results) == 32
        for (tid, k), got in results.items():
            want = expected[(tid + k) % len(grids)]
            assert len(got) == len(want)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
