"""Refinement head: offset expansion and its adjoints."""

import importlib
import tracemalloc
import warnings

import numpy as np
import pytest

from pointcarve import FeatureGrid, PointCloud, chamfer, nn, refine, refine_grads
from pointcarve.gradcheck import check_refine

from conftest import random_cloud


@pytest.fixture
def feature_grid(rng, unit_range):
    return FeatureGrid.dense(rng.standard_normal((4, 4, 4, 5)), unit_range)


def head(widths=(8, 6), feat_dim=5, seed=0, dtype=np.float64):
    """Refinement (w, b) layer pairs: fan-in uniform weights, zero biases."""
    rng = np.random.default_rng(seed)
    layers, d = [], feat_dim + 3
    for width in widths:
        layers.append((nn.fan_in_uniform(rng, (d, width), d, np.dtype(dtype)),
                       np.zeros(width, dtype)))
        d = width
    return layers


class TestRefine:
    def test_zero_final_layer_repeats_points(self, rng, feature_grid):
        params = head()
        for arr in params[-1]:
            arr[:] = 0.0
        coarse = random_cloud(rng, 7)
        dense, _ = refine(coarse, feature_grid, params)
        r = 2  # final width 6 = 3 * r
        assert len(dense) == 7 * r
        np.testing.assert_array_equal(dense.points, np.repeat(coarse.points, r, axis=0))
        assert chamfer(dense, coarse) == 0.0

    def test_paper_scale_sizes(self, rng, unit_range):
        # 24-wide final layer = 8 offsets: 2048 coarse -> 16384 dense.
        grid = FeatureGrid.dense(rng.standard_normal((3, 3, 3, 4)).astype(np.float32), unit_range)
        params = head((16, 24), feat_dim=4, seed=1, dtype=np.float32)
        coarse = random_cloud(rng, 2048)
        dense, _ = refine(coarse, grid, params)
        assert len(dense) == 16384

    def test_deterministic(self, rng, feature_grid):
        params = head(seed=3)
        coarse = random_cloud(rng, 11)
        a, _ = refine(coarse, feature_grid, params)
        b, _ = refine(coarse, feature_grid, params)
        np.testing.assert_array_equal(a.points, b.points)

    def test_feature_dim_mismatch_errors(self, rng, unit_range):
        grid = FeatureGrid.dense(rng.standard_normal((4, 4, 4, 2)), unit_range)
        with pytest.raises(ValueError, match="feature dim"):
            refine(random_cloud(rng, 4), grid, head(feat_dim=5))

    def test_empty_coarse_errors(self, feature_grid):
        with pytest.raises(ValueError, match="empty input"):
            refine(PointCloud.empty(), feature_grid, head())

    def test_dense_count_multiple_of_coarse(self, rng, feature_grid):
        for m in (1, 5, 33):
            dense, _ = refine(random_cloud(rng, m), feature_grid, head())
            assert len(dense) == m * 2

    def test_served_forward_holds_no_whole_hidden_activation(self, rng, unit_range):
        # After a warm-up call has made the workspace chunks, a call without a
        # tape allocates far less than one (m, width) hidden activation.
        m, width = 2048, 1792
        grid = FeatureGrid.dense(rng.standard_normal((3, 3, 3, 4)).astype(np.float32), unit_range)
        params = head((width, 24), feat_dim=4, seed=2, dtype=np.float32)
        coarse = random_cloud(rng, m)
        want = refine(coarse, grid, params)[0].points
        tracemalloc.start()
        try:
            dense, tape = refine(coarse, grid, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * width * 4, f"peak {peak} bytes"
        assert tape is None
        np.testing.assert_array_equal(dense.points, want)

    def test_coordinates_beyond_the_dtype_range_rejected(self, rng, feature_grid):
        params = head(dtype=np.float32)
        points = rng.random((4, 3))
        points[2, 1] = -1e300
        coarse = PointCloud(points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="coarse coordinates overflow float32"):
                refine(coarse, feature_grid, params)
        params64 = head()
        assert len(refine(random_cloud(rng, 4, -1e30, 1e30), feature_grid, params64)[0]) == 8


class TestRefineGrads:
    def test_zero_upstream(self, rng, feature_grid):
        params = head(seed=4)
        _, tape = refine(random_cloud(rng, 6), feature_grid, params, keep_cache=True)
        grads, gfeat, gcoarse = refine_grads(tape, params, np.zeros((12, 3)))
        for gw, gb in grads:
            np.testing.assert_array_equal(gw, 0.0)
            np.testing.assert_array_equal(gb, 0.0)
        np.testing.assert_array_equal(gfeat, 0.0)
        np.testing.assert_array_equal(gcoarse, 0.0)

    def test_matches_finite_differences(self):
        result = check_refine(seed=42, instances=3)
        assert result.passed, f"max rel err {result.max_rel_err}"

    def test_coarse_grad_includes_both_paths(self, rng, feature_grid):
        # With a zeroed head the identity path remains: each coarse gradient
        # is the sum of its r upstream rows. The full gradient must differ
        # once features matter, showing the sampling path contributes.
        coarse = random_cloud(rng, 5)
        upstream = rng.standard_normal((10, 3))
        zeroed = head(seed=5)
        for w, _ in zeroed:
            w[:] = 0.0
        _, tape = refine(coarse, feature_grid, zeroed, keep_cache=True)
        _, _, g_identity = refine_grads(tape, zeroed, upstream)
        np.testing.assert_allclose(
            g_identity, upstream.reshape(5, 2, 3).sum(axis=1), atol=1e-12
        )
        full = head(seed=5)
        _, tape = refine(coarse, feature_grid, full, keep_cache=True)
        _, _, g_full = refine_grads(tape, full, upstream)
        assert not np.allclose(g_full, g_identity)

    def test_shape_mismatch_errors(self, rng, feature_grid):
        params = head()
        _, tape = refine(random_cloud(rng, 4), feature_grid, params, keep_cache=True)
        with pytest.raises(ValueError, match="upstream"):
            refine_grads(tape, params, np.zeros((5, 3)))

    def test_backward_does_no_forward_work(self, rng, feature_grid, monkeypatch):
        # The tape carries every activation the adjoint reads, so neither the
        # MLP layers nor the feature sampling may run again in refine_grads.
        params = head(seed=6)
        coarse = random_cloud(rng, 9)
        upstream = rng.standard_normal((18, 3))
        _, tape = refine(coarse, feature_grid, params, keep_cache=True)
        want_params, want_feat, want_coarse = refine_grads(tape, params, upstream)

        def forbidden(*args, **kwargs):
            raise AssertionError("refine_grads re-ran forward work")

        module = importlib.import_module("pointcarve.refine")
        monkeypatch.setattr(module.nn, "linear", forbidden)
        monkeypatch.setattr(module.nn, "leaky_relu", forbidden)
        monkeypatch.setattr(module, "feature_sample", forbidden)
        grads, gfeat, gcoarse = refine_grads(tape, params, upstream)
        for got, want in zip(grads, want_params, strict=True):
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_array_equal(gfeat, want_feat)
        np.testing.assert_array_equal(gcoarse, want_coarse)
