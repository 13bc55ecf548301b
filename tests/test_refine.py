"""Refinement head: offset expansion and its adjoints."""

import importlib
import tracemalloc
import warnings

import numpy as np
import pytest

from pointcarve import PointCloud, chamfer, nn, refine, refine_grads
from pointcarve.gradcheck import check_refine

from conftest import random_cloud


def features(rng, m, feat_dim=5, dtype=np.float64):
    """(m, feat_dim) standard-normal per-point features."""
    return rng.standard_normal((m, feat_dim)).astype(dtype)


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
    def test_zero_final_layer_repeats_points(self, rng):
        params = head()
        for arr in params[-1]:
            arr[:] = 0.0
        coarse = random_cloud(rng, 7)
        dense, _ = refine(coarse, features(rng, 7), params)
        r = 2  # final width 6 = 3 * r
        assert len(dense) == 7 * r
        np.testing.assert_array_equal(dense.points, np.repeat(coarse.points, r, axis=0))
        assert chamfer(dense, coarse) == 0.0

    def test_paper_scale_sizes(self, rng):
        # 24-wide final layer = 8 offsets: 2048 coarse -> 16384 dense.
        params = head((16, 24), feat_dim=4, seed=1, dtype=np.float32)
        coarse = random_cloud(rng, 2048)
        dense, _ = refine(coarse, features(rng, 2048, 4, np.float32), params)
        assert len(dense) == 16384

    def test_deterministic(self, rng):
        params = head(seed=3)
        coarse, feats = random_cloud(rng, 11), features(rng, 11)
        a, _ = refine(coarse, feats, params)
        b, _ = refine(coarse, feats, params)
        np.testing.assert_array_equal(a.points, b.points)

    def test_feature_dim_mismatch_errors(self, rng):
        for feats in (features(rng, 4, 2), features(rng, 3), features(rng, 4).ravel()):
            with pytest.raises(ValueError, match="feature dim"):
                refine(random_cloud(rng, 4), feats, head(feat_dim=5))

    def test_empty_coarse_errors(self):
        with pytest.raises(ValueError, match="empty input"):
            refine(PointCloud.empty(), features(np.random.default_rng(0), 0), head())

    def test_dense_count_multiple_of_coarse(self, rng):
        for m in (1, 5, 33):
            dense, _ = refine(random_cloud(rng, m), features(rng, m), head())
            assert len(dense) == m * 2

    def test_served_forward_holds_no_whole_hidden_activation(self, rng):
        # After a warm-up call has made the workspace chunks, a call without a
        # tape allocates far less than one (m, width) hidden activation.
        m, width = 2048, 1792
        feats = features(rng, m, 4, np.float32)
        params = head((width, 24), feat_dim=4, seed=2, dtype=np.float32)
        coarse = random_cloud(rng, m)
        want = refine(coarse, feats, params)[0].points
        tracemalloc.start()
        try:
            dense, tape = refine(coarse, feats, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * width * 4, f"peak {peak} bytes"
        assert tape is None
        np.testing.assert_array_equal(dense.points, want)

    def test_coordinates_beyond_the_dtype_range_rejected(self, rng):
        params = head(dtype=np.float32)
        points = rng.random((4, 3))
        points[2, 1] = -1e300
        coarse = PointCloud(points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="coarse coordinates overflow float32"):
                refine(coarse, features(rng, 4), params)
        params64 = head()
        assert len(refine(random_cloud(rng, 4, -1e30, 1e30), features(rng, 4), params64)[0]) == 8


class TestRefineGrads:
    def test_zero_upstream(self, rng):
        params = head(seed=4)
        _, tape = refine(random_cloud(rng, 6), features(rng, 6), params, keep_cache=True)
        grads, gfeat, gcoarse = refine_grads(tape, params, np.zeros((12, 3)))
        for gw, gb in grads:
            np.testing.assert_array_equal(gw, 0.0)
            np.testing.assert_array_equal(gb, 0.0)
        np.testing.assert_array_equal(gfeat, 0.0)
        np.testing.assert_array_equal(gcoarse, 0.0)

    def test_matches_finite_differences(self):
        result = check_refine(seed=42, instances=3)
        assert result.passed, f"max rel err {result.max_rel_err}"

    def test_coarse_grad_includes_both_paths(self, rng):
        # With a zeroed head the identity path remains: each coarse gradient
        # is the sum of its r upstream rows. The full gradient must differ,
        # showing the MLP's coordinate input contributes.
        coarse, feats = random_cloud(rng, 5), features(rng, 5)
        upstream = rng.standard_normal((10, 3))
        zeroed = head(seed=5)
        for w, _ in zeroed:
            w[:] = 0.0
        _, tape = refine(coarse, feats, zeroed, keep_cache=True)
        _, _, g_identity = refine_grads(tape, zeroed, upstream)
        np.testing.assert_allclose(
            g_identity, upstream.reshape(5, 2, 3).sum(axis=1), atol=1e-12
        )
        full = head(seed=5)
        _, tape = refine(coarse, feats, full, keep_cache=True)
        _, _, g_full = refine_grads(tape, full, upstream)
        assert not np.allclose(g_full, g_identity)

    def test_shape_mismatch_errors(self, rng):
        params = head()
        _, tape = refine(random_cloud(rng, 4), features(rng, 4), params, keep_cache=True)
        with pytest.raises(ValueError, match="upstream"):
            refine_grads(tape, params, np.zeros((5, 3)))

    def test_backward_does_no_forward_work(self, rng, monkeypatch):
        # The tape carries every activation the adjoint reads, so no MLP
        # layer may run again in refine_grads.
        params = head(seed=6)
        coarse = random_cloud(rng, 9)
        upstream = rng.standard_normal((18, 3))
        _, tape = refine(coarse, features(rng, 9), params, keep_cache=True)
        want_params, want_feat, want_coarse = refine_grads(tape, params, upstream)

        def forbidden(*args, **kwargs):
            raise AssertionError("refine_grads re-ran forward work")

        module = importlib.import_module("pointcarve.refine")
        monkeypatch.setattr(module.nn, "linear", forbidden)
        monkeypatch.setattr(module.nn, "leaky_relu", forbidden)
        grads, gfeat, gcoarse = refine_grads(tape, params, upstream)
        for got, want in zip(grads, want_params, strict=True):
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_array_equal(gfeat, want_feat)
        np.testing.assert_array_equal(gcoarse, want_coarse)
