"""Finite-difference verification of every analytic adjoint in the pipeline.

Each check builds seeded random instances (float64, grids <= 8^3, clouds
<= 64 points, scores kept >= 1e-3 away from the carve threshold), forms the
scalar phi = <upstream, op(x)> and compares the analytic gradient against
central differences with step 1e-5 on a random subset of coordinates.

Reported relative error is max_i |analytic_i - fd_i| / max(max_i |fd_i|, 1e-10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import nn
from .carving import CarveModelParams, cell_conv, cell_conv_grads
from .cloud import BoundingRange, PointCloud
from .gridding import (
    FeatureGrid,
    VoxelGrid,
    feature_sample,
    feature_sample_grad,
    feature_sample_query_grad,
    gridding_reverse,
    gridding_reverse_grad,
)
from .losses import chamfer, chamfer_grad
from .refine import refine, refine_grads

FD_STEP = 1e-5
TOL_DEFAULT = 1e-4
TOL_CHAMFER = 1e-3
MAX_PROBES = 48


@dataclass(frozen=True)
class GradCheckResult:
    name: str
    max_rel_err: float
    tolerance: float
    instances: int

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def _rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    denom = max(float(np.max(np.abs(fd))), 1e-10)
    return float(np.max(np.abs(analytic - fd))) / denom


def _fd_compare(
    phi: Callable[[np.ndarray], float],
    x0: np.ndarray,
    analytic: np.ndarray,
    rng: np.random.Generator,
    max_probes: int = MAX_PROBES,
) -> float:
    """Max relative error between analytic and central-difference gradients
    on a random coordinate subset of up to max_probes entries."""
    n = x0.size
    probes = np.arange(n) if n <= max_probes else rng.choice(n, max_probes, replace=False)
    return _rel_err(analytic.ravel()[probes], _fd_at(phi, x0, probes))


def _fd_at(phi: Callable[[np.ndarray], float], x0: np.ndarray, probes) -> np.ndarray:
    """Central differences of phi at x0 along the listed flat coordinates."""
    flat0 = x0.ravel()
    fd = np.empty(len(probes))
    for k, i in enumerate(probes):
        xp = flat0.copy()
        xp[i] += FD_STEP
        up = phi(xp.reshape(x0.shape))
        xp[i] -= 2 * FD_STEP
        down = phi(xp.reshape(x0.shape))
        fd[k] = (up - down) / (2 * FD_STEP)
    return fd


def _unit_range() -> BoundingRange:
    return BoundingRange(np.zeros(3), np.ones(3))


def _margin_scores(rng: np.random.Generator, shape, threshold: float, margin: float = 1e-3):
    s = rng.uniform(-0.5, 0.5, size=shape)
    return threshold + np.where(
        s >= 0, np.maximum(s, margin), np.minimum(s, -margin)
    )


def check_gridding_reverse(seed: int, instances: int = 20) -> GradCheckResult:
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng((seed, i))
        res = int(rng.integers(3, 6))
        threshold = float(rng.uniform(-0.2, 0.2))
        values = _margin_scores(rng, (res, res, res), threshold)
        m = (res - 1) ** 3  # select every qualifying cell: selection is stable
        grid = VoxelGrid(values, _unit_range())
        upstream = rng.standard_normal((m, 3))
        analytic = gridding_reverse_grad(grid, m, threshold, upstream)

        def phi(v):
            pts = gridding_reverse(VoxelGrid(v, _unit_range()), m, threshold).points
            return float(np.sum(upstream * pts))

        worst = max(worst, _fd_compare(phi, values, analytic, rng))
    return GradCheckResult("gridding_reverse_grad", worst, TOL_DEFAULT, instances)


def check_feature_sample(seed: int, instances: int = 20) -> GradCheckResult:
    """feature_sample_grad and feature_sample_query_grad. The queries keep
    clear of cell faces, where the sample's slope jumps."""
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng((seed, 1000 + i))
        res = int(rng.integers(3, 6))
        channels = int(rng.integers(2, 5))
        values = rng.standard_normal((res, res, res, channels))
        n = int(rng.integers(4, 17))
        points = (rng.integers(0, res - 1, (n, 3)) + rng.uniform(0.1, 0.9, (n, 3))) / (res - 1)
        upstream = rng.standard_normal((n, channels))

        def phi(v, pts=points):
            out = feature_sample(FeatureGrid(v, _unit_range()), PointCloud(pts))
            return float(np.sum(upstream * out))

        grid, query = FeatureGrid(values, _unit_range()), PointCloud(points)
        analytic = feature_sample_grad(grid, query, upstream)
        worst = max(worst, _fd_compare(phi, values, analytic, rng))
        analytic = feature_sample_query_grad(grid, query, upstream)
        worst = max(worst, _fd_compare(lambda v: phi(values, v), points, analytic, rng))
    return GradCheckResult("feature_sample_grad", worst, TOL_DEFAULT, instances)


def check_cell_conv(seed: int, instances: int = 20) -> GradCheckResult:
    """cell_conv_grads' trunk, weight and bias gradients of a kernel head."""
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng((seed, 2000 + i))
        res, channels = int(rng.integers(4, 7)), int(rng.integers(2, 5))
        grid = VoxelGrid(rng.standard_normal((res, res, res)), _unit_range())
        trunk = rng.standard_normal((res, res, res, channels))
        w, b = rng.standard_normal((channels, 27)), rng.standard_normal(27)
        upstream = rng.standard_normal((res, res, res))
        d_trunk, d_w, d_b = cell_conv_grads(grid, trunk, w, b, upstream)

        def phi(t_, w_, b_):
            out = cell_conv(grid, t_, w_, b_).values
            return float(np.sum(upstream * out))

        worst = max(worst, _fd_compare(lambda v: phi(v, w, b), trunk, d_trunk, rng))
        worst = max(worst, _fd_compare(lambda v: phi(trunk, v, b), w, d_w, rng))
        worst = max(worst, _fd_compare(lambda v: phi(trunk, w, v), b, d_b, rng))
    return GradCheckResult("cell_conv_grads", worst, TOL_DEFAULT, instances)


# (grid, C_in, C_out, stride, C_up). Stride 1 runs the flat backward: at
# C_in = 1 (the stem's column GEMM), at C_in >= 2 with few output channels,
# and wide (C_out = 16). Stride 2 runs the copied-tap kernel at C_in = 1 and
# >= 2. With C_up > 0 the layer input is [upsample2(up), x], up a
# C_up-channel grid of half x's size, and x runs the flat backward once more.
CONV3_CASES = (
    ((4, 5, 6), 1, 3, 1, 0),
    ((5, 6, 4), 3, 2, 1, 0),
    ((4, 4, 6), 2, 16, 1, 0),
    ((4, 6, 4), 1, 2, 2, 0),
    ((6, 4, 4), 3, 4, 2, 0),
    ((6, 4, 4), 1, 2, 1, 2),
    ((4, 6, 4), 2, 3, 1, 3),
    ((4, 4, 6), 2, 16, 1, 1),
)


def check_conv3(seed: int, instances: int = 20) -> GradCheckResult:
    """conv3_grads' input, weight and bias gradients (and up's) on CONV3_CASES in turn."""
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng((seed, 6000 + i))
        grid, cin, cout, stride, cup = CONV3_CASES[i % len(CONV3_CASES)]
        x = rng.standard_normal((*grid, cin))
        w = rng.standard_normal((3, 3, 3, cup + cin, cout))
        b = rng.standard_normal(cout)
        upstream = rng.standard_normal((*(n // stride for n in grid), cout))
        if cup:
            y = rng.standard_normal((*(n // 2 for n in grid), cup))
            gx, gw, gb, gy = nn.conv3_grads(x, w, upstream, stride, up=y)
        else:
            y, gy = None, None
            gx, gw, gb = nn.conv3_grads(x, w, upstream, stride)

        def phi(x_, w_, b_, y_=y):
            return float(np.sum(upstream * nn.conv3(x_, w_, b_, stride, up=y_)))

        worst = max(worst, _fd_compare(lambda v: phi(v, w, b), x, gx, rng))
        worst = max(worst, _fd_compare(lambda v: phi(x, v, b), w, gw, rng))
        worst = max(worst, _fd_compare(lambda v: phi(x, w, v), b, gb, rng))
        if cup:
            worst = max(worst, _fd_compare(lambda v: phi(x, w, b, v), y, gy, rng))
    return GradCheckResult("conv3_grads", worst, TOL_DEFAULT, instances)


def _tiny_refine_instance(rng: np.random.Generator):
    m, channels = 5, 3
    features = rng.standard_normal((m, channels))
    layer_rng = np.random.default_rng(int(rng.integers(2**31)))
    params, d = [], channels + 3
    for width in (8, 6):
        params.append((nn.fan_in_uniform(layer_rng, (d, width), d, np.dtype(np.float64)),
                       np.zeros(width)))
        d = width
    coarse = PointCloud(rng.uniform(0.0, 1.0, size=(m, 3)))
    upstream = rng.standard_normal((m * 2, 3))
    return features, params, coarse, upstream


def check_refine(seed: int, instances: int = 20) -> GradCheckResult:
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng((seed, 3000 + i))
        features, params, coarse, upstream = _tiny_refine_instance(rng)
        _, tape = refine(coarse, features, params, keep_cache=True)
        grads, grad_feat, grad_coarse = refine_grads(tape, params, upstream)

        def phi(layers, feats=features, pts=coarse.points):
            return float(np.sum(upstream * refine(PointCloud(pts), feats, layers)[0].points))

        for layer in range(len(params)):
            for j in (0, 1):  # weight, then bias

                def phi_tensor(v, _layer=layer, _j=j):
                    layers = [list(pair) for pair in params]
                    layers[_layer][_j] = v
                    return phi(layers)

                worst = max(worst, _fd_compare(phi_tensor, params[layer][j], grads[layer][j], rng))

        worst = max(worst, _fd_compare(lambda v: phi(params, v), features, grad_feat, rng))
        worst = max(worst, _fd_compare(lambda v: phi(params, pts=v), coarse.points.copy(),
                                       grad_coarse, rng))
    return GradCheckResult("refine_grads", worst, TOL_DEFAULT, instances)


def check_chamfer(seed: int, instances: int = 20) -> GradCheckResult:
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng((seed, 4000 + i))
        a = rng.random((int(rng.integers(6, 17)), 3))
        b = rng.random((int(rng.integers(6, 17)), 3))
        g1, g2 = chamfer_grad(PointCloud(a), PointCloud(b))

        def phi_a(v):
            return chamfer(PointCloud(v), PointCloud(b))

        def phi_b(v):
            return chamfer(PointCloud(a), PointCloud(v))

        worst = max(worst, _fd_compare(phi_a, a, g1, rng))
        worst = max(worst, _fd_compare(phi_b, b, g2, rng))
    return GradCheckResult("chamfer_grad", worst, TOL_CHAMFER, instances)


def check_end_to_end(seed: int) -> GradCheckResult:
    """Total-loss gradient on a tiny model vs finite differences over a
    random 16-parameter subset (grid 8^3, m=64, r=2), plus one probe per
    tensor at its entry of largest analytic gradient, so every tensor's
    adjoint is differenced. Each tensor's probe is judged against its own
    difference, so a tensor with small gradients is not drowned out."""
    from .config import RunConfig
    from .shapes import SyntheticShapeSpec, gen_shape
    from .training import loss_and_grads_sample

    rng = np.random.default_rng((seed, 5000))
    config = RunConfig(
        grid_res=8,
        unet_stages=2,
        unet_base_width=2,
        feature_dim=4,
        refine_widths=(8, 6),
        coarse_m=64,
        n_per_axis=4,
        dtype="float64",
        sensoraug=False,
        alpha=0.0,
        val_count=0,
    )
    gt, _ = gen_shape(SyntheticShapeSpec("box", count=96, seed=seed))
    partial = PointCloud(gt.points[: len(gt) // 2])
    params = CarveModelParams.initialize(config.carve_config(), seed)
    # Zero biases put every voxel away from the partial exactly on a leaky
    # ReLU's kink, where a central difference of a bias reads the mean of the
    # two slopes, not the subgradient the adjoint takes. Small random biases
    # move every pre-activation off it.
    bias_rng = np.random.default_rng((seed, 5001))
    for name, arr in params.tensors.items():
        if name.endswith(".b"):
            arr += bias_rng.uniform(-0.1, 0.1, arr.shape)

    result = loss_and_grads_sample(partial, gt, params, config, aug_seed=0)

    def phi(vec):
        p = params.with_flat(vec)
        return loss_and_grads_sample(partial, gt, p, config, aug_seed=0).loss.total

    flat, analytic = params.flat(), params.flatten_grads(result.grads)
    err = _fd_compare(phi, flat, analytic, rng, max_probes=16)
    starts = np.cumsum([0] + [arr.size for arr in params.tensors.values()])
    probes = [s + int(np.argmax(np.abs(analytic[s:e]))) for s, e in zip(starts[:-1], starts[1:])]
    fd = _fd_at(phi, flat, probes)
    per_tensor = np.abs(analytic[probes] - fd) / np.maximum(np.abs(fd), 1e-10)
    err = max(err, float(per_tensor.max()))
    return GradCheckResult("end_to_end_loss", err, TOL_CHAMFER, 1)


def run_all(seed: int = 0, instances: int = 20) -> list[GradCheckResult]:
    return [
        check_gridding_reverse(seed, instances),
        check_feature_sample(seed, instances),
        check_cell_conv(seed, instances),
        check_refine(seed, instances),
        check_chamfer(seed, instances),
        check_conv3(seed, instances),
        check_end_to_end(seed),
    ]
