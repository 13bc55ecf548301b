"""Dense voxel-grid representation of point clouds with analytic gradients.

Conventions used throughout:

* A grid of resolution (H, W, M) stores scalar values on an H x W x M lattice
  of *vertices*; vertex (i, j, k) sits at
  ``lo + (i/(H-1), j/(W-1), k/(M-1)) * (hi - lo)``.
* The (H-1) x (W-1) x (M-1) axis-aligned boxes between vertices are *cells*;
  a cell is indexed by its lowest-corner vertex.
* ``gridding`` scatters unit mass per point onto the 8 vertices of its cell
  with trilinear weights; ``gridding_reverse`` emits one point per selected
  cell at the score-weighted centroid of its 8 vertex positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import BoundingRange, PointCloud


@dataclass(frozen=True)
class VoxelGrid:
    """Dense scalar field on an H x W x M vertex lattice over `range`."""

    values: np.ndarray
    range: BoundingRange

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 3:
            raise ValueError(f"grid values must be 3D, got shape {v.shape}")
        if min(v.shape) < 2:
            raise ValueError("grid resolution must be >= 2 per axis")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values contain non-finite entries")
        object.__setattr__(self, "values", v)

    @property
    def resolution(self) -> tuple[int, int, int]:
        return self.values.shape


@dataclass(frozen=True)
class FeatureGrid:
    """Dense feature field: an H x W x M x F array over `range`."""

    values: np.ndarray
    range: BoundingRange

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 4:
            raise ValueError(f"feature grid values must be 4D, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("feature grid values contain non-finite entries")
        object.__setattr__(self, "values", v)

    @property
    def resolution(self) -> tuple[int, int, int]:
        return self.values.shape[:3]

    @property
    def channels(self) -> int:
        return self.values.shape[3]


# GridGradient is shape-matched to the grid it differentiates; a plain array
# keeps the adjoint plumbing free of wrapper churn.
GridGradient = np.ndarray

# The 8 corners (dx, dy, dz) of a cell, corner k = dx*4 + dy*2 + dz.
_CORNERS = ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1))


def _vertex_coords(points: np.ndarray, resolution, range: BoundingRange):
    """Lower vertex index i0 and in-cell fractions f for each (clamped) point."""
    res = np.asarray(resolution)
    u = (range.clamp(points) - range.lo) / range.extent * (res - 1)
    i0 = np.floor(u).astype(np.int64)
    np.clip(i0, 0, res - 2, out=i0)
    return i0, u - i0


def _corner_weights(f: np.ndarray):
    """Yield (dx, dy, dz, weight) for the 8 cell corners; weights sum to 1."""
    wx = (1.0 - f[:, 0], f[:, 0])
    wy = (1.0 - f[:, 1], f[:, 1])
    wz = (1.0 - f[:, 2], f[:, 2])
    for dx, dy, dz in _CORNERS:
        yield dx, dy, dz, wx[dx] * wy[dy] * wz[dz]


def gridding(
    cloud: PointCloud,
    resolution: tuple[int, int, int],
    range: BoundingRange,
    dtype=np.float64,
) -> VoxelGrid:
    """Scatter each point's unit mass to its 8 surrounding vertices.

    Out-of-range points are clamped onto the range boundary first. Vertex
    values are sums over contributing points, so the grid total equals the
    point count.
    """
    H, W, M = resolution
    if min(H, W, M) < 2:
        raise ValueError("grid resolution must be >= 2 per axis")
    flat = np.zeros(H * W * M, dtype=np.float64)
    if len(cloud):
        i0, f = _vertex_coords(cloud.points, resolution, range)
        for dx, dy, dz, w in _corner_weights(f):
            idx = ((i0[:, 0] + dx) * W + (i0[:, 1] + dy)) * M + (i0[:, 2] + dz)
            flat += np.bincount(idx, weights=w, minlength=flat.size)
    return VoxelGrid(flat.reshape(H, W, M).astype(dtype, copy=False), range)


def _reverse_select(values: np.ndarray, m: int, threshold: float):
    """Shared forward logic: per-cell clamped corner weights + top-m cells.

    The top-m cells by total clamped score are chosen (ties resolved toward
    the lexicographically smaller cell index) and then emitted in
    lexicographic cell order, so the output ordering does not depend on the
    score values themselves. Returns (sel_cells, corner_w, centroids):
    (n_sel, 3) cell indices, (n_sel, 8) clamped corner weights in corner
    order dx*4 + dy*2 + dz, and (n_sel, 3) emitted positions in *index*
    space.

    A cell's total adds its 8 shifted corner slices pairwise,
    ((c0+c1)+(c2+c3))+((c4+c5)+(c6+c7)), the order numpy's pairwise sum
    uses for 8 values, so totals equal a sum over a stacked corner axis bit
    for bit. The m-th highest total comes from `np.partition`; every cell
    above it is kept, and cells equal to it fill the remaining places in
    lexicographic order.
    """
    H, W, M = values.shape
    w = np.maximum(values - threshold, 0.0)
    c = [w[dx : dx + H - 1, dy : dy + W - 1, dz : dz + M - 1] for dx, dy, dz in _CORNERS]
    total = ((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7]))
    flat_total = total.ravel()
    # Flat C-order indices are lexicographic in (i, j, k).
    qual = np.flatnonzero(flat_total > 0)
    if len(qual) == 0:
        raise ValueError("empty carve result")
    if m < len(qual):
        scores = flat_total[qual]
        kth = np.partition(scores, len(scores) - m)[len(scores) - m]
        above = scores > kth
        ties = np.flatnonzero(scores == kth)[: m - int(above.sum())]
        above[ties] = True
        qual = qual[above]
    sel = np.stack(np.unravel_index(qual, total.shape), axis=1)
    corner_w = np.stack(
        [w[sel[:, 0] + dx, sel[:, 1] + dy, sel[:, 2] + dz] for dx, dy, dz in _CORNERS], axis=1
    )
    wsum = flat_total[qual]
    # Centroid in index space: cell corner (i+dx, j+dy, k+dz) weighted mean.
    frac = np.zeros((len(sel), 3), dtype=np.float64)
    for k, d in enumerate(_CORNERS):
        frac += corner_w[:, k, None] * np.array(d, dtype=np.float64)
    frac /= wsum[:, None]
    centroids = sel.astype(np.float64) + frac
    return sel, corner_w, centroids


def gridding_reverse(grid: VoxelGrid, m: int, threshold: float = 0.0) -> PointCloud:
    """Emit up to m points at score-weighted cell centroids.

    Cells qualify when any of their 8 vertex scores exceeds `threshold`;
    weights are max(score - threshold, 0). The m cells of highest total
    clamped score are kept (ties resolved by lexicographic cell index) and
    emitted in lexicographic cell order; if fewer than m qualify, the emitted
    points are recycled in order until the cloud has exactly m points.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    _, _, centroids = _reverse_select(np.asarray(grid.values, dtype=np.float64), m, threshold)
    res = grid.values.shape
    scale = grid.range.extent / (np.asarray(res) - 1)
    # Clamp: index-to-world arithmetic can overshoot the top corner by 1 ulp.
    pts = grid.range.clamp(grid.range.lo + centroids * scale)
    if len(pts) < m:
        pts = pts[np.arange(m) % len(pts)]
    return PointCloud(pts)


def gridding_reverse_grad(
    grid: VoxelGrid, m: int, threshold: float, upstream: np.ndarray
) -> GridGradient:
    """Exact adjoint of `gridding_reverse` w.r.t. the vertex scores.

    For a selected cell with clamped weights w_v and emitted point p,
    dp/ds_v = (x_v - p) / sum(w) when s_v > threshold and 0 otherwise (the
    subgradient at exactly threshold is taken as 0). The top-m selection is
    held fixed. Padded output points propagate into their source cell.
    """
    values = np.asarray(grid.values, dtype=np.float64)
    sel, corner_w, centroids = _reverse_select(values, m, threshold)
    n_sel = len(sel)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (m, 3):
        raise ValueError(f"upstream must have shape ({m}, 3), got {upstream.shape}")
    # Fold padded copies back onto their source cells.
    up = np.zeros((n_sel, 3), dtype=np.float64)
    np.add.at(up, np.arange(m) % n_sel, upstream[:m])

    scale = grid.range.extent / (np.asarray(values.shape) - 1)
    wsum = corner_w.sum(axis=1)
    grad = np.zeros_like(values)
    for k, d in enumerate(_CORNERS):
        corner = sel + np.array(d)
        # World-space corner minus emitted point, per axis.
        diff = (corner.astype(np.float64) - centroids) * scale
        contrib = (up * diff).sum(axis=1) / wsum
        contrib[corner_w[:, k] <= 0] = 0.0
        # The selected cells are distinct, so are their k-th corners: a
        # fancy-index += adds each contribution once, as np.add.at would.
        grad[corner[:, 0], corner[:, 1], corner[:, 2]] += contrib
    return grad.astype(grid.values.dtype, copy=False)


def feature_sample(features: FeatureGrid, query: PointCloud) -> PointCloud:
    """Trilinearly interpolate vertex features at the query points.

    Queries outside the range are clamped. The result carries the query
    coordinates with an (N, F) feature block attached.
    """
    vals = _feature_sample_values(features, query.points)
    return PointCloud(query.points, vals)


def _feature_sample_values(features: FeatureGrid, points: np.ndarray) -> np.ndarray:
    i0, f = _vertex_coords(points, features.resolution, features.range)
    out = np.zeros((len(points), features.channels), dtype=features.values.dtype)
    for dx, dy, dz, w in _corner_weights(f):
        out += w[:, None] * features.values[i0[:, 0] + dx, i0[:, 1] + dy, i0[:, 2] + dz]
    return out


def feature_sample_grad(
    features: FeatureGrid, query: PointCloud, upstream: np.ndarray
) -> GridGradient:
    """Adjoint of `feature_sample` w.r.t. the feature-grid values."""
    upstream = np.asarray(upstream)
    if upstream.shape != (len(query), features.channels):
        raise ValueError(
            f"upstream must have shape ({len(query)}, {features.channels}), "
            f"got {upstream.shape}"
        )
    i0, f = _vertex_coords(query.points, features.resolution, features.range)
    grad = np.zeros_like(features.values)
    H, W, M, F = features.values.shape
    flat = grad.reshape(-1, F)
    for dx, dy, dz, w in _corner_weights(f):
        idx = ((i0[:, 0] + dx) * W + (i0[:, 1] + dy)) * M + (i0[:, 2] + dz)
        # Cast before scattering: np.add.at is many times slower when it
        # has to cast each float64 contribution to a float32 grid itself.
        np.add.at(flat, idx, (w[:, None] * upstream).astype(flat.dtype, copy=False))
    return grad


def feature_sample_query_grad(
    features: FeatureGrid, query: PointCloud, upstream: np.ndarray
) -> np.ndarray:
    """Gradient of <upstream, feature_sample(...)> w.r.t. query coordinates.

    Zero for coordinates clamped strictly outside the range (moving a clamped
    point does not change the sample).
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    points = query.points
    res = np.asarray(features.resolution)
    i0, f = _vertex_coords(points, features.resolution, features.range)
    # d(fraction)/d(world coordinate), zeroed where the query was clamped.
    du = (res - 1) / features.range.extent
    inside = (points > features.range.lo) & (points < features.range.hi)
    on_edge = (points == features.range.lo) | (points == features.range.hi)
    active = (inside | on_edge).astype(np.float64)

    wx = (1.0 - f[:, 0], f[:, 0])
    wy = (1.0 - f[:, 1], f[:, 1])
    wz = (1.0 - f[:, 2], f[:, 2])
    sign = (-1.0, 1.0)
    grad = np.zeros_like(points)
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                feat = features.values[i0[:, 0] + dx, i0[:, 1] + dy, i0[:, 2] + dz]
                g = (upstream * feat).sum(axis=1)
                grad[:, 0] += g * sign[dx] * wy[dy] * wz[dz] * du[0]
                grad[:, 1] += g * wx[dx] * sign[dy] * wz[dz] * du[1]
                grad[:, 2] += g * wx[dx] * wy[dy] * sign[dz] * du[2]
    return grad * active
