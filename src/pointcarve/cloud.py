"""Core point-cloud types: clouds, bounding ranges, and point-block assembly.

A point-block is the union of a partial cloud and a set of filler points
spread through the partial's estimated bounding range; it is the raw
material the carving stage whittles down to a coarse completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_EPS_BOX_FRAC = 1e-3


def _as_points_array(points) -> np.ndarray:
    arr = np.array(points, dtype=np.float64, copy=True)
    if arr.ndim == 1 and arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"points must have shape (N, 3), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("points contain non-finite values")
    return arr


@dataclass(frozen=True)
class PointCloud:
    """An ordered set of 3D points.

    `points` is an (N, 3) float64 array, copied on construction and marked
    read-only; treat instances as immutable values.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = _as_points_array(self.points)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @staticmethod
    def empty() -> "PointCloud":
        return PointCloud(np.zeros((0, 3)))


@dataclass(frozen=True)
class BoundingRange:
    """Axis-aligned box; `lo` strictly below `hi` on every axis."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.array(self.lo, dtype=np.float64, copy=True).reshape(3)
        hi = np.array(self.hi, dtype=np.float64, copy=True).reshape(3)
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("range corners must be finite")
        if not np.all(lo < hi):
            raise ValueError(f"range must satisfy lo < hi per axis, got lo={lo} hi={hi}")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def extent(self) -> np.ndarray:
        return self.hi - self.lo

    def contains(self, points: np.ndarray) -> np.ndarray:
        return np.all((points >= self.lo) & (points <= self.hi), axis=1)

    def clamp(self, points: np.ndarray) -> np.ndarray:
        return np.clip(points, self.lo, self.hi)


@dataclass(frozen=True)
class PointBlock:
    """Partial cloud plus filler points, with provenance kept separate."""

    partial: PointCloud
    sampled: PointCloud
    range: BoundingRange
    clamped_count: int = field(default=0, compare=False)

    def __post_init__(self):
        for name, cloud in (("partial", self.partial), ("sampled", self.sampled)):
            if len(cloud) and not np.all(self.range.contains(cloud.points)):
                raise ValueError(f"{name} points fall outside the block range")

    def all_points(self) -> np.ndarray:
        """Concatenated (|partial| + |sampled|, 3) coordinates, partial first."""
        return np.concatenate([self.partial.points, self.sampled.points], axis=0)

    def __len__(self) -> int:
        return len(self.partial) + len(self.sampled)


def compute_bounds(
    cloud: PointCloud,
    padding: float = 0.0,
    eps_box: float | None = None,
    eps_box_frac: float = DEFAULT_EPS_BOX_FRAC,
) -> BoundingRange:
    """Tight axis-aligned bounds expanded symmetrically by `padding` per side.

    Degenerate axes (zero extent) are widened to the absolute `eps_box`,
    which defaults to `eps_box_frac` times the largest extent. A fully
    degenerate cloud (single point) therefore errors unless an explicit
    eps_box > 0 is given.
    """
    if len(cloud) == 0:
        raise ValueError("empty input")
    if padding < 0:
        raise ValueError("padding must be >= 0")
    lo = cloud.points.min(axis=0)
    hi = cloud.points.max(axis=0)
    extent = hi - lo
    if eps_box is None:
        eps_box = eps_box_frac * float(extent.max())
    if eps_box <= 0 and not np.all(extent > 0):
        raise ValueError("degenerate cloud and eps_box is zero")
    lo = lo - padding * extent
    hi = hi + padding * extent
    degenerate = extent == 0
    lo = np.where(degenerate, lo - eps_box / 2, lo)
    hi = np.where(degenerate, hi + eps_box / 2, hi)
    return BoundingRange(lo, hi)


def sample_block_points(range: BoundingRange, n_per_axis: int) -> PointCloud:
    """n_per_axis^3 filler points at the centers of an n^3 regular subdivision."""
    if n_per_axis < 2:
        raise ValueError("n_per_axis must be >= 2")
    ticks = [
        range.lo[a] + (np.arange(n_per_axis) + 0.5) / n_per_axis * range.extent[a]
        for a in (0, 1, 2)
    ]
    gx, gy, gz = np.meshgrid(*ticks, indexing="ij")
    return PointCloud(np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1))


def build_point_block(partial: PointCloud, range: BoundingRange, n_per_axis: int) -> PointBlock:
    """Assemble a point-block; out-of-range partial points are clamped.

    The number of clamped points is reported on the block rather than raised,
    to stay robust to noisy range estimates.
    """
    return assemble_block(partial, sample_block_points(range, n_per_axis), range)


def assemble_block(partial: PointCloud, sampled: PointCloud, range: BoundingRange) -> PointBlock:
    """The partial, clamped into range, with the given filler points."""
    inside = range.contains(partial.points) if len(partial) else np.zeros(0, dtype=bool)
    clamped = int(len(partial) - inside.sum())
    return PointBlock(
        partial=PointCloud(range.clamp(partial.points)) if clamped else partial,
        sampled=sampled,
        range=range,
        clamped_count=clamped,
    )


def normalize_unit_cube(cloud: PointCloud) -> PointCloud:
    """Isotropically scale + translate so the tight box fits in [-0.5, 0.5]^3.

    The longest axis spans exactly [-0.5, 0.5].
    """
    if len(cloud) == 0:
        raise ValueError("empty input")
    lo = cloud.points.min(axis=0)
    hi = cloud.points.max(axis=0)
    extent = float((hi - lo).max())
    if extent == 0 or not np.isfinite(1.0 / extent):
        raise ValueError("all points coincident; cannot normalize")
    return PointCloud((cloud.points - (lo + hi) / 2.0) * (1.0 / extent))
