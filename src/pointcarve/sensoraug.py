"""Virtual-sensor augmentation: partial clouds from simulated viewpoints.

A range sensor is placed at unit distance from the (normalized) object
center, points outside its viewing frustum are dropped, and occluded points
are removed with a depth-buffer test. Partials are exact subsets of the
source cloud.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, normalize_unit_cube

DEFAULT_FOV_DEG = 49.1
DEFAULT_DEPTH_BUFFER_RES = 160
MAX_POSE_ATTEMPTS = 16
MIN_VISIBLE_FRAC = 0.05


@dataclass(frozen=True)
class SensorPose:
    """Sensor at unit distance, looking at the origin of normalized space."""

    position: np.ndarray
    view: np.ndarray
    up: np.ndarray
    vfov: float = math.radians(DEFAULT_FOV_DEG)
    hfov: float = math.radians(DEFAULT_FOV_DEG)

    def __post_init__(self):
        pos = np.array(self.position, dtype=np.float64).reshape(3)
        view = np.array(self.view, dtype=np.float64).reshape(3)
        up = np.array(self.up, dtype=np.float64).reshape(3)
        if abs(np.linalg.norm(pos) - 1.0) > 1e-9:
            raise ValueError("sensor position must lie on the unit sphere")
        if abs(np.linalg.norm(view) - 1.0) > 1e-9 or abs(np.linalg.norm(up) - 1.0) > 1e-9:
            raise ValueError("view and up must be unit vectors")
        if abs(float(view @ up)) > 1e-9:
            raise ValueError("up must be orthogonal to view")
        if not (0 < self.vfov < math.pi and 0 < self.hfov < math.pi):
            raise ValueError("fields of view must be in (0, pi)")
        for arr in (pos, view, up):
            arr.flags.writeable = False
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "view", view)
        object.__setattr__(self, "up", up)

    @property
    def right(self) -> np.ndarray:
        return np.cross(self.view, self.up)


@dataclass(frozen=True)
class VisibilityConfig:
    """Depth-buffer sizing for the occlusion test."""

    resolution: int = DEFAULT_DEPTH_BUFFER_RES
    depth_eps: float = 0.01

    def __post_init__(self):
        if self.resolution < 16:
            raise ValueError("depth buffer resolution must be >= 16")
        if self.depth_eps <= 0:
            raise ValueError("depth_eps must be > 0")


def draw_pose(
    rng: np.random.Generator,
    vfov: float = math.radians(DEFAULT_FOV_DEG),
    hfov: float = math.radians(DEFAULT_FOV_DEG),
) -> SensorPose:
    """Pose uniform on the unit sphere, looking at the origin.

    Up is the projection of +z onto the image plane (+x when the view is
    degenerate with z).
    """
    while True:
        v = rng.standard_normal(3)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            break
    position = v / norm
    view = -position
    up = _orthonormal_up(view)
    return SensorPose(position=position, view=view, up=up, vfov=vfov, hfov=hfov)


def _orthonormal_up(view: np.ndarray) -> np.ndarray:
    for axis in (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])):
        up = axis - (axis @ view) * view
        norm = np.linalg.norm(up)
        if norm > 1e-6:
            return up / norm
    raise AssertionError("unreachable: view cannot be parallel to both z and x")


def _camera_coords(points: np.ndarray, pose: SensorPose):
    rel = points - pose.position
    return rel @ pose.right, rel @ pose.up, rel @ pose.view


def frustum_cull(cloud: PointCloud, pose: SensorPose) -> np.ndarray:
    """Indices of points with positive view depth inside both half-FOVs.

    The FOV boundary is closed: a point exactly at the half-angle is kept.
    """
    x, y, z = _camera_coords(cloud.points, pose)
    tan_h = math.tan(pose.hfov / 2)
    tan_v = math.tan(pose.vfov / 2)
    keep = (z > 0) & (np.abs(x) <= tan_h * z) & (np.abs(y) <= tan_v * z)
    return np.flatnonzero(keep)


def visible_points(
    cloud: PointCloud, pose: SensorPose, cfg: VisibilityConfig = VisibilityConfig()
) -> np.ndarray:
    """Frustum-passing indices that survive the depth-buffer occlusion test.

    Points project to a resolution^2 buffer; within each pixel, points whose
    view depth is within depth_eps of the pixel minimum are kept.
    """
    idx = frustum_cull(cloud, pose)
    if len(idx) == 0:
        return idx
    x, y, z = _camera_coords(cloud.points[idx], pose)
    tan_h = math.tan(pose.hfov / 2)
    tan_v = math.tan(pose.vfov / 2)
    res = cfg.resolution
    u = np.clip(((x / (tan_h * z) + 1.0) / 2.0 * res).astype(np.int64), 0, res - 1)
    v = np.clip(((y / (tan_v * z) + 1.0) / 2.0 * res).astype(np.int64), 0, res - 1)
    pixel = u * res + v
    min_depth = np.full(res * res, np.inf)
    np.minimum.at(min_depth, pixel, z)
    keep = z <= min_depth[pixel] + cfg.depth_eps
    return idx[keep]


def generate_partials(
    gt: PointCloud,
    t: int,
    seed: int,
    cfg: VisibilityConfig = VisibilityConfig(),
    vfov: float = math.radians(DEFAULT_FOV_DEG),
    hfov: float = math.radians(DEFAULT_FOV_DEG),
) -> list[PointCloud]:
    """T partial views of gt from independent random sensors.

    The cloud is normalized to [-0.5, 0.5]^3 for the visibility test and the
    surviving points are returned in the original frame (selected by index,
    so each partial is an exact subset of gt). A pose that sees fewer than
    MIN_VISIBLE_FRAC of the points is re-drawn, up to MAX_POSE_ATTEMPTS times.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    normalized = normalize_unit_cube(gt)
    rng = np.random.default_rng(seed)
    partials = []
    min_count = max(1, int(math.ceil(MIN_VISIBLE_FRAC * len(gt))))
    for _ in range(t):
        for _attempt in range(MAX_POSE_ATTEMPTS):
            pose = draw_pose(rng, vfov, hfov)
            idx = visible_points(normalized, pose, cfg)
            if len(idx) >= min_count:
                break
        else:
            raise ValueError("degenerate shape for augmentation")
        partials.append(PointCloud(gt.points[idx]))
    return partials
