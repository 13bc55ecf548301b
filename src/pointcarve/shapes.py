"""Synthetic test shapes: uniform-by-area surface sampling of analytic solids.

The families cover the regimes that make completion hard at desk scale:
curved (sphere, torus), concave (l_solid, wedge) and hollow (hollow_box,
torus) geometry. Sampling is seeded and area-uniform across each shape's
primitive faces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud

FAMILIES = ("box", "sphere", "torus", "l_solid", "hollow_box", "wedge")
# Fewest surface samples a synthetic shape may have.
MIN_POINTS = 64


@dataclass(frozen=True)
class SyntheticShapeSpec:
    family: str
    dims: tuple[float, ...] = ()
    count: int = 2048
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.count < MIN_POINTS:
            raise ValueError(f"count must be >= {MIN_POINTS}")
        dims = tuple(float(d) for d in self.dims) or _default_dims(self.family)
        if any(d <= 0 for d in dims):
            raise ValueError("dimensional parameters must be positive")
        object.__setattr__(self, "dims", dims)


def _default_dims(family: str) -> tuple[float, ...]:
    return {
        "box": (1.0, 0.7, 0.5),
        "sphere": (0.5,),
        "torus": (0.35, 0.12),
        "l_solid": (1.0, 0.8, 0.5, 0.5, 0.4),
        "hollow_box": (1.0, 0.8, 0.6, 0.12),
        "wedge": (1.0, 0.7, 0.6),
    }[family]


@dataclass(frozen=True)
class _Rect:
    origin: np.ndarray
    u: np.ndarray
    v: np.ndarray

    @property
    def area(self) -> float:
        return float(np.linalg.norm(np.cross(self.u, self.v)))

    def sample(self, ab: np.ndarray) -> np.ndarray:
        return self.origin + ab[:, :1] * self.u + ab[:, 1:2] * self.v


@dataclass(frozen=True)
class _Tri:
    p0: np.ndarray
    p1: np.ndarray
    p2: np.ndarray

    @property
    def area(self) -> float:
        return 0.5 * float(np.linalg.norm(np.cross(self.p1 - self.p0, self.p2 - self.p0)))

    def sample(self, ab: np.ndarray) -> np.ndarray:
        # Square-root trick for uniform barycentric coordinates.
        r1 = np.sqrt(ab[:, :1])
        r2 = ab[:, 1:2]
        return (1 - r1) * self.p0 + r1 * (1 - r2) * self.p1 + r1 * r2 * self.p2


def _box_faces(lo: np.ndarray, hi: np.ndarray) -> list[_Rect]:
    ex = np.array([hi[0] - lo[0], 0, 0])
    ey = np.array([0, hi[1] - lo[1], 0])
    ez = np.array([0, 0, hi[2] - lo[2]])
    top = np.array([lo[0], lo[1], hi[2]])
    east = np.array([hi[0], lo[1], lo[2]])
    north = np.array([lo[0], hi[1], lo[2]])
    return [
        _Rect(lo, ex, ey),      # bottom
        _Rect(top, ex, ey),     # top
        _Rect(lo, ex, ez),      # south
        _Rect(north, ex, ez),   # north
        _Rect(lo, ey, ez),      # west
        _Rect(east, ey, ez),    # east
    ]


def _l_solid_faces(sx: float, sy: float, sz: float, cx: float, cy: float) -> list[_Rect]:
    """Big box minus the (x > sx-cx, y > sy-cy) corner column, full height."""
    ax, ay = sx - cx, sy - cy  # inner corner of the L
    z0, z1 = 0.0, sz
    ez = np.array([0, 0, sz])

    def rect_xy(x0, y0, x1, y1, z):
        return _Rect(np.array([x0, y0, z]), np.array([x1 - x0, 0, 0]), np.array([0, y1 - y0, 0]))

    faces = []
    for z in (z0, z1):
        # L-shaped cap split into two rectangles.
        faces.append(rect_xy(0, 0, sx, ay, z))
        faces.append(rect_xy(0, ay, ax, sy, z))
    # Outer walls.
    faces.append(_Rect(np.array([0, 0, 0]), np.array([sx, 0, 0]), ez))        # y=0
    faces.append(_Rect(np.array([0, 0, 0]), np.array([0, sy, 0]), ez))        # x=0
    faces.append(_Rect(np.array([0, sy, 0]), np.array([ax, 0, 0]), ez))       # y=sy (short)
    faces.append(_Rect(np.array([sx, 0, 0]), np.array([0, ay, 0]), ez))       # x=sx (short)
    # Inner (concave) walls of the notch.
    faces.append(_Rect(np.array([ax, ay, 0]), np.array([0, cy, 0]), ez))      # x=ax
    faces.append(_Rect(np.array([ax, ay, 0]), np.array([cx, 0, 0]), ez))      # y=ay
    return faces


def _wedge_faces(sx: float, sy: float, sz: float) -> list:
    """Right triangular prism: triangle (0,0)-(sx,0)-(0,sz) in xz, extruded in y."""
    a0 = np.array([0.0, 0.0, 0.0])
    b0 = np.array([sx, 0.0, 0.0])
    c0 = np.array([0.0, 0.0, sz])
    ey = np.array([0.0, sy, 0.0])
    return [
        _Tri(a0, b0, c0),
        _Tri(a0 + ey, b0 + ey, c0 + ey),
        _Rect(a0, b0 - a0, ey),        # bottom
        _Rect(a0, c0 - a0, ey),        # back
        _Rect(b0, c0 - b0, ey),        # slant
    ]


def _sample_primitives(prims: list, count: int, rng: np.random.Generator) -> np.ndarray:
    areas = np.array([p.area for p in prims])
    choice = rng.choice(len(prims), size=count, p=areas / areas.sum())
    ab = rng.random((count, 2))
    out = np.empty((count, 3))
    for i, prim in enumerate(prims):
        mask = choice == i
        if mask.any():
            out[mask] = prim.sample(ab[mask])
    return out


def gen_shape(spec: SyntheticShapeSpec) -> tuple[PointCloud, str]:
    """Sample `spec.count` surface points; returns (cloud, category label)."""
    rng = np.random.default_rng(spec.seed)
    d = spec.dims
    if spec.family == "sphere":
        radius = d[0]
        v = rng.standard_normal((spec.count, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        pts = radius * v
    elif spec.family == "torus":
        major, minor = d[0], d[1]
        pts = _sample_torus(major, minor, spec.count, rng)
    elif spec.family == "box":
        pts = _sample_primitives(_box_faces(np.zeros(3), np.array(d[:3])), spec.count, rng)
    elif spec.family == "hollow_box":
        sx, sy, sz, t = d[:4]
        if 2 * t >= min(sx, sy, sz):
            raise ValueError("hollow_box wall thickness too large for the box")
        outer = _box_faces(np.zeros(3), np.array([sx, sy, sz]))
        inner = _box_faces(np.full(3, t), np.array([sx - t, sy - t, sz - t]))
        pts = _sample_primitives(outer + inner, spec.count, rng)
    elif spec.family == "l_solid":
        sx, sy, sz, cx, cy = d[:5]
        if cx >= sx or cy >= sy:
            raise ValueError("l_solid notch must be smaller than the box")
        pts = _sample_primitives(_l_solid_faces(sx, sy, sz, cx, cy), spec.count, rng)
    elif spec.family == "wedge":
        pts = _sample_primitives(_wedge_faces(*d[:3]), spec.count, rng)
    else:  # unreachable; guarded by the spec validator
        raise AssertionError(spec.family)
    return PointCloud(pts), spec.family


def _sample_torus(major: float, minor: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Area-uniform torus sampling by rejection on the tube angle."""
    if minor >= major:
        raise ValueError("torus minor radius must be below the major radius")
    pts = np.empty((count, 3))
    done = 0
    while done < count:
        n = (count - done) * 2 + 16
        theta = rng.random(n) * 2 * math.pi
        phi = rng.random(n) * 2 * math.pi
        accept = rng.random(n) <= (major + minor * np.cos(phi)) / (major + minor)
        theta, phi = theta[accept], phi[accept]
        take = min(len(theta), count - done)
        ring = major + minor * np.cos(phi[:take])
        pts[done : done + take, 0] = ring * np.cos(theta[:take])
        pts[done : done + take, 1] = ring * np.sin(theta[:take])
        pts[done : done + take, 2] = minor * np.sin(phi[:take])
        done += take
    return pts
