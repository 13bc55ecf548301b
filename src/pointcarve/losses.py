"""Chamfer distance, its adjoint, and the completion/similarity objectives.

CD(X1, X2) = mean over X1 of the squared distance to its nearest neighbor in
X2, plus the same with the roles swapped. Nearest neighbors are exact: the
k-d tree is used for the queries only and the squared distances are
recomputed from the matched coordinates.

Each direction builds one k-d tree. `chamfer_and_grad` returns the distance
and both gradients from one pair of nearest-neighbor matchings, the two trees
`chamfer` alone builds; training calls it instead of `chamfer` followed by
`chamfer_grad`, which would match every pair twice.

scipy is imported at the first k-d tree build, not with this module: serving
`complete` builds no tree, so it never pays the ~0.2 s import.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud


def cKDTree(data: np.ndarray):
    """A `scipy.spatial.cKDTree` over `data`, scipy imported at the first call.

    `_nearest` builds its trees through this module-level name, so a caller
    can wrap it to count or replace the builds.
    """
    from scipy.spatial import cKDTree as tree

    return tree(data)


def _nearest(query: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Index into `target` of each query point's exact nearest neighbor."""
    _, idx = cKDTree(target).query(query, k=1)
    return np.asarray(idx, dtype=np.int64)


def _one_sided(src: np.ndarray, dst: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(mean squared nearest distance, matched indices, src - matched dst)."""
    idx = _nearest(src, dst)
    diff = src - dst[idx]
    sq = (diff**2).sum(axis=1)
    return float(sq.mean()), idx, diff


def chamfer(x1: PointCloud, x2: PointCloud) -> float:
    """Symmetric mean-of-minimum squared distances between two clouds."""
    if len(x1) == 0 or len(x2) == 0:
        raise ValueError("empty input")
    a, _, _ = _one_sided(x1.points, x2.points)
    b, _, _ = _one_sided(x2.points, x1.points)
    return a + b


def chamfer_and_grad(
    x1: PointCloud, x2: PointCloud, upstream: float = 1.0
) -> tuple[float, np.ndarray, np.ndarray]:
    """(CD, gradients of upstream * CD w.r.t. both clouds' coordinates).

    The distance equals `chamfer(x1, x2)` and the gradients equal
    `chamfer_grad(x1, x2, upstream)` bit for bit; both come from one
    nearest-neighbor query per direction. Nearest-neighbor assignments are
    treated as locally constant; each matched pair (p, q) contributes
    2 (p - q) / |side| to p per direction term. Argmin ties go to the index
    the tree returns (lowest for coincident points; general ties are
    measure-zero).
    """
    if len(x1) == 0 or len(x2) == 0:
        raise ValueError("empty input")
    p1, p2 = x1.points, x2.points
    a, idx12, d12 = _one_sided(p1, p2)
    b, idx21, d21 = _one_sided(p2, p1)
    t1 = 2.0 * d12 / len(p1)
    t2 = 2.0 * d21 / len(p2)
    # Each direction term pulls on both sides of its matched pairs.
    g1 = t1.copy()
    np.add.at(g1, idx21, -t2)
    g2 = t2.copy()
    np.add.at(g2, idx12, -t1)
    return a + b, upstream * g1, upstream * g2


def chamfer_grad(
    x1: PointCloud, x2: PointCloud, upstream: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of upstream * CD w.r.t. both clouds' coordinates; see
    `chamfer_and_grad`."""
    _, g1, g2 = chamfer_and_grad(x1, x2, upstream)
    return g1, g2


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term values of the total objective total = comp + alpha * sim."""

    comp: float
    sim: float
    alpha: float
    cd_coarse: float
    cd_dense: float
    variant_cds: tuple[tuple[float, float], ...] = ()

    @property
    def total(self) -> float:
        return self.comp + self.alpha * self.sim


def loss_comp(coarse: PointCloud, dense: PointCloud, gt: PointCloud) -> float:
    """Completion loss: CD(coarse, gt) + CD(dense, gt)."""
    return chamfer(coarse, gt) + chamfer(dense, gt)


def loss_sim(
    variant_coarse: list[PointCloud],
    variant_dense: list[PointCloud],
    anchor_coarse: PointCloud,
    anchor_dense: PointCloud,
) -> float:
    """Similarity loss: sum over variants of CD(C_i, C) + CD(Q_i, Q)."""
    if len(variant_coarse) != len(variant_dense):
        raise ValueError("variant lists must have equal length")
    total = 0.0
    for c_i, q_i in zip(variant_coarse, variant_dense):
        total += chamfer(c_i, anchor_coarse) + chamfer(q_i, anchor_dense)
    return total
