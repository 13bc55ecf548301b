"""Coarse-to-dense refinement: each coarse point's features and
coordinates through a small fully-connected stack produce r offset vectors
per coarse point.

`refine` is a plain MLP over the (m, F + 3) rows of [features, coords].
The features come from `engrave`, which samples the decoder trunk at the
coarse points and runs the feature head on those rows, so the sampling and
its adjoints belong to the carve stage, not here.

The dense cloud replicates each coarse point r times and displaces the
copies, so |dense| = r * |coarse| and a zero-initialized final layer leaves
every copy on its source point.

Memory. `refine` runs the MLP over the coarse points in row chunks of
REFINE_CHUNK_ROWS. Without a kept tape each hidden layer's chunk lives in
one of the calling thread's `nn.workspace` buffers, so inference never
holds an (m, width) hidden activation. At the paper preset (m = 2048,
widths 1792, 2448 and 112) those would be 34 MiB of float32 a call; the
chunk buffers are 8.5 MiB, reused by every call. A training forward keeps
each layer's whole activation on its tape for `refine_grads`, and its
chunks are row slices of those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .cloud import PointCloud

# Coarse points per chunk of the MLP. With OpenBLAS 0.3.31 on one thread,
# chunks of 512 and 1024 rows give the paper preset's dense cloud
# byte-identical to a whole-batch forward, in float32 and float64; chunks of
# 128 and 256 rows changed its float32 rounding.
REFINE_CHUNK_ROWS = 512


# The refinement MLP's (weight, bias) pairs, input layer first: weight i is
# (d_i, d_{i+1}) with d_0 = F + 3, and the last layer's width is 3 * r.
Layers = list[tuple[np.ndarray, np.ndarray]]


@dataclass
class RefineTape:
    """What `refine_grads` reads of one `refine` call with keep_cache: every
    layer's input, the first being the (m, F + 3) [features, coords] rows,
    and the head's output, each a fresh (m, width) array. The hidden
    activations ran in place over their pre-activations; their gradients
    read the activation's sign, which equals the pre-activation's."""

    acts: list[np.ndarray]


def refine(
    coarse: PointCloud, features: np.ndarray, params: Layers, keep_cache: bool = False
) -> tuple[PointCloud, RefineTape | None]:
    """Expand the coarse cloud to r points per input point via offsets from
    the MLP whose (w, b) layer pairs are `params`, over each point's (F,)
    features and its coordinates.

    Returns (dense, tape): with keep_cache the tape for `refine_grads`, else
    None. Output ordering: dense index = coarse index * r + offset index.

    The MLP runs over the coarse points in chunks of REFINE_CHUNK_ROWS rows.
    Each layer's chunk is a row slice of the tape's (m, width) array, or
    without keep_cache a per-thread `nn.workspace` buffer, so the served
    path never holds a whole hidden activation. The last layer writes into
    the (m, 3r) offsets either way.
    """
    if len(coarse) == 0:
        raise ValueError("empty input")
    dtype = params[0][0].dtype
    biggest, limit = float(np.abs(coarse.points).max()), float(np.finfo(dtype).max)
    if biggest > limit:
        raise ValueError(
            f"coarse coordinates overflow {dtype}: largest magnitude {biggest:.3g} "
            f"exceeds {limit:.3g}"
        )
    m, n = len(coarse), len(params)
    if features.ndim != 2 or len(features) != m or features.shape[1] + 3 != len(params[0][0]):
        raise ValueError(
            f"features {features.shape} for {m} points: feature dim + 3 coordinates "
            f"must match first-layer input width {len(params[0][0])}"
        )
    x = np.concatenate([features.astype(dtype, copy=False), coarse.points.astype(dtype)], axis=1)
    # Layer i writes rows [s, e) of a whole array (the tape's, and always the
    # last layer's), or the first e - s rows of its workspace buffer.
    whole = [keep_cache or i == n - 1 for i in range(n)]
    outs = [
        np.empty((m, w.shape[1]), dtype) if whole[i]
        else nn.workspace(f"refine.act{i + 1}", (REFINE_CHUNK_ROWS, w.shape[1]), dtype)
        for i, (w, _) in enumerate(params)
    ]
    for s in range(0, m, REFINE_CHUNK_ROWS):
        e = min(s + REFINE_CHUNK_ROWS, m)
        h = x[s:e]
        for i, (w, b) in enumerate(params):
            h = nn.linear(h, w, b, out=outs[i][s:e] if whole[i] else outs[i][: e - s])
            if i < n - 1:
                nn.leaky_relu(h, out=h)
    offsets = outs[-1].astype(np.float64).reshape(m, -1, 3)
    dense = (coarse.points[:, None, :] + offsets).reshape(-1, 3)
    tape = RefineTape([x, *outs]) if keep_cache else None
    return PointCloud(dense), tape


def refine_grads(
    tape: RefineTape, params: Layers, upstream: np.ndarray
) -> tuple[Layers, np.ndarray, np.ndarray]:
    """Adjoints of the `refine` call that recorded `tape` w.r.t. (its
    (w, b) layer pairs, the (m, F) features, the coarse coordinates).

    The coarse-coordinate gradient has two paths: the identity path (each
    dense point starts at its source) and the coordinate input of the MLP.
    """
    acts = tape.acts
    m, n = len(acts[0]), len(params)
    r = params[-1][0].shape[1] // 3
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (m * r, 3):
        raise ValueError(f"upstream must have shape ({m * r}, 3), got {upstream.shape}")

    d_coarse_identity = upstream.reshape(m, r, 3).sum(axis=1)
    d = upstream.reshape(m, r * 3).astype(params[0][0].dtype)
    grads: Layers = [None] * n
    for i in range(n - 1, -1, -1):
        if i < n - 1:
            d = nn.leaky_relu_grad(acts[i + 1], d)
        d, gw, gb = nn.linear_grads(acts[i], params[i][0], d)
        grads[i] = (gw, gb)
    return grads, d[:, :-3], d_coarse_identity + d[:, -3:].astype(np.float64)
