"""Minimal volumetric network layers with hand-written backward passes.

All tensors are channels-last: activations (H, W, M, C), conv weights
(3, 3, 3, C_in, C_out), pointwise weights (C_in, C_out). Convolutions use
"same" zero padding.

`conv3` picks one of two kernels from the layer's stride and C_in; neither
allocates a copy of each tap's shifted view of the input.

- Shifted GEMMs on the flattened padded grid, for stride-1 layers with
  C_in >= FLAT_MIN_CIN (the decoders). Flattened to rows of
  ((H+2)(W+2)(M+2), C_in), tap (dx, dy, dz) of every output row is the
  input row at offset dx*(W+2)(M+2) + dy*(M+2) + dz, so each tap is one
  GEMM on a contiguous row slice. Output rows keep the padded W/M layout
  and the result is a view without the padding columns. Rows go in chunks
  of FLAT_CHUNK_ROWS, so the input rows and the accumulator stay in cache
  across the 27 taps.
- im2col in x-slabs of about IM2COL_SLAB_ELEMS column elements, one GEMM
  per slab, for the stem (C_in = 1, where each tap GEMM degenerates to an
  outer product) and the stride-2 encoders.

`conv3_grads` has three kernels.

- The flat layout, for the decoders while its padded rows cost less than
  the copies they save (FLAT_GRADS_MAX_WASTE). The weight gradient
  accumulates per row chunk. The input gradient is the flat convolution of
  the upstream with the taps mirrored on all three axes and C_in, C_out
  swapped.
- The flat layout with the upstream stored channels-first, for the stem
  (stride 1, C_in = 1), where every tap product is a matrix-vector product.
- 27 GEMMs on copied tap views, for the stride-2 encoders and the smallest
  decoder grids. An im2col backward was no faster there.

Each of them skips the input gradient when called with input_grad=False,
as the stem is: its input is the partial cloud's grid, which has no
parameters. Every bias gradient is a GEMV with a vector of ones.

The elementwise layers avoid temporaries and `np.where`, which on float
arrays runs several times slower than `np.maximum`, while keeping the
reference forms' results bit for bit: `leaky_relu` is max(x, slope*x) and its
gradient scales by max(sign(x), slope); `conv1` and `linear` add the bias in
place; `upsample2_concat` writes the upsampled copies straight into the
concatenation, and `upsample2_grad` adds the 8 copies in the order numpy's
sum over them uses.
"""

from __future__ import annotations

import itertools

import numpy as np

LEAKY_SLOPE = 0.1

# Stride-1 layers with at least this many input channels use shifted GEMMs.
# At C_in = 1 they are 6-12x slower than im2col, at C_in = 2..16 about 2x
# faster (single thread, float32, 32^3 and 64^3 grids).
FLAT_MIN_CIN = 2
# Output rows per shifted-GEMM chunk: a (4096, C_in) float32 input slice is
# at most 3 MB for the widest decoder (C_in = 192) and 0.8 MB for paper
# dec1. Chunks of 1024..8192 rows timed within noise of each other.
FLAT_CHUNK_ROWS = 4096
# Elements of one im2col slab, (rows, 27 * C_in): 1 MB of float32.
IM2COL_SLAB_ELEMS = 1 << 18
# Rows per chunk of the C_in = 1 backward, whose 54 matrix-vector products
# per chunk cost more in call overhead at 4096 rows (desk stem: 4.5 ms at
# 4096, 3.1 ms at 16384, 2.8 ms at 32768; paper stem: 43 ms at 16384, 52 ms
# at 32768).
SINGLE_CHANNEL_CHUNK_ROWS = 16384
# The flat backward runs while _flat_grads_waste stays below this. Measured
# waste per decoder: 1.0 (dec1) and 4.1 (dec2), where flat is 25-50% faster
# than the copying kernel; 16.4-16.6 (dec3, desk and paper), where it is ~10%
# slower.
FLAT_GRADS_MAX_WASTE = 8

_TAPS = tuple(itertools.product(range(3), repeat=3))
_TAPS_2 = tuple(itertools.product(range(2), repeat=3))


def fan_in_uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def leaky_relu(x: np.ndarray) -> np.ndarray:
    # Equals np.where(x > 0, x, LEAKY_SLOPE * x), signed zeros included,
    # at a fraction of its cost.
    return np.maximum(x, LEAKY_SLOPE * x)


def leaky_relu_grad(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    # The slope is 1 where x > 0 and LEAKY_SLOPE elsewhere (sign 0 or -1).
    return upstream * np.maximum(np.sign(x), LEAKY_SLOPE)


def _pad(x: np.ndarray) -> np.ndarray:
    return np.pad(x, ((1, 1), (1, 1), (1, 1), (0, 0)))


def _uses_flat(x: np.ndarray, stride: int) -> bool:
    return stride == 1 and x.shape[-1] >= FLAT_MIN_CIN


def _flat_layout(x: np.ndarray):
    """(padded input as rows, tap row offsets, number of output rows).

    Output row i*(W+2)(M+2) + j*(M+2) + k holds output voxel (i, j, k); the
    rows past the last voxel, (H-1, W-1, M-1), are not computed.
    """
    H, W, M, cin = x.shape
    offsets = [dx * (W + 2) * (M + 2) + dy * (M + 2) + dz for dx, dy, dz in _TAPS]
    return _pad(x).reshape(-1, cin), offsets, _flat_rows(H, W, M)


def _flat_rows(H: int, W: int, M: int) -> int:
    return (H - 1) * (W + 2) * (M + 2) + (W - 1) * (M + 2) + M


def conv3(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1) -> np.ndarray:
    """3x3x3 convolution, zero padding 1, stride 1 or 2."""
    if _uses_flat(x, stride):
        return _conv3_flat(x, w, b)
    return _conv3_im2col(x, w, b, stride)


def _conv3_flat(x: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    H, W, M, cin = x.shape
    cout = w.shape[-1]
    flat, offsets, rows = _flat_layout(x)
    taps = w.reshape(27, cin, cout)
    out = np.zeros((H * (W + 2) * (M + 2), cout), x.dtype)
    tmp = np.empty((FLAT_CHUNK_ROWS, cout), x.dtype)
    for s in range(0, rows, FLAT_CHUNK_ROWS):
        e = min(s + FLAT_CHUNK_ROWS, rows)
        acc = out[s:e]
        part = tmp[: e - s]
        np.matmul(flat[s:e], taps[0], out=acc)
        for o, wk in zip(offsets[1:], taps[1:]):
            np.matmul(flat[s + o : e + o], wk, out=part)
            acc += part
        if b is not None:
            acc += b
    return out.reshape(H, W + 2, M + 2, cout)[:, :W, :M]


def _conv3_im2col(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int) -> np.ndarray:
    H, W, M, cin = x.shape
    cout = w.shape[-1]
    Ho, Wo, Mo = H // stride, W // stride, M // stride
    xp = _pad(x)
    wcol = w.reshape(27 * cin, cout)
    out = np.empty((Ho, Wo, Mo, cout), x.dtype)
    slab = max(1, IM2COL_SLAB_ELEMS // (Wo * Mo * 27 * cin))
    col = np.empty((min(slab, Ho), Wo, Mo, 27, cin), x.dtype)
    for i in range(0, Ho, slab):
        n = min(slab, Ho - i)
        c = col[:n]
        for k, (dx, dy, dz) in enumerate(_TAPS):
            a = dx + stride * i
            c[:, :, :, k] = xp[a : a + stride * n : stride, dy : dy + W : stride, dz : dz + M : stride]
        dst = out[i : i + n]
        np.matmul(c.reshape(-1, 27 * cin), wcol, out=dst.reshape(-1, cout))
        dst += b
    return out


def conv3_grads(
    x: np.ndarray, w: np.ndarray, upstream: np.ndarray, stride: int = 1, *,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of conv3 w.r.t. (input, weights, bias).

    With input_grad=False the input gradient is neither computed nor
    returned (None in its place), for a layer whose input is not trained.
    """
    gb = _bias_grad(upstream.reshape(-1, w.shape[-1]))
    if stride == 1 and x.shape[-1] == 1:
        return (*_conv3_single_channel_grads(x, w, upstream, input_grad), gb)
    if _uses_flat(x, stride) and _flat_grads_waste(x, w) < FLAT_GRADS_MAX_WASTE:
        return (*_conv3_flat_grads(x, w, upstream, input_grad), gb)
    return (*_conv3_shifted_grads(x, w, upstream, stride, input_grad), gb)


def _bias_grad(up: np.ndarray) -> np.ndarray:
    """Column sums of (rows, C) as a GEMV: sum(axis=0) is 3-16x slower."""
    return np.ones(len(up), up.dtype) @ up


def _flat_grads_waste(x: np.ndarray, w: np.ndarray) -> float:
    """Extra GEMM work of the flat backward per copied input value.

    The flat backward computes every row of the padded layout, rows / N - 1
    more than the N output voxels, each a C_in x C_out product; the copying
    kernel instead copies C_in values per voxel and tap.
    """
    H, W, M = x.shape[:3]
    return (_flat_rows(H, W, M) / (H * W * M) - 1) * w.shape[-1]


def _conv3_flat_grads(x: np.ndarray, w: np.ndarray, upstream: np.ndarray, input_grad: bool):
    cin, cout = w.shape[-2:]
    flat, offsets, rows = _flat_layout(x)
    # The padded upstream in the same row layout: output row r sits at
    # row r + offsets[13] (one step in from the corner on each axis).
    up_flat, _, _ = _flat_layout(upstream)
    up = up_flat[offsets[13] : offsets[13] + rows]
    gw = np.zeros_like(w)
    gtaps = gw.reshape(27, cin, cout)
    part = np.empty((cin, cout), gw.dtype)
    for s in range(0, rows, FLAT_CHUNK_ROWS):
        e = min(s + FLAT_CHUNK_ROWS, rows)
        u = up[s:e]
        for k, o in enumerate(offsets):
            np.matmul(flat[s + o : e + o].T, u, out=part)
            gtaps[k] += part
    if not input_grad:
        return None, gw
    # The input gradient is the same convolution of the upstream with the
    # taps mirrored on all three axes and C_in, C_out swapped.
    gx = _conv3_flat(upstream, w[::-1, ::-1, ::-1].swapaxes(3, 4), None)
    return gx, gw


def _conv3_single_channel_grads(
    x: np.ndarray, w: np.ndarray, upstream: np.ndarray, input_grad: bool
):
    # Stride 1, C_in = 1, on the flat padded layout. Every tap product is a
    # matrix-vector product; over channels-last upstream rows of C_out values
    # these run 2-3x slower than over one channel's contiguous row, so the
    # upstream is laid out channels-first.
    H, W, M, _ = x.shape
    cout = w.shape[-1]
    flat, offsets, rows = _flat_layout(x)
    xs = flat[:, 0]
    upT = np.zeros((cout, H + 2, W + 2, M + 2), upstream.dtype)
    upT[:, 1:-1, 1:-1, 1:-1] = np.moveaxis(upstream, 3, 0)
    upT = upT.reshape(cout, -1)
    taps = w.reshape(27, cout)
    gw = np.zeros_like(taps)
    gx = np.zeros(H * (W + 2) * (M + 2), x.dtype)
    part_w = np.empty(cout, gw.dtype)
    part_x = np.empty(SINGLE_CHANNEL_CHUNK_ROWS, x.dtype)
    for s in range(0, rows, SINGLE_CHANNEL_CHUNK_ROWS):
        e = min(s + SINGLE_CHANNEL_CHUNK_ROWS, rows)
        u = upT[:, offsets[13] + s : offsets[13] + e]
        acc = gx[s:e]
        part = part_x[: e - s]
        for k, o in enumerate(offsets):
            np.matmul(u, xs[s + o : e + o], out=part_w)
            gw[k] += part_w
            if input_grad:
                # Input voxel r receives tap k from output row r + 1 - d_k: the
                # mirrored tap 26 - k read at offset o of the padded upstream.
                np.matmul(taps[26 - k], upT[:, s + o : e + o], out=part)
                acc += part
    if not input_grad:
        return None, gw.reshape(w.shape)
    return gx.reshape(H, W + 2, M + 2)[:, :W, :M, None], gw.reshape(w.shape)


def _conv3_shifted_grads(
    x: np.ndarray, w: np.ndarray, upstream: np.ndarray, stride: int, input_grad: bool
):
    H, W, M, cin = x.shape
    up = upstream.reshape(-1, w.shape[-1])
    xp = _pad(x)
    gxp = np.zeros_like(xp) if input_grad else None
    gw = np.zeros_like(w)
    for dx, dy, dz in _TAPS:
        window = (slice(dx, dx + H, stride), slice(dy, dy + W, stride), slice(dz, dz + M, stride))
        sl = np.ascontiguousarray(xp[window]).reshape(-1, cin)
        gw[dx, dy, dz] = sl.T @ up
        if input_grad:
            gxp[window] += (up @ w[dx, dy, dz].T).reshape(*upstream.shape[:3], cin)
    if not input_grad:
        return None, gw
    return gxp[1:-1, 1:-1, 1:-1], gw


def conv1(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise (1x1x1) convolution."""
    H, W, M, cin = x.shape
    out = x.reshape(-1, cin) @ w
    # In place: `@ w + b` allocates a second result array.
    out += b
    return out.reshape(H, W, M, -1)


def conv1_grads(x: np.ndarray, w: np.ndarray, upstream: np.ndarray):
    H, W, M, cin = x.shape
    up = upstream.reshape(-1, w.shape[-1])
    flat = x.reshape(-1, cin)
    gx = (up @ w.T).reshape(x.shape)
    return gx, flat.T @ up, _bias_grad(up)


def upsample2_concat(x: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """Nearest-neighbor x2 upsampling of x on the three spatial axes, then
    concatenated with skip on the channel axis (x's channels first).

    Written straight into the result, in place of three `repeat` copies
    and a concatenation.
    """
    H, W, M, c = x.shape
    out = np.empty((2 * H, 2 * W, 2 * M, c + skip.shape[-1]), x.dtype)
    out.reshape(H, 2, W, 2, M, 2, -1)[..., :c] = x[:, None, :, None, :, None]
    out[..., c:] = skip
    return out


def upsample2_grad(upstream: np.ndarray) -> np.ndarray:
    """Adjoint of the upsampling in `upsample2_concat`: each coarse voxel
    sums its 8 fine copies.

    The 8 copies are added one after another in C order, the order
    `reshape(...).sum(axis=(1, 3, 5))` uses, so the result equals that sum
    bit for bit at 2-5x its speed.
    """
    H, W, M, c = upstream.shape
    v = upstream.reshape(H // 2, 2, W // 2, 2, M // 2, 2, c)
    out = v[:, 0, :, 0, :, 0] + v[:, 0, :, 0, :, 1]
    for dx, dy, dz in _TAPS_2[2:]:
        out += v[:, dx, :, dy, :, dz]
    return out


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = x @ w
    out += b
    return out


def linear_grads(x: np.ndarray, w: np.ndarray, upstream: np.ndarray):
    return upstream @ w.T, x.T @ upstream, _bias_grad(upstream)
