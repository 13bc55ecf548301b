"""Minimal volumetric network layers with hand-written backward passes.

All tensors are channels-last: activations (H, W, M, C), conv weights
(3, 3, 3, C_in, C_out), pointwise weights (C_in, C_out). The one exception
is `conv1`'s output, (C_out, H, W, M) planes, which the kernel head reads
tap by tap. Convolutions use "same" zero padding.

Padded layout. A conv input lives in a zero-haloed (H+2, W+2, M+2, C)
buffer made by `padded`, which hands out its (H, W, M, C) interior view, so
every array a layer takes or returns keeps its logical shape. `conv3` and
`conv3_grads` read the halo around such a view in place of padding a copy;
any other array is first copied into the interior of a workspace buffer.
`conv3`, `linear`, `leaky_relu` and `leaky_relu_grad` write into an `out`
array (`conv3` makes a fresh padded one when out is None), so a network
that hands each layer the interior of the next layer's buffer, or a row
chunk of it, runs without a pad or a copy. Only interiors are written,
except by the flat kernels, which re-zero the halo faces their padding rows
spill onto.

Workspace. Each thread keeps two kinds of reusable buffer, which live as
long as the thread. Either may hold only values that die before the public
function that filled them returns; neither appears in a returned value or a
kept tape.

- Scratch: `workspace(role, shape, dtype)` is a view of the first
  prod(shape) elements of the thread's one buffer for (role, dtype), grown
  when a request is larger than it. Lifetimes within a role never overlap,
  so every layer shape shares it. Its contents are undefined: every caller
  writes each element before reading it.
- Haloed: `halo_buffer(role, shape, dtype)` is kept by exact shape and
  zeroed when first made. Callers write only its interior, so its halo stays
  zero; a halo's place moves with the shape, so these are never shared
  across shapes. `padded(shape, dtype, role)`, `carving`'s padded block grid
  and the upsampled backward's parity grids use it.

Flat layout. Flattened to rows of ((H+2)(W+2)(M+2), C_in), tap (dx, dy, dz)
of every output row is the input row at offset dx*(W+2)(M+2) + dy*(M+2) +
dz, so each tap is one GEMM on a contiguous row slice. Output rows keep the
padded W/M layout, which is the output buffer's own layout one step in from
its corner. Rows go in chunks of FLAT_CHUNK_ROWS, so the input rows and the
accumulator stay in cache across the taps. Each chunk accumulates in a
per-thread ring of workspace chunks and is copied into the output
ceil(c / FLAT_CHUNK_ROWS) chunks later, c = (W+2)(M+2) + (M+2) + 1 being
how far a chunk's inputs reach past its own output rows. So `out` may be
x itself: a stride-1 layer with C_in >= 2 can write over its own input.
Every other overlap of `out` with x or `up` is rejected.

`conv3` picks one of three kernels from the layer's stride and C_in; none
allocates a copy of each tap's shifted view of the input.

- Shifted GEMMs on the flat layout, for stride-1 layers with C_in >= 2.
- The flat layout with channels-first columns, for the stem (stride 1,
  C_in = 1), where each tap GEMM would degenerate to an outer product: per
  row chunk the 27 taps' contiguous row slices are stacked into a (27, n)
  block, and one (n, 27) @ (27, C_out) GEMM writes the output rows.
- im2col in x-slabs of about IM2COL_SLAB_ELEMS column elements, one GEMM
  per slab, for the stride-2 encoders. The bias add moves each slab's
  product into the output's interior.

Sub-pixel decoders. `conv3(x, w, b, up=y)` convolves the concatenation
[upsample2(y), x] of a x2 nearest-upsampled coarse input y and a skip x
without forming it; w's first C_up input channels read y. The skip
channels run through the kernels above. Along each axis, a 3-tap window
over an upsampled input sees only two coarse voxels: at output parity 0,
coarse -1 through tap 0 and coarse 0 through taps 1 + 2; at parity 1,
coarse 0 through taps 0 + 1 and coarse +1 through tap 2. So each of the 8
output parities is a 2x2x2 conv of y at coarse resolution with weights
summed from w's taps (`_parity_weights`): 8 shifted GEMMs on y's flat
layout instead of 27 on the upsampled one (Shi et al., "Real-Time Single
Image and Video Super-Resolution Using an Efficient Sub-Pixel CNN", 2016).
Per slab of coarse x-planes, one parity at a time is computed into a
workspace and added into its strided sub-grid of the output (a pixel
shuffle); each output element receives exactly one parity.

`conv3_grads` picks one of two kernels by stride, and has a third for `up`.

- The flat layout, for every stride-1 layer. The weight gradient
  accumulates per row chunk: 27 tap GEMMs, or for the stem (C_in = 1) one
  (27, n) @ (n, C_out) GEMM on the forward's channels-first column block,
  the transpose of the forward's GEMM. The input gradient is the flat
  convolution of the upstream with the taps mirrored on all three axes and
  C_in, C_out swapped.
- 27 GEMMs on copied tap views, for the stride-2 encoders. An im2col
  backward was no faster there.
- With `up`, the upstream's 8 parity sub-grids are copied once into y's
  padded layout. Each parity's 8 weight gradients accumulate per row chunk
  like the flat kernel's and map back onto the 27 taps through the adjoint
  of the tap sums; y's gradient is one flat convolution of the 8 sub-grids
  with the mirrored parity weights, transposed.

Each of them skips the input gradient when called with input_grad=False,
as the stem is: its input is the partial cloud's grid, which has no
parameters. Every bias gradient is a GEMV with a vector of ones.

The elementwise layers avoid temporaries and `np.where`, which on float
arrays runs several times slower than `np.maximum`, while keeping the
reference forms' results bit for bit: `leaky_relu` is max(x, slope*x) and
may run in place; its gradient scales by max(sign(y), slope), which is the
same for y the pre-activation or the activation (both are > 0 exactly
where the other is); `conv1` and `linear` add the bias in place.
"""

from __future__ import annotations

import itertools
import math
import threading
import weakref

import numpy as np

LEAKY_SLOPE = 0.1

# Output rows per shifted-GEMM chunk: a (4096, C_in) float32 input slice is
# at most 3 MB for the widest decoder (C_in = 192) and 0.8 MB for paper
# dec1. Chunks of 1024..8192 rows timed within noise of each other.
FLAT_CHUNK_ROWS = 4096
# Elements of one im2col slab, (rows, 27 * C_in): 1 MB of float32.
IM2COL_SLAB_ELEMS = 1 << 18
# Elements per slab of `leaky_relu`'s scaled copy.
LEAKY_SLAB_ELEMS = 1 << 16

_TAPS = tuple(itertools.product(range(3), repeat=3))
# Output parities of an upsampled conv, and the 2x2x2 coarse taps of each.
_TAPS_2 = tuple(itertools.product(range(2), repeat=3))

_local = threading.local()
# Every live padded buffer by id, so an interior view can be told apart from
# an arbitrary array whose surroundings are not a zero halo.
_PADDED: weakref.WeakValueDictionary[int, np.ndarray] = weakref.WeakValueDictionary()


def _buffers() -> dict:
    """The calling thread's buffers: scratch keyed (role, dtype), haloed
    keyed (role, shape, dtype)."""
    buffers = getattr(_local, "buffers", None)
    if buffers is None:
        buffers = _local.buffers = {}
    return buffers


def workspace(role: str, shape, dtype) -> np.ndarray:
    """A `shape` view of the thread's scratch buffer for (role, dtype),
    grown to fit; its values are undefined, and it is valid until the
    thread's next request for the role."""
    buffers = _buffers()
    key = (role, np.dtype(dtype))
    size = math.prod(shape)
    buf = buffers.get(key)
    if buf is None or buf.size < size:
        buf = buffers[key] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def halo_buffer(role: str, shape, dtype) -> np.ndarray:
    """The thread's buffer for (role, shape, dtype), zeroed when first made,
    so a halo that no user writes stays zero. Never shared across shapes:
    the halo's place moves with the shape."""
    buffers = _buffers()
    key = (role, tuple(shape), np.dtype(dtype))
    buf = buffers.get(key)
    if buf is None:
        buf = buffers[key] = np.zeros(shape, dtype)
    return buf


def padded(shape, dtype, role: str | None = None) -> np.ndarray:
    """The (H, W, M, C) interior of a zero-haloed (H+2, W+2, M+2, C) buffer.

    The buffer is the thread's `halo_buffer` for `role`, or a fresh one when
    role is None (for arrays that outlive the call, such as tapes).
    """
    H, W, M, C = shape
    full = (H + 2, W + 2, M + 2, C)
    buf = np.zeros(full, dtype) if role is None else halo_buffer(role, full, dtype)
    _PADDED[id(buf)] = buf
    return buf[1:-1, 1:-1, 1:-1]


def _halo(x: np.ndarray) -> np.ndarray | None:
    """The padded buffer whose interior x is, or None."""
    buf = x.base
    if buf is None or _PADDED.get(id(buf)) is not buf:
        return None
    inner = buf[1:-1, 1:-1, 1:-1]
    if inner.shape != x.shape or inner.strides != x.strides or inner.ctypes.data != x.ctypes.data:
        return None
    return buf


def _padded_input(x: np.ndarray, role: str) -> np.ndarray:
    """x's padded buffer: its own, else a workspace copy for `role`."""
    buf = _halo(x)
    if buf is None:
        inner = padded(x.shape, x.dtype, role)
        inner[...] = x
        buf = inner.base
    return buf


def fan_in_uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def leaky_relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, slope*x), into `out` (x itself runs it in place; fresh when None).

    Equals np.where(x > 0, x, LEAKY_SLOPE * x), signed zeros included,
    at a fraction of its cost. Runs in slabs along the first axis, so the
    scaled copy is one small workspace buffer.
    """
    if out is None:
        out = np.empty(x.shape, x.dtype)
    step = max(1, LEAKY_SLAB_ELEMS // max(1, x[:1].size))
    scaled = workspace("leaky_relu", (min(step, len(x)), *x.shape[1:]), x.dtype)
    for s in range(0, len(x), step):
        xs = x[s : s + step]
        sc = scaled[: len(xs)]
        np.multiply(xs, LEAKY_SLOPE, out=sc)
        np.maximum(xs, sc, out=out[s : s + step])
    return out


def leaky_relu_grad(y: np.ndarray, upstream: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Upstream (shaped like y) times the slope at y, the pre-activation or
    the activation, into `out` (fresh when None).

    The slope is 1 where y > 0 and LEAKY_SLOPE elsewhere (sign 0 or -1), in
    y's dtype. Runs in slabs along the first axis, like `leaky_relu`, so the
    slope is one small workspace buffer.
    """
    if out is None:
        out = np.empty(y.shape, np.result_type(upstream, y))
    step = max(1, LEAKY_SLAB_ELEMS // max(1, y[:1].size))
    slope = workspace("leaky_relu", (min(step, len(y)), *y.shape[1:]), y.dtype)
    for s in range(0, len(y), step):
        ys = y[s : s + step]
        sl = slope[: len(ys)]
        np.sign(ys, out=sl)
        np.maximum(sl, LEAKY_SLOPE, out=sl)
        np.multiply(upstream[s : s + step], sl, out=out[s : s + step])
    return out


def _flat_layout(xp: np.ndarray):
    """(padded buffer as rows, tap row offsets, number of output rows).

    Output row i*(W+2)(M+2) + j*(M+2) + k holds output voxel (i, j, k); the
    rows past the last voxel, (H-1, W-1, M-1), are not computed.
    """
    Hp, Wp, Mp, cin = xp.shape
    offsets = [dx * Wp * Mp + dy * Mp + dz for dx, dy, dz in _TAPS]
    return xp.reshape(-1, cin), offsets, _flat_rows(Hp - 2, Wp - 2, Mp - 2)


def _flat_rows(H: int, W: int, M: int) -> int:
    return (H - 1) * (W + 2) * (M + 2) + (W - 1) * (M + 2) + M


def _shifted_gemms(
    flat: np.ndarray, pairs, out: np.ndarray, rows: int, b=None, lag: int = 0
) -> None:
    """out[r] = sum over (o, m) in pairs of flat[r + o] @ m (+ b), r < rows.

    With lag > 0, each chunk's result is staged in a per-thread ring of
    lag + 1 chunks and written to out lag chunks later, once no later chunk
    reads the rows it lands on; see `_conv3_flat`.
    """
    (o0, m0), *rest = pairs
    cout = out.shape[-1]
    tmp = workspace("conv3.part", (FLAT_CHUNK_ROWS, cout), out.dtype)
    ring = workspace("conv3.ring", (lag + 1, FLAT_CHUNK_ROWS, cout), out.dtype) if lag else None
    starts = range(0, rows, FLAT_CHUNK_ROWS)

    def commit(k: int) -> None:
        s = starts[k]
        e = min(s + FLAT_CHUNK_ROWS, rows)
        out[s:e] = ring[k % (lag + 1), : e - s]

    for k, s in enumerate(starts):
        e = min(s + FLAT_CHUNK_ROWS, rows)
        acc = out[s:e] if ring is None else ring[k % (lag + 1), : e - s]
        part = tmp[: e - s]
        np.matmul(flat[s + o0 : e + o0], m0, out=acc)
        for o, wk in rest:
            np.matmul(flat[s + o : e + o], wk, out=part)
            acc += part
        if b is not None:
            acc += b
        if ring is not None and k >= lag:
            commit(k - lag)
    if ring is not None:
        for k in range(max(0, len(starts) - lag), len(starts)):
            commit(k)


def _tap_columns(xs: np.ndarray, offsets, s: int, e: int) -> np.ndarray:
    """The (taps, e - s) workspace block whose row k is xs[s + offsets[k] : e + offsets[k]].

    A single-channel input's taps as columns, so that one GEMM replaces an
    outer product per tap.
    """
    col = workspace("conv3.col1", (27, FLAT_CHUNK_ROWS), xs.dtype)[: len(offsets), : e - s]
    for k, o in enumerate(offsets):
        col[k] = xs[s + o : e + o]
    return col


def _shifted_weight_grads(flat: np.ndarray, offsets, up: np.ndarray, gtaps: np.ndarray) -> None:
    """gtaps[k] += sum over rows r of flat[r + offsets[k]]^T up[r].

    With one input channel, each chunk is the transpose of the forward's
    column GEMM: (taps, n) @ (n, C_out).
    """
    part = np.empty(gtaps.shape[1:], gtaps.dtype)
    for s in range(0, len(up), FLAT_CHUNK_ROWS):
        e = min(s + FLAT_CHUNK_ROWS, len(up))
        u = up[s:e]
        if flat.shape[1] == 1:
            gtaps[:, 0] += _tap_columns(flat[:, 0], offsets, s, e) @ u
            continue
        for k, o in enumerate(offsets):
            np.matmul(flat[s + o : e + o].T, u, out=part)
            gtaps[k] += part


def _zero_faces(outp: np.ndarray) -> None:
    """Re-zero the W and M halo faces that a flat kernel's padding rows hit."""
    for face in (outp[1:-1, 0], outp[1:-1, -1], outp[1:-1, :, 0], outp[1:-1, :, -1]):
        face[...] = 0


def conv3(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1, out: np.ndarray | None = None,
    *, up: np.ndarray | None = None,
) -> np.ndarray:
    """3x3x3 convolution, zero padding 1, stride 1 or 2 (even grid sides).

    With `up`, a (H/2, W/2, M/2, C_up) coarse input, the layer input is
    [upsample2(up), x] (stride 1) and w's first C_up input channels read up.
    Writes into `out`, the interior view of a `padded` buffer of the
    output's shape (a fresh one when None), and returns it.
    """
    _check_stride(x.shape, stride)
    c_up = 0 if up is None else _check_up(x, w, up, stride)
    shape = _out_shape(x, w, stride)
    if out is None:
        out = padded(shape, x.dtype)
    _check_shape("out", out, shape)
    _check_aliasing(x, out, up, flat=stride == 1 and x.shape[3] > 1)
    xp = _padded_input(x, "conv3.x")
    w_x = w[..., c_up:, :]
    if stride == 1:
        outp = _halo(out)
        if outp is None:
            raise ValueError("conv3 out must be the interior view of an nn.padded buffer")
        if x.shape[3] == 1:
            _conv3_single_channel(xp, w_x, b, outp)
        else:
            _conv3_flat(xp, w_x, b, outp)
    else:
        _conv3_im2col(xp, w_x, b, stride, out)
    if up is not None:
        _upsampled_conv3(_padded_input(up, "conv3.up"), w[..., :c_up, :], out)
    return out


def _check_stride(shape, stride: int) -> None:
    if stride not in (1, 2):
        raise ValueError(f"conv3 stride must be 1 or 2, got {stride!r} for grid {tuple(shape[:3])}")
    if stride == 2 and any(n % 2 for n in shape[:3]):
        raise ValueError(f"conv3 at stride 2 needs even grid sides, got {tuple(shape[:3])}")


def _out_shape(x: np.ndarray, w: np.ndarray, stride: int) -> tuple[int, ...]:
    return (*(n // stride for n in x.shape[:3]), w.shape[-1])


def _check_shape(role: str, arr: np.ndarray, expected: tuple[int, ...]) -> None:
    if arr.shape != expected:
        raise ValueError(f"conv3 {role} must have shape {expected}, got {arr.shape}")


def _check_aliasing(x: np.ndarray, out: np.ndarray, up: np.ndarray | None, flat: bool) -> None:
    """out may share memory with x only by being x itself, on the flat kernel."""
    if up is not None and np.shares_memory(out, up):
        raise ValueError("conv3 out must not share memory with up")
    same = out.shape == x.shape and out.strides == x.strides and out.ctypes.data == x.ctypes.data
    if not (flat and same) and np.shares_memory(out, x):
        raise ValueError(
            "conv3 out may share memory with x only as x itself, on the flat kernel "
            "(stride 1, C_in >= 2)"
        )


def _check_up(x: np.ndarray, w: np.ndarray, up: np.ndarray, stride: int) -> int:
    """C_up, after checking that up, x and w make an upsampled stride-1 layer."""
    if stride != 1:
        raise ValueError("conv3 with up= needs stride 1")
    if tuple(2 * n for n in up.shape[:3]) != x.shape[:3]:
        raise ValueError(f"up grid {up.shape[:3]} is not half of x grid {x.shape[:3]}")
    if w.shape[3] != up.shape[3] + x.shape[3]:
        raise ValueError(
            f"w has {w.shape[3]} input channels, expected {up.shape[3]} (up) + {x.shape[3]} (x)"
        )
    return up.shape[3]


def _conv3_flat(xp: np.ndarray, w: np.ndarray, b: np.ndarray | None, outp: np.ndarray) -> None:
    """The flat kernel; outp may be xp itself (the layer writes over its input).

    Output row r is row r + c of the padded output, c = offsets[13]: one
    step in from the corner on each axis. A chunk's rows [s, e) land on
    padded rows [s + c, e + c), which the chunks up to ceil(c / chunk) later
    still read (their inputs reach c rows past their own outputs), so the
    result of every chunk is committed that many chunks late.
    """
    cin, cout = w.shape[-2:]
    flat, offsets, rows = _flat_layout(xp)
    c = offsets[13]
    out = outp.reshape(-1, cout)[c:]
    lag = -(-c // FLAT_CHUNK_ROWS)
    _shifted_gemms(flat, zip(offsets, w.reshape(27, cin, cout)), out, rows, b, lag)
    # The rows of the padding columns landed on the W and M halo faces.
    _zero_faces(outp)


def _conv3_single_channel(xp: np.ndarray, w: np.ndarray, b: np.ndarray, outp: np.ndarray) -> None:
    cout = w.shape[-1]
    flat, offsets, rows = _flat_layout(xp)
    xs = flat[:, 0]
    taps = w.reshape(27, cout)
    out = outp.reshape(-1, cout)[offsets[13] :]
    for s in range(0, rows, FLAT_CHUNK_ROWS):
        e = min(s + FLAT_CHUNK_ROWS, rows)
        acc = out[s:e]
        np.matmul(_tap_columns(xs, offsets, s, e).T, taps, out=acc)
        acc += b
    _zero_faces(outp)


def _conv3_im2col(
    xp: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, out: np.ndarray
) -> None:
    Hp, Wp, Mp, cin = xp.shape
    W, M = Wp - 2, Mp - 2
    Ho, Wo, Mo, cout = out.shape
    wcol = w.reshape(27 * cin, cout)
    slab = max(1, IM2COL_SLAB_ELEMS // (Wo * Mo * 27 * cin))
    n_max = min(slab, Ho)
    col = workspace("conv3.col", (n_max, Wo, Mo, 27, cin), xp.dtype)
    prod = workspace("conv3.prod", (n_max * Wo * Mo, cout), out.dtype)
    for i in range(0, Ho, slab):
        n = min(slab, Ho - i)
        c = col[:n]
        for k, (dx, dy, dz) in enumerate(_TAPS):
            a = dx + stride * i
            c[:, :, :, k] = xp[a : a + stride * n : stride, dy : dy + W : stride, dz : dz + M : stride]
        p = prod[: n * Wo * Mo]
        np.matmul(c.reshape(-1, 27 * cin), wcol, out=p)
        np.add(p.reshape(n, Wo, Mo, cout), b, out=out[i : i + n])


def _fold(a: np.ndarray) -> np.ndarray:
    """Axis 0's 3 taps as (parity, coarse tap) sums: [[0, 1+2], [0+1, 2]]."""
    return np.stack([a[0], a[1] + a[2], a[0] + a[1], a[2]]).reshape(2, 2, *a.shape[1:])


def _unfold(g: np.ndarray) -> np.ndarray:
    """Adjoint of `_fold`: leading (parity, coarse tap) axes back to 3 taps."""
    return np.stack([g[0, 0] + g[1, 0], g[0, 1] + g[1, 0], g[0, 1] + g[1, 1]])


def _parity_weights(w: np.ndarray) -> np.ndarray:
    """(8, 8, C_up, C_out): the coarse-tap weights of each output parity.

    Entry [p, t] for parity p and coarse tap t (both indexed as in _TAPS_2)
    sums w's taps on each axis as `_fold` does.
    """
    wc = w
    for axis in (0, 2, 4):
        wc = _fold(np.moveaxis(wc, axis, 0))
    # (pz, tz, py, ty, px, tx, C_up, C_out) -> (px, py, pz, tx, ty, tz, ...)
    return wc.transpose(4, 2, 0, 5, 3, 1, 6, 7).reshape(8, 8, *w.shape[3:])


def _parity_weight_grads(gwc: np.ndarray) -> np.ndarray:
    """Adjoint of `_parity_weights`: (8, 8, C_up, C_out) -> (3, 3, 3, ...)."""
    g = gwc.reshape(2, 2, 2, 2, 2, 2, *gwc.shape[2:]).transpose(2, 5, 1, 4, 0, 3, 6, 7)
    for axis in (4, 2, 0):
        g = np.moveaxis(_unfold(g), 0, axis)
    return g


def _parity_offsets(Wp: int, Mp: int) -> list[list[int]]:
    """Row offset in y's flat layout of coarse tap t of parity p: [p][t].

    Parity p's output at coarse voxel i reads y at i + p + t - 1 on each
    axis, padded index i + p + t.
    """
    return [[(px + tx) * Wp * Mp + (py + ty) * Mp + pz + tz for tx, ty, tz in _TAPS_2]
            for px, py, pz in _TAPS_2]


def _upsampled_conv3(yp: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
    """Adds the conv of w over upsample2(y) into out; yp is y's padded buffer.

    Runs in slabs of whole coarse x-planes, one parity at a time: 8 shifted
    GEMMs into a workspace, then one strided add into that parity's
    sub-grid of the matching fine x-planes of out. Each output element gets
    exactly one parity's add. Rows of the padding columns, and in the last
    slab the rows past the last voxel, are never read back.
    """
    Hp, Wp, Mp, _ = yp.shape
    H, W, M = Hp - 2, Wp - 2, Mp - 2
    cout = w.shape[-1]
    flat = yp.reshape(Hp * Wp * Mp, -1)
    wc = _parity_weights(w)
    offsets = _parity_offsets(Wp, Mp)
    plane = Wp * Mp
    rows = _flat_rows(H, W, M)
    step = min(H, max(1, FLAT_CHUNK_ROWS // plane))
    acc = workspace("conv3.parity", (step * plane, cout), out.dtype)
    # Splitting axes never copies, padded interior views included.
    fine = out.reshape(H, 2, W, 2, M, 2, cout)
    for i in range(0, H, step):
        n = min(step, H - i)
        s, e = i * plane, min((i + n) * plane, rows)
        part = acc[: n * plane].reshape(n, Wp, Mp, cout)[:, :W, :M]
        for p, (px, py, pz) in enumerate(_TAPS_2):
            _shifted_gemms(flat[s:], zip(offsets[p], wc[p]), acc, e - s)
            fine[i : i + n, px, :, py, :, pz] += part


def conv3_grads(
    x: np.ndarray, w: np.ndarray, upstream: np.ndarray, stride: int = 1, *,
    input_grad: bool = True, up: np.ndarray | None = None,
):
    """Gradients of conv3 w.r.t. (input, weights, bias), and up's last.

    Returns (gx, gw, gb), or (gx, gw, gb, gup) when called with `up`. With
    input_grad=False the input gradients are neither computed nor returned
    (None in their place), for a layer whose input is not trained.
    """
    _check_stride(x.shape, stride)
    _check_shape("upstream", upstream, _out_shape(x, w, stride))
    gb = _bias_grad(upstream.reshape(-1, w.shape[-1]))
    if up is None:
        return (*_conv3_grads(x, w, upstream, stride, input_grad), gb)
    c_up = _check_up(x, w, up, stride)
    gx, gw_x = _conv3_grads(x, w[..., c_up:, :], upstream, stride, input_grad)
    gup, gw_up = _upsampled_conv3_grads(
        _padded_input(up, "conv3.up"), w[..., :c_up, :], upstream, input_grad
    )
    return gx, np.concatenate([gw_up, gw_x], axis=3), gb, gup


def _conv3_grads(x: np.ndarray, w: np.ndarray, upstream: np.ndarray, stride: int, input_grad: bool):
    xp = _padded_input(x, "conv3.x")
    if stride == 1:
        return _conv3_flat_grads(xp, w, upstream, input_grad)
    return _conv3_shifted_grads(xp, w, upstream, stride, input_grad)


def _bias_grad(up: np.ndarray) -> np.ndarray:
    """Column sums of (rows, C) as a GEMV: sum(axis=0) is 3-16x slower."""
    return np.ones(len(up), up.dtype) @ up


def _conv3_flat_grads(xp: np.ndarray, w: np.ndarray, upstream: np.ndarray, input_grad: bool):
    cin, cout = w.shape[-2:]
    flat, offsets, rows = _flat_layout(xp)
    # The padded upstream in the same row layout: output row r sits at
    # row r + offsets[13] (one step in from the corner on each axis).
    upp = _padded_input(upstream, "conv3.upstream")
    up = upp.reshape(-1, cout)[offsets[13] : offsets[13] + rows]
    gw = np.zeros(w.shape, w.dtype)
    _shifted_weight_grads(flat, offsets, up, gw.reshape(27, cin, cout))
    if not input_grad:
        return None, gw
    # The input gradient is the same convolution of the upstream with the
    # taps mirrored on all three axes and C_in, C_out swapped.
    gx = padded((*upstream.shape[:3], cin), upstream.dtype)
    _conv3_flat(upp, w[::-1, ::-1, ::-1].swapaxes(3, 4), None, gx.base)
    return gx, gw


def _upsampled_conv3_grads(yp: np.ndarray, w: np.ndarray, upstream: np.ndarray, input_grad: bool):
    """(gy, gw) of `_upsampled_conv3` for the upstream of its output."""
    Hp, Wp, Mp, cup = yp.shape
    H, W, M = Hp - 2, Wp - 2, Mp - 2
    cout = w.shape[-1]
    # The upstream's 8 parity grids, each in y's padded layout; only the
    # interiors are written, so the halo stays zero.
    g = halo_buffer("conv3.parity_upstream", (8, Hp, Wp, Mp, cout), upstream.dtype)
    g.reshape(2, 2, 2, Hp, Wp, Mp, cout)[:, :, :, 1:-1, 1:-1, 1:-1] = upstream.reshape(
        H, 2, W, 2, M, 2, cout
    ).transpose(1, 3, 5, 0, 2, 4, 6)
    gflat = g.reshape(8, -1, cout)
    flat = yp.reshape(-1, cup)
    offsets = _parity_offsets(Wp, Mp)
    rows = _flat_rows(H, W, M)
    center = Wp * Mp + Mp + 1
    gwc = np.zeros((8, 8, cup, cout), w.dtype)
    for p in range(8):
        _shifted_weight_grads(flat, offsets[p], gflat[p, center : center + rows], gwc[p])
    gw = _parity_weight_grads(gwc)
    if not input_grad:
        return None, gw
    # y at padded index j receives tap t of parity p from that parity's
    # output at padded index j + 2 - p - t (per axis): the mirrored offset.
    wc = _parity_weights(w)
    size = Hp * Wp * Mp
    pairs = [(p * size + 2 * center - o, wc[p, t].T)
             for p in range(8) for t, o in enumerate(offsets[p])]
    gy = padded((H, W, M, cup), upstream.dtype)
    _shifted_gemms(g.reshape(-1, cout), pairs, gy.base.reshape(-1, cup)[center:], rows)
    _zero_faces(gy.base)
    return gy, gw


def _conv3_shifted_grads(
    xp: np.ndarray, w: np.ndarray, upstream: np.ndarray, stride: int, input_grad: bool
):
    Hp, Wp, Mp, cin = xp.shape
    H, W, M = Hp - 2, Wp - 2, Mp - 2
    up = upstream.reshape(-1, w.shape[-1])
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
    """Pointwise (1x1x1) convolution of an (H, W, M, C_in) input (a strided
    one is copied to rows first) into contiguous (C_out, H, W, M) planes,
    computed as w.T @ x.T (bit-equal to the row product x @ w).
    """
    H, W, M, cin = x.shape
    # Bias in place: `+ b` would allocate a second result array.
    out = w.T @ x.reshape(-1, cin).T
    out += b[:, None]
    return out.reshape(-1, H, W, M)


def conv1_grads(x: np.ndarray, w: np.ndarray, upstream: np.ndarray):
    """Gradients of conv1 w.r.t. (input, weights, bias) given the upstream of
    its channels-first output: contiguous (C_out, H, W, M) planes, read in
    place as transposed rows.
    """
    H, W, M, cin = x.shape
    up = upstream.reshape(w.shape[-1], -1).T
    flat = x.reshape(-1, cin)
    gx = (up @ w.T).reshape(x.shape)
    return gx, flat.T @ up, _bias_grad(up)


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x @ w + b, into `out` (fresh when None)."""
    out = np.matmul(x, w, out=out)
    out += b
    return out


def linear_grads(x: np.ndarray, w: np.ndarray, upstream: np.ndarray):
    return upstream @ w.T, x.T @ upstream, _bias_grad(upstream)
