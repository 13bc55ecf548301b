"""Point-block engraving: per-cell convolution kernels predicted from the
partial cloud's grid, applied to the block's grid, then mapped back to points.

Every grid cell owns its own K^3 convolution kernel (no weight sharing); the
kernels are produced by a volumetric encoder-decoder over the partial cloud's
gridding, whose feature head also gives the refinement stage its per-point
features.

`engrave_grads` is the adjoint of `engrave`, as `refine_grads` is of
`refine`, and reads only what `engrave` saved. Only the kernels train: the
block grid is gridded from points, with no parameters upstream, so
`cell_conv_grads` gives a kernel head's (trunk, weight, bias) gradients and
no grid gradient.

Memory layout of the inference forward:

- The encoder-decoder keeps its activations in `nn.padded` buffers, each
  layer writing into the interior of the next layer's buffer, so no layer
  pads or copies its input. The activation runs in place.
- One buffer per level. It holds the stem or encoder output, which is also
  the skip input of the decoder at that level, and then that decoder's
  output: each decoder takes the coarser activation as
  `nn.conv3(skip, ..., out=skip, up=y)`, which convolves
  [upsample2(y), skip] without forming the upsampled copy or the
  concatenation, and writes over the skip it has finished reading (see
  `nn`'s flat layout).
- Every decoder's activation runs in place, so the trunk both heads read
  is the interior of level0's padded buffer.
- Training keeps its activations (`keep_cache`): there each decoder writes a
  fresh buffer, because the backward reads both the skips and the
  decoders' activations. A kept tape is consumed by its backward:
  `engrave_grads` takes it out of the `EngraveResult` and hands the trunk
  gradient to it, so the tape owns that gradient too. `_unet_backward`
  releases the trunk gradient, each activation, skip and skip gradient as
  soon as its last reader is done, so a level's buffers are gone before
  the next level's backward runs.
- The kernel head's K^3 * H * W * M values never exist as a whole.
  `engrave` hands `cell_conv` the trunk and the head's weights, and
  `cell_conv` evaluates the taps one slab of x-planes at a time
  (KERNEL_SLAB_VOXELS), each slab one `nn.conv1` into (K^3, slab) planes
  that are freed before the next slab's are made. `cell_conv_grads` feeds
  each slab's tap gradient, in a workspace buffer, straight to the head's
  backward on that trunk slab.
- The feature head runs after sampling. It is affine and a point's
  trilinear weights sum to 1, so head(sample(trunk)) = sample(head(trunk)).
  `engrave` carves first, samples the trunk in place at the m coarse points
  (`feature_sample` over a `FeatureGrid` view of it) and runs the head as
  one GEMM on those (m, C) rows: `EngraveResult.features` is the (m, F)
  array `refine` reads. `predict_kernels` runs the same head over every
  vertex, the dense reference.
- Without a kept cache, those padded buffers and every other temporary come
  from the calling thread's workspace (`nn.halo_buffer` for the padded ones,
  `nn.workspace` scratch for the rest) and are reused by the next call.
  A workspace buffer never leaves the public function that fills it: the
  carved grid, the features, `EngraveResult`, `predict_kernels`'
  results and a kept `unet_cache` are fresh arrays their caller owns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .cloud import PointBlock, PointCloud
from .gridding import (
    FeatureGrid,
    VoxelGrid,
    feature_sample,
    feature_sample_grad,
    feature_sample_query_grad,
    gridding,
    gridding_reverse,
    gridding_reverse_grad,
)


# Voxels per slab of whole x-planes (at least one plane) in which
# `cell_conv` and `cell_conv_grads` evaluate a kernel head: at K = 3 a
# slab's taps are 1.7 MB of float32.
KERNEL_SLAB_VOXELS = 1 << 14


def _check_finite(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ValueError("kernel head output contains non-finite values")
    return values


def _head_kernel_size(
    block_grid: VoxelGrid, trunk: np.ndarray, w: np.ndarray, b: np.ndarray
) -> int:
    """K of the kernel head (w, b) over `trunk`: w is (C, K^3) and b (K^3,)
    for an odd K, and the (H, W, M, C) trunk lies on the block grid."""
    taps = b.shape[0] if b.ndim == 1 else 0
    K = round(taps ** (1 / 3))
    if trunk.ndim != 4 or w.shape != (trunk.shape[3], taps) or K**3 != taps or K % 2 == 0:
        raise ValueError(
            f"kernel head ({w.shape}, {b.shape}) does not map trunk {trunk.shape} "
            f"to K^3 taps for an odd K"
        )
    if trunk.shape[:3] != block_grid.values.shape:
        raise ValueError(
            f"kernel head trunk resolution {trunk.shape[:3]} does not match "
            f"grid resolution {block_grid.values.shape}"
        )
    return K


def _slabs(H: int, plane: int) -> list[tuple[int, int]]:
    """[s, e) ranges of whole x-planes, each at most KERNEL_SLAB_VOXELS
    voxels (or one plane of `plane` voxels)."""
    step = max(1, KERNEL_SLAB_VOXELS // plane)
    return [(s, min(s + step, H)) for s in range(0, H, step)]


def kernel_offsets(kernel_size: int) -> np.ndarray:
    """The (K^3, 3) lexicographic offsets (dx, dy, dz) in [-K//2, K//2]^3,
    in kernel tap order: the center tap sits at index (K^3-1)//2."""
    r = kernel_size // 2
    rng = np.arange(-r, r + 1)
    gx, gy, gz = np.meshgrid(rng, rng, rng, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)


@dataclass(frozen=True)
class CarveModelConfig:
    """Architecture hyperparameters of the carve network.

    stages / base_width size the encoder-decoder (channel widths double per
    stage from base_width); kernel_size is the per-cell graver side K;
    feature_dim the refinement feature channels; refine_widths the
    fully-connected refinement stack, whose final width must be 3 * r.
    """

    resolution: tuple[int, int, int] = (32, 32, 32)
    stages: int = 3
    base_width: int = 8
    kernel_size: int = 3
    feature_dim: int = 32
    refine_widths: tuple[int, ...] = (256, 128, 64, 24)
    dtype: str = "float64"

    def __post_init__(self):
        res = tuple(int(v) for v in self.resolution)
        object.__setattr__(self, "resolution", res)
        object.__setattr__(self, "refine_widths", tuple(int(v) for v in self.refine_widths))
        if self.stages < 1:
            raise ValueError("stages must be >= 1")
        divisor = 2**self.stages
        if any(r % divisor for r in res):
            raise ValueError(f"resolution {res} must be divisible by 2^stages={divisor}")
        if min(res) < 2 * divisor:
            raise ValueError(
                f"resolution {res} must be at least 2^(stages+1)={2 * divisor} per axis, "
                f"for 2 cells at the bottleneck"
            )
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError("kernel_size must be odd and >= 1")
        if self.base_width < 1 or self.feature_dim < 1:
            raise ValueError("base_width and feature_dim must be >= 1")
        if not self.refine_widths or self.refine_widths[-1] % 3:
            raise ValueError("refine_widths final width must be divisible by 3")
        if np.dtype(self.dtype) not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError("dtype must be float32 or float64")

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)

    def stage_width(self, e: int) -> int:
        return self.base_width * (2**e)

    def tensor_shapes(self) -> dict[str, tuple[int, ...]]:
        """Declared parameter order; this is also the checkpoint layout."""
        shapes: dict[str, tuple[int, ...]] = {}
        shapes["stem.w"] = (3, 3, 3, 1, self.base_width)
        shapes["stem.b"] = (self.base_width,)
        for e in range(1, self.stages + 1):
            shapes[f"enc{e}.w"] = (3, 3, 3, self.stage_width(e - 1), self.stage_width(e))
            shapes[f"enc{e}.b"] = (self.stage_width(e),)
        for e in range(self.stages, 0, -1):
            cin = self.stage_width(e) + self.stage_width(e - 1)
            shapes[f"dec{e}.w"] = (3, 3, 3, cin, self.stage_width(e - 1))
            shapes[f"dec{e}.b"] = (self.stage_width(e - 1),)
        shapes["kernel_head.w"] = (self.base_width, self.kernel_size**3)
        shapes["kernel_head.b"] = (self.kernel_size**3,)
        shapes["feature_head.w"] = (self.base_width, self.feature_dim)
        shapes["feature_head.b"] = (self.feature_dim,)
        in_dim = self.feature_dim + 3
        for i, width in enumerate(self.refine_widths):
            shapes[f"refine{i}.w"] = (in_dim, width)
            shapes[f"refine{i}.b"] = (width,)
            in_dim = width
        return shapes


@dataclass
class CarveModelParams:
    """All learnable tensors of the carve network and refinement head.

    Tensors are stored in declared order; `flat`/`with_flat` expose the
    concatenated vector view the optimizer works on.
    """

    config: CarveModelConfig
    tensors: dict[str, np.ndarray]

    def __post_init__(self):
        expected = self.config.tensor_shapes()
        if list(self.tensors) != list(expected):
            raise ValueError("tensor names/order do not match the configured architecture")
        for name, arr in self.tensors.items():
            if arr.shape != expected[name]:
                raise ValueError(
                    f"tensor {name} has shape {arr.shape}, expected {expected[name]}"
                )
            if arr.dtype != self.config.np_dtype:
                raise ValueError(f"tensor {name} has dtype {arr.dtype}, expected {self.config.dtype}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"tensor {name} contains non-finite values")

    @staticmethod
    def initialize(config: CarveModelConfig, seed: int = 0) -> "CarveModelParams":
        """Fan-in-scaled uniform weights drawn from `seed`, zero biases.

        The kernel head's bias is 1 at the center tap so an untrained model
        starts as an identity carve (the block grid passes through).
        """
        rng = np.random.default_rng(seed)
        dtype = config.np_dtype
        tensors: dict[str, np.ndarray] = {}
        for name, shape in config.tensor_shapes().items():
            if name.endswith(".b"):
                tensors[name] = np.zeros(shape, dtype=dtype)
            else:
                fan_in = int(np.prod(shape[:-1]))
                tensors[name] = nn.fan_in_uniform(rng, shape, fan_in, dtype)
        center = (config.kernel_size**3 - 1) // 2
        tensors["kernel_head.b"][center] = 1.0
        return CarveModelParams(config=config, tensors=tensors)

    @property
    def param_count(self) -> int:
        return sum(arr.size for arr in self.tensors.values())

    def flat(self) -> np.ndarray:
        return np.concatenate([arr.ravel() for arr in self.tensors.values()])

    def with_flat(self, vec: np.ndarray) -> "CarveModelParams":
        if vec.size != self.param_count:
            raise ValueError(f"flat vector has {vec.size} entries, expected {self.param_count}")
        tensors: dict[str, np.ndarray] = {}
        pos = 0
        for name, arr in self.tensors.items():
            tensors[name] = (
                vec[pos : pos + arr.size].reshape(arr.shape).astype(self.config.np_dtype)
            )
            pos += arr.size
        return CarveModelParams(config=self.config, tensors=tensors)

    def flatten_grads(self, grads: dict[str, np.ndarray]) -> np.ndarray:
        """Grads (possibly sparse over names) packed in declared order."""
        parts = []
        for name, arr in self.tensors.items():
            g = grads.get(name)
            parts.append(np.zeros(arr.size) if g is None else np.asarray(g, dtype=np.float64).ravel())
        return np.concatenate(parts)

    @property
    def refine_layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The refinement MLP's (w, b) pairs, input layer first."""
        n, t = len(self.config.refine_widths), self.tensors
        return [(t[f"refine{i}.w"], t[f"refine{i}.b"]) for i in range(n)]


def cell_conv(
    block_grid: VoxelGrid, trunk: np.ndarray, w: np.ndarray, b: np.ndarray
) -> VoxelGrid:
    """Convolve each grid value with its own kernel (zero padding outside):
    the kernel head (w, b) over the (H, W, M, C) trunk, so cell c's K^3 taps,
    in `kernel_offsets` order, are w.T @ trunk[c] + b.

    output(c) = sum over offsets o of kernel_c(o) * input(c + o), added in
    tap order. Runs in slabs of x-planes: a slab's taps are one `nn.conv1`
    on that slab of the trunk, checked finite.
    """
    K = _head_kernel_size(block_grid, trunk, w, b)
    g = block_grid.values
    gp = _padded_grid(g, K // 2)
    H, W, M = g.shape
    out = np.zeros_like(g)
    shifts = _shifts(K)
    for s, e in _slabs(H, W * M):
        taps = _check_finite(nn.conv1(trunk[s:e], w, b))
        acc = out[s:e]
        tmp = nn.workspace("cell_conv.tap", acc.shape, np.result_type(taps, g))
        for idx, (dx, dy, dz) in enumerate(shifts):
            np.multiply(taps[idx], gp[s + dx : e + dx, dy : dy + W, dz : dz + M], out=tmp)
            acc += tmp
        # Freed before the next slab's are made: one slab's taps at a time.
        del taps
    return VoxelGrid(out, block_grid.range)


def _shifts(K: int) -> np.ndarray:
    """Each tap's offset into the grid padded by K // 2, in tap order."""
    return kernel_offsets(K) + K // 2


def _padded_grid(g: np.ndarray, r: int) -> np.ndarray:
    """g inside a zero halo of width r, in a haloed workspace buffer."""
    H, W, M = g.shape
    gp = nn.halo_buffer(f"carving.grid.pad{r}", (H + 2 * r, W + 2 * r, M + 2 * r), g.dtype)
    gp[r : r + H, r : r + W, r : r + M] = g
    return gp


def cell_conv_grads(
    block_grid: VoxelGrid, trunk: np.ndarray, w: np.ndarray, b: np.ndarray, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjoint of cell_conv: the kernel head's (trunk, weight, bias)
    gradients, and no grid gradient.

    Runs in cell_conv's slabs: each slab's tap gradient, upstream times the
    shifted grid, fills (K^3, slab) planes of a workspace buffer that one
    `nn.conv1_grads` on that slab of the trunk reads. The weight and bias
    gradients add up over the slabs in order.
    """
    K = _head_kernel_size(block_grid, trunk, w, b)
    g = block_grid.values
    upstream = np.asarray(upstream)
    if upstream.shape != g.shape:
        raise ValueError(f"upstream must have shape {g.shape}, got {upstream.shape}")
    H, W, M = g.shape
    dtype = np.result_type(trunk, w, b)
    gp = _padded_grid(g, K // 2)
    d_trunk = np.empty(trunk.shape, dtype)
    d_w, d_b = np.zeros(w.shape, dtype), np.zeros(b.shape, dtype)
    shifts = _shifts(K)
    for s, e in _slabs(H, W * M):
        up = upstream[s:e]
        d_taps = nn.workspace("cell_conv.tap_grads", (K**3, e - s, W, M), dtype)
        for idx, (dx, dy, dz) in enumerate(shifts):
            np.multiply(up, gp[s + dx : e + dx, dy : dy + W, dz : dz + M], out=d_taps[idx])
        d_trunk[s:e], d_ws, d_bs = nn.conv1_grads(trunk[s:e], w, d_taps)
        d_w += d_ws
        d_b += d_bs
    return d_trunk, d_w, d_b


def _unet_forward(values: np.ndarray, params: CarveModelParams, keep_cache: bool = False):
    """Forward pass of the kernel-predicting encoder-decoder, up to its heads.

    Returns (trunk, cache): the trunk is the (H, W, M, C) activation both
    heads read. Activations live in padded buffers (see `nn`), each layer
    writing into the next one's and each activation running in place.
    Without keep_cache there is one buffer per level, from the thread's
    workspace: each decoder writes over its skip, so the trunk is level0's
    interior (valid until this thread's next forward), and cache is None.
    With it every buffer is fresh, the decoders' included, and the cache
    holds the padded input and the activations `_unet_backward` reads, the
    trunk last; `engrave` adds the trunk rows its feature head read.
    """
    cfg = params.config
    t = params.tensors
    dtype = cfg.np_dtype

    def buffer(role: str, shape) -> np.ndarray:
        return nn.padded(shape, dtype, None if keep_cache else f"carving.unet.{role}")

    grid = values.shape
    x = buffer("x", (*grid, 1))
    x[..., 0] = values
    skip = nn.conv3(x, t["stem.w"], t["stem.b"], out=buffer("level0", (*grid, cfg.base_width)))
    skips = [nn.leaky_relu(skip, out=skip)]
    for e in range(1, cfg.stages + 1):
        shape = (*(n >> e for n in grid), cfg.stage_width(e))
        pre = nn.conv3(skips[-1], t[f"enc{e}.w"], t[f"enc{e}.b"], stride=2, out=buffer(f"level{e}", shape))
        skips.append(nn.leaky_relu(pre, out=pre))
    y = skips[-1]
    acts = []
    for e in range(cfg.stages, 0, -1):
        skip = skips[e - 1]
        # Served, decoder e writes over the skip it reads (nothing reads that
        # skip afterwards); training's backward needs both, so it gets a
        # fresh buffer.
        out = nn.padded(skip.shape, dtype) if keep_cache else skip
        pre = nn.conv3(skip, t[f"dec{e}.w"], t[f"dec{e}.b"], out=out, up=y)
        y = nn.leaky_relu(pre, out=pre)
        if keep_cache:
            acts.append(y)
    cache = None
    if keep_cache:
        cache = {"x": x, "skips": skips, "acts": acts}
    return y, cache


def _unet_backward(cache: dict, params: CarveModelParams) -> dict[str, np.ndarray]:
    """Parameter gradients of the encoder-decoder given the gradient of its
    trunk, `cache["d_trunk"]`, which both heads' backward add up.

    Each activation's gradient reads the sign of the kept activation, which
    equals the pre-activation's (see `nn.leaky_relu_grad`). Consumes the
    cache: the trunk gradient, each kept activation and each skip gradient
    is dropped once its last reader is done.
    """
    cfg = params.config
    t = params.tensors
    skips, acts = cache["skips"], cache["acts"]
    grads: dict[str, np.ndarray] = {}
    # Popped, so the trunk gradient dies once dec1's backward returns.
    d_y = cache.pop("d_trunk")
    d_skips = [None] * (cfg.stages + 1)
    for e in range(1, cfg.stages + 1):
        # Reverse of decoder stage e (the decoder ran stages..1, so dec1 first).
        j = cfg.stages - e
        act, acts[j] = acts[j], None
        coarse = skips[e] if e == cfg.stages else acts[j - 1]
        # Padded, so the flat backward reads the upstream's halo in place.
        d_pre = nn.leaky_relu_grad(act, d_y, out=nn.padded(act.shape, np.result_type(act, d_y)))
        del act
        d_skips[e - 1], grads[f"dec{e}.w"], grads[f"dec{e}.b"], d_y = nn.conv3_grads(
            skips[e - 1], t[f"dec{e}.w"], d_pre, up=coarse
        )
    # d_y now targets the bottleneck activation skips[stages].
    d_act = d_y
    for e in range(cfg.stages, 0, -1):
        d_pre = nn.leaky_relu_grad(skips[e], d_act)
        skips[e] = None
        d_in, grads[f"enc{e}.w"], grads[f"enc{e}.b"] = nn.conv3_grads(
            skips[e - 1], t[f"enc{e}.w"], d_pre, stride=2
        )
        d_in += d_skips[e - 1]
        d_skips[e - 1] = None
        d_act = d_in
    act = skips[0]
    # Padded too: the stem's flat backward reads its halo in place.
    d_pre = nn.leaky_relu_grad(act, d_act, out=nn.padded(act.shape, np.result_type(act, d_act)))
    _, grads["stem.w"], grads["stem.b"] = nn.conv3_grads(
        cache["x"], t["stem.w"], d_pre, input_grad=False
    )
    return grads


def predict_kernels(
    partial_grid: VoxelGrid, params: CarveModelParams
) -> tuple[np.ndarray, FeatureGrid]:
    """Predict per-cell carve kernels, an (H, W, M, K^3) array in
    `kernel_offsets` tap order, and the refinement features at every vertex
    from P-hat. `engrave` never forms either: this is the dense reference."""
    if partial_grid.values.shape != params.config.resolution:
        raise ValueError(
            f"grid resolution {partial_grid.values.shape} does not match "
            f"configured model resolution {params.config.resolution}"
        )
    t = params.tensors
    trunk, _ = _unet_forward(partial_grid.values, params)
    kern = nn.conv1(trunk, t["kernel_head.w"], t["kernel_head.b"])
    feat = nn.conv1(trunk, t["feature_head.w"], t["feature_head.b"])
    return (
        np.moveaxis(kern, 0, -1),
        FeatureGrid(np.moveaxis(feat, 0, -1), partial_grid.range),
    )


@dataclass
class EngraveResult:
    """Output and forward intermediates of `engrave`, kept for the backward.

    `features` is the (m, F) array of the feature head at the coarse
    points. `threshold` is the carve threshold gridding reverse ran at.
    """

    coarse: PointCloud
    features: np.ndarray
    block_grid: VoxelGrid
    carved: VoxelGrid
    threshold: float
    unet_cache: dict | None


def engrave(
    block: PointBlock,
    params: CarveModelParams,
    m: int,
    threshold: float = 0.0,
    keep_cache: bool = False,
) -> EngraveResult:
    """Carve the block into a coarse cloud of exactly m points.

    Composition of gridding (block and partial, sharing the block's range),
    kernel prediction, cell-wise convolution and gridding reverse, then the
    feature head on the trunk sampled at the coarse points. With keep_cache
    the encoder-decoder's activations and the sampled trunk rows are kept
    for `engrave_grads`. Raises ValueError if a feature is not finite.
    """
    cfg = params.config
    t = params.tensors
    block_grid = gridding(
        PointCloud(block.all_points()), cfg.resolution, block.range, cfg.np_dtype
    )
    partial_grid = gridding(block.partial, cfg.resolution, block.range, cfg.np_dtype)
    trunk, cache = _unet_forward(partial_grid.values, params, keep_cache)
    carved = cell_conv(block_grid, trunk, t["kernel_head.w"], t["kernel_head.b"])
    coarse = gridding_reverse(carved, m, threshold)
    rows = feature_sample(FeatureGrid(trunk, block.range), coarse)
    features = nn.linear(rows, t["feature_head.w"], t["feature_head.b"])
    if not np.all(np.isfinite(features)):
        raise ValueError("feature head output contains non-finite values")
    if keep_cache:
        cache["rows"] = rows
    return EngraveResult(
        coarse=coarse,
        features=features,
        block_grid=block_grid,
        carved=carved,
        threshold=threshold,
        unet_cache=cache,
    )


def engrave_grads(
    result: EngraveResult, params: CarveModelParams, d_coarse: np.ndarray, d_features: np.ndarray
) -> dict[str, np.ndarray]:
    """Adjoint of an `engrave` run with keep_cache: the parameter gradients
    of the encoder-decoder and both heads, given the upstreams of the
    coarse points and of their (m, F) features.

    Reads only what `engrave` saved, and consumes it: `result.unet_cache`
    is None afterwards, so a second call raises, and the tape's buffers are
    freed level by level as the backward passes them. The feature head's
    backward runs on the kept trunk rows; the sampling's query adjoint
    joins `d_coarse` before gridding reverse's adjoint on the carved grid at
    its threshold and point count, and its grid adjoint joins the kernel
    head's trunk gradient from `cell_conv_grads`. That trunk gradient goes
    to `_unet_backward` on the tape, which owns it from then on.
    """
    cache = result.unet_cache
    if cache is None:
        raise ValueError("engrave_grads needs an engrave run with keep_cache")
    result.unet_cache = None
    t = params.tensors
    grads: dict[str, np.ndarray] = {}
    trunk = FeatureGrid(cache["acts"][-1], result.block_grid.range)
    d_rows, grads["feature_head.w"], grads["feature_head.b"] = nn.linear_grads(
        cache.pop("rows"), t["feature_head.w"], d_features
    )
    d_coarse = d_coarse + feature_sample_query_grad(trunk, result.coarse, d_rows)
    d_carved = gridding_reverse_grad(result.carved, len(result.coarse), result.threshold, d_coarse)
    # The trunk gradient lives on the tape, not in this frame.
    cache["d_trunk"], grads["kernel_head.w"], grads["kernel_head.b"] = cell_conv_grads(
        result.block_grid, trunk.values, t["kernel_head.w"], t["kernel_head.b"], d_carved
    )
    cache["d_trunk"] += feature_sample_grad(trunk, result.coarse, d_rows)
    # The kept trunk's and its gradient's last reader is dec1's backward,
    # which releases both.
    del trunk
    grads.update(_unet_backward(cache, params))
    return grads
