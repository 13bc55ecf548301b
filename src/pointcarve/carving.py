"""Point-block engraving: per-cell convolution kernels predicted from the
partial cloud's grid, applied to the block's grid, then mapped back to points.

Every grid cell owns its own K^3 convolution kernel (no weight sharing); the
kernels are produced by a volumetric encoder-decoder over the partial cloud's
gridding, which also emits a feature grid consumed by the refinement stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .cloud import PointBlock, PointCloud
from .gridding import FeatureGrid, VoxelGrid, gridding, gridding_reverse
from .refine import RefineHeadParams


@dataclass(frozen=True)
class KernelField:
    """One K^3 kernel per grid vertex: an (H, W, M, K^3) array.

    Kernel taps are ordered lexicographically over offsets
    (dx, dy, dz) in [-K//2, K//2]^3; the center tap sits at index (K^3-1)//2.
    """

    values: np.ndarray
    kernel_size: int

    def __post_init__(self):
        v = np.asarray(self.values)
        k = self.kernel_size
        if k < 1 or k % 2 == 0:
            raise ValueError(f"kernel size must be odd and >= 1, got {k}")
        if v.ndim != 4 or v.shape[3] != k**3:
            raise ValueError(f"kernel field must be (H, W, M, {k**3}), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("kernel field contains non-finite values")
        object.__setattr__(self, "values", v)

    @property
    def resolution(self) -> tuple[int, int, int]:
        return self.values.shape[:3]


def kernel_offsets(kernel_size: int) -> np.ndarray:
    """The (K^3, 3) lexicographic offset table matching KernelField tap order."""
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
        for r in res:
            if r < 2 * divisor or r % divisor:
                raise ValueError(
                    f"resolution {res} must be divisible by 2^stages={divisor} "
                    f"(and leave at least 2 cells at the bottleneck)"
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

    @property
    def expansion(self) -> int:
        return self.refine_widths[-1] // 3

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
    seed: int | None = field(default=None, compare=False)

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
        """Fan-in-scaled uniform weights, zero biases, recorded seed.

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
        return CarveModelParams(config=config, tensors=tensors, seed=seed)

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
        return CarveModelParams(config=self.config, tensors=tensors, seed=self.seed)

    def flatten_grads(self, grads: dict[str, np.ndarray]) -> np.ndarray:
        """Grads (possibly sparse over names) packed in declared order."""
        parts = []
        for name, arr in self.tensors.items():
            g = grads.get(name)
            parts.append(np.zeros(arr.size) if g is None else np.asarray(g, dtype=np.float64).ravel())
        return np.concatenate(parts)

    @property
    def refine_head(self) -> RefineHeadParams:
        n = len(self.config.refine_widths)
        return RefineHeadParams(
            weights=[self.tensors[f"refine{i}.w"] for i in range(n)],
            biases=[self.tensors[f"refine{i}.b"] for i in range(n)],
        )


def cell_conv(block_grid: VoxelGrid, kernels: KernelField) -> VoxelGrid:
    """Convolve each grid value with its own kernel (zero padding outside).

    output(c) = sum over offsets o of kernel_c(o) * input(c + o).
    """
    if kernels.resolution != block_grid.values.shape:
        raise ValueError(
            f"kernel field resolution {kernels.resolution} does not match "
            f"grid resolution {block_grid.values.shape}"
        )
    out = _cell_conv_values(block_grid.values, kernels.values, kernels.kernel_size)
    return VoxelGrid(out, block_grid.range)


def _cell_conv_values(g: np.ndarray, kern: np.ndarray, K: int) -> np.ndarray:
    H, W, M = g.shape
    r = K // 2
    gp = np.pad(g, r)
    out = np.zeros_like(g)
    for idx, (dx, dy, dz) in enumerate(kernel_offsets(K)):
        out += kern[..., idx] * gp[r + dx : r + dx + H, r + dy : r + dy + W, r + dz : r + dz + M]
    return out


def cell_conv_grads(
    block_grid: VoxelGrid, kernels: KernelField, upstream: np.ndarray, *, grid_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray]:
    """Exact adjoints of cell_conv w.r.t. (grid values, kernel values).

    With grid_grad=False the grid gradient is skipped (None in its place),
    for callers that only train the kernels. The kernel gradient is built
    tap by tap in contiguous (K^3, H, W, M) planes and returned as an
    (H, W, M, K^3) view of them.
    """
    g = block_grid.values
    if kernels.resolution != g.shape:
        raise ValueError("kernel field resolution does not match grid resolution")
    upstream = np.asarray(upstream)
    if upstream.shape != g.shape:
        raise ValueError(f"upstream must have shape {g.shape}, got {upstream.shape}")
    H, W, M = g.shape
    K = kernels.kernel_size
    r = K // 2
    gp = np.pad(g, r)
    grad_gp = np.zeros_like(gp) if grid_grad else None
    planes = np.empty((K**3, H, W, M), kernels.values.dtype)
    for idx, (dx, dy, dz) in enumerate(kernel_offsets(K)):
        sl = (slice(r + dx, r + dx + H), slice(r + dy, r + dy + W), slice(r + dz, r + dz + M))
        np.multiply(upstream, gp[sl], out=planes[idx])
        if grid_grad:
            grad_gp[sl] += upstream * kernels.values[..., idx]
    grad_kern = np.moveaxis(planes, 0, -1)
    if not grid_grad:
        return None, grad_kern
    crop = slice(r, -r) if r else slice(None)
    return grad_gp[crop, crop, crop], grad_kern


def _unet_forward(values: np.ndarray, params: CarveModelParams, keep_cache: bool = False):
    """Forward pass of the kernel-predicting encoder-decoder.

    Returns (kernel values, feature values, cache); cache is None unless
    requested and holds every pre-activation needed by `_unet_backward`.
    """
    cfg = params.config
    t = params.tensors
    x = values.astype(cfg.np_dtype, copy=False)[..., None]
    pre_stem = nn.conv3(x, t["stem.w"], t["stem.b"])
    skips = [nn.leaky_relu(pre_stem)]
    pres = [pre_stem]
    for e in range(1, cfg.stages + 1):
        pre = nn.conv3(skips[-1], t[f"enc{e}.w"], t[f"enc{e}.b"], stride=2)
        pres.append(pre)
        skips.append(nn.leaky_relu(pre))
    y = skips[-1]
    dec_pres = []
    dec_cats = []
    for e in range(cfg.stages, 0, -1):
        cat = nn.upsample2_concat(y, skips[e - 1])
        pre = nn.conv3(cat, t[f"dec{e}.w"], t[f"dec{e}.b"])
        dec_cats.append(cat)
        dec_pres.append(pre)
        y = nn.leaky_relu(pre)
    kern = nn.conv1(y, t["kernel_head.w"], t["kernel_head.b"])
    feat = nn.conv1(y, t["feature_head.w"], t["feature_head.b"])
    cache = None
    if keep_cache:
        cache = {"x": x, "pres": pres, "skips": skips, "dec_cats": dec_cats,
                 "dec_pres": dec_pres, "trunk": y}
    return kern, feat, cache


def _unet_backward(
    cache: dict, params: CarveModelParams, d_kern: np.ndarray, d_feat: np.ndarray
) -> dict[str, np.ndarray]:
    """Parameter gradients of the encoder-decoder given head upstreams."""
    cfg = params.config
    t = params.tensors
    grads: dict[str, np.ndarray] = {}
    trunk = cache["trunk"]
    d_trunk_k, grads["kernel_head.w"], grads["kernel_head.b"] = nn.conv1_grads(
        trunk, t["kernel_head.w"], d_kern
    )
    d_trunk_f, grads["feature_head.w"], grads["feature_head.b"] = nn.conv1_grads(
        trunk, t["feature_head.w"], d_feat
    )
    d_y = d_trunk_k + d_trunk_f
    d_skips = [None] * (cfg.stages + 1)
    for e in range(1, cfg.stages + 1):
        # Reverse of decoder stage e (the decoder ran stages..1, so dec1 first).
        j = cfg.stages - e
        d_pre = nn.leaky_relu_grad(cache["dec_pres"][j], d_y)
        d_cat, grads[f"dec{e}.w"], grads[f"dec{e}.b"] = nn.conv3_grads(
            cache["dec_cats"][j], t[f"dec{e}.w"], d_pre
        )
        c_up = cfg.stage_width(e)
        d_skips[e - 1] = d_cat[..., c_up:]
        d_y = nn.upsample2_grad(d_cat[..., :c_up])
    # d_y now targets the bottleneck activation skips[stages].
    d_act = d_y
    for e in range(cfg.stages, 0, -1):
        d_pre = nn.leaky_relu_grad(cache["pres"][e], d_act)
        d_in, grads[f"enc{e}.w"], grads[f"enc{e}.b"] = nn.conv3_grads(
            cache["skips"][e - 1], t[f"enc{e}.w"], d_pre, stride=2
        )
        d_act = d_in + d_skips[e - 1]
    d_pre = nn.leaky_relu_grad(cache["pres"][0], d_act)
    _, grads["stem.w"], grads["stem.b"] = nn.conv3_grads(
        cache["x"], t["stem.w"], d_pre, input_grad=False
    )
    return grads


def predict_kernels(
    partial_grid: VoxelGrid, params: CarveModelParams
) -> tuple[KernelField, FeatureGrid]:
    """Predict per-cell carve kernels and refinement features from P-hat."""
    if partial_grid.values.shape != params.config.resolution:
        raise ValueError(
            f"grid resolution {partial_grid.values.shape} does not match "
            f"configured model resolution {params.config.resolution}"
        )
    kern, feat, _ = _unet_forward(partial_grid.values, params)
    return (
        KernelField(kern, params.config.kernel_size),
        FeatureGrid(feat, partial_grid.range),
    )


@dataclass
class EngraveResult:
    """Forward intermediates of `engrave`, kept for the backward pass."""

    coarse: PointCloud
    features: FeatureGrid
    block_grid: VoxelGrid
    partial_grid: VoxelGrid
    kernels: KernelField
    carved: VoxelGrid
    unet_cache: dict | None


def engrave_forward(
    block: PointBlock,
    params: CarveModelParams,
    m: int,
    threshold: float = 0.0,
    keep_cache: bool = False,
) -> EngraveResult:
    cfg = params.config
    block_grid = gridding(
        PointCloud(block.all_points()), cfg.resolution, block.range, cfg.np_dtype
    )
    partial_grid = gridding(block.partial, cfg.resolution, block.range, cfg.np_dtype)
    kern_vals, feat_vals, cache = _unet_forward(partial_grid.values, params, keep_cache)
    kernels = KernelField(kern_vals, cfg.kernel_size)
    carved = cell_conv(block_grid, kernels)
    coarse = gridding_reverse(carved, m, threshold)
    return EngraveResult(
        coarse=coarse,
        features=FeatureGrid(feat_vals, block.range),
        block_grid=block_grid,
        partial_grid=partial_grid,
        kernels=kernels,
        carved=carved,
        unet_cache=cache,
    )


def engrave(
    block: PointBlock,
    params: CarveModelParams,
    resolution: tuple[int, int, int] | None = None,
    threshold: float = 0.0,
    m: int = 2048,
) -> tuple[PointCloud, FeatureGrid]:
    """Carve the block into a coarse cloud of exactly m points.

    Composition of gridding (block and partial, sharing the block's range),
    kernel prediction, cell-wise convolution and gridding reverse.
    """
    if resolution is not None and tuple(resolution) != params.config.resolution:
        raise ValueError("resolution does not match the model configuration")
    result = engrave_forward(block, params, m, threshold)
    return result.coarse, result.features
