"""Desk-scale training loop: Adam on hand-chained analytic adjoints.

Gradients flow dense -> refinement head -> coarse -> carved grid -> per-cell
kernels -> encoder-decoder parameters; the top-m cell selection inside
gridding reverse is held fixed within a step. Parameters keep a float64
master copy for the optimizer regardless of the model compute dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .carving import (
    CarveModelParams,
    EngraveResult,
    _unet_backward,
    cell_conv_grads,
    engrave_forward,
)
from .cloud import (
    BoundingRange,
    PointBlock,
    PointCloud,
    _assemble_block,
    build_point_block,
    compute_bounds,
    mirror_symmetric_block,
    subsample_fixed,
)
from .config import RunConfig
from .gridding import gridding_reverse_grad
from .losses import LossBreakdown, chamfer, chamfer_and_grad
from .refine import refine, refine_grads
from .sensoraug import VisibilityConfig, generate_partials


@dataclass
class OptimizerState:
    """Adaptive-moment accumulators plus the last applied learning rate."""

    step: int
    m: np.ndarray
    v: np.ndarray
    lr: float = 0.0

    def __post_init__(self):
        if self.step < 0:
            raise ValueError("step must be >= 0")
        if self.m.shape != self.v.shape:
            raise ValueError("moment accumulators must have matching shapes")

    @staticmethod
    def zeros(n_params: int) -> "OptimizerState":
        return OptimizerState(step=0, m=np.zeros(n_params), v=np.zeros(n_params))


def optimizer_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: OptimizerState,
    hyper: tuple[float, float, float, float],
) -> tuple[np.ndarray, OptimizerState]:
    """One bias-corrected adaptive-moment update on the flat parameter vector."""
    lr, beta1, beta2, eps = hyper
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError("params, grads and optimizer state shapes must match")
    bad = np.flatnonzero(~np.isfinite(grads))
    if len(bad):
        raise ValueError(f"non-finite gradient at parameter index {int(bad[0])}")
    step = state.step + 1
    m = beta1 * state.m + (1.0 - beta1) * grads
    v = beta2 * state.v + (1.0 - beta2) * grads**2
    m_hat = m / (1.0 - beta1**step)
    v_hat = v / (1.0 - beta2**step)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new_params, OptimizerState(step=step, m=m, v=v, lr=lr)


def lr_schedule(epoch: int, lr0: float, halve_every: int = 40) -> float:
    """Step-halving schedule: lr0 * 0.5^(epoch // halve_every)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return lr0 * 0.5 ** (epoch // halve_every)


# ---------------------------------------------------------------------------
# Forward/backward plumbing shared by training and evaluation
# ---------------------------------------------------------------------------


def make_block(
    partial: PointCloud, range: BoundingRange, config: RunConfig, gt: PointCloud | None = None
) -> PointBlock:
    """Assemble the point-block per the configured construction mode."""
    mode = config.block_construction
    if mode == "uniform":
        return build_point_block(
            partial, range, config.n_per_axis, config.block_sampling, config.seed
        )
    if mode == "none":
        return _assemble_block(partial, PointCloud.empty(), range)
    if mode == "mirror":
        axis = {"x": 0, "y": 1, "z": 2}[config.mirror_axis]
        center = float((range.lo[axis] + range.hi[axis]) / 2.0)
        clamped = PointCloud(range.clamp(partial.points))
        mirrored = mirror_symmetric_block(clamped, axis, center)
        filler = PointCloud(mirrored.points[len(clamped):])
        return _assemble_block(partial, filler, range)
    if mode == "gt":
        if gt is None:
            raise ValueError("gt block construction requires the ground-truth cloud")
        filler = subsample_fixed(gt, config.gt_points_count, "random", config.seed)
        return _assemble_block(partial, PointCloud(range.clamp(filler.points)), range)
    raise ValueError(f"unknown block construction {mode!r}")


@dataclass
class SampleForward:
    block: PointBlock
    engrave: EngraveResult
    dense: PointCloud


def forward_sample(
    partial: PointCloud,
    range: BoundingRange,
    params: CarveModelParams,
    config: RunConfig,
    gt: PointCloud | None = None,
    keep_cache: bool = False,
) -> SampleForward:
    block = make_block(partial, range, config, gt)
    result = engrave_forward(
        block, params, config.coarse_m, config.carve_threshold, keep_cache
    )
    dense = refine(result.coarse, result.features, params.refine_head)
    return SampleForward(block=block, engrave=result, dense=dense)


def complete_cloud(
    partial: PointCloud,
    params: CarveModelParams,
    config: RunConfig,
    range: BoundingRange | None = None,
    gt: PointCloud | None = None,
) -> tuple[PointCloud, PointCloud]:
    """(coarse, dense) completion of a partial cloud.

    The block range comes from gt (padding bounds_padding_gt) when available,
    else from the partial (padding bounds_padding_partial), else is given.
    """
    if range is None:
        if gt is not None:
            range = compute_bounds(gt, config.bounds_padding_gt, eps_box_frac=config.eps_box_frac)
        else:
            range = compute_bounds(
                partial, config.bounds_padding_partial, eps_box_frac=config.eps_box_frac
            )
    fwd = forward_sample(partial, range, params, config, gt)
    return fwd.engrave.coarse, fwd.dense


def _backward_sample(
    fwd: SampleForward,
    params: CarveModelParams,
    config: RunConfig,
    d_coarse: np.ndarray,
    d_dense: np.ndarray,
) -> dict[str, np.ndarray]:
    """Parameter gradients for one forward pass given cloud upstreams."""
    head_grads, d_featgrid, d_coarse_refine = refine_grads(
        fwd.engrave.coarse, fwd.engrave.features, params.refine_head, d_dense
    )
    d_coarse_total = np.asarray(d_coarse, dtype=np.float64) + d_coarse_refine
    d_carved = gridding_reverse_grad(
        fwd.engrave.carved, config.coarse_m, config.carve_threshold, d_coarse_total
    )
    _, d_kern = cell_conv_grads(
        fwd.engrave.block_grid, fwd.engrave.kernels, d_carved, grid_grad=False
    )
    grads = _unet_backward(fwd.engrave.unet_cache, params, d_kern, d_featgrid)
    for i, (gw, gb) in enumerate(zip(head_grads.weights, head_grads.biases)):
        grads[f"refine{i}.w"] = gw
        grads[f"refine{i}.b"] = gb
    return grads


def _accumulate(total: dict[str, np.ndarray], part: dict[str, np.ndarray]) -> None:
    for name, g in part.items():
        if name in total:
            total[name] = total[name] + np.asarray(g, dtype=np.float64)
        else:
            total[name] = np.asarray(g, dtype=np.float64)


@dataclass
class StepResult:
    loss: LossBreakdown
    grads: dict[str, np.ndarray]


def loss_and_grads_sample(
    partial: PointCloud,
    gt: PointCloud,
    params: CarveModelParams,
    config: RunConfig,
    aug_seed: int,
) -> StepResult:
    """Total objective and parameter gradients for one training sample."""
    range = compute_bounds(gt, config.bounds_padding_gt, eps_box_frac=config.eps_box_frac)
    anchor = forward_sample(partial, range, params, config, gt, keep_cache=True)
    coarse, dense = anchor.engrave.coarse, anchor.dense

    cd_coarse, d_coarse, _ = chamfer_and_grad(coarse, gt)
    cd_dense, d_dense, _ = chamfer_and_grad(dense, gt)
    comp = cd_coarse + cd_dense

    sim = 0.0
    variant_cds: list[tuple[float, float]] = []
    grads: dict[str, np.ndarray] = {}
    use_aug = config.sensoraug and config.alpha > 0 and config.t_variants > 0
    if use_aug:
        vis_cfg = VisibilityConfig(config.depth_buffer_res, config.depth_eps)
        variants = generate_partials(
            gt,
            config.t_variants,
            aug_seed,
            vis_cfg,
            math.radians(config.sensor_vfov_deg),
            math.radians(config.sensor_hfov_deg),
            config.min_visible_frac,
        )
        for variant_partial in variants:
            vfwd = forward_sample(variant_partial, range, params, config, gt, keep_cache=True)
            cd_c, g_vc, g_ac = chamfer_and_grad(vfwd.engrave.coarse, coarse, config.alpha)
            cd_q, g_vq, g_aq = chamfer_and_grad(vfwd.dense, dense, config.alpha)
            sim += cd_c + cd_q
            variant_cds.append((cd_c, cd_q))
            if not config.detach_anchors:
                d_coarse = d_coarse + g_ac
                d_dense = d_dense + g_aq
            _accumulate(grads, _backward_sample(vfwd, params, config, g_vc, g_vq))

    _accumulate(grads, _backward_sample(anchor, params, config, d_coarse, d_dense))
    loss = LossBreakdown(
        comp=comp,
        sim=sim,
        alpha=config.alpha,
        cd_coarse=cd_coarse,
        cd_dense=cd_dense,
        variant_cds=tuple(variant_cds),
    )
    return StepResult(loss=loss, grads=grads)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    lr: float
    train_comp: float
    train_sim: float
    train_total: float
    val_cd_coarse: float
    val_cd_dense: float

    def format_line(self) -> str:
        vals = (
            self.lr,
            self.train_comp,
            self.train_sim,
            self.train_total,
            self.val_cd_coarse,
            self.val_cd_dense,
        )
        return ",".join([str(self.epoch)] + [f"{v:.6g}" for v in vals])


def validate_params(
    dataset: list[tuple[PointCloud, PointCloud]],
    params: CarveModelParams,
    config: RunConfig,
) -> tuple[float, float]:
    """Mean coarse/dense CD against gt over (partial, gt) pairs."""
    if not dataset:
        return float("nan"), float("nan")
    cds_c, cds_q = [], []
    for partial, gt in dataset:
        range = compute_bounds(gt, config.bounds_padding_gt, eps_box_frac=config.eps_box_frac)
        fwd = forward_sample(partial, range, params, config, gt)
        cds_c.append(chamfer(fwd.engrave.coarse, gt))
        cds_q.append(chamfer(fwd.dense, gt))
    return float(np.mean(cds_c)), float(np.mean(cds_q))


def train_toy(
    dataset: list[tuple[PointCloud, PointCloud]],
    config: RunConfig,
    params: CarveModelParams | None = None,
    log_path=None,
) -> tuple[CarveModelParams, list[EpochRecord]]:
    """Train on (partial, gt) pairs; the last val_count pairs are held out.

    Deterministic for a fixed config: sample order, augmentation poses and
    parameter updates all derive from config.seed. Appends one metrics line
    per epoch to log_path when given. A non-finite loss aborts with
    diagnostics.
    """
    if not dataset:
        raise ValueError("empty dataset")
    n_val = min(config.val_count, max(0, len(dataset) - 1))
    train_set = dataset[: len(dataset) - n_val]
    val_set = dataset[len(dataset) - n_val :]

    if params is None:
        params = CarveModelParams.initialize(config.carve_config(), config.seed)
    master = params.flat().astype(np.float64)
    # Train on tensors of our own, bitwise equal to the caller's, so no step
    # reads the caller's arrays. perfbench's tracer names conv layers by the
    # identity of the newest parameter sets' arrays; the caller's may have
    # aged out of it by the time a later train_toy call starts from them.
    params = params.with_flat(master)
    state = OptimizerState.zeros(master.size)
    rng = np.random.default_rng(config.seed)
    hyper_tail = (config.adam_beta1, config.adam_beta2, config.adam_eps)

    records: list[EpochRecord] = []
    steps_done = 0
    for epoch in range(config.epochs):
        lr = lr_schedule(epoch, config.lr, config.lr_halve_every)
        order = rng.permutation(len(train_set))
        epoch_comp, epoch_sim, epoch_total = [], [], []
        for start in range(0, len(order), config.batch_size):
            if config.max_steps and steps_done >= config.max_steps:
                break
            batch = order[start : start + config.batch_size]
            batch_grads: dict[str, np.ndarray] = {}
            batch_losses: list[LossBreakdown] = []
            for sample_idx in batch:
                partial, gt = train_set[sample_idx]
                aug_seed = int(rng.integers(2**63))
                result = loss_and_grads_sample(partial, gt, params, config, aug_seed)
                if not math.isfinite(result.loss.total):
                    raise RuntimeError(
                        f"non-finite loss at epoch {epoch}, step {steps_done}, "
                        f"sample {int(sample_idx)}: comp={result.loss.comp}, "
                        f"sim={result.loss.sim}"
                    )
                batch_losses.append(result.loss)
                _accumulate(batch_grads, result.grads)
            grads_flat = params.flatten_grads(batch_grads) / len(batch)
            master, state = optimizer_step(master, grads_flat, state, (lr, *hyper_tail))
            params = params.with_flat(master)
            steps_done += 1
            epoch_comp.extend(l.comp for l in batch_losses)
            epoch_sim.extend(l.sim for l in batch_losses)
            epoch_total.extend(l.total for l in batch_losses)
        val_c, val_q = validate_params(val_set, params, config)
        record = EpochRecord(
            epoch=epoch,
            lr=lr,
            train_comp=float(np.mean(epoch_comp)) if epoch_comp else float("nan"),
            train_sim=float(np.mean(epoch_sim)) if epoch_sim else float("nan"),
            train_total=float(np.mean(epoch_total)) if epoch_total else float("nan"),
            val_cd_coarse=val_c,
            val_cd_dense=val_q,
        )
        records.append(record)
        if log_path is not None:
            with open(log_path, "a") as fh:
                fh.write(record.format_line() + "\n")
        if config.max_steps and steps_done >= config.max_steps:
            break
    return params, records
