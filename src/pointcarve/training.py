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

from .carving import CarveModelParams, EngraveResult, engrave, engrave_grads
from .cloud import BoundingRange, PointBlock, PointCloud, build_point_block, compute_bounds
from .config import RunConfig
from .losses import LossBreakdown, chamfer, chamfer_and_grad
from .refine import RefineTape, refine, refine_grads
from .sensoraug import generate_partials

# Adam's moment decay rates and denominator floor.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LR_HALVE_EVERY = 40


@dataclass
class OptimizerState:
    """Adaptive-moment accumulators and the number of steps taken."""

    step: int
    m: np.ndarray
    v: np.ndarray

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
    lr: float,
) -> tuple[np.ndarray, OptimizerState]:
    """One bias-corrected Adam update on the flat parameter vector.

    Consumes `state`: its moment arrays are updated in place and belong to
    the returned state. `params` is never written; the updated parameters
    are a fresh array.
    """
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError("params, grads and optimizer state shapes must match")
    bad = np.flatnonzero(~np.isfinite(grads))
    if len(bad):
        raise ValueError(f"non-finite gradient at parameter index {int(bad[0])}")
    step = state.step + 1
    m, v = state.m, state.v
    # m = b1*m + ((1-b1)*g) and v = b2*v + ((1-b2)*g^2), in place.
    tmp = np.multiply(1.0 - ADAM_BETA1, grads)
    m *= ADAM_BETA1
    m += tmp
    np.square(grads, out=tmp)
    tmp *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += tmp
    # params - (lr*m_hat) / (sqrt(v_hat) + eps), into two buffers.
    denom = np.divide(v, 1.0 - ADAM_BETA2**step, out=tmp)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    new_params = np.divide(m, 1.0 - ADAM_BETA1**step)
    new_params *= lr
    new_params /= denom
    np.subtract(params, new_params, out=new_params)
    return new_params, OptimizerState(step=step, m=m, v=v)


def lr_schedule(epoch: int, lr0: float) -> float:
    """Step-halving schedule: lr0 * 0.5^(epoch // LR_HALVE_EVERY)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return lr0 * 0.5 ** (epoch // LR_HALVE_EVERY)


# ---------------------------------------------------------------------------
# Forward/backward plumbing shared by training and evaluation
# ---------------------------------------------------------------------------


def make_block(partial: PointCloud, range: BoundingRange, config: RunConfig) -> PointBlock:
    """Assemble the point-block per the configured construction mode."""
    mode = config.block_construction
    if mode == "uniform":
        return build_point_block(partial, range, config.n_per_axis)
    if mode == "none":
        return build_point_block(partial, range, None)
    raise ValueError(f"unknown block construction {mode!r}")


@dataclass
class SampleForward:
    engrave: EngraveResult
    dense: PointCloud
    refine_tape: RefineTape | None  # None without keep_cache


def forward_sample(
    partial: PointCloud,
    range: BoundingRange,
    params: CarveModelParams,
    config: RunConfig,
    keep_cache: bool = False,
) -> SampleForward:
    # Weights or inputs that overflow make non-finite values, which the
    # stages' own finite checks name; numpy's warnings would only add noise.
    with np.errstate(over="ignore", invalid="ignore"):
        block = make_block(partial, range, config)
        result = engrave(block, params, config.coarse_m, config.carve_threshold, keep_cache)
        dense, tape = refine(result.coarse, result.features, params.refine_layers, keep_cache)
    return SampleForward(engrave=result, dense=dense, refine_tape=tape)


def complete_cloud(
    partial: PointCloud,
    params: CarveModelParams,
    config: RunConfig,
    gt: PointCloud | None = None,
) -> tuple[PointCloud, PointCloud]:
    """(coarse, dense) completion of a partial cloud.

    The block range comes from gt (padding bounds_padding_gt) when available,
    else from the partial (padding bounds_padding_partial).
    """
    if gt is not None:
        range = compute_bounds(gt, config.bounds_padding_gt, eps_box_frac=config.eps_box_frac)
    else:
        range = compute_bounds(
            partial, config.bounds_padding_partial, eps_box_frac=config.eps_box_frac
        )
    fwd = forward_sample(partial, range, params, config)
    return fwd.engrave.coarse, fwd.dense


def _backward_sample(
    fwd: SampleForward, params: CarveModelParams, d_coarse: np.ndarray, d_dense: np.ndarray
) -> dict[str, np.ndarray]:
    """Parameter gradients for one forward pass given cloud upstreams.

    Consumes fwd's tapes: each is released once its backward has read it.
    """
    layer_grads, d_features, d_coarse_refine = refine_grads(
        fwd.refine_tape, params.refine_layers, d_dense
    )
    fwd.refine_tape = None
    d_coarse_total = np.asarray(d_coarse, dtype=np.float64) + d_coarse_refine
    grads = engrave_grads(fwd.engrave, params, d_coarse_total, d_features)
    for i, (gw, gb) in enumerate(layer_grads):
        grads[f"refine{i}.w"] = gw
        grads[f"refine{i}.b"] = gb
    return grads


def _accumulate(total: dict[str, np.ndarray], part: dict[str, np.ndarray]) -> None:
    """Add part's gradients into total's float64 arrays in place. A name new
    to total gets a float64 copy, so no array of part is ever written."""
    for name, g in part.items():
        if name in total:
            total[name] += g
        else:
            total[name] = np.array(g, dtype=np.float64)


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
    anchor = forward_sample(partial, range, params, config, keep_cache=True)
    coarse, dense = anchor.engrave.coarse, anchor.dense

    cd_coarse, d_coarse, _ = chamfer_and_grad(coarse, gt)
    cd_dense, d_dense, _ = chamfer_and_grad(dense, gt)
    comp = cd_coarse + cd_dense

    sim = 0.0
    variant_cds: list[tuple[float, float]] = []
    grads: dict[str, np.ndarray] = {}
    use_aug = config.sensoraug and config.alpha > 0 and config.t_variants > 0
    if use_aug:
        variants = generate_partials(
            gt,
            config.t_variants,
            aug_seed,
            config.depth_buffer_res,
            math.radians(config.sensor_vfov_deg),
            math.radians(config.sensor_hfov_deg),
        )
        for variant_partial in variants:
            vfwd = forward_sample(variant_partial, range, params, config, keep_cache=True)
            cd_c, g_vc, g_ac = chamfer_and_grad(vfwd.engrave.coarse, coarse, config.alpha)
            cd_q, g_vq, g_aq = chamfer_and_grad(vfwd.dense, dense, config.alpha)
            sim += cd_c + cd_q
            variant_cds.append((cd_c, cd_q))
            d_coarse = d_coarse + g_ac
            d_dense = d_dense + g_aq
            _accumulate(grads, _backward_sample(vfwd, params, g_vc, g_vq))
            # Not kept through the next view's forward or the anchor's backward.
            del vfwd

    _accumulate(grads, _backward_sample(anchor, params, d_coarse, d_dense))
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
        coarse, dense = complete_cloud(partial, params, config, gt=gt)
        cds_c.append(chamfer(coarse, gt))
        cds_q.append(chamfer(dense, gt))
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

    records: list[EpochRecord] = []
    steps_done = 0
    for epoch in range(config.epochs):
        lr = lr_schedule(epoch, config.lr)
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
                del result
            grads_flat = params.flatten_grads(batch_grads)
            grads_flat /= len(batch)
            master, state = optimizer_step(master, grads_flat, state, lr)
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
