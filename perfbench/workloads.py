"""The workloads' inputs, ops and correctness checks.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned. Inputs are generated the way `pointcarve gen-synth`
generates a dataset (all six shape families, dims jittered per shape, one
virtual-sensor partial per shape) from the workload seed, and go in as
generated: an input that makes an op raise counts as a failed op.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# Weights are initialised with this seed, saved with save_checkpoint and
# loaded back, so ops run on the float32 weights a checkpoint serves.
INIT_SEED = 20210728
# Seed of the fixed check inputs whose results are stored in reference.json.
CHECK_SEED = 4242
SHAPE_POINTS = 2048


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    kind: str  # "complete" or "train"
    inputs: int  # seeded inputs cycled by the op loop (train: dataset size)
    setups: int  # set-ups per run; setup_s is their median


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-complete", "desk", "complete", inputs=12, setups=5),
        Workload("paper-complete", "paper", "complete", inputs=6, setups=3),
        # 8 samples at batch 4: a train_toy session is 2 optimizer steps.
        Workload("desk-train", "desk", "train", inputs=8, setups=3),
    )
}


def import_program():
    """The `pointcarve` package with every module the ops call."""
    import pointcarve
    import pointcarve.pcio  # noqa: F401  (not imported by the package itself)

    return pointcarve


def run_config(pc, w: Workload):
    cfg = pc.RunConfig.preset(w.preset)
    if w.kind == "train":
        # Batch 4, anchor plus T = 2 sensor views, nothing held out.
        cfg = cfg.replace(val_count=0, epochs=1)
    return cfg


def session_steps(w: Workload, cfg) -> int:
    """Optimizer steps in one train_toy epoch over the workload's samples."""
    return -(-w.inputs // cfg.batch_size)


def make_pairs(pc, seed: int, count: int):
    """(partial, gt) pairs exactly as `pointcarve gen-synth` draws them."""
    from pointcarve.shapes import FAMILIES

    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(count):
        fam = FAMILIES[i % len(FAMILIES)]
        base = pc.SyntheticShapeSpec(fam).dims
        dims = tuple(d * rng.uniform(0.7, 1.3) for d in base)
        spec = pc.SyntheticShapeSpec(fam, dims, SHAPE_POINTS, seed=int(rng.integers(2**31)))
        gt, _ = pc.gen_shape(spec)
        partial = pc.generate_partials(gt, 1, seed=int(rng.integers(2**31)))[0]
        pairs.append((partial, gt))
    return pairs


def digest(arr: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(arr).tobytes(), digest_size=12).hexdigest()


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


# ---------------------------------------------------------------------------
# Completion
# ---------------------------------------------------------------------------


def complete_op(pc, params, cfg, src: Path, dst: Path):
    """What a `pointcarve complete` user waits for, through the library."""
    partial = pc.pcio.read_xyz(src)
    _, dense = pc.training.complete_cloud(partial, params, cfg)
    pc.pcio.write_xyz(dst, dense)
    return dense


def dense_problem(dense, cfg) -> str | None:
    want = cfg.coarse_m * cfg.expansion
    if len(dense) != want:
        return f"dense cloud has {len(dense)} points, expected coarse_m*r = {want}"
    if not np.all(np.isfinite(dense.points)):
        return "dense cloud has non-finite points"
    return None


def check_input_path(workdir: Path, index: int) -> Path:
    return workdir / f"check_{index}.xyz"


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


class _Stop(Exception):
    """Raised from the step clock to end a train_toy session early."""


def train_steps(pc, params, cfg, dataset, keep_going, on_op=None):
    """Run train_toy sessions from `params` while `keep_going(steps)` holds.

    One op is one optimizer step. Steps are timestamped from outside by
    wrapping `training.optimizer_step`; an op runs from the previous step
    boundary (or the session start) to the end of its step. `on_op(start, end)`
    is told each op's interval. Returns (steps, sessions, error): steps as
    (start, end, parameter digest), completed sessions as
    (train_comp, final parameter digest), and the message of an exception
    that ended the loop, if any.
    """
    training = pc.training
    inner = training.optimizer_step
    steps: list[tuple[float, float, str]] = []
    sessions: list[tuple[float, str]] = []
    start = [0.0]

    def clocked(*args, **kwargs):
        new_params, state = inner(*args, **kwargs)
        end = time.perf_counter()
        steps.append((start[0], end, digest(new_params)))
        if on_op is not None:
            on_op(start[0], end)
        start[0] = end
        if not keep_going(steps):
            raise _Stop
        return new_params, state

    training.optimizer_step = clocked
    error = None
    try:
        while True:
            start[0] = time.perf_counter()
            try:
                final, records = training.train_toy(dataset, cfg, params=params)
            except _Stop:
                break
            except Exception as exc:  # a failing step is a failed op, reported
                error = f"{type(exc).__name__}: {exc}"
                break
            sessions.append((records[0].train_comp, digest(final.flat())))
    finally:
        training.optimizer_step = inner
    return steps, sessions, error
