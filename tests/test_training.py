"""Optimizer, schedule, and the training loop on tiny instances."""

import hashlib
import math
import weakref

import numpy as np
import pytest

from pointcarve import (
    CarveModelParams,
    OptimizerState,
    PointCloud,
    RunConfig,
    build_point_block,
    complete_cloud,
    compute_bounds,
    generate_partials,
    loss_comp,
    loss_sim,
    lr_schedule,
    optimizer_step,
    train_toy,
)
from pointcarve.gradcheck import _fd_at, check_end_to_end
from pointcarve.shapes import SyntheticShapeSpec, gen_shape
from pointcarve.training import _accumulate, loss_and_grads_sample

from conftest import degenerate_partial, heap_peak, run_fresh_python

TINY_CFG = RunConfig(
    grid_res=8,
    unet_stages=2,
    unet_base_width=2,
    feature_dim=4,
    refine_widths=(8, 6),
    coarse_m=32,
    n_per_axis=3,
    dtype="float64",
    sensoraug=False,
    alpha=0.0,
    batch_size=2,
    epochs=1,
    val_count=1,
    depth_buffer_res=32,
)


def tiny_dataset(n=4, points=128):
    out = []
    for i in range(n):
        gt, _ = gen_shape(SyntheticShapeSpec("box", count=points, seed=i))
        out.append((PointCloud(gt.points[: points // 2]), gt))
    return out


class TestOptimizerStep:
    def test_zero_gradients_leave_params(self):
        params = np.array([1.0, -2.0, 3.0])
        state = OptimizerState.zeros(3)
        new, new_state = optimizer_step(params, np.zeros(3), state, 0.1)
        np.testing.assert_array_equal(new, params)
        assert new_state.step == 1

    def test_single_scalar_first_step(self):
        # Bias-corrected first step with g=1: update is -lr / (1 + eps).
        lr, eps = 0.05, 1e-8
        new, _ = optimizer_step(np.array([0.7]), np.array([1.0]), OptimizerState.zeros(1), lr)
        assert new[0] == pytest.approx(0.7 - lr / (1.0 + eps), abs=1e-15)

    def test_deterministic_trajectory(self):
        rng = np.random.default_rng(0)
        grads = [rng.standard_normal(5) for _ in range(10)]

        def run():
            p = np.ones(5)
            state = OptimizerState.zeros(5)
            for g in grads:
                p, state = optimizer_step(p, g, state, 0.01)
            return p

        np.testing.assert_array_equal(run(), run())

    def test_non_finite_gradient_reports_index(self):
        g = np.zeros(4)
        g[2] = np.nan
        with pytest.raises(ValueError, match="index 2"):
            optimizer_step(np.zeros(4), g, OptimizerState.zeros(4), 0.1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            optimizer_step(np.zeros(3), np.zeros(4), OptimizerState.zeros(3), 0.1)


class TestLrSchedule:
    def test_paper_values(self):
        assert lr_schedule(0, 1e-4) == pytest.approx(1e-4)
        assert lr_schedule(40, 1e-4) == pytest.approx(5e-5)
        assert lr_schedule(79, 1e-4) == pytest.approx(5e-5)
        assert lr_schedule(80, 1e-4) == pytest.approx(2.5e-5)

    def test_negative_epoch(self):
        with pytest.raises(ValueError):
            lr_schedule(-1, 1e-4)


class TestTrainToy:
    def test_smoke_one_epoch(self):
        dataset = tiny_dataset(3)
        params, records = train_toy(dataset, TINY_CFG)
        assert len(records) == 1
        assert np.isfinite(records[0].train_total)
        assert np.isfinite(records[0].val_cd_dense)
        assert np.all(np.isfinite(params.flat()))

    def test_alpha_zero_total_equals_comp(self):
        dataset = tiny_dataset(2)
        cfg = TINY_CFG.replace(alpha=0.0, sensoraug=False, val_count=0)
        params = CarveModelParams.initialize(cfg.carve_config(), 0)
        result = loss_and_grads_sample(dataset[0][0], dataset[0][1], params, cfg, 0)
        assert result.loss.total == result.loss.comp
        assert result.loss.sim == 0.0

    def test_sim_term_present_with_sensoraug(self):
        dataset = tiny_dataset(1, points=256)
        cfg = TINY_CFG.replace(alpha=0.5, sensoraug=True, t_variants=2)
        params = CarveModelParams.initialize(cfg.carve_config(), 0)
        result = loss_and_grads_sample(dataset[0][0], dataset[0][1], params, cfg, 7)
        assert len(result.loss.variant_cds) == 2
        assert result.loss.sim > 0.0
        assert result.loss.total == pytest.approx(
            result.loss.comp + 0.5 * result.loss.sim, abs=1e-9
        )

    def test_objective_equals_reference_losses(self):
        # Training takes its loss values from chamfer_and_grad; they must be
        # the reference loss_comp / loss_sim on the same forward outputs.
        partial, gt = tiny_dataset(1, points=256)[0]
        cfg = TINY_CFG.replace(alpha=0.5, sensoraug=True, t_variants=2)
        params = CarveModelParams.initialize(cfg.carve_config(), 0)
        aug_seed = 7
        result = loss_and_grads_sample(partial, gt, params, cfg, aug_seed)

        coarse, dense = complete_cloud(partial, params, cfg, gt=gt)
        assert result.loss.comp == loss_comp(coarse, dense, gt)
        variants = generate_partials(
            gt, cfg.t_variants, aug_seed, cfg.depth_buffer_res,
            math.radians(cfg.sensor_vfov_deg), math.radians(cfg.sensor_hfov_deg),
        )
        outs = [complete_cloud(v, params, cfg, gt=gt) for v in variants]
        assert len(outs) == 2
        sim = loss_sim([c for c, _ in outs], [q for _, q in outs], coarse, dense)
        assert sim > 0.0
        assert result.loss.sim == sim

    def test_determinism_bitwise(self):
        dataset = tiny_dataset(3)
        cfg = TINY_CFG.replace(epochs=2)
        p1, r1 = train_toy(dataset, cfg)
        p2, r2 = train_toy(dataset, cfg)
        np.testing.assert_array_equal(p1.flat(), p2.flat())
        assert [r.format_line() for r in r1] == [r.format_line() for r in r2]

    def test_steps_never_read_the_callers_tensors(self, monkeypatch):
        from pointcarve import nn

        dataset = tiny_dataset(4)
        cfg = TINY_CFG.replace(val_count=0, max_steps=2)
        params = CarveModelParams.initialize(cfg.carve_config(), 0)
        before = params.flat()
        expected, _ = train_toy(dataset, cfg, CarveModelParams.initialize(cfg.carve_config(), 0))
        caller_ids = {id(arr) for arr in params.tensors.values()}
        seen = []

        def recording(fn):
            def wrapper(x, w, *args, **kwargs):
                seen.append(id(w))
                return fn(x, w, *args, **kwargs)
            return wrapper

        # carving and refine call these through the nn module.
        for name in ("conv3", "conv3_grads", "conv1", "conv1_grads", "linear", "linear_grads"):
            monkeypatch.setattr(nn, name, recording(getattr(nn, name)))
        trained, _ = train_toy(dataset, cfg, params)
        assert len(seen) > 50 and not caller_ids.intersection(seen)
        np.testing.assert_array_equal(params.flat(), before)
        np.testing.assert_array_equal(trained.flat(), expected.flat())

    def test_max_steps_caps_updates(self):
        dataset = tiny_dataset(4)
        cfg = TINY_CFG.replace(epochs=10, max_steps=3)
        _, records = train_toy(dataset, cfg)
        assert len(records) <= 10

    def test_empty_dataset_errors(self):
        with pytest.raises(ValueError, match="empty dataset"):
            train_toy([], TINY_CFG)

    def test_end_to_end_gradient(self):
        result = check_end_to_end(seed=0)
        assert result.passed, f"max rel err {result.max_rel_err}"

    def test_end_to_end_gradient_at_a_carve_threshold(self):
        # The backward must run gridding reverse's adjoint at the threshold
        # the forward carved at; check_end_to_end only runs at 0.
        cfg = TINY_CFG.replace(coarse_m=64, n_per_axis=4, val_count=0, carve_threshold=0.1)
        gt, _ = gen_shape(SyntheticShapeSpec("box", count=96, seed=0))
        partial = PointCloud(gt.points[:48])
        params = CarveModelParams.initialize(cfg.carve_config(), 0)
        # Off the leaky ReLU kinks, as in check_end_to_end.
        bias_rng = np.random.default_rng(1)
        for name, arr in params.tensors.items():
            if name.endswith(".b"):
                arr += bias_rng.uniform(-0.1, 0.1, arr.shape)
        coarse = complete_cloud(partial, params, cfg, gt=gt)[0]
        at_zero = complete_cloud(partial, params, cfg.replace(carve_threshold=0.0), gt=gt)[0]
        assert not np.array_equal(coarse.points, at_zero.points)

        def phi(vec):
            return loss_and_grads_sample(partial, gt, params.with_flat(vec), cfg, 0).loss.total

        flat = params.flat()
        analytic = params.flatten_grads(loss_and_grads_sample(partial, gt, params, cfg, 0).grads)
        # Each tensor's entry of largest gradient.
        starts = np.cumsum([0] + [arr.size for arr in params.tensors.values()])
        probes = [s + int(np.argmax(np.abs(analytic[s:e]))) for s, e in zip(starts[:-1], starts[1:])]
        np.testing.assert_allclose(analytic[probes], _fd_at(phi, flat, probes), rtol=1e-4)

    def test_metrics_log_lines(self, tmp_path):
        dataset = tiny_dataset(3)
        log = tmp_path / "metrics.log"
        train_toy(dataset, TINY_CFG, log_path=log)
        lines = log.read_text().strip().splitlines()
        assert len(lines) == 1
        fields = lines[0].split(",")
        assert len(fields) == 7
        assert fields[0] == "0"


class TestDegenerateInputs:
    """What `complete_cloud` does at the desk preset with degenerate partials."""

    DESK = RunConfig.preset("desk")

    @pytest.fixture(scope="class")
    def params(self):
        return CarveModelParams.initialize(self.DESK.carve_config(), 0)

    @pytest.mark.parametrize("kind", ["planar", "line", "two-point"])
    def test_flat_partials_complete_to_finite_points(self, params, kind):
        cfg = self.DESK
        coarse, dense = complete_cloud(degenerate_partial(kind), params, cfg)
        assert len(coarse) == cfg.coarse_m
        assert len(dense) == cfg.coarse_m * cfg.expansion
        assert np.all(np.isfinite(coarse.points)) and np.all(np.isfinite(dense.points))

    @pytest.mark.parametrize("kind", ["single-point", "identical"])
    def test_point_partials_are_rejected(self, params, kind):
        with pytest.raises(ValueError, match="^degenerate cloud and eps_box is zero$"):
            complete_cloud(degenerate_partial(kind), params, self.DESK)


# One desk `complete` and one desk train_toy step at the BLAS thread count in
# argv[1], set before numpy loads OpenBLAS; prints a digest of their bytes.
DESK_AT_THREADS = """
import os, sys
os.environ["OPENBLAS_NUM_THREADS"] = sys.argv[1]
import hashlib
import numpy as np
import pointcarve as pc

cfg = pc.RunConfig.preset("desk").replace(epochs=1, val_count=0)
pairs = []
for i, fam in enumerate(["box", "sphere", "torus", "box"][: cfg.batch_size]):
    gt, _ = pc.gen_shape(pc.SyntheticShapeSpec(fam, count=1024, seed=40 + i))
    pairs.append((pc.generate_partials(gt, 1, seed=50 + i)[0], gt))
params = pc.CarveModelParams.initialize(cfg.carve_config(), 7)
digest = hashlib.sha256()
for cloud in pc.complete_cloud(pairs[0][0], params, cfg):
    digest.update(cloud.points.tobytes())
final, records = pc.train_toy(pairs, cfg, params=params)
digest.update(final.flat().tobytes())
digest.update("".join(r.format_line() for r in records).encode())
print(len(records), digest.hexdigest())
"""


def test_desk_bytes_do_not_depend_on_the_blas_thread_count():
    # The desk half of the contract: paper's refine GEMMs (reduction length
    # 2448) round differently at 1 and 2 threads, desk's do not.
    one, two = (run_fresh_python(DESK_AT_THREADS, n) for n in ("1", "2"))
    assert one.split()[0] == "1"
    assert one == two


def desk_dataset(n=4):
    """n desk-preset (partial, gt) pairs: one sensor view of each shape."""
    cfg = RunConfig.preset("desk")
    out = []
    for i, family in enumerate(["box", "sphere", "torus", "wedge"][:n]):
        gt, _ = gen_shape(SyntheticShapeSpec(family, count=2048, seed=i))
        out.append((generate_partials(gt, 1, 100 + i, cfg.depth_buffer_res)[0], gt))
    return out


class TestTensorLifetimes:
    """Every training tensor is freed after its last reader, and no byte of
    a gradient moves for it."""

    # sha256 (first 16 hex digits) of a tiny float64 sample's loss repr and
    # every gradient by name. The bytes hold for one numpy/BLAS build
    # (ROADMAP item 9).
    SAMPLE_DIGESTS = {
        "t_variants=0": ({"t_variants": 0}, "17fc9d285eec3d16"),
        "sensoraug=false": ({"sensoraug": False}, "17fc9d285eec3d16"),
        "two views": ({}, "48498f82504d42fe"),
    }

    @pytest.mark.parametrize("case", list(SAMPLE_DIGESTS))
    def test_sample_bytes_pinned(self, case):
        change, want = self.SAMPLE_DIGESTS[case]
        partial, gt = tiny_dataset(1, points=256)[0]
        cfg = TINY_CFG.replace(alpha=0.5, sensoraug=True, t_variants=2).replace(**change)
        params = CarveModelParams.initialize(cfg.carve_config(), 0)
        result = loss_and_grads_sample(partial, gt, params, cfg, 7)
        digest = hashlib.sha256(repr(result.loss).encode())
        for name in sorted(result.grads):
            digest.update(name.encode() + result.grads[name].tobytes())
        assert digest.hexdigest()[:16] == want

    def test_accumulate_never_writes_its_parts(self):
        parts = [{"w": np.full(3, float(k)), "b": np.arange(2.0) + k} for k in (1, 2, 3)]
        before = [{name: g.copy() for name, g in part.items()} for part in parts]
        total = {}
        for part in parts:
            _accumulate(total, part)
        for part, kept in zip(parts, before):
            for name in kept:
                np.testing.assert_array_equal(part[name], kept[name])
                assert not np.shares_memory(part[name], total[name])
        np.testing.assert_array_equal(total["w"], np.full(3, 6.0))
        np.testing.assert_array_equal(total["b"], [6.0, 9.0])

    def test_optimizer_step_never_writes_params(self):
        rng = np.random.default_rng(2)
        params, state = rng.standard_normal(6), OptimizerState.zeros(6)
        before = params.copy()
        for _ in range(3):
            new, state = optimizer_step(params, rng.standard_normal(6), state, 0.1)
            assert not np.shares_memory(new, params)
            np.testing.assert_array_equal(params, before)

    # Heap budgets, desk float32: the measured peaks (13.9 and 22.0 MiB)
    # plus a margin. A tape kept past its backward, or a whole-vector copy
    # in the optimizer, breaks them.
    def test_one_desk_sample_heap_peak(self):
        cfg = RunConfig.preset("desk")
        params = CarveModelParams.initialize(cfg.carve_config(), 0)
        (p0, g0), (p1, g1) = desk_dataset(2)
        peak = heap_peak(lambda: loss_and_grads_sample(p1, g1, params, cfg, 5),
                         warmup=lambda: loss_and_grads_sample(p0, g0, params, cfg, 4))
        assert peak < 14.5 * 2**20, f"{peak / 2**20:.2f} MiB"

    def test_one_desk_train_step_heap_peak(self):
        cfg = RunConfig.preset("desk")
        params = CarveModelParams.initialize(cfg.carve_config(), 0)
        dataset = desk_dataset(4)
        peak = heap_peak(
            lambda: train_toy(dataset, cfg.replace(max_steps=1, val_count=0), params=params),
            warmup=lambda: loss_and_grads_sample(*dataset[0], params, cfg, 4),
        )
        assert peak < 23 * 2**20, f"{peak / 2**20:.2f} MiB"

    def test_trunk_gradient_dies_after_dec1(self, monkeypatch):
        # dec1's backward is the trunk gradient's last reader; every later
        # level's backward runs without it.
        from pointcarve import carving, nn

        cell_conv_grads, conv3_grads = carving.cell_conv_grads, nn.conv3_grads
        refs, alive = [], []

        def keep_ref(*args, **kwargs):
            out = cell_conv_grads(*args, **kwargs)
            refs.append(weakref.ref(out[0]))
            return out

        def check_ref(*args, **kwargs):
            alive.append(refs[-1]() is not None)
            return conv3_grads(*args, **kwargs)

        monkeypatch.setattr(carving, "cell_conv_grads", keep_ref)
        monkeypatch.setattr(nn, "conv3_grads", check_ref)
        partial, gt = tiny_dataset(1, points=256)[0]
        cfg = TINY_CFG.replace(alpha=0.5, sensoraug=True, t_variants=2)
        params = CarveModelParams.initialize(cfg.carve_config(), 0)
        loss_and_grads_sample(partial, gt, params, cfg, 7)
        # Per backward: dec1 first, then the other decoders, the encoders, the stem.
        per_backward = [True] + [False] * (2 * cfg.unet_stages)
        assert len(refs) == 3 and alive == per_backward * 3


class TestBlockConstruction:
    def test_no_filler_block_counts_clamped_points(self):
        range = compute_bounds(PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])))
        partial = PointCloud(np.array([[0.5, 0.5, 0.5], [2.0, 0.5, -1.0], [0.2, 0.3, 0.4]]))
        block = build_point_block(partial, range, None)
        assert len(block.sampled) == 0 and len(block) == 3
        assert block.clamped_count == 1
        np.testing.assert_array_equal(block.partial.points[1], [1.0, 0.5, 0.0])
        np.testing.assert_array_equal(block.all_points(), block.partial.points)

    def test_both_constructions_call_build_point_block(self, monkeypatch):
        # perfbench's tracer wraps `build_point_block`; `none` must not bypass it.
        from pointcarve import training

        calls = []

        def counting(partial, range, n_per_axis):
            calls.append(n_per_axis)
            return build_point_block(partial, range, n_per_axis)

        monkeypatch.setattr(training, "build_point_block", counting)
        partial, gt = tiny_dataset(1, points=256)[0]
        for construction in ("uniform", "none"):
            cfg = TINY_CFG.replace(block_construction=construction)
            training.make_block(partial, compute_bounds(gt), cfg)
        assert calls == [TINY_CFG.n_per_axis, None]


# Served and trained bytes at desk, from a fresh interpreter with one BLAS
# thread: `complete_cloud`'s coarse and dense clouds for each dtype, block
# construction and range source, and a float64 2-step `train_toy`'s
# parameters and metrics log. A refactor that should move no byte keeps them.
SERVED_AND_TRAINED = """
import os
os.environ["OPENBLAS_NUM_THREADS"] = "1"
import hashlib
import pointcarve as pc

def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]

pairs = []
for i, fam in enumerate(["box", "sphere", "torus", "wedge"]):
    gt, _ = pc.gen_shape(pc.SyntheticShapeSpec(fam, count=1024, seed=40 + i))
    pairs.append((pc.generate_partials(gt, 1, seed=50 + i)[0], gt))
partial, gt = pairs[2]
desk = pc.RunConfig.preset("desk")
for dtype in ("float32", "float64"):
    for construction in ("uniform", "none"):
        cfg = desk.replace(dtype=dtype, block_construction=construction)
        params = pc.CarveModelParams.initialize(cfg.carve_config(), 7)
        for source, ref in (("partial", None), ("gt", gt)):
            coarse, dense = pc.complete_cloud(partial, params, cfg, gt=ref)
            print(f"complete {dtype} {construction} {source}:",
                  digest(coarse.points.tobytes()), digest(dense.points.tobytes()))
final, records = pc.train_toy(pairs, desk.replace(dtype="float64", epochs=2, val_count=0))
print(f"train_toy float64 {len(records)} steps:", digest(final.flat().tobytes()),
      digest("".join(r.format_line() for r in records).encode()))
"""

# The bytes hold for one numpy/BLAS build (ROADMAP item 9).
SERVED_AND_TRAINED_DIGESTS = {
    "complete float32 uniform partial": "87398fc9cb20db5e 01489ab0f48380b5",
    "complete float32 uniform gt": "0492c3dab55375f2 db57cf0c606c0436",
    "complete float32 none partial": "38cbc5c1e49e0621 2ff01c45398db1e1",
    "complete float32 none gt": "f1b1f74f346c6767 021e3c259981c94f",
    "complete float64 uniform partial": "1b30b523aa385c92 57fa27759e419dbe",
    "complete float64 uniform gt": "8e48611152093465 1c9e19a04459cd32",
    "complete float64 none partial": "aee8462aee8a207f d16043c67469a007",
    "complete float64 none gt": "cbdf4490c4325342 58f757e55611022b",
    "train_toy float64 2 steps": "cbe3f43f2777a7e9 0e46aa43cdcbab8c",
}


def test_served_and_trained_bytes_pinned():
    out = run_fresh_python(SERVED_AND_TRAINED)
    assert dict(line.split(": ") for line in out.splitlines()) == SERVED_AND_TRAINED_DIGESTS
