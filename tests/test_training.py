"""Optimizer, schedule, and the training loop on tiny instances."""

import numpy as np
import pytest

from pointcarve import (
    CarveModelParams,
    OptimizerState,
    PointCloud,
    RunConfig,
    lr_schedule,
    optimizer_step,
    train_toy,
)
from pointcarve.gradcheck import check_end_to_end
from pointcarve.shapes import SyntheticShapeSpec, gen_shape
from pointcarve.training import loss_and_grads_sample

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
        new, new_state = optimizer_step(params, np.zeros(3), state, (0.1, 0.9, 0.999, 1e-8))
        np.testing.assert_array_equal(new, params)
        assert new_state.step == 1

    def test_single_scalar_first_step(self):
        # Bias-corrected first step with g=1: update is -lr / (1 + eps).
        lr, eps = 0.05, 1e-8
        new, _ = optimizer_step(
            np.array([0.7]), np.array([1.0]), OptimizerState.zeros(1), (lr, 0.9, 0.999, eps)
        )
        assert new[0] == pytest.approx(0.7 - lr / (1.0 + eps), abs=1e-15)

    def test_deterministic_trajectory(self):
        rng = np.random.default_rng(0)
        grads = [rng.standard_normal(5) for _ in range(10)]

        def run():
            p = np.ones(5)
            state = OptimizerState.zeros(5)
            for g in grads:
                p, state = optimizer_step(p, g, state, (0.01, 0.9, 0.999, 1e-8))
            return p

        np.testing.assert_array_equal(run(), run())

    def test_non_finite_gradient_reports_index(self):
        g = np.zeros(4)
        g[2] = np.nan
        with pytest.raises(ValueError, match="index 2"):
            optimizer_step(np.zeros(4), g, OptimizerState.zeros(4), (0.1, 0.9, 0.999, 1e-8))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            optimizer_step(np.zeros(3), np.zeros(4), OptimizerState.zeros(3), (0.1, 0.9, 0.999, 1e-8))


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

    def test_metrics_log_lines(self, tmp_path):
        dataset = tiny_dataset(3)
        log = tmp_path / "metrics.log"
        train_toy(dataset, TINY_CFG, log_path=log)
        lines = log.read_text().strip().splitlines()
        assert len(lines) == 1
        fields = lines[0].split(",")
        assert len(fields) == 7
        assert fields[0] == "0"
