"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 4, 5, 6 and 8 train real models; the full module takes several
minutes on a 2-core machine. Run `pytest tests/test_acceptance.py -v -s`
to watch the per-criterion lines. Every test here carries the `acceptance`
marker, so `pytest -m "not acceptance"` runs the rest of the suite alone.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.ndimage

from pointcarve import (
    BoundingRange,
    CarveModelParams,
    KernelField,
    PointCloud,
    RunConfig,
    TrackedSequence,
    VoxelGrid,
    cell_conv,
    chamfer,
    consistency,
    gridding,
    valid_point_percentage,
)
from pointcarve.gradcheck import run_all
from pointcarve.sensoraug import generate_partials
from pointcarve.shapes import FAMILIES, SyntheticShapeSpec, gen_shape
from pointcarve.training import train_toy, validate_params, complete_cloud

pytestmark = pytest.mark.acceptance


def report(criterion: int, passed: bool, detail: str):
    line = f"{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert passed, line


def make_dataset(seed, n, points=2048, fov_deg=49.1, families=FAMILIES):
    rng = np.random.default_rng(seed)
    fov = math.radians(fov_deg)
    out = []
    for i in range(n):
        fam = families[i % len(families)]
        base = SyntheticShapeSpec(fam).dims
        dims = tuple(d * rng.uniform(0.7, 1.3) for d in base)
        gt, _ = gen_shape(
            SyntheticShapeSpec(fam, dims, points, seed=int(rng.integers(2**31)))
        )
        partial = generate_partials(
            gt, 1, seed=int(rng.integers(2**31)), vfov=fov, hfov=fov
        )[0]
        out.append((partial, gt))
    return out


SINGLE_THREAD_ENV = {
    **os.environ,
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@pytest.fixture(scope="module")
def check_grads_run():
    """`check-grads` in a single-threaded subprocess; shared by criteria 1 and 9."""
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "pointcarve.cli", "check-grads", "--seed", "0"],
        env=SINGLE_THREAD_ENV,
        capture_output=True,
        text=True,
    )
    return proc.returncode, time.time() - t0, proc.stdout


def test_criterion_1_gradient_suite(check_grads_run):
    results = run_all(seed=0, instances=20)
    _, elapsed, _ = check_grads_run
    ok = all(r.passed for r in results) and elapsed < 60.0
    detail = (
        "; ".join(f"{r.name} err {r.max_rel_err:.2g} (tol {r.tolerance:g})" for r in results)
        + f"; single-threaded run {elapsed:.1f}s (< 60s)"
    )
    report(1, ok, detail)


def test_criterion_2_conv_oracle():
    from test_carving import brute_force_cell_conv

    unit_range = BoundingRange(np.zeros(3), np.ones(3))
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        g = rng.standard_normal((6, 6, 6))
        kern = rng.standard_normal((6, 6, 6, 27))
        out = cell_conv(VoxelGrid(g, unit_range), KernelField(kern, 3)).values
        worst = max(worst, float(np.abs(out - brute_force_cell_conv(g, kern, 3)).max()))
    shared = rng.standard_normal(27)
    g = rng.standard_normal((6, 6, 6))
    const = cell_conv(
        VoxelGrid(g, unit_range),
        KernelField(np.broadcast_to(shared, (6, 6, 6, 27)).copy(), 3),
    ).values
    ref = scipy.ndimage.correlate(g, shared.reshape(3, 3, 3), mode="constant", cval=0.0)
    shared_err = float(np.abs(const - ref).max())
    ok = worst < 1e-6 and shared_err < 1e-6
    report(2, ok, f"brute-force max abs err {worst:.2g}, shared-weight err {shared_err:.2g} (< 1e-6)")


def test_criterion_3_chamfer_oracle():
    rng = np.random.default_rng(3)
    exact = True
    for _ in range(50):
        a = PointCloud(rng.random((int(rng.integers(1, 201)), 3)))
        b = PointCloud(rng.random((int(rng.integers(1, 201)), 3)))
        d = ((a.points[:, None, :] - b.points[None, :, :]) ** 2).sum(axis=2)
        brute = float(d.min(axis=1).mean() + d.min(axis=0).mean())
        exact = exact and (chamfer(a, b) == brute)
    x = PointCloud(rng.random((80, 3)))
    y = PointCloud(rng.random((90, 3)))
    sym = abs(chamfer(x, y) - chamfer(y, x))
    ident = chamfer(x, x)
    theta = 0.9
    rot = np.array(
        [[np.cos(theta), -np.sin(theta), 0], [np.sin(theta), np.cos(theta), 0], [0, 0, 1]]
    )
    shift = np.array([1.0, -2.0, 0.5])
    rigid = abs(
        chamfer(PointCloud(x.points @ rot.T + shift), PointCloud(y.points @ rot.T + shift))
        - chamfer(x, y)
    )
    ok = exact and sym <= 1e-9 and ident <= 1e-9 and rigid <= 1e-9
    report(
        3,
        ok,
        f"50 pairs exact={exact}; symmetry {sym:.2g}, identity {ident:.2g}, "
        f"rigid-motion {rigid:.2g} (<= 1e-9)",
    )


def test_criterion_4_toy_training_halves_cd():
    t0 = time.time()
    dataset = make_dataset(seed=2024, n=200)
    config = RunConfig.preset("desk").replace(epochs=2, max_steps=60, val_count=20)
    holdout = dataset[-20:]
    init_params = CarveModelParams.initialize(config.carve_config(), config.seed)
    _, init_dense = validate_params(holdout, init_params, config)
    params, records = train_toy(dataset, config, params=init_params)
    final_dense = records[-1].val_cd_dense
    elapsed = time.time() - t0
    ratio = final_dense / init_dense
    ok = ratio <= 0.5 and elapsed < 15 * 60
    report(
        4,
        ok,
        f"desk preset, 200 shapes, {config.max_steps} steps: held-out dense CD "
        f"{init_dense:.4f} -> {final_dense:.4f} (ratio {ratio:.3f} <= 0.5), "
        f"runtime {elapsed / 60:.1f} min (< 15)",
    )


MINI_AUG = RunConfig(
    grid_res=16, unet_stages=2, unet_base_width=4, feature_dim=8,
    refine_widths=(32, 12), coarse_m=128, n_per_axis=6, lr=3e-4,
    dtype="float32", batch_size=4, epochs=30, max_steps=120, val_count=6,
    depth_buffer_res=96,
)


def _view_consistency(params, cfg, holdout, eval_seed):
    vals = []
    for k, (_, gt) in enumerate(holdout):
        for v in range(3):
            views = generate_partials(gt, 2, seed=eval_seed * 1000 + k * 10 + v)
            denses = [complete_cloud(p, params, cfg, gt=gt)[1] for p in views]
            vals.append(chamfer(denses[0], denses[1]))
    return float(np.mean(vals))


def test_criterion_5_sensoraug_consistency():
    cons_aug, cons_plain = [], []
    for seed in (0, 1, 2):
        dataset = make_dataset(100 + seed, n=30, points=1024)
        holdout = dataset[-6:]
        cfg_aug = MINI_AUG.replace(seed=seed, alpha=0.5, t_variants=2, sensoraug=True)
        cfg_plain = MINI_AUG.replace(seed=seed, alpha=0.0, sensoraug=False)
        p_aug, _ = train_toy(dataset, cfg_aug)
        p_plain, _ = train_toy(dataset, cfg_plain)
        cons_aug.append(_view_consistency(p_aug, cfg_aug, holdout, eval_seed=seed))
        cons_plain.append(_view_consistency(p_plain, cfg_plain, holdout, eval_seed=seed))
    mean_aug, mean_plain = float(np.mean(cons_aug)), float(np.mean(cons_plain))
    ok = mean_aug <= mean_plain
    report(
        5,
        ok,
        f"3-seed mean view-pair consistency: sensor-augmented {mean_aug:.5f} <= "
        f"alpha=0 baseline {mean_plain:.5f} "
        f"(per-seed {[f'{a:.4f}/{b:.4f}' for a, b in zip(cons_aug, cons_plain)]})",
    )


def _sphere_dataset(seed, n=24, points=1024, fov_deg=30.0):
    rng = np.random.default_rng(seed)
    fov = math.radians(fov_deg)
    out = []
    for _ in range(n):
        radius = 0.5 * rng.uniform(0.7, 1.3)
        gt, _ = gen_shape(
            SyntheticShapeSpec("sphere", (radius,), points, seed=int(rng.integers(2**31)))
        )
        partial = generate_partials(
            gt, 1, seed=int(rng.integers(2**31)), vfov=fov, hfov=fov
        )[0]
        out.append((partial, gt))
    return out


def test_criterion_6_block_construction_ablation():
    # Narrow-FOV partials leave structurally large missing regions; with a
    # learnable single-family prior the uniform block must beat carving the
    # bare partial, mirroring the published ordering.
    base = RunConfig(
        grid_res=16, unet_stages=2, unet_base_width=8, feature_dim=16,
        refine_widths=(32, 12), coarse_m=768, n_per_axis=6, lr=3e-4,
        dtype="float32", batch_size=4, epochs=40, max_steps=150, val_count=5,
        alpha=0.0, sensoraug=False, depth_buffer_res=96,
        sensor_vfov_deg=30.0, sensor_hfov_deg=30.0,
    )
    cds_uniform, cds_none = [], []
    for seed in (0, 1, 2):
        dataset = _sphere_dataset(100 + seed)
        holdout = dataset[-5:]
        cfg_u = base.replace(seed=seed, block_construction="uniform")
        cfg_n = base.replace(seed=seed, block_construction="none")
        p_u, _ = train_toy(dataset, cfg_u)
        p_n, _ = train_toy(dataset, cfg_n)
        cds_uniform.append(validate_params(holdout, p_u, cfg_u)[0])
        cds_none.append(validate_params(holdout, p_n, cfg_n)[0])
    mean_u, mean_n = float(np.mean(cds_uniform)), float(np.mean(cds_none))
    ok = mean_u < mean_n
    report(
        6,
        ok,
        f"3-seed mean held-out coarse CD: uniform block {mean_u:.5f} < "
        f"no construction {mean_n:.5f} "
        f"(per-seed {[f'{u:.4f}/{n:.4f}' for u, n in zip(cds_uniform, cds_none)]})",
    )


def test_criterion_7_metric_exactness():
    q1 = PointCloud(np.array([[0.0, 0.0, 0.0]]))
    q2 = PointCloud(np.array([[1.0, 0.0, 0.0]]))
    q3 = PointCloud(np.array([[3.0, 0.0, 0.0]]))
    # CD pairs: c1 = 2, c2 = 8; consistency = (c1 + c2) / 2 = 5.
    cons_err = abs(consistency(TrackedSequence("obj", (q1, q2, q3))) - 5.0)

    rng = np.random.default_rng(7)
    gt = PointCloud(rng.random((1500, 3)))
    self_vpp = valid_point_percentage(gt, gt)
    order = rng.permutation(1500)
    monotone = True
    prev = self_vpp
    keep = 1500
    for _ in range(10):
        keep = max(1, int(keep * 0.7))
        vpp = valid_point_percentage(PointCloud(gt.points[order[:keep]]), gt)
        monotone = monotone and vpp <= prev + 1e-15
        prev = vpp
    ok = cons_err <= 1e-12 and self_vpp == 1.0 and monotone
    report(
        7,
        ok,
        f"3-frame consistency err {cons_err:.2g} (<= 1e-12); vpp(X,X)={self_vpp}; "
        f"monotone under 10 removals: {monotone}",
    )


def test_criterion_8_training_determinism(tmp_path):
    from pointcarve.cli import main
    from pointcarve.pcio import write_xyz

    data = tmp_path / "data"
    (data / "gt").mkdir(parents=True)
    (data / "partial").mkdir()
    dataset = make_dataset(seed=88, n=12, points=512)
    lines = []
    for i, (partial, gt) in enumerate(dataset):
        write_xyz(data / f"gt/s{i:03d}.xyz", gt)
        write_xyz(data / f"partial/s{i:03d}.xyz", partial)
        lines.append(f"synth partial/s{i:03d}.xyz gt/s{i:03d}.xyz")
    (data / "manifest.txt").write_text("\n".join(lines) + "\n")

    config = RunConfig.preset("desk").replace(
        epochs=1, max_steps=6, val_count=2,
        data_manifest=str(data / "manifest.txt"),
    )
    cfg_path = tmp_path / "desk.cfg"
    config.save(cfg_path)

    outputs = []
    for run in ("a", "b"):
        ckpt = tmp_path / f"run_{run}.ckpt"
        log = tmp_path / f"run_{run}.log"
        code = main(["train", "--config", str(cfg_path), "--out", str(ckpt), "--log", str(log)])
        assert code == 0
        outputs.append((ckpt.read_bytes(), log.read_bytes()))
    ok = outputs[0][0] == outputs[1][0] and outputs[0][1] == outputs[1][1]
    report(
        8,
        ok,
        f"two desk-preset train runs: checkpoints identical={outputs[0][0] == outputs[1][0]}, "
        f"metrics logs identical={outputs[0][1] == outputs[1][1]} "
        f"({len(outputs[0][0])} byte checkpoint)",
    )


def test_criterion_9_performance_floor(check_grads_run):
    code, _, stdout = check_grads_run
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import time, numpy as np\n"
            "from pointcarve import PointCloud, BoundingRange, gridding\n"
            "rng = np.random.default_rng(0)\n"
            "cloud = PointCloud(rng.random((16384, 3)))\n"
            "bounds = BoundingRange(np.zeros(3), np.ones(3))\n"
            "best = min(\n"
            "    (lambda t0: (gridding(cloud, (64, 64, 64), bounds), time.perf_counter() - t0)[1])(time.perf_counter())\n"
            "    for _ in range(5)\n"
            ")\n"
            "print(f'{best*1e3:.3f}')",
        ],
        env=SINGLE_THREAD_ENV,
        capture_output=True,
        text=True,
    )
    gridding_ms = float(proc.stdout.strip())
    ok = gridding_ms < 50.0 and code == 0
    report(
        9,
        ok,
        f"gridding 16384 pts -> 64^3 in {gridding_ms:.1f} ms single-threaded (< 50); "
        f"check-grads exit {code} (== 0): {stdout.strip().splitlines()[:1]}",
    )
