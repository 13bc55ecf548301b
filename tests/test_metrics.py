"""Consistency, valid-point percentage, scaled CD and the report format."""

import codecs
import re
from dataclasses import replace

import numpy as np
import pytest

from pointcarve import (
    CarveModelParams,
    EvalReport,
    PointCloud,
    RunConfig,
    TrackedSequence,
    cd_scaled,
    chamfer,
    consistency,
    evaluate,
    sensitivity_sweep,
    valid_point_percentage,
)
from pointcarve.shapes import SyntheticShapeSpec, gen_shape

from conftest import random_cloud, run_fresh_python

TINY_CFG = RunConfig(
    grid_res=8,
    unet_stages=2,
    unet_base_width=2,
    feature_dim=4,
    refine_widths=(8, 6),
    coarse_m=32,
    n_per_axis=3,
    dtype="float64",
    val_count=0,
)


class TestCdScaled:
    def test_zero(self, rng):
        g = random_cloud(rng, 10)
        assert cd_scaled(g, g) == 0.0

    def test_singleton_scaling(self):
        q = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        g = PointCloud(np.array([[1.0, 0.0, 0.0]]))
        assert cd_scaled(q, g) == pytest.approx(2000.0)

    def test_scaling_commutes_with_mean(self, rng):
        pairs = [(random_cloud(rng, 8), random_cloud(rng, 9)) for _ in range(5)]
        mean_scaled = np.mean([cd_scaled(q, g) for q, g in pairs])
        scaled_mean = 1e3 * np.mean([chamfer(q, g) for q, g in pairs])
        assert mean_scaled == pytest.approx(scaled_mean, abs=1e-9)


class TestConsistency:
    def test_identical_frames_zero(self, rng):
        q = random_cloud(rng, 20)
        assert consistency(TrackedSequence("car0", (q, q, q))) == 0.0

    def test_two_frames_equals_cd(self, rng):
        a, b = random_cloud(rng, 15), random_cloud(rng, 18)
        assert consistency(TrackedSequence("x", (a, b))) == pytest.approx(chamfer(a, b))

    def test_three_frame_hand_average(self):
        q1 = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        q2 = PointCloud(np.array([[1.0, 0.0, 0.0]]))
        q3 = PointCloud(np.array([[3.0, 0.0, 0.0]]))
        # c1 = CD(q1,q2) = 2, c2 = CD(q2,q3) = 8; consistency = (2+8)/2 = 5.
        value = consistency(TrackedSequence("x", (q1, q2, q3)))
        assert abs(value - 5.0) <= 1e-12

    def test_reversal_invariance(self, rng):
        frames = tuple(random_cloud(rng, 12) for _ in range(4))
        fwd = consistency(TrackedSequence("a", frames))
        rev = consistency(TrackedSequence("a", frames[::-1]))
        assert fwd == pytest.approx(rev, abs=1e-12)

    def test_single_frame_errors(self, rng):
        with pytest.raises(ValueError, match="2 frames"):
            TrackedSequence("x", (random_cloud(rng, 5),))


class TestValidPointPercentage:
    def test_self_is_one(self, rng):
        x = random_cloud(rng, 500)
        assert valid_point_percentage(x, x) == 1.0

    def test_constructed_half(self):
        # gt occupies 8 distinct cells along x; partial covers the first 4.
        x = np.arange(8) / 7.0
        gt = PointCloud(np.stack([x, np.zeros(8), np.zeros(8)], axis=1))
        partial = PointCloud(gt.points[:4])
        assert valid_point_percentage(partial, gt) == pytest.approx(0.5)

    def test_monotone_under_removal(self, rng):
        gt = random_cloud(rng, 1000)
        prev = 1.0
        order = rng.permutation(1000)
        for keep in (800, 600, 400, 200, 100, 50, 20, 10, 5, 2):
            partial = PointCloud(gt.points[order[:keep]])
            vpp = valid_point_percentage(partial, gt)
            assert vpp <= prev + 1e-12
            prev = vpp

    def test_empty_partial_zero(self, rng):
        gt = random_cloud(rng, 50)
        assert valid_point_percentage(PointCloud.empty(), gt) == 0.0


@pytest.fixture(scope="module")
def tiny_model():
    return CarveModelParams.initialize(TINY_CFG.carve_config(), seed=0)


@pytest.fixture(scope="module")
def tiny_dataset():
    out = []
    for i, fam in enumerate(("box", "sphere", "box")):
        gt, cat = gen_shape(SyntheticShapeSpec(fam, count=256, seed=i))
        out.append((cat, PointCloud(gt.points[:128]), gt))
    return out


class TestEvaluate:
    def test_single_category_overall(self, tiny_model, tiny_dataset):
        report = evaluate(tiny_model, tiny_dataset[:1], TINY_CFG)
        assert report.overall == pytest.approx(report.category_means["box"])

    def test_unweighted_overall_is_category_mean(self, tiny_model, tiny_dataset):
        report = evaluate(tiny_model, tiny_dataset, TINY_CFG)
        assert report.overall == pytest.approx(
            np.mean(list(report.category_means.values())), abs=1e-12
        )
        assert report.category_counts == {"box": 2, "sphere": 1}

    def test_report_round_trip(self, tiny_model, tiny_dataset, tmp_path):
        report = evaluate(tiny_model, tiny_dataset, TINY_CFG)
        path = tmp_path / "report.txt"
        report.save(path)
        loaded = EvalReport.load(path)
        assert loaded == report

    @pytest.mark.parametrize("names", [("car.v2",), ("car.v2", "plane")])
    def test_dotted_category_names_round_trip(self, names, tmp_path):
        means = {name: 1.5 + i for i, name in enumerate(names)}
        report = EvalReport(
            category_means=means, category_counts={name: 3 for name in names},
            overall=float(np.mean(list(means.values()))), weighted=False,
            config_hash="0123456789ab", seed=7, created_utc="2026-01-01T00:00:00Z",
        )
        path = tmp_path / "report.txt"
        report.save(path)
        assert "category.car.v2.mean_cd_scaled: 1.5" in path.read_text()
        assert EvalReport.load(path) == report


def _saved_report(path, names=("box", "sphere")):
    means = {name: 1.5 + i for i, name in enumerate(names)}
    report = EvalReport(
        category_means=means, category_counts={name: 3 for name in names},
        overall=float(np.mean(list(means.values()))), weighted=False,
        config_hash="0123456789ab", seed=7, created_utc="2026-01-01T00:00:00Z",
    )
    report.save(path)
    return report


class TestReportLoad:
    def test_text_that_is_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "report.txt"
        _saved_report(path)
        path.write_bytes(path.read_bytes().replace(b"box", b"b\xffx"))
        with pytest.raises(ValueError, match=r"report\.txt: not UTF-8 text \(byte 0xff at offset \d+\)"):
            EvalReport.load(path)

    @pytest.mark.parametrize("key", ["overall_cd_scaled", "weighted", "config_hash", "seed",
                                     "created_utc"])
    def test_missing_key_is_named(self, key, tmp_path):
        path = tmp_path / "report.txt"
        _saved_report(path)
        kept = [line for line in path.read_text().splitlines() if not line.startswith(f"{key}: ")]
        path.write_text("\n".join(kept) + "\n")
        with pytest.raises(ValueError, match=f"report\\.txt: missing key '{key}'"):
            EvalReport.load(path)

    @pytest.mark.parametrize("key,bad", [
        ("overall_cd_scaled", "abc"), ("seed", "7.5"), ("weighted", "yes"),
        ("category.box.count", "three"), ("category.sphere.mean_cd_scaled", "1,5"),
    ])
    def test_malformed_value_is_named(self, key, bad, tmp_path):
        path = tmp_path / "report.txt"
        _saved_report(path)
        lines = [f"{key}: {bad}" if line.startswith(f"{key}: ") else line
                 for line in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        message = f"report.txt: {key}: malformed value '{bad}'"
        with pytest.raises(ValueError, match=re.escape(message)):
            EvalReport.load(path)

    def test_non_ascii_names_round_trip_under_an_ascii_locale(self, tmp_path, monkeypatch):
        # A C locale without UTF-8 mode or coercion: the locale's encoding
        # is ASCII, which cannot encode these names.
        for var, value in (("LC_ALL", "C"), ("PYTHONUTF8", "0"), ("PYTHONCOERCECLOCALE", "0")):
            monkeypatch.setenv(var, value)
        path = tmp_path / "report.txt"
        code = (
            "import sys\n"
            "from pointcarve import EvalReport\n"
            # Escaped: an ASCII locale cannot pass these names on the command line.
            "names = ('caf\\u00e9', '\\u043c\\u0435\\u0431\\u0435\\u043b\\u044c')\n"
            "report = EvalReport(category_means={n: 1.5 for n in names},\n"
            "    category_counts={n: 3 for n in names}, overall=1.5, weighted=False,\n"
            "    config_hash='0123456789ab', seed=7, created_utc='2026-01-01T00:00:00Z')\n"
            "report.save(sys.argv[1])\n"
            "assert EvalReport.load(sys.argv[1]) == report\n"
            "import locale; print(locale.getpreferredencoding(False))\n"
        )
        encoding = run_fresh_python(code, str(path)).strip()
        assert codecs.lookup(encoding).name == "ascii"
        text = path.read_bytes().decode("utf-8")
        assert "category.café.count: 3" in text and "category.мебель.count: 3" in text


class _RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers, starts no
    thread and maps in this one."""

    max_workers = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("jobs,workers", [(2, 2), (3, 3), (8, 3)])
def test_pool_starts_at_most_one_worker_per_sample(tiny_model, tiny_dataset, monkeypatch,
                                                   jobs, workers):
    import concurrent.futures

    serial = evaluate(tiny_model, tiny_dataset, TINY_CFG)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "max_workers", [])
    report = evaluate(tiny_model, tiny_dataset, TINY_CFG, jobs=jobs)
    assert _RecordingPool.max_workers == [workers]
    assert report.category_means == serial.category_means


def test_threads_give_the_serial_results(tiny_model, tiny_dataset):
    serial = evaluate(tiny_model, tiny_dataset, TINY_CFG)
    threaded = evaluate(tiny_model, tiny_dataset, TINY_CFG, jobs=3)
    assert replace(threaded, created_utc=serial.created_utc) == serial
    levels = [0.3, 0.6, 1.0]
    serial = sensitivity_sweep(tiny_model, tiny_dataset, levels, TINY_CFG, seed=4)
    assert all(p.sample_count == len(tiny_dataset) for p in serial)
    assert sensitivity_sweep(tiny_model, tiny_dataset, levels, TINY_CFG, seed=4, jobs=3) == serial


class TestSensitivitySweep:
    def test_unknown_method_is_rejected(self, tiny_model, tiny_dataset):
        with pytest.raises(ValueError, match="unknown sweep cull method 'bogus'"):
            sensitivity_sweep(tiny_model, tiny_dataset, [1.0], TINY_CFG, method="bogus")

    def test_repeated_level_is_rejected_before_any_work(self, tiny_model, tiny_dataset,
                                                        monkeypatch):
        from pointcarve import metrics

        def no_work(*args, **kwargs):
            raise AssertionError("a sample was completed")

        monkeypatch.setattr(metrics, "complete_cloud", no_work)
        with pytest.raises(ValueError, match="^level 0.5 given twice$"):
            sensitivity_sweep(tiny_model, tiny_dataset, [0.5, 1.0, 0.5], TINY_CFG)

    def test_level_one_reproduces_plain_eval(self, rng):
        params = CarveModelParams.initialize(TINY_CFG.carve_config(), seed=1)
        gt, cat = gen_shape(SyntheticShapeSpec("box", count=512, seed=5))
        dataset = [(cat, PointCloud(gt.points[:256]), gt)]
        points = sensitivity_sweep(params, dataset, [1.0], TINY_CFG, seed=0)
        report_mean = evaluate(params, dataset, TINY_CFG).overall
        assert points[0].mean_cd_scaled == pytest.approx(report_mean, abs=1e-9)

    def test_ascending_levels_and_counts(self, rng):
        params = CarveModelParams.initialize(TINY_CFG.carve_config(), seed=1)
        gt, cat = gen_shape(SyntheticShapeSpec("sphere", count=512, seed=6))
        dataset = [(cat, gt, gt)]
        points = sensitivity_sweep(params, dataset, [0.6, 0.2, 1.0], TINY_CFG, seed=0)
        assert [p.level for p in points] == [0.2, 0.6, 1.0]
        for p in points:
            assert p.sample_count in (0, 1)

    def test_culled_levels_hit_window(self, rng):
        gt = random_cloud(rng, 2000)
        params = CarveModelParams.initialize(TINY_CFG.carve_config(), seed=1)
        from pointcarve.metrics import _cull_to_level
        from pointcarve.sensoraug import VisibilityConfig

        culled = _cull_to_level(
            gt, gt, 0.5, np.random.default_rng(0), "random",
            VisibilityConfig(32, 0.01), (0.85, 0.85),
        )
        assert culled is not None
        assert 0.48 <= valid_point_percentage(culled, gt) <= 0.52
