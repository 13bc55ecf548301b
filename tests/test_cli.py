"""CLI surface: subcommands, exit codes, file contracts."""

import hashlib
import warnings

import numpy as np
import pytest

from pointcarve import (
    CarveModelConfig,
    CarveModelParams,
    CheckpointMeta,
    PointCloud,
    RunConfig,
    complete_cloud,
    load_checkpoint,
    save_checkpoint,
)
from pointcarve.cli import main
from pointcarve.pcio import read_xyz, write_ply, write_xyz
from pointcarve.shapes import MIN_POINTS, SyntheticShapeSpec, gen_shape

from conftest import degenerate_partial, run_fresh_python

TINY_CFG_TEXT = """
grid_res = 8
unet_stages = 2
unet_base_width = 2
feature_dim = 4
refine_widths = 8,6
coarse_m = 32
n_per_axis = 3
dtype = float64
sensoraug = false
alpha = 0.0
t_variants = 0
batch_size = 2
epochs = 1
val_count = 1
seed = 3
"""

# The keys a v4 config text held that v5 made constants, at their v4 defaults.
V4_ONLY_KEYS = [("lr_halve_every", "40"), ("adam_beta1", "0.9"), ("adam_beta2", "0.999"),
                ("adam_eps", "1e-08"), ("depth_eps", "0.01"), ("min_visible_frac", "0.05")]


def rewrite_config(raw: bytes, old: str, new: str) -> bytes:
    """The checkpoint `raw` with `old` replaced by `new` in its config text, re-hashed."""
    n = int.from_bytes(raw[8:12], "little")
    text = raw[12:12 + n].decode()
    assert old in text
    text = text.replace(old, new).encode()
    digest = hashlib.sha256(text).hexdigest()[:12].encode()
    return raw[:8] + len(text).to_bytes(4, "little") + text + digest + raw[12 + n + 12:]


def assert_one_line_failure(code, capsys, needle):
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert needle in lines[0], lines[0]
    return lines[0]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = main([
        "gen-synth", "--out", str(out), "--families", "box,sphere",
        "--count", "4", "--seed", "1", "--points", "256",
    ])
    assert code == 0
    return out


class TestGenSynth:
    def test_manifest_and_files(self, synth_dir):
        manifest = (synth_dir / "manifest.txt").read_text().strip().splitlines()
        assert len(manifest) == 4
        category, partial_rel, gt_rel = manifest[0].split()
        assert category in ("box", "sphere")
        assert len(read_xyz(synth_dir / gt_rel)) == 256
        assert len(read_xyz(synth_dir / partial_rel)) > 0

    def test_reproducible(self, synth_dir, tmp_path):
        again = tmp_path / "again"
        main(["gen-synth", "--out", str(again), "--families", "box,sphere",
              "--count", "4", "--seed", "1", "--points", "256"])
        a = (synth_dir / "manifest.txt").read_bytes()
        b = (again / "manifest.txt").read_bytes()
        assert a == b
        for line in a.decode().strip().splitlines():
            _, partial_rel, gt_rel = line.split()
            assert (synth_dir / gt_rel).read_bytes() == (again / gt_rel).read_bytes()

    def test_unknown_family(self, tmp_path):
        code = main(["gen-synth", "--out", str(tmp_path / "x"), "--families",
                     "pyramid", "--count", "1"])
        assert code == 1

    @pytest.mark.parametrize("args,needle", [
        (["--families", "", "--count", "2"], "--families names no family"),
        (["--families", ",", "--count", "2"], "--families names no family"),
        (["--count", "0"], "--count must be >= 1, got 0"),
    ])
    def test_nothing_to_generate_is_runtime_error(self, tmp_path, capsys, args, needle):
        capsys.readouterr()
        code = main(["gen-synth", "--out", str(tmp_path / "x"), *args])
        assert_one_line_failure(code, capsys, needle)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("points", [0, MIN_POINTS - 1])
    def test_points_below_the_minimum_is_runtime_error(self, tmp_path, capsys, points):
        capsys.readouterr()
        code = main(["gen-synth", "--out", str(tmp_path / "x"), "--count", "1",
                     "--points", str(points)])
        assert_one_line_failure(code, capsys, f"--points must be >= {MIN_POINTS}, got {points}")
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["eval", "sweep"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_usage_error(tmp_path, capsys, command, jobs):
    argv = [command, "--ckpt", "m.ckpt", "--manifest", "m.txt", "--jobs", jobs]
    argv += ["--report", "r.txt"] if command == "eval" else ["--levels", "0.5"]
    capsys.readouterr()
    assert main(argv) == 2
    assert f"--jobs: must be >= 1, got {jobs}" in capsys.readouterr().err


@pytest.mark.parametrize("t", ["0", "-3"])
def test_t_below_one_is_usage_error(tmp_path, capsys, t):
    capsys.readouterr()
    assert main(["augment", "--in", "a.xyz", "--t", t, "--out", str(tmp_path / "d")]) == 2
    assert f"--t: must be >= 1, got {t}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["gen-synth", "augment", "sweep", "check-grads"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    argv = {
        "gen-synth": ["gen-synth", "--out", str(tmp_path / "d"), "--count", "1"],
        "augment": ["augment", "--in", "a.xyz", "--t", "1", "--out", str(tmp_path / "d")],
        "sweep": ["sweep", "--ckpt", "m.ckpt", "--manifest", "m.txt", "--levels", "0.5"],
        "check-grads": ["check-grads"],
    }[command]
    capsys.readouterr()
    assert main([*argv, "--seed", "-1"]) == 2
    assert "--seed: must be >= 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def trained(synth_dir, tmp_path_factory):
    work = tmp_path_factory.mktemp("train")
    cfg_path = work / "tiny.cfg"
    cfg_path.write_text(TINY_CFG_TEXT)
    ckpt = work / "model.ckpt"
    code = main(["train", "--config", str(cfg_path), "--out", str(ckpt),
                 "--manifest", str(synth_dir / "manifest.txt")])
    assert code == 0
    return work, ckpt


def test_train_with_too_few_bottleneck_cells_leaves_no_log(synth_dir, tmp_path, capsys):
    cfg_path = tmp_path / "deep.cfg"
    cfg_path.write_text(TINY_CFG_TEXT.replace("unet_stages = 2", "unet_stages = 3"))
    ckpt = tmp_path / "m.ckpt"
    capsys.readouterr()
    code = main(["train", "--config", str(cfg_path), "--out", str(ckpt),
                 "--manifest", str(synth_dir / "manifest.txt")])
    assert_one_line_failure(code, capsys, "invalid config: grid_res=8 must be divisible by "
                            "2^unet_stages=8 and at least 2^(unet_stages+1)=16")
    assert list(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize("old,new,needle", [
    ("grid_res = 8\n", "grid_res = 8\ngrid_res = 16\n",
     "tiny.cfg:3: duplicate config key 'grid_res' (first on line 2)"),
    ("seed = 3", "seed = -1", "invalid config: seed must be >= 0, got -1"),
    ("seed = 3", "block_construction = gt", "block_construction must be one of"),
    ("seed = 3", "gt_points_count = 1331", "tiny.cfg:16: unknown config key 'gt_points_count'"),
    ("seed = 3", "block_construction = mirror", "got 'mirror'"),
    ("seed = 3", "block_sampling = random", "tiny.cfg:16: unknown config key 'block_sampling'"),
    ("seed = 3", "mirror_axis = z", "tiny.cfg:16: unknown config key 'mirror_axis'"),
    ("seed = 3", "detach_anchors = true", "tiny.cfg:16: unknown config key 'detach_anchors'"),
    *[("seed = 3", f"{key} = {value}", f"tiny.cfg:16: unknown config key '{key}'")
      for key, value in V4_ONLY_KEYS],
    # Sizes no run could allocate (PiB to EiB) are refused by name.
    ("coarse_m = 32", "coarse_m = 1000000000000000",
     "invalid config: coarse_m=1000000000000000 makes the refine activation at least 2^52"),
    ("n_per_axis = 3", "n_per_axis = 1000000",
     "invalid config: n_per_axis=1000000 makes the block lattice at least 2^61"),
    ("feature_dim = 4", "feature_dim = 10000000000000",
     "invalid config: feature_dim=10000000000000 makes the refine input at least 2^48"),
    ("refine_widths = 8,6", "refine_widths = 10000000000000,3",
     "invalid config: refine_widths=(10000000000000, 3) makes the refine activation"),
])
def test_train_rejects_config_in_one_line(synth_dir, tmp_path, capsys, old, new, needle):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_CFG_TEXT.replace(old, new))
    capsys.readouterr()
    code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "m.ckpt"),
                 "--manifest", str(synth_dir / "manifest.txt")])
    assert_one_line_failure(code, capsys, needle)
    assert list(tmp_path.iterdir()) == [cfg_path]


class TestTrainCompleteEval:
    def test_train_outputs(self, trained):
        work, ckpt = trained
        assert ckpt.exists()
        log_lines = (work / "model.ckpt.log").read_text().strip().splitlines()
        assert len(log_lines) == 1
        assert len(log_lines[0].split(",")) == 7

    def test_complete_roundtrip(self, trained, synth_dir, tmp_path):
        _, ckpt = trained
        manifest = (synth_dir / "manifest.txt").read_text().strip().splitlines()
        partial_rel = manifest[0].split()[1]
        out = tmp_path / "dense.xyz"
        code = main(["complete", "--ckpt", str(ckpt), "--in",
                     str(synth_dir / partial_rel), "--out", str(out)])
        assert code == 0
        dense = read_xyz(out)
        assert len(dense) == 32 * 2  # coarse_m x expansion (widths end at 6)

    def test_eval_report(self, trained, synth_dir, tmp_path):
        work, ckpt = trained
        report = tmp_path / "report.txt"
        code = main(["eval", "--ckpt", str(ckpt), "--manifest",
                     str(synth_dir / "manifest.txt"), "--report", str(report)])
        assert code == 0
        text = report.read_text()
        assert "overall_cd_scaled:" in text
        assert "category.box.count:" in text
        train_hash = RunConfig.load(work / "tiny.cfg").config_hash()
        assert f"config_hash: {train_hash}\n" in text

    def test_eval_jobs_2_writes_the_jobs_1_report(self, trained, synth_dir, tmp_path):
        _, ckpt = trained
        reports = []
        for jobs in ("1", "2"):
            report = tmp_path / f"report_{jobs}.txt"
            code = main(["eval", "--ckpt", str(ckpt), "--manifest",
                         str(synth_dir / "manifest.txt"), "--report", str(report),
                         "--jobs", jobs])
            assert code == 0
            lines = report.read_text().splitlines()
            reports.append([line for line in lines if not line.startswith("created_utc:")])
        assert len(reports[0]) == len(lines) - 1
        assert reports[1] == reports[0]

    def test_sweep_rows(self, trained, synth_dir, capsys):
        _, ckpt = trained
        code = main(["sweep", "--ckpt", str(ckpt), "--manifest",
                     str(synth_dir / "manifest.txt"), "--levels", "0.5,1.0"])
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 2
        level, _, count = rows[0].split(",")
        assert float(level) == 0.5 and int(count) >= 0

    @pytest.mark.parametrize("levels", ["", ","])
    def test_sweep_without_a_level_is_runtime_error(self, trained, synth_dir, capsys, levels):
        _, ckpt = trained
        capsys.readouterr()
        code = main(["sweep", "--ckpt", str(ckpt), "--manifest",
                     str(synth_dir / "manifest.txt"), "--levels", levels])
        assert_one_line_failure(code, capsys, "no level to sweep")

    @pytest.mark.parametrize("levels,line", [
        ("0.5,abc", "error: --levels: 'abc' is not a number"),
        ("0.5, 1e-3x", "error: --levels: '1e-3x' is not a number"),
        ("0.5,0.5", "error: level 0.5 given twice"),
    ])
    def test_sweep_bad_level_is_runtime_error(self, trained, synth_dir, capsys, levels, line):
        _, ckpt = trained
        capsys.readouterr()
        code = main(["sweep", "--ckpt", str(ckpt), "--manifest",
                     str(synth_dir / "manifest.txt"), "--levels", levels])
        assert assert_one_line_failure(code, capsys, "") == line
        assert capsys.readouterr().out == ""


class TestConsistencyCommand:
    def test_hand_built_sequence(self, tmp_path, capsys):
        from pointcarve import PointCloud

        for i, x in enumerate((0.0, 1.0, 3.0)):
            write_xyz(tmp_path / f"f{i}.xyz", PointCloud(np.array([[x, 0.0, 0.0]])))
        (tmp_path / "seq.txt").write_text(
            "car0 0 f0.xyz\ncar0 1 f1.xyz\ncar0 2 f2.xyz\n"
        )
        code = main(["consistency", "--manifest", str(tmp_path / "seq.txt")])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        # CD(f0,f1)=2, CD(f1,f2)=8 -> consistency 5.0 -> x10^3 = 5000
        assert out[0] == "car0,5000"
        assert out[1] == "mean,5000"

    def test_object_with_one_frame_prints_no_row(self, tmp_path, capsys):
        for i, x in enumerate((0.0, 1.0, 3.0)):
            write_xyz(tmp_path / f"f{i}.xyz", PointCloud(np.array([[x, 0.0, 0.0]])))
        manifest = tmp_path / "seq.txt"
        manifest.write_text("carA 0 f0.xyz\ncarA 1 f1.xyz\ncarB 0 f2.xyz\n")
        capsys.readouterr()
        code = main(["consistency", "--manifest", str(manifest)])
        line = assert_one_line_failure(code, capsys, "")
        assert line == f"error: {manifest}: object 'carB' has 1 frame, needs at least 2"
        assert capsys.readouterr().out == ""


class TestAugmentCommand:
    def test_writes_t_files(self, tmp_path):
        gt, _ = gen_shape(SyntheticShapeSpec("sphere", count=512, seed=0))
        src = tmp_path / "shape.xyz"
        write_xyz(src, gt)
        out = tmp_path / "views"
        code = main(["augment", "--in", str(src), "--t", "3", "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        files = sorted(out.glob("partial_*.xyz"))
        assert len(files) == 3
        for f in files:
            assert len(read_xyz(f)) > 0


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_args_usage_error(self):
        assert main([]) == 2

    def test_missing_file_is_runtime_error(self, tmp_path):
        code = main(["complete", "--ckpt", str(tmp_path / "none.ckpt"),
                     "--in", str(tmp_path / "none.xyz"), "--out", str(tmp_path / "o.xyz")])
        assert code == 1

    def test_single_point_partial_is_runtime_error(self, trained, tmp_path, capsys):
        # A one-point partial has no extent to derive a block range from.
        _, ckpt = trained
        src = tmp_path / "one.xyz"
        write_xyz(src, PointCloud(np.array([[0.1, 0.2, 0.3]])))
        capsys.readouterr()
        code = main(["complete", "--ckpt", str(ckpt), "--in", str(src),
                     "--out", str(tmp_path / "o.xyz")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "Traceback" not in err[0]
        assert not (tmp_path / "o.xyz").exists()

    def test_corrupt_refine_layer_count_is_runtime_error(self, tmp_path, capsys):
        # One refinement layer more in the (re-hashed) config text than the
        # tensors that follow it hold.
        cfg = RunConfig.preset("desk")
        ckpt = tmp_path / "desk.ckpt"
        save_checkpoint(ckpt, CarveModelParams.initialize(cfg.carve_config(), 0),
                        CheckpointMeta.from_config(cfg))
        ckpt.write_bytes(rewrite_config(ckpt.read_bytes(), "refine_widths = 256,128,64,12",
                                        "refine_widths = 256,128,64,64,12"))
        src = tmp_path / "in.xyz"
        write_xyz(src, PointCloud(np.random.default_rng(0).random((64, 3))))
        capsys.readouterr()
        code = main(["complete", "--ckpt", str(ckpt), "--in", str(src),
                     "--out", str(tmp_path / "o.xyz")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "truncated tensor data" in err[0]
        assert "Traceback" not in err[0]

    def test_check_grads_passes(self, capsys):
        assert main(["check-grads", "--seed", "7"]) == 0
        # The encoder-decoder backward is part of the suite, layer and whole.
        names = {line.split()[1].rstrip(":") for line in capsys.readouterr().out.splitlines()}
        assert {"conv3_grads", "end_to_end_loss"} <= names


# Run in a fresh interpreter: the test process has long imported scipy.
COLD_COMPLETE = """
import sys
from pointcarve.cli import main

ckpt, src, out = sys.argv[1:]
assert main(["complete", "--ckpt", ckpt, "--in", src, "--out", out]) == 0
loaded = [m for m in sys.modules
          if m.split(".")[0] in ("scipy", "concurrent") or m.split(".")[:2] == ["numpy", "ma"]]
assert loaded == [], loaded

from pointcarve import PointCloud, chamfer
from pointcarve.pcio import read_xyz

assert chamfer(read_xyz(src), read_xyz(out)) > 0
assert "scipy.spatial" in sys.modules
print("ok")
"""


class TestColdStart:
    def test_complete_imports_neither_scipy_nor_numpy_ma(self, tmp_path):
        cfg = RunConfig.from_text(TINY_CFG_TEXT)
        ckpt = tmp_path / "tiny.ckpt"
        save_checkpoint(ckpt, CarveModelParams.initialize(cfg.carve_config(), 0),
                        CheckpointMeta.from_config(cfg))
        src = tmp_path / "in.xyz"
        write_xyz(src, PointCloud(np.random.default_rng(0).random((64, 3))))
        out = run_fresh_python(COLD_COMPLETE, str(ckpt), str(src), str(tmp_path / "out.xyz"))
        assert out.strip() == "ok"


class TestPaperScaleComplete:
    def test_2048_partial_gives_16384_dense(self, tmp_path):
        # Paper-scale cloud sizes with an untrained model: coarse 2048, r=8.
        # Narrower encoder than the paper preset keeps the test quick; the
        # size contract under test is independent of widths.
        cfg = RunConfig.preset("paper").replace(unet_base_width=8)
        params = CarveModelParams.initialize(
            CarveModelConfig(
                resolution=(64, 64, 64), stages=3, base_width=8, kernel_size=3,
                feature_dim=32, refine_widths=(1792, 2448, 112, 24), dtype="float32",
            ),
            seed=0,
        )
        ckpt = tmp_path / "paper.ckpt"
        save_checkpoint(ckpt, params, CheckpointMeta.from_config(cfg))
        gt, _ = gen_shape(SyntheticShapeSpec("box", count=2048, seed=1))
        src = tmp_path / "partial.xyz"
        write_xyz(src, gt)
        out = tmp_path / "dense.xyz"
        code = main(["complete", "--ckpt", str(ckpt), "--in", str(src), "--out", str(out)])
        assert code == 0
        assert len(read_xyz(out)) == 16384


class TestCheckpointServesTrainingConfig:
    def test_complete_runs_the_saved_pipeline(self, tmp_path):
        cfg = RunConfig(
            grid_res=8, unet_stages=2, unet_base_width=2, feature_dim=4,
            refine_widths=(8, 6), coarse_m=32, block_construction="none", n_per_axis=5,
            eps_box_frac=0.01, bounds_padding_gt=0.1, seed=5, dtype="float64",
        )
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, CarveModelParams.initialize(cfg.carve_config(), 2),
                        CheckpointMeta.from_config(cfg))
        params, loaded = load_checkpoint(ckpt)
        assert loaded == cfg and loaded.config_hash() == cfg.config_hash()
        assert params.config.dtype == "float64"

        src = tmp_path / "in.xyz"
        write_xyz(src, PointCloud(np.random.default_rng(4).random((300, 3))))
        _, dense = complete_cloud(read_xyz(src), params, cfg)
        write_xyz(tmp_path / "library.xyz", dense)
        out = tmp_path / "cli.xyz"
        assert main(["complete", "--ckpt", str(ckpt), "--in", str(src), "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "library.xyz").read_bytes()


class TestDegenerateComplete:
    """`complete` on partials with no volume (library half: TestDegenerateInputs)
    or beyond the model's float range."""

    DESK = RunConfig.preset("desk")

    @pytest.fixture(scope="class")
    def desk_ckpt(self, tmp_path_factory):
        ckpt = tmp_path_factory.mktemp("degenerate") / "desk.ckpt"
        save_checkpoint(ckpt, CarveModelParams.initialize(self.DESK.carve_config(), 0),
                        CheckpointMeta.from_config(self.DESK))
        return ckpt

    @pytest.mark.parametrize("kind", ["planar", "line", "two-point"])
    def test_flat_partials_complete(self, desk_ckpt, tmp_path, kind):
        src, out = tmp_path / "in.xyz", tmp_path / "out.xyz"
        write_xyz(src, degenerate_partial(kind))
        assert main(["complete", "--ckpt", str(desk_ckpt), "--in", str(src),
                     "--out", str(out)]) == 0
        assert len(read_xyz(out)) == self.DESK.coarse_m * self.DESK.expansion

    def test_identical_points_exit_1(self, desk_ckpt, tmp_path, capsys):
        src, out = tmp_path / "in.xyz", tmp_path / "out.xyz"
        write_xyz(src, degenerate_partial("identical"))
        capsys.readouterr()
        code = main(["complete", "--ckpt", str(desk_ckpt), "--in", str(src), "--out", str(out)])
        line = assert_one_line_failure(code, capsys, "degenerate")
        assert line == "error: degenerate cloud and eps_box is zero"
        assert not out.exists()

    def test_float32_overflow_exit_1(self, desk_ckpt, tmp_path, capsys):
        # Finite in float64, so it reads and grids; refine's float32 cast overflows.
        points = np.random.default_rng(6).random((64, 3))
        points[0, 0] = 1e300
        src, out = tmp_path / "in.xyz", tmp_path / "out.xyz"
        write_xyz(src, PointCloud(points))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["complete", "--ckpt", str(desk_ckpt), "--in", str(src),
                         "--out", str(out)])
        line = assert_one_line_failure(code, capsys, "overflow float32")
        assert line.startswith("error: coarse coordinates overflow float32: largest magnitude")
        assert not out.exists()

    @pytest.mark.parametrize("tensor,message", [
        ("stem.w", "kernel head output contains non-finite values"),
        ("stem.b", "kernel head output contains non-finite values"),
        ("enc1.b", "grid values contain non-finite entries"),
    ])
    def test_overflowing_weights_exit_1_in_one_line(self, tmp_path, capsys, tensor, message):
        # Finite float32 weights whose forward overflows: a stage's own finite
        # check names the failure, and numpy prints no warning first.
        params = CarveModelParams.initialize(self.DESK.carve_config(), 0)
        params.tensors[tensor][0] = 3e38
        ckpt, src, out = tmp_path / "big.ckpt", tmp_path / "in.xyz", tmp_path / "out.xyz"
        save_checkpoint(ckpt, params, CheckpointMeta.from_config(self.DESK))
        write_xyz(src, PointCloud(np.random.default_rng(0).random((64, 3))))
        capsys.readouterr()
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["complete", "--ckpt", str(ckpt), "--in", str(src), "--out", str(out)])
        line = assert_one_line_failure(code, capsys, "")
        assert line == f"error: {message}"
        assert np.geterr() == before
        assert not out.exists()


def _as_v4(raw: bytes) -> bytes:
    """The file a v4 build saves for the same run: its text holds the v4-only keys."""
    for after, keys in [("lr = 0.0001\n", V4_ONLY_KEYS[:4]),
                        ("depth_buffer_res = 160\n", V4_ONLY_KEYS[4:])]:
        raw = rewrite_config(raw, after, after + "".join(f"{k} = {v}\n" for k, v in keys))
    return raw[:4] + (4).to_bytes(4, "little") + raw[8:]


def _flip_config_byte(raw: bytes) -> bytes:
    out = bytearray(raw)
    out[20] ^= 0x01
    return bytes(out)


def _with_line(line: str):
    """A corruption that adds the config line `line` to the stored text."""
    return lambda raw: rewrite_config(raw, "n_per_axis = 3\n", f"n_per_axis = 3\n{line}\n")


CKPT_CASES = {
    "bad-magic": (lambda raw: b"JUNK" + raw[4:], "bad magic"),
    "version-1": (lambda raw: raw[:4] + (1).to_bytes(4, "little") + raw[8:],
                  "unsupported checkpoint version 1 "),
    "version-2": (lambda raw: raw[:4] + (2).to_bytes(4, "little") + raw[8:],
                  "unsupported checkpoint version 2 (this build reads version 5)"),
    "version-3": (lambda raw: raw[:4] + (3).to_bytes(4, "little") + raw[8:],
                  "unsupported checkpoint version 3 (this build reads version 5)"),
    "version-4": (_as_v4, "unsupported checkpoint version 4 (this build reads version 5)"),
    # Older config texts under a v5 header: the gt (v2) and mirror (v3)
    # constructions are gone, as are the keys v2, v3 and v4 texts still hold.
    "construction-gt": (lambda raw: rewrite_config(raw, "block_construction = uniform",
                                                   "block_construction = gt"),
                        "block_construction must be one of ('uniform', 'none'), got 'gt'"),
    "construction-mirror": (lambda raw: rewrite_config(raw, "block_construction = uniform",
                                                       "block_construction = mirror"),
                            "('uniform', 'none'), got 'mirror'"),
    "gt_points_count": (_with_line("gt_points_count = 1331"),
                        "unknown config key 'gt_points_count'"),
    "block_sampling": (_with_line("block_sampling = lattice"),
                       "unknown config key 'block_sampling'"),
    "mirror_axis": (_with_line("mirror_axis = x"), "unknown config key 'mirror_axis'"),
    "detach_anchors": (_with_line("detach_anchors = false"),
                       "unknown config key 'detach_anchors'"),
    **{key: (_with_line(f"{key} = {value}"), f"unknown config key '{key}'")
       for key, value in V4_ONLY_KEYS},
    "flipped-config-byte": (_flip_config_byte, "does not match its stored hash"),
    "grid_res-0": (lambda raw: rewrite_config(raw, "grid_res = 8", "grid_res = 0"),
                   "grid_res must be >= 4"),
    "grid_res-2048": (lambda raw: rewrite_config(raw, "grid_res = 8", "grid_res = 2048"),
                      "grid_res must be <= 256"),
    "unet_stages-0": (lambda raw: rewrite_config(raw, "unet_stages = 2", "unet_stages = 0"),
                      "unet_stages must be >= 1"),
    "kernel_size-4": (lambda raw: rewrite_config(raw, "kernel_size = 3", "kernel_size = 4"),
                      "kernel_size must be odd"),
    "refine_widths-0,3": (lambda raw: rewrite_config(raw, "refine_widths = 8,6",
                                                     "refine_widths = 0,3"),
                          "refine_widths must all be >= 3"),
    "coarse_m-10^15": (lambda raw: rewrite_config(raw, "coarse_m = 32",
                                                  "coarse_m = 1000000000000000"),
                       "coarse_m=1000000000000000 makes the refine activation"),
    "n_per_axis-10^6": (lambda raw: rewrite_config(raw, "n_per_axis = 3", "n_per_axis = 1000000"),
                        "n_per_axis=1000000 makes the block lattice"),
    "trailing-bytes": (lambda raw: raw + b"\x00" * 4, "4 trailing bytes"),
    # Text that parses, but not to itself under to_text().
    "value-cut-at-hash": (lambda raw: rewrite_config(raw, "data_manifest = \n",
                                                     "data_manifest = a#b\n"),
                          "config text is not canonical"),
    "trailing-comment": (lambda raw: rewrite_config(raw, "seed = 3\n", "seed = 3  # note\n"),
                         "config text is not canonical"),
    "padded-value": (lambda raw: rewrite_config(raw, "grid_res = 8", "grid_res =     8"),
                     "config text is not canonical"),
    "bool-yes": (lambda raw: rewrite_config(raw, "sensoraug = false", "sensoraug = yes"),
                 "config text is not canonical"),
    "omitted-line": (lambda raw: rewrite_config(raw, "seed = 3\n", ""),
                     "config text is not canonical"),
}

_PLY_XYZ = "property float x\nproperty float y\nproperty float z\n"
PLY_CASES = {
    "unknown-binary-type": (
        b"ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
        + (_PLY_XYZ + "property half w\nend_header\n").encode() + bytes(14),
        "unknown PLY property type 'half'"),
    "vertex-count-missing": (
        ("ply\nformat ascii 1.0\nelement vertex\n" + _PLY_XYZ + "end_header\n0 0 0\n").encode(),
        "malformed PLY header line 'element vertex'"),
    "bare-format": (
        ("ply\nformat\nelement vertex 1\n" + _PLY_XYZ + "end_header\n0 0 0\n").encode(),
        "malformed PLY header line 'format'"),
    "ascii-bad-number": (
        ("ply\nformat ascii 1.0\nelement vertex 2\n" + _PLY_XYZ + "end_header\n0 0 0\n1 x 3\n").encode(),
        "vertex 1: malformed number 'x'"),
    "ascii-non-finite": (
        ("ply\nformat ascii 1.0\nelement vertex 3\n" + _PLY_XYZ
         + "end_header\n0 0 0\n1 2 3\n1 1e400 3\n").encode(),
        "vertex 2: non-finite coordinate"),
    "binary-non-finite": (
        ("ply\nformat binary_little_endian 1.0\nelement vertex 3\n" + _PLY_XYZ
         + "end_header\n").encode()
        + np.array([[0, 0, 0], [1, np.nan, 3], [np.inf, 0, 0]], "<f4").tobytes(),
        "vertex 1: non-finite coordinate"),
    # Compared with the file's size before any read, so neither count is
    # allocated (10^18 vertices do not fit an index).
    **{f"binary-count-{count}": (
        (f"ply\nformat binary_little_endian 1.0\nelement vertex {count}\n" + _PLY_XYZ
         + "end_header\n").encode() + bytes(12),
        "truncated binary payload") for count in (10**12, 10**18)},
}

MANIFEST_CASES = {
    "dataset-field-count": ("eval", "box only_two.xyz\n", "expected 'category partial gt'"),
    "dataset-empty": ("eval", "# nothing\n", "empty manifest"),
    "sequence-field-count": ("consistency", "car0 0\n", "expected 'object_id frame_index path'"),
    "sequence-frame-index": ("consistency", "car0 first f0.xyz\n",
                             "frame index must be an integer, got 'first'"),
    "sequence-empty": ("consistency", "", "empty manifest"),
    "sequence-duplicate-frame": ("consistency", "car0 0 a.xyz\ncar0 0 b.xyz\n",
                                 ":2: duplicate frame 0 of 'car0' (first on line 1)"),
}


class TestCorruptInputs:
    """Every corrupt input file ends the CLI with exit 1 and one stderr line."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("corrupt")
        cfg = RunConfig.from_text(TINY_CFG_TEXT)
        ckpt = work / "good.ckpt"
        save_checkpoint(ckpt, CarveModelParams.initialize(cfg.carve_config(), 0),
                        CheckpointMeta.from_config(cfg))
        write_xyz(work / "in.xyz", PointCloud(np.random.default_rng(0).random((64, 3))))
        return work, ckpt

    def complete(self, ckpt, src, tmp_path):
        return main(["complete", "--ckpt", str(ckpt), "--in", str(src),
                     "--out", str(tmp_path / "out.xyz")])

    def test_good_files_complete(self, files, tmp_path):
        work, ckpt = files
        assert self.complete(ckpt, work / "in.xyz", tmp_path) == 0

    def test_truncated_checkpoint(self, files, tmp_path, capsys):
        work, ckpt = files
        raw = ckpt.read_bytes()
        text_end = 12 + int.from_bytes(raw[8:12], "little") + 12
        bad = tmp_path / "bad.ckpt"
        capsys.readouterr()
        for n in [*range(text_end + 9), len(raw) - 1]:
            bad.write_bytes(raw[:n])
            line = assert_one_line_failure(self.complete(bad, work / "in.xyz", tmp_path),
                                           capsys, "truncated")
            assert str(bad) in line

    @pytest.mark.parametrize("case", list(CKPT_CASES))
    def test_corrupt_checkpoint(self, files, tmp_path, capsys, case):
        work, ckpt = files
        corrupt, needle = CKPT_CASES[case]
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(corrupt(ckpt.read_bytes()))
        capsys.readouterr()
        line = assert_one_line_failure(self.complete(bad, work / "in.xyz", tmp_path),
                                       capsys, needle)
        assert str(bad) in line

    @pytest.mark.parametrize("case", [*PLY_CASES, "truncated-binary"])
    def test_corrupt_ply(self, files, tmp_path, capsys, case):
        _, ckpt = files
        src = tmp_path / "bad.ply"
        if case == "truncated-binary":
            write_ply(src, PointCloud(np.random.default_rng(1).random((10, 3))))
            src.write_bytes(src.read_bytes()[:-7])
            needle = "truncated binary payload"
        else:
            data, needle = PLY_CASES[case]
            src.write_bytes(data)
        capsys.readouterr()
        line = assert_one_line_failure(self.complete(ckpt, src, tmp_path), capsys, needle)
        assert str(src) in line

    @pytest.mark.parametrize("case", ["empty.xyz", "comments.xyz", "ascii.ply", "binary.ply"])
    def test_input_without_points(self, files, tmp_path, capsys, case):
        _, ckpt = files
        src = tmp_path / case
        if case == "empty.xyz":
            src.write_text("")
        elif case == "comments.xyz":
            src.write_text("# a header\n\n# and nothing else\n")
        else:
            write_ply(src, PointCloud.empty(), binary=case == "binary.ply")
            assert b"element vertex 0\n" in src.read_bytes()
        capsys.readouterr()
        line = assert_one_line_failure(self.complete(ckpt, src, tmp_path), capsys, "no points")
        assert str(src) in line

    @pytest.mark.parametrize("value", ["nan", "1e400", "-inf"])
    def test_non_finite_xyz_names_file_and_line(self, files, tmp_path, capsys, value):
        work, ckpt = files
        src = tmp_path / "bad.xyz"
        src.write_text(f"0 0 0\n# comment\n\n0.5 {value} 1\n1 1 1\n")
        capsys.readouterr()
        line = assert_one_line_failure(self.complete(ckpt, src, tmp_path), capsys, "non-finite")
        assert line == f"error: {src}:4: non-finite coordinate"
        # Through a dataset manifest too: the line names the bad file, not the manifest.
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"box {work / 'in.xyz'} {work / 'in.xyz'}\nbox {src.name} {work / 'in.xyz'}\n")
        code = main(["eval", "--ckpt", str(ckpt), "--manifest", str(manifest),
                     "--report", str(tmp_path / "r.txt")])
        assert assert_one_line_failure(code, capsys, "non-finite") == line
        assert not (tmp_path / "r.txt").exists()

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failing_sample_is_named(self, files, tmp_path, capsys, command, jobs):
        work, ckpt = files
        write_xyz(tmp_path / "one.xyz", PointCloud(np.array([[0.1, 0.2, 0.3]])))
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"box {work / 'in.xyz'} {work / 'in.xyz'}\n"
                            f"sphere {work / 'in.xyz'} one.xyz\n")
        argv = [command, "--ckpt", str(ckpt), "--manifest", str(manifest), "--jobs", jobs]
        argv += (["--report", str(tmp_path / "r.txt")] if command == "eval"
                 else ["--levels", "0.5,1.0"])
        capsys.readouterr()
        line = assert_one_line_failure(main(argv), capsys, "")
        assert line == "error: sample 2 (sphere): degenerate cloud and eps_box is zero"
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "r.txt").exists()

    @pytest.mark.parametrize("command,empty", [
        ("augment", "in"), ("consistency", "frame"), ("eval", "partial"), ("eval", "gt"),
        ("sweep", "partial"), ("train", "partial"),
    ])
    def test_command_input_without_points(self, files, tmp_path, capsys, command, empty):
        work, ckpt = files
        src = tmp_path / "empty.xyz"
        src.write_text("")
        good = work / "in.xyz"
        manifest = tmp_path / "m.txt"
        if command == "augment":
            argv = ["augment", "--in", str(src), "--t", "2", "--out", str(tmp_path / "views")]
        elif command == "consistency":
            manifest.write_text(f"car0 0 {good}\ncar0 1 {src.name}\n")
            argv = ["consistency", "--manifest", str(manifest)]
        else:
            pair = (src.name, good) if empty == "partial" else (good, src.name)
            manifest.write_text("box {} {}\n".format(*pair))
            argv = [command, "--manifest", str(manifest)]
            if command == "train":
                cfg = tmp_path / "tiny.cfg"
                cfg.write_text(TINY_CFG_TEXT)
                argv += ["--config", str(cfg), "--out", str(tmp_path / "m.ckpt")]
            else:
                argv += ["--ckpt", str(ckpt)]
                argv += (["--report", str(tmp_path / "r.txt")] if command == "eval"
                         else ["--levels", "0.5"])
        capsys.readouterr()
        line = assert_one_line_failure(main(argv), capsys, "no points")
        assert f"{src}: no points" in line
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("reader", ["xyz", "dataset", "sequence", "config"])
    def test_text_that_is_not_utf8_names_the_file(self, files, tmp_path, capsys, reader):
        work, ckpt = files
        bad = tmp_path / {"xyz": "bad.xyz", "config": "bad.cfg"}.get(reader, "m.txt")
        bad.write_bytes(b"# \xc3\xa9\n\xff 0 0\n")  # a valid two-byte character, then 0xff
        out = str(tmp_path / "out")
        argv = {
            "xyz": ["complete", "--ckpt", str(ckpt), "--in", str(bad), "--out", out],
            "dataset": ["eval", "--ckpt", str(ckpt), "--manifest", str(bad), "--report", out],
            "sequence": ["consistency", "--manifest", str(bad)],
            "config": ["train", "--config", str(bad), "--out", out,
                       "--manifest", str(work / "in.xyz")],
        }[reader]
        capsys.readouterr()
        line = assert_one_line_failure(main(argv), capsys, "")
        assert line == f"error: {bad}: not UTF-8 text (byte 0xff at offset 5)"
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", list(MANIFEST_CASES))
    def test_corrupt_manifest(self, files, tmp_path, capsys, case):
        _, ckpt = files
        command, text, needle = MANIFEST_CASES[case]
        manifest = tmp_path / "m.txt"
        manifest.write_text(text)
        argv = [command, "--manifest", str(manifest)]
        if command == "eval":
            argv += ["--ckpt", str(ckpt), "--report", str(tmp_path / "r.txt")]
        capsys.readouterr()
        line = assert_one_line_failure(main(argv), capsys, needle)
        assert str(manifest) in line
