"""CLI surface: subcommands, exit codes, file contracts."""

import numpy as np
import pytest

from pointcarve import (
    CarveModelConfig,
    CarveModelParams,
    CheckpointMeta,
    PointCloud,
    RunConfig,
    save_checkpoint,
)
from pointcarve.cli import main
from pointcarve.pcio import read_xyz
from pointcarve.shapes import SyntheticShapeSpec, gen_shape
from pointcarve.pcio import write_xyz

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
        _, ckpt = trained
        report = tmp_path / "report.txt"
        code = main(["eval", "--ckpt", str(ckpt), "--manifest",
                     str(synth_dir / "manifest.txt"), "--report", str(report)])
        assert code == 0
        text = report.read_text()
        assert "overall_cd_scaled:" in text
        assert "category.box.count:" in text

    def test_sweep_rows(self, trained, synth_dir, capsys):
        _, ckpt = trained
        code = main(["sweep", "--ckpt", str(ckpt), "--manifest",
                     str(synth_dir / "manifest.txt"), "--levels", "0.5,1.0"])
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 2
        level, _, count = rows[0].split(",")
        assert float(level) == 0.5 and int(count) >= 0


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
        # n_refine (u32 at offset 64) far past the end of the file.
        cfg = RunConfig.preset("desk")
        ckpt = tmp_path / "desk.ckpt"
        save_checkpoint(ckpt, CarveModelParams.initialize(cfg.carve_config(), 0),
                        CheckpointMeta.from_config(cfg))
        raw = bytearray(ckpt.read_bytes())
        raw[64:68] = (100000000).to_bytes(4, "little")
        ckpt.write_bytes(bytes(raw))
        src = tmp_path / "in.xyz"
        write_xyz(src, PointCloud(np.random.default_rng(0).random((64, 3))))
        capsys.readouterr()
        code = main(["complete", "--ckpt", str(ckpt), "--in", str(src),
                     "--out", str(tmp_path / "o.xyz")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "truncated refinement widths" in err[0]
        assert "Traceback" not in err[0]

    def test_check_grads_passes(self, capsys):
        assert main(["check-grads", "--seed", "7"]) == 0
        # The encoder-decoder backward is part of the suite, layer and whole.
        names = {line.split()[1].rstrip(":") for line in capsys.readouterr().out.splitlines()}
        assert {"conv3_grads", "end_to_end_loss"} <= names


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
