"""File formats: XYZ, PLY, config round trips, checkpoint container."""

import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from pointcarve import (
    CarveModelConfig,
    CarveModelParams,
    CheckpointMeta,
    PointCloud,
    RunConfig,
    load_checkpoint,
    save_checkpoint,
)
from pointcarve.checkpoint import VERSION
from pointcarve.config import MAX_ARRAY_ELEMS, MAX_GRID_RES
from pointcarve.pcio import (
    read_dataset_manifest,
    read_ply,
    read_sequence_manifest,
    _xyz_text,
    read_xyz,
    write_ply,
    write_xyz,
)

from conftest import random_cloud

class TestXyz:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "a.xyz"
        p.write_text("# comment\n0 0 0\n\n1 2 3\n")
        cloud = read_xyz(p)
        assert len(cloud) == 2
        np.testing.assert_array_equal(cloud.points[1], [1, 2, 3])

    def test_wrong_field_count_reports_line(self, tmp_path):
        p = tmp_path / "bad.xyz"
        p.write_text("1 2\n")
        with pytest.raises(ValueError, match=r"bad\.xyz:1"):
            read_xyz(p)

    def test_malformed_number_reports_line(self, tmp_path):
        p = tmp_path / "bad.xyz"
        p.write_text("0 0 0\n1 x 3\n")
        with pytest.raises(ValueError, match=r"bad\.xyz:2"):
            read_xyz(p)

    def test_round_trip_10k(self, rng, tmp_path):
        cloud = random_cloud(rng, 10_000, -0.5, 0.5)
        p = tmp_path / "rt.xyz"
        write_xyz(p, cloud)
        back = read_xyz(p)
        assert np.abs(back.points - cloud.points).max() < 1e-8

    def test_text_equals_per_scalar_format(self, rng, tmp_path):
        # The reference is the earlier writer: one numpy scalar at a time.
        pts = rng.standard_normal((500, 3)) * 10.0 ** rng.uniform(-12, 12, (500, 3))
        pts[:6] = [[-0.0, 0.0, 1e-300], [5e-324, -5e-324, 1e300],
                   [-1e300, 1.0, -1.0], [0.1, 1 / 3, 2.0**-1074],
                   [123456789.0, 1234567891.0, 1e-5], [np.pi, -np.e, 1e16]]
        cloud = PointCloud(pts)
        expected = "".join(f"{x:.9g} {y:.9g} {z:.9g}\n" for x, y, z in cloud.points)
        p = tmp_path / "fmt.xyz"
        write_xyz(p, cloud)
        assert p.read_text() == expected
        assert expected.startswith("-0 0 1e-300\n4.94065646e-324 ")

    def test_one_format_equals_per_line_fstrings(self, rng, tmp_path):
        # The writer formats the whole cloud with one `%`; the reference is
        # one f-string per line over Python floats. Non-finite values cannot
        # be in a PointCloud, so the text helper checks them on its own.
        pts = rng.standard_normal((400, 3)) * 10.0 ** rng.uniform(-30, 20, (400, 3))
        pts[100:200] = pts[100:200].astype(np.float32)
        pts[:3] = [[-0.0, 1e-30, 1e20], [0.0, -1e-30, -1e20], [5e-324, 1 / 3, np.float32(0.1)]]
        want = "".join(f"{x:.9g} {y:.9g} {z:.9g}\n" for x, y, z in pts.tolist())
        p = tmp_path / "fmt.xyz"
        write_xyz(p, PointCloud(pts))
        assert p.read_bytes() == want.encode()
        odd = np.array([[np.nan, np.inf, -np.inf], [-0.0, -np.nan, 1.5]])
        assert _xyz_text(odd) == "".join(f"{x:.9g} {y:.9g} {z:.9g}\n" for x, y, z in odd.tolist())
        assert _xyz_text(odd).startswith("nan inf -inf\n-0 ")
        write_xyz(p, PointCloud.empty())
        assert p.read_bytes() == b""


class TestPly:
    def test_minimal_text_ply(self, tmp_path):
        p = tmp_path / "one.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
            "0.5 -1.5 2\n"
        )
        cloud = read_ply(p)
        assert len(cloud) == 1
        np.testing.assert_allclose(cloud.points[0], [0.5, -1.5, 2.0])

    def test_binary_size_is_header_plus_12n(self, rng, tmp_path):
        cloud = random_cloud(rng, 321)
        p = tmp_path / "b.ply"
        write_ply(p, cloud, binary=True)
        raw = p.read_bytes()
        header_len = raw.index(b"end_header\n") + len(b"end_header\n")
        assert len(raw) == header_len + 12 * 321

    def test_text_binary_agree_at_float32(self, rng, tmp_path):
        cloud = random_cloud(rng, 100, -2, 2)
        pt, pb = tmp_path / "t.ply", tmp_path / "b.ply"
        write_ply(pt, cloud, binary=False)
        write_ply(pb, cloud, binary=True)
        a, b = read_ply(pt), read_ply(pb)
        np.testing.assert_allclose(a.points, b.points, atol=1e-6)
        np.testing.assert_allclose(a.points, cloud.points, atol=1e-6)

    def test_missing_coordinate_property(self, tmp_path):
        p = tmp_path / "bad.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nend_header\n0 0\n"
        )
        with pytest.raises(ValueError, match="missing z"):
            read_ply(p)

    def test_truncated_binary(self, rng, tmp_path):
        cloud = random_cloud(rng, 10)
        p = tmp_path / "trunc.ply"
        write_ply(p, cloud, binary=True)
        raw = p.read_bytes()
        p.write_bytes(raw[:-7])
        with pytest.raises(ValueError, match="truncated"):
            read_ply(p)

    def test_huge_count_is_checked_before_reading(self, tmp_path):
        # A payload of 10^7 vertices (120 MB) claimed by a 12-byte body is
        # rejected against the file's size, with no buffer allocated for it.
        p = tmp_path / "huge.ply"
        p.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement vertex 10000000\n"
                      b"property float x\nproperty float y\nproperty float z\nend_header\n"
                      + bytes(12))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated binary payload"):
                read_ply(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_unknown_property_skipped_with_warning(self, tmp_path):
        p = tmp_path / "extra.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float intensity\nend_header\n1 2 3 9\n"
        )
        with pytest.warns(UserWarning, match="intensity"):
            cloud = read_ply(p)
        np.testing.assert_allclose(cloud.points[0], [1, 2, 3])

class TestRunConfig:
    def test_round_trip(self, tmp_path):
        cfg = RunConfig(grid_res=16, unet_stages=2, alpha=0.25, refine_widths=(32, 12),
                        data_manifest="data/manifest.txt", sensoraug=False)
        p = tmp_path / "run.cfg"
        cfg.save(p)
        assert RunConfig.load(p) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("grid_res = 32\nbogus_key = 1\n")
        with pytest.raises(ValueError, match="unknown config key 'bogus_key'"):
            RunConfig.load(p)

    def test_invalid_value_message(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("grid_res = twelve\n")
        with pytest.raises(ValueError, match="bad value for 'grid_res'"):
            RunConfig.load(p)

    def test_validation_messages(self):
        with pytest.raises(ValueError, match="divisible"):
            RunConfig(grid_res=30)
        with pytest.raises(ValueError, match="multiple of 3"):
            RunConfig(refine_widths=(16, 8))
        with pytest.raises(ValueError, match="alpha"):
            RunConfig(alpha=-0.1)
        with pytest.raises(ValueError, match=re.escape("seed must be >= 0, got -1")):
            RunConfig(seed=-1)
        # A block of gt points cannot be served: `complete` has no gt.
        with pytest.raises(ValueError, match=re.escape("('uniform', 'none'), got 'gt'")):
            RunConfig(block_construction="gt")
        with pytest.raises(ValueError, match=re.escape("('uniform', 'none'), got 'mirror'")):
            RunConfig(block_construction="mirror")

    def test_presets(self):
        desk = RunConfig.preset("desk")
        paper = RunConfig.preset("paper")
        assert desk.grid_res == 32 and desk.coarse_m == 256 and desk.expansion == 4
        assert paper.grid_res == 64 and paper.coarse_m == 2048 and paper.expansion == 8
        assert paper.refine_widths == (1792, 2448, 112, 24)
        for cfg in (desk, paper):
            assert cfg.alpha == 0.5 and cfg.t_variants == 2 and cfg.lr == 1e-4
        with pytest.raises(ValueError, match="preset"):
            RunConfig.preset("galaxy")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_rejected(self, value):
        float_keys = [f.name for f in fields(RunConfig) if f.type == "float"]
        assert "carve_threshold" in float_keys and "sensor_vfov_deg" in float_keys
        for key in float_keys:
            with pytest.raises(ValueError, match=f"invalid config: {key} must be finite"):
                RunConfig(**{key: value})
            with pytest.raises(ValueError, match=f"invalid config: {key} must be finite"):
                RunConfig.from_text(f"{key} = {value}\n")

    # Every field moved off its default, and data_manifest texts that must
    # survive the `key = value` format: '=', inner spaces, non-ASCII.
    ROUND_TRIP = [
        RunConfig(),
        RunConfig.preset("paper"),
        RunConfig(grid_res=256, unet_stages=2, unet_base_width=3, kernel_size=5, feature_dim=7,
                  refine_widths=(9, 6), coarse_m=77, carve_threshold=-0.0, dtype="float64",
                  block_construction="none", n_per_axis=4, bounds_padding_gt=0.1,
                  bounds_padding_partial=1e-300, eps_box_frac=0.1 + 0.2, alpha=2.0,
                  t_variants=0, sensoraug=False, lr=3e-5,
                  batch_size=1, epochs=1, max_steps=9, seed=3, sensor_vfov_deg=1.5,
                  sensor_hfov_deg=179.0, depth_buffer_res=16, data_manifest="m.txt",
                  val_count=0),
        RunConfig(data_manifest="dir with space/a=b.txt"),
        RunConfig(data_manifest="données/ü.txt", lr=1, alpha=0),
    ]

    @pytest.mark.parametrize("index", range(len(ROUND_TRIP)))
    def test_text_round_trip_is_identity(self, index):
        cfg = self.ROUND_TRIP[index]
        back = RunConfig.from_text(cfg.to_text())
        assert back == cfg and back.config_hash() == cfg.config_hash()
        assert back.to_text() == cfg.to_text()

    @pytest.mark.parametrize("value", ["a#b", "#", "a\nb", "a\rb", "a\x0bb", "a\u2028b", " a", "a\t"])
    def test_string_values_that_cannot_round_trip_rejected(self, value):
        with pytest.raises(ValueError, match="invalid config: data_manifest must not contain '#'"):
            RunConfig(data_manifest=value)

    def test_field_types(self):
        # Integers are floats' values; everything else must have its own type.
        cfg = RunConfig(lr=1, carve_threshold=0, refine_widths=(np.int64(8), 6))
        assert type(cfg.lr) is float and "lr = 1.0\n" in cfg.to_text()
        assert [type(w) for w in cfg.refine_widths] == [int, int]
        for key, value, kind in [("grid_res", 32.0, "int"), ("seed", True, "int"),
                                 ("lr", True, "float"), ("sensoraug", 1, "bool"),
                                 ("dtype", 3, "str"), ("data_manifest", None, "str"),
                                 ("refine_widths", (8.7, 6), "a tuple of int"),
                                 ("refine_widths", (True, 6), "a tuple of int"),
                                 ("refine_widths", 5, "a tuple of int"),
                                 ("refine_widths", [8, 6], "a tuple of int")]:
            with pytest.raises(ValueError, match=f"invalid config: {key} must be {kind}, got"):
                RunConfig(**{key: value})

    def test_existing_config_text_and_hashes_unchanged(self):
        # The canonical texts of the presets hash as they did before the
        # field type and string rules (values computed by the earlier code),
        # re-pinned when checkpoint v3 dropped `gt_points_count`, when v4
        # dropped `block_sampling`, `mirror_axis` and `detach_anchors`, and
        # when v5 dropped `lr_halve_every`, `adam_beta1`, `adam_beta2`,
        # `adam_eps`, `depth_eps` and `min_visible_frac`.
        assert RunConfig().config_hash() == "083a5e6b7ca0"
        assert RunConfig.preset("paper").config_hash() == "afc6708e7f28"
        text = "# desk\ngrid_res = 32  # inline\nlr = 0.0001\nsensoraug = true\ndata_manifest =\n"
        assert RunConfig.from_text(text) == RunConfig()

    def test_grid_res_upper_bound(self):
        assert RunConfig(grid_res=MAX_GRID_RES).grid_res == 256
        with pytest.raises(ValueError, match="invalid config: grid_res must be <= 256, got 2048"):
            RunConfig(grid_res=2048)
        with pytest.raises(ValueError, match="grid_res must be <= 256"):
            RunConfig.from_text("grid_res = 512\n")

    def test_largest_implied_array_is_bounded(self):
        # At MAX_GRID_RES a 16-wide level-0 activation is exactly the limit.
        assert RunConfig(grid_res=MAX_GRID_RES, unet_base_width=16).unet_base_width == 16
        assert MAX_ARRAY_ELEMS == MAX_GRID_RES**3 * 16
        for text, want in [
            ("grid_res = 256\nunet_base_width = 17\n", "grid_res=256 makes the level-0 activation"),
            ("unet_base_width = 1000000\n", "unet_base_width=1000000 makes the widest decoder weight"),
            ("kernel_size = 1001\n", "kernel_size=1001 makes the kernel head slab"),
            ("depth_buffer_res = 100000\n", "depth_buffer_res=100000 makes the depth buffer"),
        ]:
            with pytest.raises(ValueError, match=re.escape(f"invalid config: {want} at least 2^")):
                RunConfig.from_text(text)

    def test_unet_stages_upper_bound(self):
        assert RunConfig(grid_res=MAX_GRID_RES, unet_stages=7).unet_stages == 7
        # Named before 2^unet_stages is formed: its digits would not print.
        with pytest.raises(ValueError, match="invalid config: unet_stages must be <= 7, got 100000$"):
            RunConfig.from_text("unet_stages = 100000\n")

    def test_grid_res_leaves_two_cells_at_the_bottleneck(self):
        # The model needs both rules; the config names both fields at once.
        want = ("invalid config: grid_res=8 must be divisible by 2^unet_stages=8 "
                "and at least 2^(unet_stages+1)=16")
        with pytest.raises(ValueError, match=re.escape(want)):
            RunConfig(grid_res=8, unet_stages=3)
        with pytest.raises(ValueError, match=re.escape(want)):
            RunConfig.from_text("grid_res = 8\nunet_stages = 3\n")
        for grid_res, stages in ((8, 2), (16, 3), (4, 1)):
            cfg = RunConfig(grid_res=grid_res, unet_stages=stages)
            assert cfg.carve_config().resolution == (grid_res,) * 3
        with pytest.raises(ValueError, match=r"must be at least 2\^\(stages\+1\)=16 per axis"):
            CarveModelConfig(resolution=(8, 16, 16), stages=3)

    def test_comments_and_spacing(self):
        cfg = RunConfig.from_text("grid_res=16 # inline comment\nunet_stages = 2\n")
        assert cfg.grid_res == 16 and cfg.unet_stages == 2

    def test_duplicate_key_rejected(self):
        text = "grid_res = 16\n# note\ngrid_res = 32\n"
        want = "run.cfg:3: duplicate config key 'grid_res' (first on line 1)"
        with pytest.raises(ValueError, match=re.escape(want)):
            RunConfig.from_text(text, source="run.cfg")

class TestCheckpoint:
    TINY = RunConfig(grid_res=8, unet_stages=2, unet_base_width=2, feature_dim=4,
                     refine_widths=(8, 6))

    def test_format_doc_states_this_version(self):
        doc = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
        stated = re.findall(r"format version \(u32, = (\d+)\)", doc)
        reads = re.findall(r"this build reads version (\d+)", doc)
        assert stated and reads
        assert {int(v) for v in stated + reads} == {VERSION}

    def test_round_trip(self, tmp_path):
        cfg = self.TINY.replace(n_per_axis=5, coarse_m=64, carve_threshold=0.1,
                                bounds_padding_partial=0.2)
        params = CarveModelParams.initialize(cfg.carve_config(), seed=11)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, CheckpointMeta.from_config(cfg))
        loaded, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg
        assert loaded.config.resolution == (8, 8, 8)
        assert loaded.config.refine_widths == (8, 6)
        for name in params.tensors:
            np.testing.assert_array_equal(loaded.tensors[name], params.tensors[name])

    def test_truncated_rejected(self, tmp_path):
        cfg = self.TINY.replace(n_per_axis=4, coarse_m=32)
        params = CarveModelParams.initialize(cfg.carve_config(), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, CheckpointMeta.from_config(cfg))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 100])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"JUNK" + b"\x00" * 200)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_save_rejects_other_architecture(self, tmp_path):
        params = CarveModelParams.initialize(self.TINY.carve_config(), seed=0)
        other = CheckpointMeta.from_config(self.TINY.replace(feature_dim=8))
        with pytest.raises(ValueError, match="does not match params"):
            save_checkpoint(tmp_path / "model.ckpt", params, other)
        assert not (tmp_path / "model.ckpt").exists()

    @pytest.mark.parametrize("preset", ["desk", "paper"])
    def test_benchmark_harness_calls(self, tmp_path, preset):
        # The calls perfbench/run.py and perfbench/make_reference.py make.
        cfg = RunConfig.preset(preset)
        init = CarveModelParams.initialize(cfg.carve_config(), 20210728)
        p = tmp_path / "model.ckpt"
        save_checkpoint(p, init, CheckpointMeta.from_config(cfg))
        params, loaded_cfg = load_checkpoint(p)
        params64, cfg64 = load_checkpoint(p, dtype="float64")
        assert loaded_cfg == cfg and cfg64 == cfg.replace(dtype="float64")
        assert params.config == cfg.carve_config()
        assert params64.config == cfg64.carve_config()
        assert list(params.tensors) == list(init.tensors) == list(params64.tensors)
        for name, arr in init.tensors.items():
            assert params.tensors[name].dtype == np.float32
            assert params64.tensors[name].dtype == np.float64
            np.testing.assert_array_equal(params.tensors[name], arr)
            np.testing.assert_array_equal(params64.tensors[name], arr.astype(np.float64))

class TestManifests:
    def test_dataset_manifest(self, tmp_path):
        (tmp_path / "m.txt").write_text("# header\nbox p/a.xyz g/a.xyz\nsphere p/b.xyz g/b.xyz\n")
        entries = read_dataset_manifest(tmp_path / "m.txt")
        assert len(entries) == 2
        assert entries[0][0] == "box"
        assert entries[0][1] == tmp_path / "p/a.xyz"

    def test_sequence_manifest_sorted(self, tmp_path):
        (tmp_path / "seq.txt").write_text("car0 2 f2.xyz\ncar0 1 f1.xyz\ncar1 1 g1.xyz\n")
        groups = read_sequence_manifest(tmp_path / "seq.txt")
        assert [idx for idx, _ in groups["car0"]] == [1, 2]
        assert set(groups) == {"car0", "car1"}

    def test_sequence_manifest_duplicate_frame(self, tmp_path):
        (tmp_path / "seq.txt").write_text("car0 0 a.xyz\ncar1 0 c.xyz\n# again\ncar0 0 b.xyz\n")
        with pytest.raises(ValueError, match=r"seq.txt:4: duplicate frame 0 of 'car0' \(first on line 1\)"):
            read_sequence_manifest(tmp_path / "seq.txt")

    def test_malformed_line(self, tmp_path):
        (tmp_path / "m.txt").write_text("box only_two.xyz\n")
        with pytest.raises(ValueError, match="m.txt:1"):
            read_dataset_manifest(tmp_path / "m.txt")
