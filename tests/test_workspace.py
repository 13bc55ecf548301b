"""The per-thread workspace: scratch buffers shared by every shape of a
role, whose contents are undefined, and haloed buffers kept by exact shape
with a halo that stays zero."""

import threading
from dataclasses import replace

import numpy as np
import pytest

from pointcarve import CarveModelParams, PointCloud, RunConfig, SyntheticShapeSpec, gen_shape, nn
from pointcarve.training import complete_cloud, loss_and_grads_sample

TINY_CFG = RunConfig(grid_res=8, unet_stages=2, unet_base_width=2, feature_dim=4,
                     refine_widths=(8, 6), coarse_m=64, n_per_axis=4, dtype="float64")


def _config(preset, dtype):
    cfg = TINY_CFG if preset == "tiny" else RunConfig.preset(preset)
    return replace(cfg, dtype=dtype)


def _sample(seed=3):
    gt = gen_shape(SyntheticShapeSpec("torus", count=1024, seed=seed))[0]
    return PointCloud(gt.points[: len(gt) // 2]), gt


def _complete(preset, dtype):
    cfg = _config(preset, dtype)
    params = CarveModelParams.initialize(cfg.carve_config(), 7)
    coarse, dense = complete_cloud(_sample()[0], params, cfg)
    return [coarse.points, dense.points]


def _in_fresh_thread(fn):
    """fn() run in a new thread, which starts with an empty workspace."""
    result = []
    t = threading.Thread(target=lambda: result.append(fn()))
    t.start()
    t.join(timeout=300)
    assert not t.is_alive() and result
    return result[0]


def _assert_same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.fixture
def nan_scratch(monkeypatch):
    """Every scratch view is NaN when handed out, so a read before a write
    shows in the result."""
    workspace = nn.workspace

    def filled(role, shape, dtype):
        view = workspace(role, shape, dtype)
        view[...] = np.nan
        return view

    monkeypatch.setattr(nn, "workspace", filled)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("preset", ["tiny", "desk"])
def test_complete_cloud_never_reads_unwritten_scratch(preset, dtype, request):
    want = _complete(preset, dtype)
    request.getfixturevalue("nan_scratch")
    _assert_same_bytes(_complete(preset, dtype), want)


def test_loss_and_grads_never_read_unwritten_scratch(request):
    cfg = _config("tiny", "float64")
    params = CarveModelParams.initialize(cfg.carve_config(), 7)
    partial, gt = _sample()

    def run():
        step = loss_and_grads_sample(partial, gt, params, cfg, aug_seed=5)
        return [np.float64(step.loss.total), *(step.grads[k] for k in sorted(step.grads))]

    want = run()
    request.getfixturevalue("nan_scratch")
    _assert_same_bytes(run(), want)


@pytest.mark.parametrize("kind", ["stem", "flat", "stride2", "up"])
def test_conv3_never_reads_unwritten_scratch(kind, monkeypatch, request):
    # Several row chunks and im2col slabs, so later chunks reuse scratch.
    monkeypatch.setattr(nn, "FLAT_CHUNK_ROWS", 96)
    monkeypatch.setattr(nn, "IM2COL_SLAB_ELEMS", 1 << 12)
    rng = np.random.default_rng(17)
    cin = 1 if kind == "stem" else 3
    stride = 2 if kind == "stride2" else 1
    grid, cout = (6, 8, 10), 4
    x = rng.standard_normal((*grid, cin))
    c_up = 2 if kind == "up" else 0
    up = rng.standard_normal((3, 4, 5, c_up)) if c_up else None
    w = rng.standard_normal((3, 3, 3, c_up + cin, cout))
    b = rng.standard_normal(cout)
    upstream = rng.standard_normal((*(n // stride for n in grid), cout))

    def run():
        out = nn.conv3(x, w, b, stride, up=up).copy()
        grads = nn.conv3_grads(x, w, upstream, stride, up=up)
        return [out, *grads]

    want = run()
    request.getfixturevalue("nan_scratch")
    _assert_same_bytes(run(), want)


def test_halos_stay_zero_across_configs():
    # One thread serves tiny, then desk, then tiny again: every haloed
    # buffer of one config must be untouched by the other's.
    want = {preset: _in_fresh_thread(lambda p=preset: _complete(p, "float64"))
            for preset in ("tiny", "desk")}
    got = _in_fresh_thread(lambda: [_complete(p, "float64") for p in ("tiny", "desk", "tiny")])
    for preset, result in zip(("tiny", "desk", "tiny"), got):
        _assert_same_bytes(result, want[preset])


def test_halo_buffers_are_kept_by_shape_and_zeroed():
    a = nn.halo_buffer("test.halo", (3, 4), np.float64)
    a[...] = 1
    b = nn.halo_buffer("test.halo", (4, 3), np.float64)
    assert not np.shares_memory(a, b) and not b.any()
    assert nn.halo_buffer("test.halo", (3, 4), np.float64) is a


def test_each_scratch_role_holds_one_buffer_of_its_largest_request(monkeypatch):
    # Before scratch was shared, each role kept one buffer per layer shape.
    largest: dict[tuple, int] = {}
    workspace = nn.workspace

    def recording(role, shape, dtype):
        key = (role, np.dtype(dtype))
        largest[key] = max(largest.get(key, 0), int(np.prod(shape)))
        return workspace(role, shape, dtype)

    monkeypatch.setattr(nn, "workspace", recording)
    cfg = _config("desk", "float32")
    params = CarveModelParams.initialize(cfg.carve_config(), 7)
    partial, gt = _sample()

    def run():
        complete_cloud(partial, params, cfg)
        loss_and_grads_sample(partial, gt, params, cfg, aug_seed=5)
        return dict(nn._local.buffers)

    buffers = _in_fresh_thread(run)
    scratch = {key: buf for key, buf in buffers.items() if len(key) == 2}
    assert {role for role, _ in scratch} >= {
        "conv3.part", "conv3.ring", "conv3.col", "conv3.col1", "conv3.prod", "conv3.parity",
        "leaky_relu", "cell_conv.tap", "cell_conv.tap_grads", "refine.act1",
    }
    assert len({role for role, _ in scratch}) == len(scratch) and set(scratch) == set(largest)
    for key, buf in scratch.items():
        assert buf.size == largest[key], key


def test_paper_workspace_fits_its_budget():
    # 47.1 MiB while scratch was kept per layer shape; 41.0 MiB shared.
    cfg = _config("paper", "float32")
    params = CarveModelParams.initialize(cfg.carve_config(), 7)
    partial = _sample()[0]

    def run():
        complete_cloud(partial, params, cfg)
        return sum(buf.nbytes for buf in nn._local.buffers.values())

    assert _in_fresh_thread(run) <= 41.1 * 2**20
