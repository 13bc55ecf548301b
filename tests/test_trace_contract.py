"""The benchmark tracer's install contract, checked in the fast loop.

`perfbench/tracing.py` wraps program functions by name and raises at install
time when one is missing; running that install here turns a renamed traced
function into a test failure instead of a benchmark-time one.
"""

import importlib
import sys
from pathlib import Path

import pointcarve

from conftest import run_fresh_python

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Installing in a fresh interpreter: the test process has long imported scipy.
COLD_INSTALL = """
import sys
sys.path.insert(0, sys.argv[1])
import tracing
import pointcarve.pcio

tracer = tracing.Tracer()
tracing.install(tracer)
tracer.uninstall()
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert loaded == [], loaded
print("ok")
"""


def _pointcarve_namespaces():
    return {n: dict(vars(m)) for n, m in list(sys.modules.items())
            if n == "pointcarve" or n.startswith("pointcarve.")}


def test_every_export_resolves():
    missing = [name for name in pointcarve.__all__ if not hasattr(pointcarve, name)]
    assert missing == []


def test_tracer_installs_and_uninstalls_cleanly(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    importlib.import_module("pointcarve.pcio")  # traced, not imported by the package
    before = _pointcarve_namespaces()
    post_init = pointcarve.CarveModelParams.__post_init__
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert tracer._patches
    finally:
        tracer.uninstall()
    after = _pointcarve_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        changed = [k for k, v in namespace.items() if after[name].get(k) is not v]
        assert changed == [], f"{name} not restored: {changed}"
    assert pointcarve.CarveModelParams.__post_init__ is post_init

    assert run_fresh_python(COLD_INSTALL, str(PERFBENCH)).strip() == "ok"


def test_traced_tiny_sample_and_completion_run(monkeypatch):
    # Layers are named while they run (a conv's weight must be a registered
    # params tensor), which installing alone does not exercise.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    training = importlib.import_module("pointcarve.training")

    config = pointcarve.RunConfig(
        grid_res=8, unet_stages=2, unet_base_width=2, feature_dim=4, refine_widths=(8, 6),
        coarse_m=64, n_per_axis=4, dtype="float64", t_variants=1, val_count=0,
    )
    gt, _ = pointcarve.gen_shape(pointcarve.SyntheticShapeSpec("box", count=96, seed=3))
    partial = pointcarve.PointCloud(gt.points[: len(gt) // 2])
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        params = pointcarve.CarveModelParams.initialize(config.carve_config(), 3)
        training.loss_and_grads_sample(partial, gt, params, config, aug_seed=0)
        training.complete_cloud(partial, params, config)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    # The lazy k-d tree builder still goes through the counted name.
    assert sum(c["losses.kdtree_builds"] for c in tracer.counts.values()) > 0
    for name in ("nn.conv1.heads.fwd", "nn.conv1.heads.bwd", "nn.conv3.dec1.bwd",
                 "gridding.feature_sample.bwd", "refine.fwd", "training.sample",
                 "cloud.block"):
        assert name in names
    # The block's counter binds `build_point_block`'s signature.
    assert any("cloud.block.clamped" in c for c in tracer.counts.values())
