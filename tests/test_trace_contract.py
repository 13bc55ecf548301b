"""The benchmark tracer's install contract, checked in the fast loop.

`perfbench/tracing.py` wraps program functions by name and raises at install
time when one is missing; running that install here turns a renamed traced
function into a test failure instead of a benchmark-time one.
"""

import importlib
import sys
from pathlib import Path

import pointcarve

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
