import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pointcarve
from pointcarve import BoundingRange, PointCloud


@pytest.fixture
def unit_range() -> BoundingRange:
    return BoundingRange(np.zeros(3), np.ones(3))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def random_cloud(rng: np.random.Generator, n: int, lo=0.0, hi=1.0) -> PointCloud:
    return PointCloud(rng.uniform(lo, hi, size=(n, 3)))


def degenerate_partial(kind: str) -> PointCloud:
    """A partial with no volume: planar, line, two-point, single-point or identical."""
    rng = np.random.default_rng(5)
    if kind == "planar":
        pts = np.column_stack([rng.uniform(-0.4, 0.4, (200, 2)), np.full(200, 0.1)])
    elif kind == "line":
        pts = np.outer(rng.uniform(-0.5, 0.5, 100), [1.0, 0.5, -0.25]) + 0.2
    elif kind == "two-point":
        pts = np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.5]])
    elif kind == "single-point":
        pts = np.array([[0.1, 0.2, 0.3]])
    else:  # all identical
        pts = np.tile([0.1, -0.2, 0.3], (50, 1))
    return PointCloud(pts)


def run_fresh_python(code: str, *args: str) -> str:
    """Stdout of `code` run in a fresh interpreter that imports this checkout's
    pointcarve; fails the test with its stderr if it exits non-zero."""
    src = str(Path(pointcarve.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    run = subprocess.run([sys.executable, "-c", code, *args],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


def heap_peak(fn, warmup=None) -> int:
    """Peak bytes traced by `tracemalloc`, numpy's buffers included, while
    `fn()` runs in a fresh thread, after `warmup()` in that thread.

    The fresh thread starts with an empty `nn` workspace, so what `warmup`
    does not fill counts towards the peak; allocations made before tracing
    starts, and not freed, do not.
    """
    peaks = []

    def run():
        if warmup is not None:
            warmup()
        tracemalloc.start()
        try:
            fn()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=300)
    assert not thread.is_alive() and peaks, "heap_peak's thread did not finish"
    return peaks[0]
