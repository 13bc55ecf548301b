"""In-memory span tracer installed from outside the program.

Each span comes from a wrapper this module puts on a module-level function of
the `pointcarve` package. A wrapper is installed in every `pointcarve` module
namespace that binds the function, because modules import each other's
functions by name (`carving` binds `gridding.gridding`, `training` binds
`refine.refine`, ...). A target that no longer exists raises at install time,
so a renamed function never shows up as a layer that took 0 ms.

A span records its name, start, end, parent span and the op it belongs to.
Counters (points gridded, cells qualified, k-d trees built, ...) are computed
after the span has closed, inside a `trace.bookkeeping` span, so their cost is
excluded from every layer's time and from the coverage denominator.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict, deque
from statistics import median

import numpy as np

BOOKKEEPING = "trace.bookkeeping"
SETUP_OP = -1

CONV_LAYERS = ("stem", "enc1", "enc2", "enc3", "dec3", "dec2", "dec1")


class Tracer:
    """Span store, op bookkeeping and the weight registry for conv layers."""

    def __init__(self):
        # Each span: [name, start, end, parent index or None, op id, child time].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = SETUP_OP
        self.ops: dict[int, tuple[float, float]] = {}
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        # id(weight array) -> tensor name, for the newest parameter sets only;
        # the arrays are held so an id cannot be reused while registered.
        self._registry: deque[dict[int, tuple[np.ndarray, str]]] = deque(maxlen=4)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, 0.0])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self.stack.pop()
        if span[3] is not None:
            self.spans[span[3]][5] += span[2] - span[1]

    def count(self, name: str, value: float) -> None:
        self.counts[self.op][name] += value

    def register_params(self, params) -> None:
        self._registry.append({id(arr): (arr, name) for name, arr in params.tensors.items()})

    def tensor_name(self, arr) -> str:
        for reg in reversed(self._registry):
            hit = reg.get(id(arr))
            if hit is not None and hit[0] is arr:
                return hit[1]
        raise RuntimeError(
            "traced conv received a weight that is not a registered "
            "CarveModelParams tensor; cannot attribute it to a layer"
        )

    # -- installation --------------------------------------------------------

    def patch(self, module, attr: str, make_wrapper) -> None:
        """Replace `module.attr` everywhere in pointcarve that binds it."""
        if not hasattr(module, attr):
            raise RuntimeError(f"trace target {module.__name__}.{attr} no longer exists")
        orig = getattr(module, attr)
        wrapper = make_wrapper(orig)
        for mod in _pointcarve_modules():
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapper)
                    self._patches.append((mod, name, orig))

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._patches):
            setattr(mod, name, orig)
        self._patches.clear()

    def span_wrapper(self, namer, counter=None):
        """Wrapper factory: `namer(bound args) -> span name`, then counters."""

        def make(fn):
            sig = inspect.signature(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                name = namer(bound.arguments)
                idx = self.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end(idx)
                if counter is not None:
                    book = self.begin(BOOKKEEPING)
                    try:
                        counter(self, name, bound.arguments, result)
                    finally:
                        self.end(book)
                return result

            return wrapper

        return make

    def count_wrapper(self, counter_name: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.count(counter_name, 1)
                return fn(*args, **kwargs)

            return wrapper

        return make

    # -- output ----------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, op, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")


def _pointcarve_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "pointcarve" or n.startswith("pointcarve."))]


# ---------------------------------------------------------------------------
# What is traced
# ---------------------------------------------------------------------------


def _fixed(name):
    return lambda a: name


def _conv_flops(x_shape, cout, stride):
    H, W, M, cin = x_shape
    return 2.0 * (H // stride) * (W // stride) * (M // stride) * 27 * cin * cout


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the imported `pointcarve` package."""
    t = tracer

    def m(name):
        # By module path: the package rebinds `gridding` and `refine` to functions.
        return importlib.import_module(f"pointcarve.{name}")

    def conv3_name(direction):
        return lambda a: f"nn.conv3.{t.tensor_name(a['w']).split('.')[0]}.{direction}"

    def conv3_count(direction):
        def count(tr, name, a, result):
            flops = _conv_flops(a["x"].shape, a["w"].shape[-1], a["stride"])
            # The backward computes both the weight and the input gradient.
            tr.count(name + ".flops", flops if direction == "fwd" else 2 * flops)
        return count

    def conv1_name(direction):
        def name(a):
            t.tensor_name(a["w"])  # must be a head weight of the served params
            return f"nn.conv1.heads.{direction}"
        return name

    def grid_count(tr, name, a, result):
        tr.count("gridding.grid.points", len(a["cloud"]))

    def reverse_count(tr, name, a, result):
        above = a["grid"].values > a["threshold"]
        H, W, M = above.shape
        cells = np.zeros((H - 1, W - 1, M - 1), dtype=bool)
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    cells |= above[dx:dx + H - 1, dy:dy + W - 1, dz:dz + M - 1]
        qualified = int(cells.sum())
        tr.count("gridding.reverse.qualified", qualified)
        tr.count("gridding.reverse.m", a["m"])
        tr.count("gridding.reverse.recycled", max(0, a["m"] - qualified))

    def chamfer_count(tr, name, a, result):
        tr.count("losses.chamfer.calls", 1)

    def partials_count(tr, name, a, result):
        tr.count("sensoraug.views", len(result))
        tr.count("sensoraug.visible", sum(len(p) for p in result))
        tr.count("sensoraug.source", len(a["gt"]) * len(result))

    def block_count(tr, name, a, result):
        tr.count("cloud.block.clamped", result.clamped_count)

    def write_count(tr, name, a, result):
        tr.count("pcio.write.bytes", os.path.getsize(a["path"]))

    spans = [
        (m("nn"), "conv3", conv3_name("fwd"), conv3_count("fwd")),
        (m("nn"), "conv3_grads", conv3_name("bwd"), conv3_count("bwd")),
        (m("nn"), "conv1", conv1_name("fwd"), None),
        (m("nn"), "conv1_grads", conv1_name("bwd"), None),
        (m("carving"), "_unet_forward", _fixed("carving.unet.fwd"), None),
        (m("carving"), "_unet_backward", _fixed("carving.unet.bwd"), None),
        (m("carving"), "cell_conv", _fixed("carving.cell_conv.fwd"), None),
        (m("carving"), "cell_conv_grads", _fixed("carving.cell_conv.bwd"), None),
        (m("gridding"), "gridding", _fixed("gridding.grid"), grid_count),
        (m("gridding"), "gridding_reverse", _fixed("gridding.reverse.fwd"), reverse_count),
        (m("gridding"), "gridding_reverse_grad", _fixed("gridding.reverse.bwd"), None),
        (m("gridding"), "feature_sample_grad", _fixed("gridding.feature_sample.bwd"), None),
        (m("gridding"), "feature_sample_query_grad", _fixed("gridding.feature_sample.bwd"), None),
        (m("refine"), "refine", _fixed("refine.fwd"), None),
        (m("refine"), "refine_grads", _fixed("refine.bwd"), None),
        (m("losses"), "chamfer", _fixed("losses.chamfer"), chamfer_count),
        (m("losses"), "chamfer_grad", _fixed("losses.chamfer"), chamfer_count),
        (m("sensoraug"), "generate_partials", _fixed("sensoraug.partials"), partials_count),
        (m("training"), "optimizer_step", _fixed("training.optimizer"), None),
        (m("training"), "loss_and_grads_sample", _fixed("training.sample"), None),
        (m("cloud"), "build_point_block", _fixed("cloud.block"), block_count),
        (m("pcio"), "read_xyz", _fixed("pcio.read"), None),
        (m("pcio"), "write_xyz", _fixed("pcio.write"), write_count),
        (m("checkpoint"), "load_checkpoint", _fixed("checkpoint.load"), None),
    ]
    for module, attr, namer, counter in spans:
        t.patch(module, attr, t.span_wrapper(namer, counter))
    # Each pose tried costs one visibility test; each k-d tree one build.
    t.patch(m("sensoraug"), "visible_points", t.count_wrapper("sensoraug.poses"))
    t.patch(m("losses"), "cKDTree", t.count_wrapper("losses.kdtree_builds"))

    # Conv layers are named by the params tensor passed in, so every
    # parameter set the program creates is registered as it is built.
    cls = m("carving").CarveModelParams
    if not hasattr(cls, "__post_init__"):
        raise RuntimeError("trace target CarveModelParams.__post_init__ no longer exists")
    orig_post_init = cls.__post_init__

    @functools.wraps(orig_post_init)
    def post_init(self_):
        orig_post_init(self_)
        t.register_params(self_)

    cls.__post_init__ = post_init
    t._patches.append((cls, "__post_init__", orig_post_init))


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# Layer times reported by every workload (each of them runs these layers).
COMMON_TIMES = (
    [f"nn.conv3.{l}.fwd" for l in CONV_LAYERS]
    + ["nn.conv1.heads.fwd", "carving.unet.fwd", "carving.cell_conv.fwd",
       "gridding.grid", "gridding.reverse.fwd", "refine.fwd", "cloud.block"]
)
# Layer times only some workloads run (backward passes, losses, IO).
WORKLOAD_TIMES = (
    [f"nn.conv3.{l}.bwd" for l in CONV_LAYERS]
    + ["nn.conv1.heads.bwd", "carving.unet.bwd", "carving.cell_conv.bwd",
       "gridding.reverse.bwd", "gridding.feature_sample.bwd", "refine.bwd",
       "losses.chamfer", "sensoraug.partials", "training.optimizer",
       "training.sample", "pcio.read", "pcio.write"]
)
# Spans whose metric is self time, i.e. glue around wrapped children.
SELF_TIME_NAMES = {"carving.unet.fwd": "carving.unet.fwd_self_ms",
                   "carving.unet.bwd": "carving.unet.bwd_self_ms",
                   "refine.bwd": "refine.bwd_self_ms",
                   "training.sample": "training.sample.self_ms"}


def time_metric_name(span: str) -> str:
    if span in SELF_TIME_NAMES:
        return SELF_TIME_NAMES[span]
    if span.endswith((".fwd", ".bwd")):
        return span + "_ms"
    return span + ".ms"


def per_op_values(tracer: Tracer) -> dict[str, list[float]]:
    """Each metric's value in each timed op, in op order."""
    op_ids = sorted(tracer.ops)
    self_ms = {op: defaultdict(float) for op in op_ids}
    top_ms = {op: 0.0 for op in op_ids}
    book_ms = {op: 0.0 for op in op_ids}
    for name, t0, t1, parent, op, child in tracer.spans:
        if op not in self_ms:
            continue
        if name == BOOKKEEPING:
            book_ms[op] += (t1 - t0) * 1e3
            if parent is not None:  # inside a top-level span: not layer time
                top_ms[op] -= (t1 - t0) * 1e3
            continue
        self_ms[op][name] += (t1 - t0 - child) * 1e3
        if parent is None:
            top_ms[op] += (t1 - t0) * 1e3

    out: dict[str, list[float]] = defaultdict(list)
    for op in op_ids:
        s, c = self_ms[op], tracer.counts[op]
        for span in COMMON_TIMES + WORKLOAD_TIMES:
            out[time_metric_name(span)].append(s[span])
        for layer in CONV_LAYERS:
            for d in ("fwd", "bwd"):
                span = f"nn.conv3.{layer}.{d}"
                # Rate from the computed op count 2*Ho*Wo*Mo*27*Cin*Cout.
                out[f"{span}_gflops"].append(c[span + ".flops"] / s[span] / 1e6 if s[span] else 0.0)
        out["gridding.grid.points"].append(c["gridding.grid.points"])
        out["gridding.reverse.qualified_over_m"].append(
            c["gridding.reverse.qualified"] / c["gridding.reverse.m"] if c["gridding.reverse.m"] else 0.0)
        out["gridding.reverse.recycled"].append(c["gridding.reverse.recycled"])
        out["losses.chamfer.calls"].append(c["losses.chamfer.calls"])
        out["losses.kdtree_builds"].append(c["losses.kdtree_builds"])
        out["sensoraug.views_over_poses"].append(
            c["sensoraug.views"] / c["sensoraug.poses"] if c["sensoraug.poses"] else 0.0)
        out["sensoraug.visible_frac"].append(
            c["sensoraug.visible"] / c["sensoraug.source"] if c["sensoraug.source"] else 0.0)
        out["cloud.block.clamped"].append(c["cloud.block.clamped"])
        out["pcio.write.bytes"].append(c["pcio.write.bytes"])
        t0, t1 = tracer.ops[op]
        out["trace.coverage"].append(top_ms[op] / ((t1 - t0) * 1e3 - book_ms[op]))
        out["trace.op_ms"].append((t1 - t0) * 1e3)
    return out


def layer_metrics(tracer: Tracer, untraced_op_ms_p50: float) -> dict[str, float]:
    """Median over ops of each per-op value, plus set-up and overhead figures."""
    values = per_op_values(tracer)
    metrics = {name: median(v) for name, v in values.items() if name != "trace.op_ms"}
    loads = [(t1 - t0) * 1e3 for name, t0, t1, _, op, _ in tracer.spans
             if name == "checkpoint.load"]
    if not loads:
        raise RuntimeError("traced run loaded no checkpoint")
    metrics["checkpoint.load.ms"] = median(loads)
    metrics["trace.overhead_ms"] = median(values["trace.op_ms"]) - untraced_op_ms_p50
    return metrics


def reported_units() -> dict[str, str]:
    """Per-layer metrics every workload measures: the traced run's JSON line."""
    units = {time_metric_name(span): "ms" for span in COMMON_TIMES}
    units.update({f"nn.conv3.{l}.fwd_gflops": "GFLOP/s" for l in CONV_LAYERS})
    units.update({
        "checkpoint.load.ms": "ms",
        "gridding.grid.points": "count",
        "gridding.reverse.qualified_over_m": "ratio",
        "gridding.reverse.recycled": "count",
        "cloud.block.clamped": "count",
        "losses.chamfer.calls": "count",
        "losses.kdtree_builds": "count",
        "sensoraug.views_over_poses": "ratio",
        "sensoraug.visible_frac": "ratio",
        "pcio.write.bytes": "B",
        "trace.coverage": "ratio",
        "trace.overhead_ms": "ms",
    })
    return units


def all_units() -> dict[str, str]:
    """Every per-layer metric, including layer times only some workloads run."""
    units = reported_units()
    units.update({time_metric_name(span): "ms" for span in WORKLOAD_TIMES})
    units.update({f"nn.conv3.{l}.bwd_gflops": "GFLOP/s" for l in CONV_LAYERS})
    return units
