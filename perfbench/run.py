"""pointcarve benchmark: one closed-loop workload per run, in a fresh process.

    python3 perfbench/run.py --workload desk-complete --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

  desk-complete   read_xyz -> complete_cloud at the desk preset -> write_xyz
  paper-complete  the same op at the paper preset
  desk-train      one optimizer step of train_toy at the desk preset

With --trace 0 the run measures the end-to-end metrics. With --trace 1 it
runs the workload untraced for half the time, then replays the same ops with
every layer wrapped, checks that the replay's outputs are byte-identical, and
reports per-layer metrics. BLAS and OpenMP use one thread. Human-readable
results go to stdout, followed by one JSON line; a full record with the run
environment is written under .perfbench/results/ and the spans of a traced
run under .perfbench/traces/.
"""

from __future__ import annotations

import os
import sys

import envinfo

for _var in envinfo.THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported anywhere

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median, quantiles  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

E2E_UNITS = {"setup_s": "s", "op_ms_p50": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
P90_MIN_OPS = 100  # a p90 needs at least 10 samples beyond it
PROBE_TIMEOUT_S = 60


class Run:
    """Counts attempted and failed ops and the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: list[str] = []

    def op(self, where: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(f"{where}: {problem}")

    def fail(self, where: str, problem: str) -> None:
        """A run-level check failed after its ops were counted."""
        self.failures.append(f"{where}: {problem}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setups", type=int, default=None,
                    help="set-ups per run, at most the workload's own count (the default)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pointcarve" / "__init__.py").is_file():
        print(f"error: no pointcarve sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of "
              f"{sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setups is not None and not 1 <= args.setups <= wl.WORKLOADS[args.workload].setups:
        print(f"error: --setups must be between 1 and {wl.WORKLOADS[args.workload].setups}",
              file=sys.stderr)
        return 2
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = OUT / "work" / run_id
    workdir.mkdir(parents=True)
    try:
        record = bench(args, workdir, run_id)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["result"]))
    return 0


def bench(args, workdir: Path, run_id: str) -> dict:
    pc = wl.import_program()
    w = wl.WORKLOADS[args.workload]
    cfg = wl.run_config(pc, w)
    ref = wl.load_reference()
    rtol = ref["rtol"]
    run = Run()
    n_setups = args.setups or w.setups

    # -- inputs (the load generator's work, not timed) ----------------------
    ckpt = workdir / "model.ckpt"
    init = pc.CarveModelParams.initialize(cfg.carve_config(), wl.INIT_SEED)
    pc.checkpoint.save_checkpoint(ckpt, init, pc.checkpoint.CheckpointMeta.from_config(cfg))
    pairs = wl.make_pairs(pc, args.seed, w.inputs)
    if w.kind == "complete":
        checks = wl.make_pairs(pc, wl.CHECK_SEED, n_setups)
        for i, (partial, _) in enumerate(checks):
            pc.pcio.write_xyz(wl.check_input_path(workdir, i), partial)
        files = []
        for i, (partial, _) in enumerate(pairs):
            src, dst = workdir / f"in_{i}.xyz", workdir / f"out_{i}.xyz"
            pc.pcio.write_xyz(src, partial)
            files.append((src, dst))

    # -- set-up, several times, each in a fresh interpreter -----------------
    probes = []
    for i in range(n_setups):
        probe = run_probe(w, ckpt, workdir, i)
        probes.append(probe)
        where = f"setup {i} (check input {i})"
        if w.kind == "complete":
            want = ref[w.name]["check_cd_scaled"][i]
        else:
            want = ref[w.name]["warmup_train_comp"]
        problem = probe.get("problem")
        if not problem and not math.isclose(probe["value"], want, rel_tol=rtol):
            problem = f"check value {probe['value']!r} differs from reference {want!r} (rtol {rtol})"
        run.op(where, problem)
    setup_s = median(p["setup_s"] for p in probes)

    # -- this process's own set-up and warm-up -----------------------------
    params, _ = pc.checkpoint.load_checkpoint(ckpt)
    if w.kind == "complete":
        dense = wl.complete_op(pc, params, cfg, wl.check_input_path(workdir, 0),
                               workdir / "warmup.out.xyz")
        problem = wl.dense_problem(dense, cfg)
        if not problem and wl.digest(dense.points) != probes[0]["digest"]:
            problem = "dense cloud differs from the same op in a fresh process"
        run.op("warm-up (check input 0)", problem)
    else:
        check_pairs = wl.make_pairs(pc, wl.CHECK_SEED, w.inputs)
        _, records = pc.training.train_toy(check_pairs, cfg, params=params)
        want = ref[w.name]["check_train_comp"]
        problem = None
        if not math.isclose(records[0].train_comp, want, rel_tol=rtol):
            problem = (f"check train_comp {records[0].train_comp!r} differs from reference "
                       f"{want!r} (rtol {rtol})")
        for k in range(wl.session_steps(w, cfg)):
            run.op(f"warm-up check session step {k}", problem)

    # -- timed phase -------------------------------------------------------
    seconds = args.seconds / 2 if args.trace else args.seconds
    if w.kind == "complete":
        timed = complete_loop(pc, params, cfg, files, seconds=seconds)
        check_complete(pc, run, timed, pairs)
    else:
        timed = train_loop(pc, params, cfg, pairs, seconds=seconds)
        check_train(run, cfg, w, timed)
    durations = [(end - start) * 1e3 for start, end, dig in timed["ops"] if dig is not None]
    if not durations:
        raise RuntimeError("no op completed; nothing to report")
    e2e = {
        "setup_s": setup_s,
        "op_ms_p50": median(durations),
        "ops_per_s": len(durations) / timed["elapsed"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if len(durations) >= P90_MIN_OPS:
        e2e["op_ms_p90"] = quantiles(durations, n=10, method="inclusive")[-1]

    # -- traced replay -----------------------------------------------------
    layers = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            for _ in range(3):
                traced_params, _ = pc.checkpoint.load_checkpoint(ckpt)
            tracer.op = 0
            if w.kind == "complete":
                replay = complete_loop(pc, traced_params, cfg, files, tracer=tracer,
                                       order=[i for i, _, _ in timed["inputs"]])
            else:
                replay = train_loop(pc, traced_params, cfg, pairs, tracer=tracer,
                                    n_steps=len(timed["ops"]))
        finally:
            tracer.uninstall()
        same = [a[2] for a in timed["ops"]] == [b[2] for b in replay["ops"]]
        for k in range(len(replay["ops"])):
            run.op(f"traced op {k}", None if same else
                   "traced replay output differs from the untraced run")
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(OUT / "traces" / f"{run_id}.jsonl")
        layers = tracing.layer_metrics(tracer, e2e["op_ms_p50"])

    env = envinfo.environment(ROOT, w.name, args.seed)
    correct = not run.failures
    if args.trace:
        units = tracing.reported_units()
        metrics = {k: {"value": layers[k], "unit": u} for k, u in units.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items()}
    result = {"correct": correct, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": metrics}
    report(w, args, e2e, layers, run, timed, probes, env, len(durations))
    return {"result": result, "env": env, "end_to_end": e2e, "per_layer": layers,
            "op_ms": durations,
            "probes": probes, "failures": run.failures, "notes": run.notes,
            "flops_note": "GFLOP/s rates are computed op counts over measured time"}


def run_probe(w, ckpt: Path, workdir: Path, index: int) -> dict:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", w.name,
           "--src", str(SRC), "--ckpt", str(ckpt), "--workdir", str(workdir),
           "--index", str(index)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe {index} failed:\n{res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Op loops
# ---------------------------------------------------------------------------


def complete_loop(pc, params, cfg, files, seconds=None, tracer=None, order=None):
    """Closed loop of completion ops, for `seconds` or over a fixed input order.

    At least one op runs; no op starts that would, if it took as long as the
    previous one, end past the deadline. Each op is recorded as (start, end,
    dense digest), the digest None for a failed op, and its input index.
    """
    ops, inputs = [], []
    t_start = time.perf_counter()
    k = 0
    while True:
        i = order[k] if order is not None else k % len(files)
        if tracer is not None:
            tracer.op = k
        src, dst = files[i]
        t0 = time.perf_counter()
        try:
            dense = wl.complete_op(pc, params, cfg, src, dst)
            problem = None
        except Exception as exc:  # an input that makes an op raise is a failed op
            dense, problem = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.ops[k] = (t0, t1)
        if dense is not None:
            problem = wl.dense_problem(dense, cfg)
        ops.append((t0, t1, None if problem else wl.digest(dense.points)))
        inputs.append((i, dense, problem))
        k += 1
        if order is not None:
            if k >= len(order):
                break
        elif (t1 - t_start) + (t1 - t0) > seconds:
            break  # another op like this one would end past the deadline
    return {"ops": ops, "inputs": inputs, "elapsed": time.perf_counter() - t_start}


def check_complete(pc, run, timed, pairs):
    """Count each op, failed if it raised, broke the output contract, or
    differs from an earlier op on the same input; then score the outputs."""
    first: dict[int, tuple[str, object]] = {}
    for k, ((_, _, dig), (i, dense, problem)) in enumerate(zip(timed["ops"], timed["inputs"])):
        if not problem and i in first and first[i][0] != dig:
            problem = "dense cloud differs from an earlier op on the same input"
        elif not problem:
            first.setdefault(i, (dig, dense))
        run.op(f"op {k} (input {i})", problem)
    cds = [pc.cd_scaled(dense, pairs[i][1]) for i, (_, dense) in sorted(first.items())]
    if cds:
        run.notes.append(f"mean cd_scaled(dense, gt) over {len(cds)} seeded inputs: "
                         f"{sum(cds) / len(cds)!r}")
    # Keep only digests: the dense clouds are not needed past this point.
    timed["inputs"] = [(i, None, p) for i, _, p in timed["inputs"]]


def train_loop(pc, params, cfg, dataset, seconds=None, tracer=None, n_steps=None):
    """Optimizer steps for `seconds`, or exactly `n_steps` of them."""
    t_start = time.perf_counter()
    if n_steps is None:
        def keep_going(steps):
            # Stop when another step like the last would end past the deadline.
            start, end, _ = steps[-1]
            return (end - t_start) + (end - start) <= seconds
    else:
        def keep_going(steps):
            return len(steps) < n_steps

    on_op = None
    if tracer is not None:
        def on_op(start, end):
            tracer.ops[tracer.op] = (start, end)
            tracer.op += 1

    steps, sessions, error = wl.train_steps(pc, params, cfg, dataset, keep_going, on_op)
    return {"ops": steps, "sessions": sessions, "error": error,
            "elapsed": time.perf_counter() - t_start}


def check_train(run, cfg, w, timed):
    """Every session starts from the same weights on the same data, so step k
    of every session must end at the same parameter digest (training is
    bitwise deterministic), and so must every completed session."""
    per_session = wl.session_steps(w, cfg)
    digests = [d for _, _, d in timed["ops"]]
    for k, dig in enumerate(digests):
        problem = None
        if dig != digests[k % per_session]:
            problem = f"parameter digest differs from step {k % per_session} of the first session"
        run.op(f"op {k} (step {k % per_session} of a session)", problem)
    if timed["error"]:
        run.op(f"op {len(digests)}", timed["error"])
    finals = {d for _, d in timed["sessions"]}
    if len(finals) > 1:
        run.fail("ops", f"completed sessions end at {len(finals)} different parameter digests")
    if timed["sessions"]:
        run.notes.append(f"train_comp of the seeded session: {timed['sessions'][0][0]!r}")


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def report(w, args, e2e, layers, run, timed, probes, env, n_ops):
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, {n_ops} ops in {timed['elapsed']:.3f} s")
    print(f"env {json.dumps(env)}")
    print(f"setup_s      {e2e['setup_s']:.6f} s    median of {len(probes)} set-ups "
          f"(import + checkpoint load + one warm-up op): "
          + ", ".join(f"{p['setup_s']:.4f}" for p in probes))
    print(f"op_ms_p50    {e2e['op_ms_p50']:.6f} ms   n={n_ops}")
    if "op_ms_p90" in e2e:
        print(f"op_ms_p90    {e2e['op_ms_p90']:.6f} ms   n={n_ops}")
    else:
        print(f"op_ms_p90    not defined: {n_ops} ops < {P90_MIN_OPS}")
    print(f"ops_per_s    {e2e['ops_per_s']:.6f} 1/s")
    print(f"peak_rss_mb  {e2e['peak_rss_mb']:.3f} MB")
    print(f"failed_frac  {len(run.failures) / max(run.attempted, 1):.6f}   "
          f"({len(run.failures)} of {run.attempted} ops, set-up and check ops included)")
    for note in run.notes:
        print(f"note: {note}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    if layers is not None:
        print("per-layer (median over ops of summed self time per op; "
              "GFLOP/s from computed op counts):")
        units = tracing.all_units()
        for name in sorted(units):
            print(f"  {name:40s} {layers[name]:14.6f} {units[name]}")


if __name__ == "__main__":
    sys.exit(main())
