"""One set-up in a fresh interpreter: imports, checkpoint load, one warm-up op.

Run by run.py, which reads the single JSON line this prints. The warm-up op
runs on a fixed check input, so its result is also compared with the stored
reference. Generating that input is the load generator's work and is not
timed.

    python3 perfbench/setup_probe.py --workload desk-complete --src src \
        --ckpt model.ckpt --workdir DIR --index 0
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--ckpt", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--index", type=int, required=True)
    args = ap.parse_args()
    sys.path.insert(0, args.src)

    import workloads as wl

    pc = wl.import_program()

    t_import = time.perf_counter()
    params, _ = pc.checkpoint.load_checkpoint(args.ckpt)
    t_load = time.perf_counter()

    w = wl.WORKLOADS[args.workload]
    cfg = wl.run_config(pc, w)
    workdir = Path(args.workdir)
    out = {"import_s": t_import - T0, "load_s": t_load - t_import}
    if w.kind == "complete":
        _, gt = wl.make_pairs(pc, wl.CHECK_SEED, args.index + 1)[args.index]
        t_op = time.perf_counter()
        dense = wl.complete_op(pc, params, cfg, wl.check_input_path(workdir, args.index),
                               workdir / f"probe_{args.index}.out.xyz")
        t_end = time.perf_counter()
        out.update(problem=wl.dense_problem(dense, cfg), digest=wl.digest(dense.points),
                   value=pc.cd_scaled(dense, gt))
    else:
        batch = wl.make_pairs(pc, wl.CHECK_SEED, cfg.batch_size)
        t_op = time.perf_counter()
        final, records = pc.training.train_toy(batch, cfg, params=params)
        t_end = time.perf_counter()
        out.update(problem=None, digest=wl.digest(final.flat()), value=records[0].train_comp)
    out.update(warmup_s=t_end - t_op, setup_s=(t_load - T0) + (t_end - t_op))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
