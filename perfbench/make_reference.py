"""Regenerate reference.json: the check values ops are compared against.

    python3 perfbench/make_reference.py

The references are computed in float64 from the same float32 checkpoint the
benchmark serves, so they do not depend on the order in which float32 sums
are taken. A run's float32 results must match them within `rtol`, which
admits float32 rounding and reassociation and nothing more: on the check
inputs the float32 results sit within 6e-7 (relative) of these values, and
rtol is 1e-5.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from envinfo import THREAD_VARS

for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402  (imports numpy)

RTOL = 1e-5


def reference_params(pc, cfg, workdir: Path):
    init = pc.CarveModelParams.initialize(cfg.carve_config(), wl.INIT_SEED)
    ckpt = workdir / "model.ckpt"
    pc.checkpoint.save_checkpoint(ckpt, init, pc.checkpoint.CheckpointMeta.from_config(cfg))
    params, _ = pc.checkpoint.load_checkpoint(ckpt, dtype="float64")
    return params


def main() -> int:
    pc = wl.import_program()
    out = {"rtol": RTOL, "computed_in": "float64"}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        workdir = Path(tmp)
        for w in wl.WORKLOADS.values():
            cfg = wl.run_config(pc, w).replace(dtype="float64")
            params = reference_params(pc, cfg, workdir)
            if w.kind == "complete":
                values = []
                for i, (partial, gt) in enumerate(wl.make_pairs(pc, wl.CHECK_SEED, w.setups)):
                    src = wl.check_input_path(workdir, i)
                    pc.pcio.write_xyz(src, partial)
                    dense = wl.complete_op(pc, params, cfg, src, workdir / "out.xyz")
                    values.append(pc.cd_scaled(dense, gt))
                out[w.name] = {"check_cd_scaled": values}
            else:
                pool = wl.make_pairs(pc, wl.CHECK_SEED, w.inputs)
                _, warm = pc.training.train_toy(pool[: cfg.batch_size], cfg, params=params)
                _, check = pc.training.train_toy(pool, cfg, params=params)
                out[w.name] = {"warmup_train_comp": warm[0].train_comp,
                               "check_train_comp": check[0].train_comp}
            print(w.name, out[w.name], flush=True)
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
