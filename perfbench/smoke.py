"""Smoke check of the benchmark at a tiny size: one op per workload.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs one untraced and one traced op
(one set-up each) and checks that the run is correct, that every metric
BENCHMARK.json names appears with its unit, and that the traced spans cover
most of the op. It also checks that the benchmark refuses to run, without
printing a result, from a directory that holds only BENCHMARK.json and the
benchmark's own files. Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_COVERAGE = 0.8
TIMEOUT_S = 300


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace), "--setups", "1"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(spec: dict, workload: str, trace: int, res) -> dict:
    if res.returncode != 0:
        raise AssertionError(f"{workload} trace {trace}: exit {res.returncode}\n{res.stderr}")
    result = json.loads(res.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{workload} trace {trace}: not correct\n{res.stdout}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"] or not isinstance(got.get("value"), float):
            raise AssertionError(f"{workload} trace {trace}: metric {m['name']}: {got}")
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        raise AssertionError(f"{workload} trace {trace}: metrics not in BENCHMARK.json: {extra}")
    return result["metrics"]


def check_refuses_without_program() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        res = run(bare, "desk-complete", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if res.returncode == 0 or res.stdout.strip():
        raise AssertionError(f"bare directory: exit {res.returncode}, stdout {res.stdout!r}")
    print(f"bare directory: exit {res.returncode}, no result printed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_refuses_without_program()
        for w in spec["workloads"]:
            e2e = check_result(spec, w["name"], 0, run(ROOT, w["name"], 0))
            layers = check_result(spec, w["name"], 1, run(ROOT, w["name"], 1))
            coverage = layers["trace.coverage"]["value"]
            if coverage < MIN_COVERAGE:
                raise AssertionError(f"{w['name']}: trace.coverage {coverage:.3f} < {MIN_COVERAGE}")
            print(f"{w['name']:15s} ok: "
                  + "  ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in e2e.items())
                  + f"  trace.coverage {coverage:.3f}")
    except (AssertionError, subprocess.TimeoutExpired) as exc:
        print(f"smoke check FAILED: {exc}", file=sys.stderr)
        return 1
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
