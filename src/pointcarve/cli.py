"""Command-line surface: dataset generation, augmentation, training,
inference, evaluation, consistency, sensitivity sweeps and gradient checks.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Diagnostics go to
stderr; data goes to files or stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointMeta, load_checkpoint, save_checkpoint
from .cloud import PointCloud
from .config import RunConfig
from .gradcheck import run_all
from .metrics import TrackedSequence, consistency, evaluate, sensitivity_sweep
from .pcio import (
    load_cloud,
    read_dataset_manifest,
    read_sequence_manifest,
    write_xyz,
)
from .sensoraug import generate_partials
from .shapes import FAMILIES, MIN_POINTS, SyntheticShapeSpec, gen_shape
from .training import complete_cloud, train_toy


def _err(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_points(path) -> PointCloud:
    """The cloud at `path`; a file with no points is an error naming it."""
    cloud = load_cloud(path)
    if len(cloud) == 0:
        raise ValueError(f"{path}: no points")
    return cloud


def _load_dataset(manifest_path) -> list[tuple[str, PointCloud, PointCloud]]:
    entries = read_dataset_manifest(manifest_path)
    return [(cat, _load_points(p), _load_points(g)) for cat, p, g in entries]


def _cmd_gen_synth(args) -> int:
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    if not families:
        raise ValueError(f"--families names no family, expected some of {FAMILIES}")
    for fam in families:
        if fam not in FAMILIES:
            raise ValueError(f"unknown family {fam!r}, expected one of {FAMILIES}")
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    if args.points < MIN_POINTS:
        raise ValueError(f"--points must be >= {MIN_POINTS}, got {args.points}")
    out = Path(args.out)
    (out / "gt").mkdir(parents=True, exist_ok=True)
    (out / "partial").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    lines = []
    for i in range(args.count):
        fam = families[i % len(families)]
        base = SyntheticShapeSpec(fam).dims
        dims = tuple(d * rng.uniform(0.7, 1.3) for d in base)
        spec = SyntheticShapeSpec(fam, dims, args.points, seed=int(rng.integers(2**31)))
        gt, category = gen_shape(spec)
        partial = generate_partials(gt, 1, seed=int(rng.integers(2**31)))[0]
        gt_rel = f"gt/shape_{i:05d}.xyz"
        part_rel = f"partial/shape_{i:05d}.xyz"
        write_xyz(out / gt_rel, gt)
        write_xyz(out / part_rel, partial)
        lines.append(f"{category} {part_rel} {gt_rel}")
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")
    _err(f"wrote {args.count} shapes to {out}")
    return 0


def _cmd_augment(args) -> int:
    cloud = _load_points(args.infile)
    partials = generate_partials(cloud, args.t, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, partial in enumerate(partials):
        write_xyz(out / f"partial_{i:02d}.xyz", partial)
    _err(f"wrote {len(partials)} partial views to {out}")
    return 0


def _cmd_train(args) -> int:
    config = RunConfig.load(args.config)
    manifest = args.manifest or config.data_manifest
    if not manifest:
        raise ValueError("no dataset: pass --manifest or set data_manifest in the config")
    dataset = [(p, g) for _, p, g in _load_dataset(manifest)]
    log_path = args.log or (str(args.out) + ".log")
    Path(log_path).write_text("")  # truncate: one run, one log
    params, records = train_toy(dataset, config, log_path=log_path)
    for record in records:
        _err(record.format_line())
    save_checkpoint(args.out, params, CheckpointMeta.from_config(config))
    _err(f"checkpoint written to {args.out}; metrics log at {log_path}")
    return 0


def _cmd_complete(args) -> int:
    params, config = load_checkpoint(args.ckpt)
    partial = _load_points(args.infile)
    _, dense = complete_cloud(partial, params, config)
    write_xyz(args.out, dense)
    _err(f"completed {len(partial)} -> {len(dense)} points: {args.out}")
    return 0


def _cmd_eval(args) -> int:
    params, config = load_checkpoint(args.ckpt)
    dataset = _load_dataset(args.manifest)
    report = evaluate(params, dataset, config, weighted=args.weighted, jobs=args.jobs)
    report.save(args.report)
    _err(f"overall CD x 10^3: {report.overall:.6g}; report at {args.report}")
    return 0


def _cmd_consistency(args) -> int:
    groups = sorted(read_sequence_manifest(args.manifest).items())
    for object_id, frames in groups:
        if len(frames) < 2:
            raise ValueError(f"{args.manifest}: object {object_id!r} has 1 frame, "
                             "needs at least 2")
    values = []
    for object_id, frames in groups:
        clouds = tuple(_load_points(p) for _, p in frames)
        values.append(consistency(TrackedSequence(object_id, clouds)))
    # Every object is scored before the first row, so a failure prints none.
    for (object_id, _), value in zip(groups, values):
        print(f"{object_id},{value * 1e3:.6g}")
    print(f"mean,{float(np.mean(values)) * 1e3:.6g}")
    return 0


def _cmd_sweep(args) -> int:
    params, config = load_checkpoint(args.ckpt)
    dataset = _load_dataset(args.manifest)
    levels = []
    for v in filter(str.strip, args.levels.split(",")):
        try:
            levels.append(float(v))
        except ValueError:
            raise ValueError(f"--levels: {v.strip()!r} is not a number") from None
    points = sensitivity_sweep(
        params, dataset, levels, config, args.method, args.seed, jobs=args.jobs
    )
    for p in points:
        print(f"{p.level:.6g},{p.mean_cd_scaled:.6g},{p.sample_count}")
    return 0


def _cmd_check_grads(args) -> int:
    results = run_all(args.seed)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: max rel err {r.max_rel_err:.3g} "
              f"(tol {r.tolerance:g}, {r.instances} instances)")
        ok = ok and r.passed
    return 0 if ok else 1


def _int_at_least(low: int):
    """argparse type: an integer >= low, else a usage error naming the flag."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"
    return parse


_jobs = _int_at_least(1)
_seed = _int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointcarve",
        description="Point-block carving pipeline for 3D point cloud completion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic shape dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--families", default=",".join(FAMILIES))
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--points", type=int, default=2048, help="surface samples per shape")
    p.set_defaults(func=_cmd_gen_synth)

    p = sub.add_parser("augment", help="emit virtual-sensor partial views of a cloud")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--t", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("train", help="train on a dataset manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--manifest", help="override the config's data_manifest")
    p.add_argument("--log", help="metrics log path (default: <out>.log)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("complete", help="complete a single partial cloud")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("eval", help="per-category evaluation report")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--weighted", action="store_true",
                   help="weight the overall mean by category sample counts")
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="threads to score samples on (results are identical; "
                        "faster only with one BLAS thread per call)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("consistency", help="cross-frame consistency of completions")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=_cmd_consistency)

    p = sub.add_parser("sweep", help="sensitivity to the valid-point percentage")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--levels", required=True, help="comma-separated levels in (0, 1]")
    p.add_argument("--method", choices=("random", "sensor"), default="random")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="threads to score samples on (results are identical; "
                        "faster only with one BLAS thread per call)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("check-grads", help="finite-difference gradient suite")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_check_grads)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        _err(f"error: {exc}")
        return 1
    except RuntimeError as exc:
        _err(f"runtime failure: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
