"""Evaluation metrics and reporting: scaled Chamfer distance, cross-frame
consistency, valid-point percentage, sensitivity sweeps and category tables.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .carving import CarveModelParams
from .cloud import PointCloud, compute_bounds, normalize_unit_cube
from .config import RunConfig
from .losses import chamfer
from .pcio import read_text
from .sensoraug import MAX_POSE_ATTEMPTS, VisibilityConfig, draw_pose, visible_points
from .training import complete_cloud

OCCUPANCY_RES = 64
SWEEP_TOLERANCE = 0.02


def cd_scaled(q: PointCloud, g: PointCloud) -> float:
    """Chamfer distance times 10^3, the unit used for reporting."""
    return chamfer(q, g) * 1e3


@dataclass(frozen=True)
class TrackedSequence:
    """Completion results of one tracked object over consecutive frames."""

    object_id: str
    frames: tuple[PointCloud, ...]

    def __post_init__(self):
        if len(self.frames) < 2:
            raise ValueError("a tracked sequence needs at least 2 frames")


def consistency(seq: TrackedSequence) -> float:
    """Mean CD over adjacent frame pairs: (1/(N-1)) sum CD(Q_j, Q_j+1)."""
    cds = [chamfer(a, b) for a, b in zip(seq.frames, seq.frames[1:])]
    return float(np.mean(cds))


def _occupancy(points: np.ndarray, lo: np.ndarray, extent: np.ndarray) -> np.ndarray:
    """Flat boolean occupancy of the 64^3 binning over [lo, lo+extent]."""
    res = OCCUPANCY_RES
    idx = np.floor((points - lo) / extent * res).astype(np.int64)
    np.clip(idx, 0, res - 1, out=idx)
    flat = (idx[:, 0] * res + idx[:, 1]) * res + idx[:, 2]
    occ = np.zeros(res**3, dtype=bool)
    occ[flat] = True
    return occ


def valid_point_percentage(partial: PointCloud, gt: PointCloud) -> float:
    """Fraction of gt's occupied 64^3 cells also occupied by the partial.

    Both clouds are binned over gt's bounding range by nearest-cell
    assignment; partial cells outside gt's occupied set do not count.
    """
    if len(gt) == 0:
        raise ValueError("empty input")
    bounds = compute_bounds(gt)
    gt_occ = _occupancy(gt.points, bounds.lo, bounds.extent)
    n_gt = int(gt_occ.sum())
    if n_gt == 0:
        raise ValueError("ground truth occupies zero cells")
    if len(partial) == 0:
        return 0.0
    part_occ = _occupancy(bounds.clamp(partial.points), bounds.lo, bounds.extent)
    return float((part_occ & gt_occ).sum() / n_gt)


@dataclass(frozen=True)
class EvalReport:
    """Per-category mean CD x 10^3 plus run metadata.

    In the default (unweighted) mode the overall value is the plain mean of
    the category means.
    """

    category_means: dict[str, float]
    category_counts: dict[str, int]
    overall: float
    weighted: bool
    config_hash: str
    seed: int
    created_utc: str

    def __post_init__(self):
        if set(self.category_means) != set(self.category_counts):
            raise ValueError("category means/counts keys differ")
        if not self.weighted and self.category_means:
            expected = float(np.mean(list(self.category_means.values())))
            if abs(expected - self.overall) > 1e-12:
                raise ValueError("overall mean does not match unweighted category mean")

    def save(self, path: str | Path) -> None:
        lines = [
            "schema: pointcarve-eval-report/1",
            f"created_utc: {self.created_utc}",
            f"config_hash: {self.config_hash}",
            f"seed: {self.seed}",
            f"weighted: {'true' if self.weighted else 'false'}",
            f"overall_cd_scaled: {self.overall!r}",
        ]
        for name in sorted(self.category_means):
            lines.append(f"category.{name}.count: {self.category_counts[name]}")
            lines.append(f"category.{name}.mean_cd_scaled: {self.category_means[name]!r}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @staticmethod
    def load(path: str | Path) -> "EvalReport":
        """Read a report `save` wrote. A file that is not UTF-8, a missing
        key or a malformed value raises one ValueError naming the file."""
        entries: dict[str, str] = {}
        for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if ": " not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key: value'")
            key, _, value = line.partition(": ")
            entries[key] = value
        if entries.get("schema") != "pointcarve-eval-report/1":
            raise ValueError(f"{path}: unknown report schema {entries.get('schema')!r}")

        def field(key: str, parse):
            if key not in entries:
                raise ValueError(f"{path}: missing key {key!r}")
            try:
                return parse(entries[key])
            except ValueError:
                raise ValueError(f"{path}: {key}: malformed value {entries[key]!r}") from None

        means: dict[str, float] = {}
        counts: dict[str, int] = {}
        for key in entries:
            if key.startswith("category."):
                # Off the right: a category name may itself hold dots.
                name, _, fieldname = key.removeprefix("category.").rpartition(".")
                if fieldname == "count":
                    counts[name] = field(key, int)
                elif fieldname == "mean_cd_scaled":
                    means[name] = field(key, float)
        return EvalReport(
            category_means=means,
            category_counts=counts,
            overall=field("overall_cd_scaled", float),
            weighted=field("weighted", _parse_bool),
            config_hash=field("config_hash", str),
            seed=field("seed", int),
            created_utc=field("created_utc", str),
        )


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


@contextmanager
def _naming(label: str):
    """Prefix a ValueError raised while working on one sample with its label."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from exc


def _map_samples(params, config, samples, jobs: int) -> list[float]:
    """Dense CD x 10^3 of each (label, partial, gt) sample, in order, on at
    most min(jobs, samples) threads sharing `params`. Each sample is pure
    work, so the result does not depend on jobs."""

    def score(sample) -> float:
        label, partial, gt = sample
        with _naming(label):
            _, dense = complete_cloud(partial, params, config, gt=gt)
            return cd_scaled(dense, gt)

    if jobs <= 1 or len(samples) <= 1:
        return [score(s) for s in samples]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(jobs, len(samples))) as pool:
        return list(pool.map(score, samples))


def _label(index: int, category: str) -> str:
    """A dataset sample's name in errors: its 1-based entry number and category."""
    return f"sample {index + 1} ({category})"


def evaluate(
    params: CarveModelParams,
    dataset: list[tuple[str, PointCloud, PointCloud]],
    config: RunConfig,
    weighted: bool = False,
    jobs: int = 1,
) -> EvalReport:
    """Run completion over (category, partial, gt) samples and aggregate.

    The block range is derived from gt (the estimated complete-cloud range);
    per-category means are CD x 10^3 of the dense result against gt.
    """
    if not dataset:
        raise ValueError("empty dataset")
    samples = [(_label(i, c), p, g) for i, (c, p, g) in enumerate(dataset)]
    scores = _map_samples(params, config, samples, jobs)
    by_cat: dict[str, list[float]] = {}
    for (category, _, _), score in zip(dataset, scores):
        by_cat.setdefault(category, []).append(score)
    means = {name: float(np.mean(v)) for name, v in by_cat.items()}
    counts = {name: len(v) for name, v in by_cat.items()}
    if weighted:
        overall = float(
            sum(m * counts[n] for n, m in means.items()) / sum(counts.values())
        )
    else:
        overall = float(np.mean(list(means.values())))
    return EvalReport(
        category_means=means,
        category_counts=counts,
        overall=overall,
        weighted=weighted,
        config_hash=config.config_hash(),
        seed=config.seed,
        created_utc=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    )


@dataclass(frozen=True)
class SweepPoint:
    level: float
    mean_cd_scaled: float
    sample_count: int


def _cull_to_level(
    partial: PointCloud,
    gt: PointCloud,
    level: float,
    rng: np.random.Generator,
    method: str,
    vis_cfg: VisibilityConfig,
    fov: tuple[float, float],
) -> PointCloud | None:
    """Reduce the partial until its valid-point percentage enters
    [level - tol, level + tol]; partials already at or below the window's top
    pass through unchanged. Returns None when the window cannot be hit.
    """
    tol = SWEEP_TOLERANCE
    if valid_point_percentage(partial, gt) <= level + tol:
        return partial
    base = partial
    if method == "sensor":
        # A view cull first (poses live in the normalized unit-cube frame);
        # if the result is still above the window, random-cull the rest.
        try:
            normalized = normalize_unit_cube(partial)
        except ValueError:
            normalized = None
        for _ in range(MAX_POSE_ATTEMPTS if normalized is not None else 0):
            pose = draw_pose(rng, fov[0], fov[1])
            idx = visible_points(normalized, pose, vis_cfg)
            if len(idx) == 0:
                continue
            candidate = PointCloud(partial.points[idx])
            vpp = valid_point_percentage(candidate, gt)
            if level - tol <= vpp <= level + tol:
                return candidate
            if vpp > level + tol:
                base = candidate
                break
    # Monotone prefix culling over a seeded permutation.
    perm = rng.permutation(len(base))
    lo_k, hi_k = 1, len(base)
    while lo_k < hi_k:
        mid = (lo_k + hi_k) // 2
        if valid_point_percentage(PointCloud(base.points[perm[:mid]]), gt) >= level - tol:
            hi_k = mid
        else:
            lo_k = mid + 1
    candidate = PointCloud(base.points[perm[:lo_k]])
    vpp = valid_point_percentage(candidate, gt)
    if level - tol <= vpp <= level + tol:
        return candidate
    return None


def sensitivity_sweep(
    params: CarveModelParams,
    dataset: list[tuple[str, PointCloud, PointCloud]],
    levels: list[float],
    config: RunConfig,
    method: str = "random",
    seed: int = 0,
    jobs: int = 1,
) -> list[SweepPoint]:
    """Mean dense CD x 10^3 at decreasing valid-point levels, ascending order.

    Levels no sample can reach within tolerance are recorded with a NaN mean
    and zero sample count (a missing point on the curve).
    """
    if not dataset:
        raise ValueError("empty dataset")
    if not levels:
        raise ValueError("no level to sweep")
    if any(not (0 < lv <= 1) for lv in levels):
        raise ValueError("levels must lie in (0, 1]")
    for i, lv in enumerate(levels):
        if lv in levels[:i]:
            raise ValueError(f"level {lv} given twice")
    if method not in ("random", "sensor"):
        raise ValueError(f"unknown sweep cull method {method!r}")
    vis_cfg = VisibilityConfig(config.depth_buffer_res)
    fov = (math.radians(config.sensor_vfov_deg), math.radians(config.sensor_hfov_deg))
    points: list[SweepPoint] = []
    for level in sorted(levels):
        rng = np.random.default_rng(seed)
        samples = []
        for i, (category, partial, gt) in enumerate(dataset):
            label = _label(i, category)
            with _naming(label):
                culled = _cull_to_level(partial, gt, level, rng, method, vis_cfg, fov)
            if culled is not None and len(culled):
                samples.append((label, culled, gt))
        if samples:
            cds = _map_samples(params, config, samples, jobs)
            points.append(SweepPoint(level, float(np.mean(cds)), len(cds)))
        else:
            points.append(SweepPoint(level, float("nan"), 0))
    return points
