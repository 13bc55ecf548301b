"""Property tests for the core invariants, over hypothesis-generated clouds."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pointcarve import (
    PointCloud,
    chamfer,
    compute_bounds,
    gridding,
    gridding_reverse,
    normalize_unit_cube,
)

finite_coord = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False, width=64)


def cloud_arrays(min_points=1, max_points=40):
    return arrays(
        np.float64,
        st.tuples(st.integers(min_points, max_points), st.just(3)),
        elements=finite_coord,
    )


@settings(max_examples=40, deadline=None)
@given(cloud_arrays(), st.floats(0.0, 2.0))
def test_bounds_contain_all_points(points, padding):
    cloud = PointCloud(points)
    bounds = compute_bounds(cloud, padding=padding, eps_box=1e-3)
    assert bounds.contains(cloud.points).all()


@settings(max_examples=40, deadline=None)
@given(cloud_arrays())
def test_gridding_mass_is_point_count(points):
    cloud = PointCloud(points)
    bounds = compute_bounds(cloud, eps_box=1.0)
    grid = gridding(cloud, (4, 5, 6), bounds)
    assert abs(grid.values.sum() - len(cloud)) < 1e-9 * max(1, len(cloud))


@settings(max_examples=30, deadline=None)
@given(cloud_arrays(min_points=2))
def test_gridding_reverse_points_stay_in_range(points):
    cloud = PointCloud(points)
    bounds = compute_bounds(cloud, eps_box=1.0)
    grid = gridding(cloud, (4, 4, 4), bounds)
    out = gridding_reverse(grid, m=8, threshold=0.0)
    assert len(out) == 8
    assert bounds.contains(out.points).all()


@settings(max_examples=30, deadline=None)
@given(cloud_arrays(min_points=1, max_points=25), cloud_arrays(min_points=1, max_points=25))
def test_chamfer_symmetric_and_nonnegative(a, b):
    x, y = PointCloud(a), PointCloud(b)
    cd = chamfer(x, y)
    assert cd >= 0.0
    assert cd == chamfer(y, x)
    assert chamfer(x, x) == 0.0


@settings(max_examples=40, deadline=None)
@given(cloud_arrays(min_points=2))
def test_normalize_round_trip(points):
    cloud = PointCloud(points)
    lo, hi = cloud.points.min(axis=0), cloud.points.max(axis=0)
    extent = float((hi - lo).max())
    if extent == 0.0 or not np.isfinite(1.0 / extent):
        return  # coincident (or sub-precision) clouds are rejected by contract
    normalized = normalize_unit_cube(cloud)
    assert normalized.points.min() >= -0.5 - 1e-9
    assert normalized.points.max() <= 0.5 + 1e-9
    # The map is isotropic: one scale and the box center undo it.
    back = normalized.points * extent + (lo + hi) / 2
    np.testing.assert_allclose(back, cloud.points, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_visible_subset_of_frustum(seed):
    from pointcarve import draw_pose, frustum_cull, visible_points

    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.uniform(-0.5, 0.5, (60, 3)))
    pose = draw_pose(np.random.default_rng(seed))
    assert set(visible_points(cloud, pose)) <= set(frustum_cull(cloud, pose))
