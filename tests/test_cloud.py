"""Cloud types, bounds, block sampling and assembly."""

import numpy as np
import pytest

from pointcarve import (
    BoundingRange,
    PointCloud,
    build_point_block,
    compute_bounds,
    normalize_unit_cube,
    sample_block_points,
)

from conftest import random_cloud


class TestPointCloud:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            PointCloud(np.array([[0.0, np.nan, 0.0]]))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            PointCloud(np.zeros((3, 2)))

    def test_points_are_read_only(self):
        cloud = PointCloud(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 1.0


class TestComputeBounds:
    def test_tight_box_on_unit_cube_corners(self):
        corners = np.array([[0, 0, 0], [1, 1, 1], [0, 1, 0], [1, 0, 1]], dtype=float)
        bounds = compute_bounds(PointCloud(corners), padding=0.0)
        np.testing.assert_array_equal(bounds.lo, [0, 0, 0])
        np.testing.assert_array_equal(bounds.hi, [1, 1, 1])

    def test_padding_and_degenerate_axes(self):
        # Hand computation: x extent 2, padded 10% per side; y/z degenerate,
        # widened to the absolute eps_box.
        cloud = PointCloud(np.array([[0, 0, 0], [2, 0, 0]], dtype=float))
        bounds = compute_bounds(cloud, padding=0.1, eps_box=0.01)
        np.testing.assert_allclose(bounds.lo, [-0.2, -0.005, -0.005])
        np.testing.assert_allclose(bounds.hi, [2.2, 0.005, 0.005])

    def test_single_point(self):
        single = PointCloud(np.array([[1.0, 2.0, 3.0]]))
        with pytest.raises(ValueError):
            compute_bounds(single, eps_box=0.0)
        bounds = compute_bounds(single, eps_box=0.01)
        np.testing.assert_allclose(bounds.extent, [0.01, 0.01, 0.01])

    def test_empty_cloud(self):
        with pytest.raises(ValueError, match="empty input"):
            compute_bounds(PointCloud.empty())

    def test_contains_all_points_for_any_padding(self, rng):
        cloud = random_cloud(rng, 100, -3, 5)
        for padding in (0.0, 0.05, 0.5, 2.0):
            bounds = compute_bounds(cloud, padding=padding)
            assert bounds.contains(cloud.points).all()


class TestSampleBlockPoints:
    def test_eleven_cubed(self, unit_range):
        assert len(sample_block_points(unit_range, 11)) == 11**3

    def test_lattice_cell_centers(self, unit_range):
        pts = sample_block_points(unit_range, 2).points
        expected = {0.25, 0.75}
        assert set(np.round(pts.ravel(), 12)) == expected

    def test_lattice_points_distinct_and_inside(self, rng):
        bounds = BoundingRange([-1, 2, 0.5], [4, 3, 9])
        pts = sample_block_points(bounds, 5).points
        assert len(np.unique(pts, axis=0)) == len(pts)
        assert np.all(pts > bounds.lo) and np.all(pts < bounds.hi)

    def test_rejects_small_n(self, unit_range):
        with pytest.raises(ValueError):
            sample_block_points(unit_range, 1)


class TestBuildPointBlock:
    def test_counts_add_up(self, rng, unit_range):
        partial = random_cloud(rng, 2048)
        block = build_point_block(partial, unit_range, 13)
        assert len(block) == 2048 + 13**3

    def test_empty_partial(self, unit_range):
        block = build_point_block(PointCloud.empty(), unit_range, 3)
        assert len(block) == 27
        assert len(block.partial) == 0

    def test_out_of_range_point_clamped(self, unit_range):
        partial = PointCloud(np.array([[0.5, 0.5, 0.5], [2.0, 0.5, 0.5]]))
        block = build_point_block(partial, unit_range, 2)
        assert block.clamped_count == 1
        np.testing.assert_allclose(block.partial.points[1], [1.0, 0.5, 0.5])


class TestNormalizeUnitCube:
    def test_canonical_cube(self):
        corners = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float
        )
        out = normalize_unit_cube(PointCloud(corners))
        assert out.points.min() == pytest.approx(-0.5)
        assert out.points.max() == pytest.approx(0.5)

    def test_isotropic_scaling(self):
        cloud = PointCloud(np.array([[0, 0, 0], [4, 2, 0]], dtype=float))
        out = normalize_unit_cube(cloud)
        np.testing.assert_allclose(out.points[:, 0], [-0.5, 0.5])
        np.testing.assert_allclose(out.points[:, 1], [-0.25, 0.25])

    def test_round_trip(self, rng):
        cloud = random_cloud(rng, 500, -7, 13)
        out = normalize_unit_cube(cloud)
        lo, hi = cloud.points.min(axis=0), cloud.points.max(axis=0)
        back = out.points * (hi - lo).max() + (lo + hi) / 2
        np.testing.assert_allclose(back, cloud.points, atol=1e-9)

    def test_coincident_points_error(self):
        with pytest.raises(ValueError, match="coincident"):
            normalize_unit_cube(PointCloud(np.ones((4, 3))))

