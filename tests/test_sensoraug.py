"""Virtual-sensor poses, frustum culling, depth-buffer visibility."""

import math

import numpy as np

from pointcarve import (
    PointCloud,
    SensorPose,
    VisibilityConfig,
    draw_pose,
    frustum_cull,
    generate_partials,
    visible_points,
)
from pointcarve.sensoraug import MIN_VISIBLE_FRAC
from pointcarve.shapes import SyntheticShapeSpec, gen_shape

from conftest import random_cloud


def axis_pose(vfov=math.radians(60), hfov=math.radians(60)) -> SensorPose:
    # Sensor on +z looking down at the origin; right = +x, up = +y.
    return SensorPose(
        position=np.array([0.0, 0.0, 1.0]),
        view=np.array([0.0, 0.0, -1.0]),
        up=np.array([0.0, 1.0, 0.0]),
        vfov=vfov,
        hfov=hfov,
    )


class TestRandomSensor:
    """Poses from `draw_pose` with a freshly seeded generator."""

    def test_deterministic(self):
        a = draw_pose(np.random.default_rng(5))
        b = draw_pose(np.random.default_rng(5))
        np.testing.assert_array_equal(a.position, b.position)
        np.testing.assert_array_equal(a.up, b.up)

    def test_looks_at_origin(self):
        pose = draw_pose(np.random.default_rng(11))
        np.testing.assert_allclose(pose.view, -pose.position, atol=1e-12)

    def test_unit_sphere_statistics(self):
        positions = np.array(
            [draw_pose(np.random.default_rng(seed)).position for seed in range(10_000)]
        )
        norms = np.linalg.norm(positions, axis=1)
        assert abs(norms.mean() - 1.0) < 1e-12
        # Per-octant counts within 5 sigma of the uniform binomial expectation.
        octant = (positions[:, 0] > 0) * 4 + (positions[:, 1] > 0) * 2 + (positions[:, 2] > 0)
        counts = np.bincount(octant, minlength=8)
        expected = 10_000 / 8
        sigma = math.sqrt(10_000 * (1 / 8) * (7 / 8))
        assert np.all(np.abs(counts - expected) <= 5 * sigma)

    def test_up_orthogonal(self):
        for seed in range(50):
            pose = draw_pose(np.random.default_rng(seed))
            assert abs(pose.view @ pose.up) < 1e-9


class TestFrustumCull:
    def test_origin_always_inside(self):
        for seed in range(10):
            pose = draw_pose(np.random.default_rng(seed))
            idx = frustum_cull(PointCloud(np.zeros((1, 3))), pose)
            assert list(idx) == [0]

    def test_point_behind_sensor_excluded(self):
        pose = axis_pose()
        behind = PointCloud(np.array([[0.0, 0.0, 2.0]]))
        assert len(frustum_cull(behind, pose)) == 0

    def test_half_fov_boundary_included(self):
        pose = axis_pose()
        tan_h = math.tan(pose.hfov / 2)
        depth = 0.8
        boundary = np.array([[tan_h * depth, 0.0, 1.0 - depth]])
        just_outside = np.array([[tan_h * depth * (1 + 1e-9), 0.0, 1.0 - depth]])
        assert list(frustum_cull(PointCloud(boundary), pose)) == [0]
        assert len(frustum_cull(PointCloud(just_outside), pose)) == 0


class TestVisiblePoints:
    def test_two_points_one_ray(self):
        pose = axis_pose()
        near = [0.0, 0.0, 0.5]   # depth 0.5
        far = [0.0, 0.0, -0.4]   # depth 1.4, same pixel
        cloud = PointCloud(np.array([near, far]))
        cfg = VisibilityConfig(resolution=64, depth_eps=0.01)
        assert list(visible_points(cloud, pose, cfg)) == [0]
        # A tolerance beyond their gap keeps both.
        cfg_loose = VisibilityConfig(resolution=64, depth_eps=1.0)
        assert list(visible_points(cloud, pose, cfg_loose)) == [0, 1]

    def test_single_point_visible(self):
        pose = axis_pose()
        cloud = PointCloud(np.array([[0.01, -0.02, 0.1]]))
        assert len(visible_points(cloud, pose)) == 1

    def test_huge_eps_reduces_to_frustum(self, rng):
        cloud = random_cloud(rng, 300, -0.5, 0.5)
        pose = draw_pose(np.random.default_rng(3))
        cfg = VisibilityConfig(resolution=32, depth_eps=1e9)
        np.testing.assert_array_equal(
            visible_points(cloud, pose, cfg), frustum_cull(cloud, pose)
        )

    def test_subset_of_frustum(self, rng):
        for seed in range(5):
            cloud = random_cloud(rng, 200, -0.5, 0.5)
            pose = draw_pose(np.random.default_rng(seed))
            vis = set(visible_points(cloud, pose))
            frus = set(frustum_cull(cloud, pose))
            assert vis <= frus

    def test_eps_monotonicity(self, rng):
        cloud = random_cloud(rng, 200, -0.5, 0.5)
        pose = draw_pose(np.random.default_rng(9))
        small = set(visible_points(cloud, pose, VisibilityConfig(64, 0.005)))
        large = set(visible_points(cloud, pose, VisibilityConfig(64, 0.05)))
        assert small <= large

    def test_resolution_refinement_keeps_minima(self, rng):
        # A pixel's unique depth minimum at resolution R stays visible at 2R.
        for seed in range(5):
            cloud = random_cloud(rng, 300, -0.5, 0.5)
            pose = draw_pose(np.random.default_rng(seed + 20))
            eps = 0.01
            coarse = set(visible_points(cloud, pose, VisibilityConfig(32, eps)))
            fine = set(visible_points(cloud, pose, VisibilityConfig(64, eps)))
            # minima of coarse pixels: approximate as points visible with tiny eps
            minima = set(visible_points(cloud, pose, VisibilityConfig(32, 1e-12)))
            assert minima <= fine


class TestGeneratePartials:
    def test_t_partials(self):
        gt, _ = gen_shape(SyntheticShapeSpec("sphere", count=1024, seed=0))
        partials = generate_partials(gt, 2, seed=1)
        assert len(partials) == 2

    def test_subset_property(self):
        gt, _ = gen_shape(SyntheticShapeSpec("torus", count=1024, seed=1))
        for partial in generate_partials(gt, 3, seed=2):
            gt_set = {tuple(p) for p in gt.points}
            assert all(tuple(p) in gt_set for p in partial.points)

    def test_deterministic(self):
        gt, _ = gen_shape(SyntheticShapeSpec("box", count=512, seed=2))
        a = generate_partials(gt, 2, seed=3)
        b = generate_partials(gt, 2, seed=3)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.points, pb.points)

    def test_min_fraction_enforced(self):
        gt, _ = gen_shape(SyntheticShapeSpec("sphere", count=512, seed=3))
        for partial in generate_partials(gt, 4, seed=4):
            assert len(partial) >= MIN_VISIBLE_FRAC * len(gt)

