"""Chamfer distance against the brute-force oracle, and the loss terms."""

import numpy as np
import pytest

from pointcarve import (
    LossBreakdown,
    PointCloud,
    chamfer,
    chamfer_and_grad,
    chamfer_grad,
    loss_comp,
    loss_sim,
)
from pointcarve.gradcheck import check_chamfer

from conftest import random_cloud


def brute_force_chamfer(a: np.ndarray, b: np.ndarray) -> float:
    """O(n^2) oracle with the same per-pair arithmetic as the implementation."""
    d_ab = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return float(d_ab.min(axis=1).mean() + d_ab.min(axis=0).mean())


class TestChamfer:
    def test_identical_clouds_zero(self, rng):
        cloud = random_cloud(rng, 60)
        assert chamfer(cloud, cloud) == 0.0

    def test_singleton_hand_value(self):
        x1 = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        x2 = PointCloud(np.array([[1.0, 0.0, 0.0]]))
        assert chamfer(x1, x2) == pytest.approx(2.0)

    def test_matches_brute_force_exactly(self, rng):
        for _ in range(50):
            n1 = int(rng.integers(1, 201))
            n2 = int(rng.integers(1, 201))
            a = random_cloud(rng, n1, -1, 1)
            b = random_cloud(rng, n2, -1, 1)
            assert chamfer(a, b) == brute_force_chamfer(a.points, b.points)

    def test_symmetry(self, rng):
        a, b = random_cloud(rng, 40), random_cloud(rng, 55)
        assert chamfer(a, b) == chamfer(b, a)

    def test_permutation_invariance(self, rng):
        a, b = random_cloud(rng, 30), random_cloud(rng, 30)
        ap = PointCloud(a.points[rng.permutation(30)])
        bp = PointCloud(b.points[rng.permutation(30)])
        assert chamfer(a, b) == pytest.approx(chamfer(ap, bp), abs=1e-12)

    def test_rigid_motion_invariance(self, rng):
        a, b = random_cloud(rng, 50), random_cloud(rng, 45)
        theta = 0.7
        rot = np.array(
            [
                [np.cos(theta), -np.sin(theta), 0],
                [np.sin(theta), np.cos(theta), 0],
                [0, 0, 1],
            ]
        )
        shift = np.array([0.3, -1.2, 2.0])
        am = PointCloud(a.points @ rot.T + shift)
        bm = PointCloud(b.points @ rot.T + shift)
        assert chamfer(am, bm) == pytest.approx(chamfer(a, b), abs=1e-9)

    def test_nonnegative(self, rng):
        for _ in range(10):
            assert chamfer(random_cloud(rng, 20), random_cloud(rng, 25)) >= 0.0

    def test_empty_errors(self, rng):
        with pytest.raises(ValueError, match="empty input"):
            chamfer(PointCloud.empty(), random_cloud(rng, 4))


class TestChamferGrad:
    def test_identical_clouds_zero_grad(self, rng):
        cloud = random_cloud(rng, 25)
        g1, g2 = chamfer_grad(cloud, cloud)
        np.testing.assert_array_equal(g1, 0.0)
        np.testing.assert_array_equal(g2, 0.0)

    def test_singleton_hand_gradient(self):
        # Both CD direction terms pull the lone point toward (1, 0, 0).
        x1 = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        x2 = PointCloud(np.array([[1.0, 0.0, 0.0]]))
        g1, g2 = chamfer_grad(x1, x2)
        np.testing.assert_allclose(g1, [[-4.0, 0.0, 0.0]])
        np.testing.assert_allclose(g2, [[4.0, 0.0, 0.0]])

    def test_matches_finite_differences(self):
        result = check_chamfer(seed=42, instances=5)
        assert result.passed, f"max rel err {result.max_rel_err}"

    def test_upstream_scaling(self, rng):
        a, b = random_cloud(rng, 12), random_cloud(rng, 9)
        g1, _ = chamfer_grad(a, b, upstream=1.0)
        g1s, _ = chamfer_grad(a, b, upstream=-2.5)
        np.testing.assert_allclose(g1s, -2.5 * g1, atol=1e-15)


class TestChamferAndGrad:
    def test_equals_chamfer_and_reference_gradient(self, rng):
        for _ in range(20):
            p1 = rng.uniform(-1, 1, (int(rng.integers(1, 120)), 3))
            p2 = rng.uniform(-1, 1, (int(rng.integers(1, 120)), 3))
            upstream = float(rng.uniform(-2, 2))
            cd, g1, g2 = chamfer_and_grad(PointCloud(p1), PointCloud(p2), upstream)
            assert cd == chamfer(PointCloud(p1), PointCloud(p2))
            # Brute-force matching, then the gradient arithmetic written out.
            d = ((p1[:, None, :] - p2[None, :, :]) ** 2).sum(axis=2)
            idx12, idx21 = d.argmin(axis=1), d.argmin(axis=0)
            t1 = 2.0 * (p1 - p2[idx12]) / len(p1)
            t2 = 2.0 * (p2 - p1[idx21]) / len(p2)
            r1, r2 = t1.copy(), t2.copy()
            np.add.at(r1, idx21, -t2)
            np.add.at(r2, idx12, -t1)
            np.testing.assert_array_equal(g1, upstream * r1)
            np.testing.assert_array_equal(g2, upstream * r2)
            h1, h2 = chamfer_grad(PointCloud(p1), PointCloud(p2), upstream)
            np.testing.assert_array_equal(h1, g1)
            np.testing.assert_array_equal(h2, g2)

    def test_one_tree_per_direction(self, rng, monkeypatch):
        import pointcarve.losses as losses

        built = []
        real = losses.cKDTree
        monkeypatch.setattr(losses, "cKDTree", lambda pts: built.append(1) or real(pts))
        chamfer_and_grad(random_cloud(rng, 30), random_cloud(rng, 20))
        assert len(built) == 2

    def test_empty_errors(self, rng):
        with pytest.raises(ValueError, match="empty input"):
            chamfer_and_grad(random_cloud(rng, 3), PointCloud.empty())


class TestLossTerms:
    def test_comp_zero_when_all_equal(self, rng):
        g = random_cloud(rng, 30)
        assert loss_comp(g, g, g) == 0.0

    def test_comp_reduces_to_dense_term(self, rng):
        g = random_cloud(rng, 20)
        q = PointCloud(g.points + 0.01)
        assert loss_comp(g, q, g) == pytest.approx(chamfer(q, g), abs=1e-15)

    def test_comp_nonnegative(self, rng):
        c, q, g = (random_cloud(rng, n) for n in (10, 20, 15))
        assert loss_comp(c, q, g) >= 0.0

    def test_sim_zero_for_identical_variants(self, rng):
        c, q = random_cloud(rng, 12), random_cloud(rng, 24)
        assert loss_sim([c, c], [q, q], c, q) == 0.0

    def test_sim_is_sum_of_pair_cds(self, rng):
        c = random_cloud(rng, 10)
        q = random_cloud(rng, 10)
        c1, c2 = random_cloud(rng, 10), random_cloud(rng, 10)
        q1, q2 = random_cloud(rng, 10), random_cloud(rng, 10)
        expected = chamfer(c1, c) + chamfer(q1, q) + chamfer(c2, c) + chamfer(q2, q)
        assert loss_sim([c1, c2], [q1, q2], c, q) == pytest.approx(expected, abs=1e-15)

    def test_sim_monotone_in_variants(self, rng):
        c, q = random_cloud(rng, 10), random_cloud(rng, 10)
        c1, q1 = random_cloud(rng, 10), random_cloud(rng, 10)
        c2, q2 = random_cloud(rng, 10), random_cloud(rng, 10)
        one = loss_sim([c1], [q1], c, q)
        two = loss_sim([c1, c2], [q1, q2], c, q)
        assert two >= one

    def test_breakdown_total(self):
        loss = LossBreakdown(comp=1.25, sim=0.5, alpha=0.5, cd_coarse=1.0, cd_dense=0.25)
        assert loss.total == pytest.approx(1.25 + 0.5 * 0.5, abs=1e-12)
