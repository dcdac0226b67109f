import numpy as np
import pytest

from tierroute.cluster import (
    assign,
    assign_batch,
    elbow_select_k,
    kmeans_fit,
    knee_point,
    load_centroids,
    save_centroids,
)
from tierroute.errors import BundleIntegrityError, DimensionMismatchError
from tierroute.trace import SyntheticConfig, generate_synthetic_trace


def two_clouds(seed=0, per_cloud=300, std=0.5):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0, 0.0, 0.0], [10.0, 10.0, -10.0, 10.0]])
    a = centers[0] + rng.normal(0, std, size=(per_cloud, 4))
    b = centers[1] + rng.normal(0, std, size=(per_cloud, 4))
    return np.vstack([a, b]), centers, (a.mean(axis=0), b.mean(axis=0))


class TestKmeansFit:
    def test_k1_is_global_mean(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(100, 5))
        model = kmeans_fit(points, 1, seed=0)
        assert np.allclose(model.centroids[0], points.mean(axis=0), atol=1e-12)

    def test_k_equals_n_zero_inertia(self):
        points = np.arange(12, dtype=float).reshape(6, 2)
        model = kmeans_fit(points, 6, seed=0)
        assert model.inertia == pytest.approx(0.0, abs=1e-12)

    def test_two_clouds_recovered(self):
        points, centers, cloud_means = two_clouds()
        model = kmeans_fit(points, 2, seed=3)
        # Match each centroid to its nearest true center.
        order = np.argsort(model.centroids[:, 0])
        found = model.centroids[order]
        assert np.linalg.norm(found[0] - centers[0]) < 0.1
        assert np.linalg.norm(found[1] - centers[1]) < 0.1
        # Final Lloyd centroids are exactly the empirical means of their clouds.
        assert np.allclose(found[0], cloud_means[0], atol=1e-9)
        assert np.allclose(found[1], cloud_means[1], atol=1e-9)

    def test_deterministic(self):
        points, _, _ = two_clouds(seed=5)
        m1 = kmeans_fit(points, 3, seed=11)
        m2 = kmeans_fit(points, 3, seed=11)
        assert np.array_equal(m1.centroids, m2.centroids)
        assert m1.inertia == m2.inertia

    def test_k_greater_than_n_rejected(self):
        with pytest.raises(ValueError, match="k="):
            kmeans_fit(np.zeros((3, 2)) + np.arange(3)[:, None], 4, seed=0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            kmeans_fit(np.zeros((0, 2)), 1, seed=0)


class TestElbow:
    def test_knee_prefers_corner(self):
        ks = np.arange(2, 11)
        # Hockey-stick curve with the bend at k=4.
        inertias = np.array([100.0, 60.0, 20.0, 18.0, 16.0, 14.0, 12.0, 10.0, 8.0])
        assert knee_point(ks, inertias) == 4

    def test_linear_curve_falls_back_to_k_min(self):
        ks = np.arange(2, 8)
        inertias = np.linspace(50.0, 10.0, 6)
        assert knee_point(ks, inertias) == 2

    def test_flat_curve_falls_back_to_k_min(self):
        ks = np.arange(2, 6)
        assert knee_point(ks, np.full(4, 7.0)) == 2

    def test_three_latent_clusters(self):
        cfg = SyntheticConfig(n_queries=900, embedding_dim=12, n_latent_clusters=3,
                              seed=21, cluster_separation=12.0)
        trace, _ = generate_synthetic_trace(cfg)
        assert elbow_select_k(trace.embeddings, 2, 10, seed=0) == 3

    def test_five_latent_clusters(self):
        cfg = SyntheticConfig(n_queries=1500, embedding_dim=12, n_latent_clusters=5,
                              seed=22, cluster_separation=12.0)
        trace, _ = generate_synthetic_trace(cfg)
        assert elbow_select_k(trace.embeddings, 2, 10, seed=0) == 5

    def test_invalid_range(self):
        points = np.random.default_rng(0).normal(size=(20, 3))
        with pytest.raises(ValueError):
            elbow_select_k(points, 5, 5, seed=0)

    def test_inertia_monotone_over_sweep(self):
        points, _, _ = two_clouds(seed=9, per_cloud=150)
        inertias = [kmeans_fit(points, k, seed=2).inertia for k in range(2, 9)]
        for lo, hi in zip(inertias[1:], inertias[:-1]):
            assert lo <= hi + 1e-9


class TestAssign:
    def test_exact_centroid_hits_own_index(self):
        points, _, _ = two_clouds(seed=2)
        model = kmeans_fit(points, 2, seed=0)
        for k in range(2):
            assert assign(model, model.centroids[k]) == k

    def test_tie_breaks_to_lowest_index(self):
        model = kmeans_fit(np.array([[0.0], [2.0]]), 2, seed=0)
        order = np.argsort(model.centroids[:, 0])
        # Midpoint is equidistant; the lower index must win.
        assert assign(model, np.array([1.0])) == min(order[0], order[1])

    def test_dimension_mismatch(self):
        model = kmeans_fit(np.zeros((4, 3)) + np.arange(4)[:, None], 2, seed=0)
        with pytest.raises(DimensionMismatchError):
            assign(model, np.zeros(2))

    def test_purity_on_synthetic(self):
        cfg = SyntheticConfig(n_queries=800, embedding_dim=10, n_latent_clusters=4,
                              seed=33, cluster_separation=12.0)
        trace, truth = generate_synthetic_trace(cfg)
        model = kmeans_fit(trace.embeddings, 4, seed=1)
        got = assign_batch(model, trace.embeddings)
        purity = sum(
            np.bincount(truth.cluster_of[got == j], minlength=4).max()
            for j in range(4) if np.any(got == j)
        ) / len(trace)
        assert purity >= 0.95


class TestCentroidIO:
    def test_round_trip(self, tmp_path):
        points, _, _ = two_clouds(seed=4)
        model = kmeans_fit(points, 2, seed=7)
        path = tmp_path / "c.bin"
        save_centroids(model, path)
        loaded = load_centroids(path)
        assert loaded.k == 2 and loaded.seed == 7
        assert np.array_equal(loaded.centroids, model.centroids)
        again = tmp_path / "c2.bin"
        save_centroids(loaded, again)
        assert path.read_bytes() == again.read_bytes()

    def test_corrupt_payload_rejected(self, tmp_path):
        points, _, _ = two_clouds(seed=4)
        model = kmeans_fit(points, 2, seed=7)
        path = tmp_path / "c.bin"
        save_centroids(model, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(BundleIntegrityError, match="payload"):
            load_centroids(path)
