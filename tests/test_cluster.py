import importlib
import inspect
import os
import pkgutil
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import tierroute
from tierroute import cluster
from tierroute.cluster import (
    ClusterModel,
    assign_batch,
    elbow_select_k,
    elbow_sweep,
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

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_restarts_below_one_rejected(self, restarts):
        points, _, _ = two_clouds(seed=1, per_cloud=20)
        with pytest.raises(ValueError, match=f"restarts={restarts} must be >= 1"):
            kmeans_fit(points, 2, seed=0, restarts=restarts)
        with pytest.raises(ValueError, match=f"restarts={restarts} must be >= 1"):
            elbow_sweep(points, 2, 4, seed=0, restarts=restarts)


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
        assert elbow_select_k(elbow_sweep(trace.embeddings, 2, 10, seed=0)) == 3

    def test_five_latent_clusters(self):
        cfg = SyntheticConfig(n_queries=1500, embedding_dim=12, n_latent_clusters=5,
                              seed=22, cluster_separation=12.0)
        trace, _ = generate_synthetic_trace(cfg)
        assert elbow_select_k(elbow_sweep(trace.embeddings, 2, 10, seed=0)) == 5

    def test_invalid_range(self):
        points = np.random.default_rng(0).normal(size=(20, 3))
        with pytest.raises(ValueError):
            elbow_sweep(points, 5, 5, seed=0)

    def test_inertia_monotone_over_sweep(self):
        points, _, _ = two_clouds(seed=9, per_cloud=150)
        inertias = [kmeans_fit(points, k, seed=2).inertia for k in range(2, 9)]
        for lo, hi in zip(inertias[1:], inertias[:-1]):
            assert lo <= hi + 1e-9


class TestAssign:
    def test_exact_centroid_hits_own_index(self):
        points, _, _ = two_clouds(seed=2)
        model = kmeans_fit(points, 2, seed=0)
        assert np.array_equal(assign_batch(model, model.centroids), [0, 1])

    def test_tie_breaks_to_lowest_index(self):
        model = kmeans_fit(np.array([[0.0], [2.0]]), 2, seed=0)
        order = np.argsort(model.centroids[:, 0])
        # Midpoint is equidistant; the lower index must win.
        assert assign_batch(model, np.array([1.0]))[0] == min(order[0], order[1])

    def test_dimension_mismatch(self):
        model = kmeans_fit(np.zeros((4, 3)) + np.arange(4)[:, None], 2, seed=0)
        with pytest.raises(DimensionMismatchError):
            assign_batch(model, np.zeros(2))

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


# Reference: the broadcast k-means every assignment step used before the
# matrix-product screen. The fast path must reproduce it bit for bit.

def reference_sq_dists(points, centroids):
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def reference_assign_batch(centroids, points):
    return reference_sq_dists(points, centroids).argmin(axis=1)


def reference_kmeanspp_init(points, k, rng):
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(0, n)]
    closest = reference_sq_dists(points, centroids[:1])[:, 0]
    for j in range(1, k):
        total = closest.sum()
        idx = rng.integers(0, n) if total <= 0 else rng.choice(n, p=closest / total)
        centroids[j] = points[idx]
        closest = np.minimum(closest, reference_sq_dists(points, centroids[j:j + 1])[:, 0])
    return centroids


def reference_lloyd(points, centroids, max_iter, revived):
    labels = np.full(points.shape[0], -1)
    for _ in range(max_iter):
        dists = reference_sq_dists(points, centroids)
        new_labels = dists.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(centroids.shape[0]):
            members = points[labels == j]
            if members.shape[0] == 0:
                revived.append(j)
                worst = dists[np.arange(points.shape[0]), labels].argmax()
                centroids[j] = points[worst]
            else:
                centroids[j] = members.mean(axis=0)
    dists = reference_sq_dists(points, centroids)
    labels = dists.argmin(axis=1)
    return centroids, float(dists[np.arange(points.shape[0]), labels].sum())


def reference_fit(points, k, seed, restarts=5, max_iter=300):
    """(centroids, inertia, empty-cluster revivals) of the broadcast k-means."""
    rng = np.random.default_rng(seed)
    best_centroids, best_inertia, revived = None, np.inf, []
    for _ in range(restarts):
        centroids = reference_kmeanspp_init(points, k, rng).copy()
        centroids, inertia = reference_lloyd(points, centroids, max_iter, revived)
        if inertia < best_inertia:
            best_centroids, best_inertia = centroids, inertia
    return best_centroids, best_inertia, len(revived)


def lattice(side, offset=0.0):
    axis = np.arange(side, dtype=float)
    return np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2) + offset


def gaussian_clouds(seed, n, d, offset=0.0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 4.0, size=(4, d))
    return centers[rng.integers(0, 4, n)] + rng.normal(size=(n, d)) + offset


class TestMatchesBroadcastReference:
    def assert_fit_matches(self, points, k, seed):
        model = kmeans_fit(points, k, seed)
        centroids, inertia, revived = reference_fit(points, k, seed)
        assert np.array_equal(model.centroids, centroids)
        assert model.inertia == inertia
        queries = np.vstack([points, gaussian_clouds(seed, 50, points.shape[1],
                                                     offset=points.mean())])
        assert np.array_equal(assign_batch(model, queries),
                              reference_assign_batch(model.centroids, queries))
        return revived

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_gaussian_clouds(self, seed, k):
        self.assert_fit_matches(gaussian_clouds(seed, 400, 6), k, seed)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_lattice_ties(self, offset, k):
        for seed in range(3):
            self.assert_fit_matches(lattice(7, offset), k, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_offset_clouds(self, seed):
        self.assert_fit_matches(gaussian_clouds(seed, 1500, 8, offset=1e6), 6, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_duplicates_force_revive(self, seed):
        rng = np.random.default_rng(seed)
        points = np.repeat(rng.normal(size=(3, 4)), 10, axis=0)
        assert self.assert_fit_matches(points, 5, seed) > 0

    def test_k1_and_k_equals_n(self):
        points = gaussian_clouds(9, 30, 3)
        for offset in (0.0, 1e6):
            self.assert_fit_matches(points + offset, 1, 0)
            self.assert_fit_matches(points + offset, 30, 0)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_equidistant_points_take_lowest_index(self, offset):
        # Every query is equidistant from centroids 0 and 2 and farther from 1.
        centroids = np.array([[2.0, 0.0], [9.0, 9.0], [0.0, 0.0], [1.0, -40.0]]) + offset
        model = ClusterModel(k=4, centroids=centroids, inertia=0.0, seed=0)
        queries = np.column_stack([np.ones(200), np.linspace(-5.0, 5.0, 200)]) + offset
        assert np.array_equal(assign_batch(model, queries), np.zeros(200, dtype=int))
        assert np.array_equal(assign_batch(model, queries),
                              reference_assign_batch(centroids, queries))
        lattice_model = ClusterModel(k=4, centroids=lattice(2, offset) + 0.5, inertia=0.0,
                                     seed=0)
        grid = lattice(4, offset)
        assert np.array_equal(assign_batch(lattice_model, grid),
                              reference_assign_batch(lattice_model.centroids, grid))


def pin_usable_cpus(monkeypatch, cpus, blas_threads=1):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    for var in cluster._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    if blas_threads is not None:
        monkeypatch.setenv("OMP_NUM_THREADS", str(blas_threads))


class TestConcurrentSweep:
    """The elbow sweep's thread pool changes neither a bit of its models nor the calling thread."""

    KS = range(2, 9)

    @pytest.fixture
    def points(self):
        return gaussian_clouds(3, 1200, 8)

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The ``max_workers`` of every pool the sweep opens."""
        sizes = []

        def recording_pool(max_workers):
            sizes.append(max_workers)
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(cluster, "ThreadPoolExecutor", recording_pool)
        return sizes

    def test_same_models_for_any_thread_count(self, monkeypatch, points, pool_sizes):
        serial = [kmeans_fit(points, k, seed=5, restarts=3) for k in self.KS]
        serial_k = knee_point(np.array(self.KS), np.array([m.inertia for m in serial]))
        monkeypatch.setattr(cluster, "_ENTRIES_PER_THREAD", 1)
        for cpus in (1, 4):
            pin_usable_cpus(monkeypatch, cpus)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave the fits as finely as possible
            try:
                models = cluster._sweep(points, self.KS, 5, 3)
            finally:
                sys.setswitchinterval(interval)
            assert [m.k for m in models] == list(self.KS)
            for model, ref in zip(models, serial):
                assert np.array_equal(model.centroids, ref.centroids)
                assert model.inertia == ref.inertia
            assert elbow_select_k(elbow_sweep(points, 2, 8, seed=5, restarts=3)) == serial_k
        assert pool_sizes == [1, 1, 4, 4]

    @pytest.mark.parametrize("blas_vars, n_ks, entries, expected", [
        ({"OMP_NUM_THREADS": "1"}, 11, 1 << 20, 4),
        ({"OMP_NUM_THREADS": "1"}, 3, 1 << 20, 3),               # one thread per k
        ({"OMP_NUM_THREADS": "1"}, 11, 2 << 15, 2),              # per 2^15 entries
        ({"OMP_NUM_THREADS": "1"}, 11, 9_600, 1),
        ({}, 11, 1 << 20, 1),                                    # BLAS takes every CPU
        ({"OMP_NUM_THREADS": "2"}, 11, 1 << 20, 2),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 11, 1 << 20, 4),
        ({"MKL_NUM_THREADS": "8"}, 11, 1 << 20, 1),
        ({"OMP_NUM_THREADS": "auto"}, 11, 1 << 20, 1),           # unreadable: as unset
    ])
    def test_pool_size(self, monkeypatch, blas_vars, n_ks, entries, expected):
        pin_usable_cpus(monkeypatch, 4, blas_threads=None)
        for var, value in blas_vars.items():
            monkeypatch.setenv(var, value)
        assert cluster._sweep_workers(n_ks, entries) == expected

    def test_pool_gets_its_size(self, monkeypatch, points, pool_sizes):
        pin_usable_cpus(monkeypatch, 64)
        elbow_sweep(points, 2, 4, seed=0, restarts=1)
        monkeypatch.setattr(cluster, "_ENTRIES_PER_THREAD", 1)
        elbow_sweep(points, 2, 4, seed=0, restarts=1)
        assert pool_sizes == [1, 3]

    def test_public_functions_stay_on_calling_thread(self, monkeypatch, points):
        # Wrap every public tierroute function where callers look it up, as
        # the benchmark's span tracer does, and record the entering thread.
        entered = []

        def wrap(fn):
            def wrapper(*args, **kwargs):
                entered.append((f"{fn.__module__}.{fn.__name__}", threading.get_ident()))
                return fn(*args, **kwargs)
            return wrapper

        modules = [tierroute] + [importlib.import_module(f"tierroute.{info.name}")
                                 for info in pkgutil.iter_modules(tierroute.__path__)]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith("tierroute.")
                        or value.__name__.startswith("_")):
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = wrap(value)
                monkeypatch.setattr(module, attr, wrappers[id(value)])
        fit_threads = []
        real_fit = cluster._fit

        def recording_fit(*args):
            fit_threads.append(threading.get_ident())
            return real_fit(*args)

        monkeypatch.setattr(cluster, "_fit", recording_fit)
        monkeypatch.setattr(cluster, "_ENTRIES_PER_THREAD", 1)
        pin_usable_cpus(monkeypatch, 4)
        threads_before = threading.active_count()
        cluster.elbow_select_k(cluster.elbow_sweep(points, 2, 8, seed=1, restarts=2))
        assert threading.active_count() == threads_before
        caller = threading.get_ident()
        assert ("tierroute.cluster.elbow_sweep", caller) in entered
        assert ("tierroute.cluster.elbow_select_k", caller) in entered
        assert ("tierroute.cluster.knee_point", caller) in entered
        assert {thread for _, thread in entered} == {caller}
        assert len(fit_threads) == len(self.KS) and caller not in fit_threads


class TestBlockedSqDists:
    @pytest.mark.parametrize("n, k, d", [(20_000, 1, 8), (3_000, 500, 6), (40, 5_000, 20),
                                         (1, 3, 4)])
    def test_equals_one_shot_broadcast(self, n, k, d):
        rng = np.random.default_rng(n + k + d)
        points = rng.normal(size=(n, d)) * rng.choice([1.0, 1e6], size=(n, 1))
        centroids = rng.normal(size=(k, d))
        assert n * k * d > cluster._BLOCK_ELEMENTS or n == 1
        assert np.array_equal(cluster._sq_dists(points, centroids),
                              reference_sq_dists(points, centroids))


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
