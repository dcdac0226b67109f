"""K-means over query embeddings with automatic elbow selection of K.

Centroids are fitted once offline and frozen; the online phase only reads them
for nearest-centroid lookup.

Centroid file layout (``tierroute-centroids-v1``): an arrays file (see
``formats``) whose header holds k, dim, seed and inertia, and whose payload is
the k x dim centroid matrix.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import BundleIntegrityError, DimensionMismatchError
from .fields import MISSING, read, typed
from .formats import header_line, payload_arrays, write_arrays


@dataclass
class ClusterModel:
    k: int
    centroids: np.ndarray   # (k, d)
    inertia: float
    seed: int

    @property
    def dim(self) -> int:
        return int(self.centroids.shape[1])


@dataclass(frozen=True)
class ClusterConfig:
    """``fixed_k`` clusters, or the elbow sweep's knee over k_min..k_max; each model is
    the best of ``restarts`` k-means runs. ``minimum``: the least value a config may give."""

    k_min: int = field(default=2, metadata={"minimum": 1})
    k_max: int = field(default=12, metadata={"minimum": 1})
    fixed_k: int | None = field(default=None, metadata={"minimum": 1})
    restarts: int = field(default=5, metadata={"minimum": 1})

    def k_range(self, n: int, where: str = "", error: type[Exception] = ValueError) -> range:
        """The Ks to fit on ``n`` points: ``fixed_k`` <= n alone, or k_min..k_max with k_max
        clamped to n and 2 <= k_min below it. ``error`` names each key as ``where`` + key."""
        if self.fixed_k is not None:
            if self.fixed_k > n:
                raise error(f"{where}fixed_k={self.fixed_k} exceeds the trace's {n} queries")
            return range(self.fixed_k, self.fixed_k + 1)
        if not 2 <= self.k_min < min(self.k_max, n):
            raise error(f"{where}k_min={self.k_min} and {where}k_max={self.k_max} must satisfy "
                        f"2 <= k_min < k_max, with k_min below the trace's {n} queries")
        return range(self.k_min, min(self.k_max, n) + 1)


# Entries of the (rows, k, d) difference that _sq_dists holds at once. Each
# distance depends only on its own row, so blocking leaves every bit unchanged
# while the temporary stays at about 0.5 MiB per thread, whatever n and k.
_BLOCK_ELEMENTS = 1 << 16


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Exact pairwise squared distances by broadcasting over row blocks, shape (n, k)."""
    n, d = points.shape
    k = centroids.shape[0]
    out = np.empty((n, k))
    step = max(1, _BLOCK_ELEMENTS // max(k * d, 1))
    for start in range(0, n, step):
        diff = points[start:start + step, None, :] - centroids[None, :, :]
        np.einsum("nkd,nkd->nk", diff, diff, out=out[start:start + step])
    return out


def _nearest(points: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray,
             screen: np.ndarray | None = None, stale=slice(None)) -> np.ndarray:
    """Nearest centroid per row, equal to ``_sq_dists(points, centroids).argmin(axis=1)``.

    ``sq_norms`` holds each row's squared norm. Candidates are screened by
    ``|c|^2 - 2 c.x`` from matrix products, which differs from the squared
    distance by the row constant ``|x|^2``. A (k, n) ``screen`` passed in keeps
    each centroid's row between calls: only the rows of the ``stale``
    centroids (all of them by default) are recomputed, so the others must
    still hold the rows of their unchanged centroids. Rows where a second
    candidate lies within a rounding band of the best, or whose screen is not
    finite, are redone with the exact kernel, so ties still break to the
    lowest index.
    """
    k = centroids.shape[0]
    cc = np.einsum("kd,kd->k", centroids, centroids)
    rows = centroids[stale] @ points.T
    rows *= -2.0
    rows += cc[stale, None]
    if screen is None:
        screen = rows
    else:
        screen[stale] = rows  # (k, n): reductions over k run along rows
    # Either form errs by at most about (2d + 6)u(|x|^2 + |c|^2) per entry (u
    # the unit roundoff, any summation order, so whichever call computed the
    # entry), and a margin over twice their sum, (8d + 16)u(|x|^2 + max|c|^2),
    # fixes the exact argmin. The band is wider than that for every d < 10^6.
    band = 1e-9 * (sq_norms + cc.max())
    close = screen <= screen.min(axis=0) + band
    # A column with one close candidate sums to that candidate's index; every
    # other column is redone below.
    labels = (np.arange(k, dtype=np.float64) @ close).astype(np.intp)
    near = np.flatnonzero(np.count_nonzero(close, axis=0) != 1)
    if near.size:
        labels[near] = _sq_dists(points[near], centroids).argmin(axis=1)
    return labels


def _own_sq_dists(points: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each row's squared distance to its own centroid, bit-equal to its ``_sq_dists`` entry."""
    diff = points - centroids[labels]
    return np.einsum("nd,nd->n", diff, diff)


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    first = rng.integers(0, n)
    centroids[0] = points[first]
    closest = _sq_dists(points, centroids[:1])[:, 0]
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            # All remaining points coincide with chosen centroids.
            idx = rng.integers(0, n)
        else:
            idx = rng.choice(n, p=closest / total)
        centroids[j] = points[idx]
        closest = np.minimum(closest, _sq_dists(points, centroids[j:j + 1])[:, 0])
    return centroids


def _lloyd(points: np.ndarray, sq_norms: np.ndarray,
           centroids: np.ndarray) -> tuple[np.ndarray, float]:
    """Lloyd steps on ``centroids`` in place, to convergence or ``_MAX_ITER``
    updates; returns them with their inertia.

    A step redoes the mean and the screen row of only the clusters it changed:
    those that a moved row left or joined, and every empty one, which is
    revived at the point farthest from its pre-update centroid. Any other
    cluster has the same members in the same order, so its kept mean and row
    are what a recomputation would give, bit for bit.
    """
    n, k = points.shape[0], centroids.shape[0]
    screen = np.empty((k, n))
    changed = np.ones(k, dtype=bool)
    labels = _nearest(points, sq_norms, centroids, screen)
    for _ in range(_MAX_ITER):
        counts = np.bincount(labels, minlength=k)
        if not counts.all():
            worst = points[_own_sq_dists(points, centroids, labels).argmax()]
            changed |= counts == 0
        stale = np.flatnonzero(changed)
        # The changed clusters' rows, stably sorted by label: each cluster's
        # slice holds its rows in input order, the order in which
        # .mean(axis=0) adds them, and the reduce and division below are that
        # mean's. (The narrowest label dtype lets NumPy radix-sort.)
        rows = np.flatnonzero(changed[labels])
        members = points[rows[np.argsort(labels[rows].astype(np.min_scalar_type(k - 1)),
                                         kind="stable")]]
        for j, stop in zip(stale, np.cumsum(counts[stale])):
            if counts[j] == 0:
                centroids[j] = worst
            else:
                np.add.reduce(members[stop - counts[j]:stop], axis=0, out=centroids[j])
                centroids[j] /= counts[j]
        new_labels = _nearest(points, sq_norms, centroids, screen, stale)
        moved = np.flatnonzero(new_labels != labels)
        if not moved.size:
            break
        changed = np.zeros(k, dtype=bool)
        changed[labels[moved]] = True
        changed[new_labels[moved]] = True
        labels = new_labels
    # Either exit leaves ``labels`` the exact assignment to the final centroids.
    return centroids, float(_own_sq_dists(points, centroids, labels).sum())


_MAX_ITER = 300


def _checked_points(embeddings: np.ndarray, restarts: int) -> np.ndarray:
    """The embeddings as a float64 matrix, after the checks every fit needs."""
    points = np.asarray(embeddings, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("embeddings must be a non-empty (n, d) matrix")
    if not np.all(np.isfinite(points)):
        raise ValueError("embeddings must be finite")
    if restarts < 1:
        raise ValueError(f"restarts={restarts} must be >= 1")
    return points


def _fit(points: np.ndarray, k: int, seed: int, restarts: int) -> ClusterModel:
    """``kmeans_fit`` on checked points; calls only private helpers, so it may run on any thread."""
    sq_norms = np.einsum("nd,nd->n", points, points)
    rng = np.random.default_rng(seed)
    best_centroids = None
    best_inertia = np.inf
    for _ in range(restarts):
        centroids = _kmeanspp_init(points, k, rng).copy()
        centroids, inertia = _lloyd(points, sq_norms, centroids)
        if inertia < best_inertia:
            best_inertia = inertia
            best_centroids = centroids
    return ClusterModel(k=k, centroids=best_centroids, inertia=best_inertia, seed=seed)


def kmeans_fit(embeddings: np.ndarray, k: int, seed: int, *,
               restarts: int = ClusterConfig.restarts) -> ClusterModel:
    """Best-of-``restarts`` Lloyd runs from k-means++ seeding; seed-deterministic."""
    points = _checked_points(embeddings, restarts)
    n = points.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"k={k} must lie in [1, n={n}]")
    return _fit(points, k, seed, restarts)


# Embedding entries (n * d) per sweep thread. With less work per Lloyd step
# than this, the step is mostly interpreter time under the GIL, and a second
# thread slows the sweep (two threads took 1.5x as long as one at n=1000, d=12).
_ENTRIES_PER_THREAD = 1 << 15

# Variables from which BLAS libraries take their thread count, in the order
# they are read. Where none is set, the BLAS runs one thread per CPU.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _sweep_workers(n_ks: int, entries: int) -> int:
    """Threads for the elbow sweep: one per CPU that the BLAS leaves free.

    Every Lloyd step calls a matrix product, so sweep threads beside a BLAS
    that already runs a thread per CPU oversubscribe the machine (a sweep over
    10k queries, d=32, took 9.6 s on two threads against 7.6 s on one with
    OpenBLAS unpinned on two CPUs).
    The count is further capped at one thread per k and per
    ``_ENTRIES_PER_THREAD`` embedding entries.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    pinned = [os.environ.get(var, "") for var in _BLAS_THREAD_VARS]
    blas = next((int(v) for v in pinned if v.isdigit() and int(v) > 0), cpus)
    return max(1, min(n_ks, cpus // blas, entries // _ENTRIES_PER_THREAD))


def _sweep(points: np.ndarray, ks: range, seed: int, restarts: int) -> list[ClusterModel]:
    """One ``_fit`` per k, in k order, on ``_sweep_workers`` threads.

    NumPy releases the GIL in the matrix products, ufuncs, reductions and
    gathers of a Lloyd step, so the fits overlap. Each starts from its own
    ``default_rng(seed)`` and the screened assignment is exact, so every
    model is the same for any number of threads.
    """
    workers = _sweep_workers(len(ks), points.size)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda k: _fit(points, k, seed, restarts), ks))


def knee_point(ks: np.ndarray, inertias: np.ndarray) -> int:
    """k with maximum perpendicular distance to the chord of the normalized curve.

    Both axes are scaled to [0, 1] first; a perfectly linear curve has zero
    distance everywhere and falls back to the smallest k.
    """
    ks = np.asarray(ks, dtype=np.float64)
    inertias = np.asarray(inertias, dtype=np.float64)
    span = inertias.max() - inertias.min()
    if span <= 0:
        return int(ks[0])
    xs = (ks - ks[0]) / (ks[-1] - ks[0])
    ys = (inertias - inertias.min()) / span
    ax, ay = xs[0], ys[0]
    bx, by = xs[-1], ys[-1]
    chord = np.hypot(bx - ax, by - ay)
    dists = np.abs((bx - ax) * (ay - ys) - (ax - xs) * (by - ay)) / chord
    # Snap rounding dust to zero so exactly-linear curves tie-break to k_min.
    dists[dists < 1e-12] = 0.0
    return int(ks[int(np.argmax(dists))])


def elbow_sweep(embeddings: np.ndarray, k_min: int = ClusterConfig.k_min,
                k_max: int = ClusterConfig.k_max, seed: int = 0, *,
                restarts: int = ClusterConfig.restarts) -> list[ClusterModel]:
    """The ``kmeans_fit`` model of every k in ``ClusterConfig.k_range``, in k order."""
    points = _checked_points(embeddings, restarts)
    ks = ClusterConfig(k_min, k_max).k_range(points.shape[0])
    return _sweep(points, ks, seed, restarts)


def elbow_select_k(models: list[ClusterModel]) -> int:
    """The knee of a sweep's inertia curve."""
    return knee_point(np.array([m.k for m in models]), np.array([m.inertia for m in models]))


def assign_batch(model: ClusterModel, embeddings: np.ndarray) -> np.ndarray:
    """Index of the Euclidean-nearest centroid per row; ties break to the lowest index."""
    points = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    if points.shape[1] != model.dim:
        raise DimensionMismatchError(
            f"embedding dim {points.shape[1]} != centroid dim {model.dim}"
        )
    return _nearest(points, np.einsum("nd,nd->n", points, points), model.centroids)


# ---------------------------------------------------------------------------
# Centroid IO
# ---------------------------------------------------------------------------

_CENTROID_FORMAT = "tierroute-centroids-v1"


def save_centroids(model: ClusterModel, path: str | Path) -> None:
    header = {"format": _CENTROID_FORMAT, "k": model.k, "dim": model.dim, "seed": model.seed,
              "inertia": model.inertia}
    write_arrays(path, header, model.centroids)


def load_centroids(path: str | Path) -> ClusterModel:
    error = BundleIntegrityError
    header, body = header_line(path, _CENTROID_FORMAT, error)
    k, dim = (typed(header.get(key, MISSING), int, f"{path}: header.{key}", error, minimum=1)
              for key in ("k", "dim"))
    (centroids,) = payload_arrays(path, body, error, centroids=k * dim)
    return read(ClusterModel, header, f"{path}: header", error=error,
                centroids=centroids.reshape(k, dim))
