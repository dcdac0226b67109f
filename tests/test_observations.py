"""The columnar ObservationSet against the list-of-records set it replaced.

``ListObservationSet`` and ``list_gp_fit`` copy the record-based set and the
dict-based replicate collapse of ``gp_fit`` as they were before the set held
columns; ``list_gp_fit`` factors and solves with the same NumPy calls as
``gp_fit``, so only the collapse differs. Every fit, ``best()``, ``points`` and
the bundle's ``observations.csv`` must come out bit for bit the same.
"""

import csv
import dataclasses
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import build_state
from tierroute.bayesopt import (
    GpHyperparameters,
    GpSurrogate,
    ObservationSet,
    ThresholdPair,
    gp_fit,
    sample_triangle,
)
from tierroute.errors import GpFitError
from tierroute.network import scenario_by_name
from tierroute.router import load_bundle, save_bundle, state_checksum
from tierroute.trace import SyntheticConfig, generate_synthetic_trace

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


class ListObservationSet:
    """The record-based set: a list of (ThresholdPair, utility) tuples."""

    def __init__(self, capacity=512):
        self.capacity = capacity
        self._points = []

    def __len__(self):
        return len(self._points)

    @property
    def points(self):
        return list(self._points)

    def extend(self, pair, utilities):
        utilities = np.asarray(utilities, dtype=np.float64)[-self.capacity:]
        self._points.extend((pair, u) for u in utilities.tolist())
        if len(self._points) > self.capacity:
            del self._points[: len(self._points) - self.capacity]

    def best(self):
        best_pair, best_u = self._points[0]
        for pair, u in self._points[1:]:
            if u > best_u:
                best_pair, best_u = pair, u
        return best_pair, best_u

    def arrays(self):
        x = np.array([[p.tau1, p.tau2] for p, _ in self._points])
        y = np.array([u for _, u in self._points])
        return x, y


def list_gp_fit(obs, hypers, max_jitter=1e-4):
    """gp_fit with the replicate collapse done by a dict over the rows."""
    x, y = obs.arrays()
    y_mean = float(y.mean())
    y_std = float(y.std())
    if y_std < 1e-12:
        y_std = 1.0
    z = (y - y_mean) / y_std
    slot = {}
    inverse = np.array([slot.setdefault(key, len(slot)) for key in map(tuple, x.tolist())])
    x_distinct = np.array(list(slot))
    counts = np.bincount(inverse)
    z_bar = np.bincount(inverse, weights=z) / counts
    d2 = ((x_distinct[:, None, :] - x_distinct[None, :, :]) ** 2).sum(axis=2)
    k = hypers.signal_variance * np.exp(-d2 / (2.0 * hypers.length_scale ** 2))
    jitter = 0.0
    while True:
        noise = (hypers.noise_variance + jitter) / counts
        try:
            chol = np.linalg.cholesky(k + np.diag(noise))
            break
        except np.linalg.LinAlgError:
            jitter = 1e-10 if jitter == 0.0 else jitter * 10.0
            if jitter > max_jitter:
                raise GpFitError("kernel factorization failed") from None
    chol_inv = np.linalg.inv(chol)
    alpha = chol_inv.T @ (chol_inv @ z_bar)
    return GpSurrogate(hypers=hypers, x_train=x_distinct, y_mean=y_mean, y_std=y_std,
                       chol_inv=chol_inv, alpha=alpha, jitter_used=jitter)


def fit_or_error(fit, obs, hypers):
    try:
        return fit(obs, hypers)
    except GpFitError:
        return None


def assert_same_fit(gp, ref):
    if ref is None:
        assert gp is None
        return
    assert gp.x_train.tobytes() == ref.x_train.tobytes()
    assert repr((gp.y_mean, gp.y_std, gp.jitter_used)) == repr(
        (ref.y_mean, ref.y_std, ref.jitter_used))
    assert gp.chol_inv.tobytes() == ref.chol_inv.tobytes()
    assert gp.alpha.tobytes() == ref.alpha.tobytes()


def reference_csv(sets, path):
    """observations.csv as the record-based bundle writer wrote it."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "tau1", "tau2", "utility", "order_index"])
        for k, obs in enumerate(sets):
            for idx, (pair, u) in enumerate(obs.points):
                writer.writerow([k, pair.tau1, pair.tau2, u, idx])


# Fixed pairs: 0.0 beside -0.0, and two pairs 1e-9 apart; each example adds
# random ones.
FIXED_PAIRS = [ThresholdPair(0.5, 0.0), ThresholdPair(0.5, -0.0), ThresholdPair(1.0, 0.25),
               ThresholdPair(0.7, 0.3), ThresholdPair(0.7 + 1e-9, 0.3)]
STEPS = st.lists(st.tuples(st.integers(0, len(FIXED_PAIRS) + 2), st.integers(1, 150)),
                 min_size=1, max_size=10)


def replay(steps, capacity, seed):
    """The same replicate-heavy sequence of extends on both sets. Utilities are
    rounded to 0.1, so maxima tie and -0.0 sits beside 0.0."""
    rng = np.random.default_rng(seed)
    pairs = FIXED_PAIRS + [ThresholdPair(*row) for row in sample_triangle(rng, 3).tolist()]
    new, old = ObservationSet(capacity=capacity), ListObservationSet(capacity=capacity)
    for which, n in steps:
        utilities = np.round(rng.normal(0.0, 0.4, n), 1)
        if n == 1:
            new.append(pairs[which], float(utilities[0]))
        else:
            new.extend(pairs[which], utilities)
        old.extend(pairs[which], utilities)
    return new, old


@pytest.fixture(scope="module")
def tiny_state():
    trace, _ = generate_synthetic_trace(SyntheticConfig(n_queries=60, embedding_dim=4,
                                                        n_latent_clusters=2, seed=3))
    return build_state(trace, scenario_by_name("good"), seed=2, fixed_k=2,
                       mlp_overrides={"hidden_dims": (4,), "max_epochs": 2},
                       bo_overrides={"offline_budget": 4}, seed_points=2)


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(steps=STEPS, capacity=st.sampled_from([3, 64, 512]), seed=st.integers(0, 2 ** 32 - 1),
       noise=st.sampled_from([1e-2, 1e-4, 1e-12]))
def test_columns_match_records(tiny_state, tmp_path, steps, capacity, seed, noise):
    new, old = replay(steps, capacity, seed)
    assert len(new) == len(old)
    assert new.pairs.flags.c_contiguous and new.pairs.shape == (len(old), 2)
    assert repr(new.points) == repr(old.points)
    assert repr(new.best()) == repr(old.best())
    x, y = old.arrays()
    assert new.pairs.tobytes() == x.tobytes() and new.utilities.tobytes() == y.tobytes()
    hypers = GpHyperparameters(noise_variance=noise)
    assert_same_fit(fit_or_error(gp_fit, new, hypers), fit_or_error(list_gp_fit, old, hypers))

    # Cluster 1 gets the tail of the same sequence in a smaller set.
    small_new, small_old = replay(steps, 3, seed)
    state = dataclasses.replace(tiny_state, observations={0: new, 1: small_new})
    bundle = save_bundle(state, tmp_path / "bundle")
    reference_csv([old, small_old], tmp_path / "reference.csv")
    assert (bundle / "observations.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    loaded = load_bundle(bundle)
    assert state_checksum(loaded) == state_checksum(state)
    assert loaded.observations[0].pairs.tobytes() == new.pairs.tobytes()
    assert loaded.observations[0].utilities.tobytes() == new.utilities.tobytes()


def test_signed_zero_pairs_collapse_to_the_first_seen():
    obs = ObservationSet()
    obs.extend(ThresholdPair(0.5, -0.0), [0.1, 0.2])
    obs.extend(ThresholdPair(0.5, 0.0), [0.3])
    gp = gp_fit(obs)
    assert gp.x_train.tobytes() == np.array([[0.5, -0.0]]).tobytes()


def load_tracer():
    """perfbench/tracer.py as a module, read without importing it (no bytecode is written)."""
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_benchmark_gp_fit_probe_reads_the_columns():
    tracer = load_tracer()
    obs = ObservationSet()
    obs.extend(ThresholdPair(0.5, 0.0), [0.1, 0.2, 0.3])
    obs.extend(ThresholdPair(0.5, -0.0), [0.4])
    obs.extend(ThresholdPair(0.8, 0.3), np.linspace(0.0, 1.0, 70))
    obs.append(ThresholdPair(0.9, 0.1), 0.5)
    counts = {}
    tracer._probe_gp_fit(counts, (obs,), {}, None)
    tracer._probe_gp_fit(counts, (), {"obs": obs}, None)
    assert counts == {"bayesopt.gp_points": 150, "bayesopt.gp_distinct": 6}
    assert len(gp_fit(obs).x_train) == 3
