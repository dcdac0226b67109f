"""The columnar ObservationSet against the list-of-records set it replaced.

``ListObservationSet`` and ``list_gp_fit`` copy the record-based set and the
dict-based replicate collapse of ``gp_fit`` as they were before the set held
columns; ``list_gp_fit`` factors and solves with the same NumPy calls as
``gp_fit``, so only the collapse differs. Every fit, ``best()``, ``points`` and
the bundle's ``observations.csv`` must come out bit for bit the same.

``dictreader_load_observations`` is the bundle's observations loader as it was
before ``formats.read_table`` read the table: through ``csv.DictReader``. On
edits of ``observations.csv`` both must load the same sets or both refuse.
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
    OBSERVATION_CAPACITY,
    GpHyperparameters,
    GpSurrogate,
    ObservationSet,
    ThresholdPair,
    gp_fit,
    sample_triangle,
)
from tierroute.errors import BundleIntegrityError, GpFitError, TierRouteError
from tierroute.fields import building, cell
from tierroute.network import scenario_by_name
from tierroute.router import _load_observations, load_bundle, save_bundle, state_checksum
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


def test_bundle_at_capacity_reloads_bit_equal(tiny_state, tmp_path):
    rng = np.random.default_rng(5)
    full = {}
    for c in tiny_state.observations:
        full[c] = ObservationSet()
        for row in sample_triangle(rng, OBSERVATION_CAPACITY + 3).tolist():
            full[c].append(ThresholdPair(*row), float(rng.normal(0.0, 0.4)))
        assert len(full[c]) == OBSERVATION_CAPACITY
    state = dataclasses.replace(tiny_state, observations=full)
    loaded = load_bundle(save_bundle(state, tmp_path / "bundle"))
    for c, obs in full.items():
        assert loaded.observations[c].pairs.view(np.int64).tolist() == obs.pairs.view(
            np.int64).tolist()
        assert loaded.observations[c].utilities.view(np.int64).tolist() == obs.utilities.view(
            np.int64).tolist()


def dictreader_load_observations(path, k, capacity):
    """The observations loader as it read the table through ``csv.DictReader``."""
    observations = {c: ObservationSet(capacity=capacity) for c in range(k)}
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)  # skips blank lines; line_num counts them
            rows = [(reader.line_num, row) for row in reader]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise BundleIntegrityError(f"{path}: not a readable CSV file ({exc})") from exc
    for lineno, row in rows:
        where = f"{path}: line {lineno}"
        if None in row:  # DictReader files the cells past the header's under None
            raise BundleIntegrityError(f"{where}: more cells than the header")
        if None in row.values():  # and fills the missing ones with None
            raise BundleIntegrityError(f"{where}: fewer cells than the header")
        c = cell(row.get("cluster"), int, f"{where}: cluster", BundleIntegrityError)
        if c not in observations:
            raise BundleIntegrityError(f"{where}: cluster {c} outside 0..{k - 1}")
        tau1, tau2, utility = (cell(row.get(key), float, f"{where}: {key}", BundleIntegrityError)
                               for key in ("tau1", "tau2", "utility"))
        position = len(observations[c])
        index = cell(row.get("order_index"), int, f"{where}: order_index", BundleIntegrityError)
        if index != position:
            raise BundleIntegrityError(
                f"{where}: order_index {index} out of order; cluster {c} expects {position}")
        if position == capacity:
            raise BundleIntegrityError(
                f"{where}: cluster {c} holds more rows than observation_capacity {capacity}")
        with building(where, BundleIntegrityError):
            observations[c].append(ThresholdPair(tau1=tau1, tau2=tau2), utility)
    return observations


def load_or_refuse(load, path, k, capacity):
    """(0, the sets) if ``load`` reads the table, (2, the message) if it refuses
    it; any other exception fails the test, as exit 1 would."""
    try:
        return 0, load(path, k, capacity)
    except TierRouteError as exc:
        return 2, str(exc)


# Cell values: the field fuzz's nasty texts, and numbers.
CELL_TEXT = st.sampled_from(["", "x", "nan", "inf", "-1", "1.5", "99", "1e999", "0x1", " 2 ",
                             "0", "1", "0.5", "1e-05", "-0.0", "1_0"]) | st.integers(-2, 600).map(
    str) | st.floats(0.0, 1.0).map(repr)


def edit_table(data, raw):
    """Up to three edits of the table's bytes, each a cell set, a byte changed or
    a blank line inserted; then, maybe, line ends switched among CR, LF and CRLF."""
    for kind in data.draw(st.lists(st.sampled_from(["cell", "byte", "blank"]), max_size=3)):
        lines = raw.split(b"\r\n")
        if kind == "byte":
            edited = bytearray(raw)
            edited[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
            raw = bytes(edited)
            continue
        if kind == "cell" and len(lines) > 2:
            row = data.draw(st.integers(1, len(lines) - 2))
            cells = lines[row].split(b",")
            cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(CELL_TEXT).encode()
            lines[row] = b",".join(cells)
        elif kind == "blank":
            lines.insert(data.draw(st.integers(0, len(lines) - 1)), b"")
        raw = b"\r\n".join(lines)
    if data.draw(st.booleans()):
        lines = raw.split(b"\r\n")
        ends = data.draw(st.lists(st.sampled_from([b"\r", b"\n", b"\r\n"]),
                                  min_size=len(lines) - 1, max_size=len(lines) - 1))
        raw = b"".join(line + end for line, end in zip(lines, ends)) + lines[-1]
    return raw


def test_loader_matches_dictreader_reference(tiny_state, tmp_path):
    bundle = save_bundle(tiny_state, tmp_path / "bundle")
    saved = (bundle / "observations.csv").read_bytes()
    k, path = len(tiny_state.observations), tmp_path / "observations.csv"

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def check(data):
        path.write_bytes(edit_table(data, saved))
        capacity = data.draw(st.sampled_from([3, OBSERVATION_CAPACITY]))
        code, got = load_or_refuse(_load_observations, path, k, capacity)
        ref_code, ref = load_or_refuse(dictreader_load_observations, path, k, capacity)
        assert code == ref_code, (got, ref)
        if code == 0:
            for c in range(k):
                assert got[c].pairs.view(np.int64).tolist() == ref[c].pairs.view(
                    np.int64).tolist()
                assert got[c].utilities.view(np.int64).tolist() == ref[c].utilities.view(
                    np.int64).tolist()
        else:
            assert got.startswith(f"{path}: "), got
            assert got.startswith(f"{path}: line ") or "not a readable CSV file" in got, got

    check()


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
