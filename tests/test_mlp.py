import copy
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import tierroute
from tierroute.errors import DimensionMismatchError, TrainingDivergedError
from tierroute.labels import LabelConfig, build_labels
from tierroute.mlp import (
    MlpConfig,
    _sigmoid,
    gradient_check,
    init_model,
    load_checkpoint,
    predict_batch,
    save_checkpoint,
    train,
)
from tierroute.trace import SyntheticConfig, generate_synthetic_trace


def tiny_cfg(**kw):
    base = dict(input_dim=3, hidden_dims=(4,), activation="tanh", seed=0,
                learning_rate=1e-3, batch_size=8, max_epochs=5,
                early_stop_patience=2, validation_fraction=0.2)
    base.update(kw)
    return MlpConfig(**base)


class TestInit:
    def test_deterministic(self):
        a = init_model(tiny_cfg(seed=1))
        b = init_model(tiny_cfg(seed=1))
        assert np.array_equal(a.params, b.params)

    def test_empty_hidden_is_logistic_regression(self):
        model = init_model(tiny_cfg(input_dim=7, hidden_dims=()))
        assert model.params.size == 7 + 1
        assert len(model.layers) == 1

    def test_param_count_chain(self):
        # 2048*256+256 + 256*64+64 + 64*1+1
        model = init_model(tiny_cfg(input_dim=2048, hidden_dims=(256, 64)))
        expected = 2048 * 256 + 256 + 256 * 64 + 64 + 64 * 1 + 1
        assert expected == 541_057
        assert model.params.size == expected


class TestPredict:
    def test_zero_weights_give_half(self):
        model = init_model(tiny_cfg())
        model.params[:] = 0.0
        assert predict_batch(model, np.array([3.0, -1.0, 2.0]))[0] == pytest.approx(0.5)

    def test_deterministic(self):
        model = init_model(tiny_cfg(seed=4))
        x = np.array([0.3, -0.7, 1.1])
        assert np.array_equal(predict_batch(model, x), predict_batch(model, x))

    def test_open_unit_interval(self):
        model = init_model(tiny_cfg(seed=2))
        rng = np.random.default_rng(0)
        scores = predict_batch(model, rng.normal(size=(100, 3)) * 50)
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_dim_mismatch(self):
        model = init_model(tiny_cfg())
        with pytest.raises(DimensionMismatchError):
            predict_batch(model, np.zeros(5))

    @pytest.mark.parametrize("hidden", [(64, 32), (8,), ()])
    def test_peak_memory_is_two_adjacent_activations(self, hidden):
        # One call holds at most one layer's input and output at a time.
        n, d = 20_000, 32
        model = init_model(MlpConfig(input_dim=d, hidden_dims=hidden))
        x = np.random.default_rng(0).normal(size=(n, d))
        widths = [d, *hidden, 1]
        bound = 8 * n * max(a + b for a, b in zip(widths, widths[1:])) + 2 ** 20
        tracemalloc.start()
        try:
            predict_batch(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    @pytest.mark.parametrize("n", [40_000, 80_000])
    def test_peak_memory_is_output_plus_one_block(self, n):
        # Beyond the (n,) output, a call holds one block of at most 8191 rows'
        # layer input and output at a time, whatever n is.
        d, hidden = 32, (64, 32)
        model = init_model(MlpConfig(input_dim=d, hidden_dims=hidden))
        x = np.random.default_rng(0).normal(size=(n, d))
        widths = [d, *hidden, 1]
        bound = 8 * (2 * 4096 - 1) * max(a + b for a, b in zip(widths, widths[1:])) + 2 ** 20
        tracemalloc.start()
        try:
            predict_batch(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * n < bound

    @pytest.mark.parametrize("hidden", [(), (8,), (64, 32), (256, 64)])
    def test_blocks_bit_equal_one_forward_pass(self, hidden):
        """Scores of row counts around the block edges equal, bit for bit, one
        forward pass over all rows, for both activations and d = 5 and 32.

        The check runs in a child process with one BLAS thread. With more
        threads, the last bits of any product already depend on how its rows
        are split between the threads, so one forward pass over n rows need
        not give the bits of one over a different n either."""
        one_thread = {name: "1" for name in
                      ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        src = str(Path(tierroute.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", _BLOCKED_VS_ONE_PASS, *map(str, hidden)],
            env={**os.environ, **one_thread, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout == ""


# Prints each (activation, d, n) whose predict_batch bits differ from _forward's.
_BLOCKED_VS_ONE_PASS = """
import sys
import numpy as np
from tierroute.mlp import MlpConfig, _forward, init_model, predict_batch

hidden = tuple(int(w) for w in sys.argv[1:])
for activation in ("relu", "tanh"):
    for d in (5, 32):
        model = init_model(MlpConfig(input_dim=d, hidden_dims=hidden, activation=activation))
        rng = np.random.default_rng(d)
        model.params[:] = rng.normal(size=model.params.size)
        model.input_mean = rng.normal(size=d)
        model.input_scale = rng.random(d) + 0.5
        x = rng.normal(size=(12293, d)) * 3.0
        for n in (4095, 4096, 4097, 8191, 8192, 8193, 12289, 12293):
            blocked, one_pass = predict_batch(model, x[:n]), _forward(model, x[:n])
            if not np.array_equal(blocked.view(np.int64), one_pass.view(np.int64)):
                print(activation, d, n)
"""


class TestGradientCheck:
    def test_tiny_model_bound(self):
        model = init_model(tiny_cfg(seed=0))
        rng = np.random.default_rng(0)
        err = gradient_check(model, rng.normal(size=3), 0.3)
        assert err < 1e-4

    def test_zero_everything_special_point(self):
        model = init_model(tiny_cfg(activation="relu"))
        model.params[:] = 0.0
        err = gradient_check(model, np.zeros(3), 0.0)
        assert err < 1e-6

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_random_models_both_activations(self, activation):
        rng = np.random.default_rng(42)
        worst = 0.0
        for seed in range(20):
            cfg = tiny_cfg(seed=seed, activation=activation,
                           input_dim=int(rng.integers(2, 6)),
                           hidden_dims=(int(rng.integers(2, 7)),))
            model = init_model(cfg)
            err = gradient_check(model, rng.normal(size=cfg.input_dim),
                                 float(rng.random()))
            worst = max(worst, err)
        assert worst < 1e-4

    def test_rejects_large_models(self):
        model = init_model(tiny_cfg(input_dim=512, hidden_dims=(128,)))
        with pytest.raises(ValueError, match="10\\^4"):
            gradient_check(model, np.zeros(512), 0.5)


class TestTrain:
    def test_constant_targets(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 3))
        t = np.full(200, 0.7)
        cfg = tiny_cfg(max_epochs=300, early_stop_patience=300, learning_rate=5e-3)
        model, report = train(init_model(cfg), x, t)
        preds = predict_batch(model, rng.normal(size=(50, 3)))
        assert np.all(np.abs(preds - 0.7) < 0.02)
        assert report.final_val_mse <= report.loss_curve[0][2]

    def test_linear_logistic_targets_reach_low_mse(self):
        # Oracle: targets follow a known logistic-linear functional of the input.
        rng = np.random.default_rng(7)
        w = np.array([1.5, -2.0, 0.5, 1.0])
        x = rng.normal(size=(600, 4))
        t = 1.0 / (1.0 + np.exp(-(x @ w + 0.3)))
        cfg = MlpConfig(input_dim=4, hidden_dims=(16,), activation="tanh",
                        learning_rate=5e-3, batch_size=32, max_epochs=200,
                        early_stop_patience=200, seed=0, validation_fraction=0.2)
        model, _ = train(init_model(cfg), x[:500], t[:500])
        held_mse = float(np.mean((predict_batch(model, x[500:]) - t[500:]) ** 2))
        assert held_mse < 0.01

    def test_deterministic_snapshot_selection(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(120, 3))
        t = rng.random(120)
        cfg = tiny_cfg(max_epochs=30, early_stop_patience=3)
        m1, r1 = train(init_model(cfg), x, t)
        m2, r2 = train(init_model(cfg), x, t)
        assert r1.epochs_run == r2.epochs_run
        assert np.array_equal(m1.params, m2.params)

    def test_best_val_not_worse_than_first_epoch(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(150, 3))
        t = rng.random(150)
        cfg = tiny_cfg(max_epochs=40, early_stop_patience=40)
        _, report = train(init_model(cfg), x, t)
        assert report.final_val_mse <= report.loss_curve[0][2] + 1e-12

    def test_divergence_raises_with_epoch(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 3))
        t = rng.random(40)
        cfg = tiny_cfg(max_epochs=5)
        model = init_model(cfg)
        model.layers[0][0][0, 0] = np.nan
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            train(model, x, t)

    def test_rejects_out_of_range_targets(self):
        cfg = tiny_cfg()
        with pytest.raises(ValueError, match="targets"):
            train(init_model(cfg), np.zeros((4, 3)), np.array([0.1, 0.5, 1.2, 0.0]))


class TestSyntheticPredictor:
    def test_heldout_error_small_at_zero_noise(self):
        # Judge-regime trace at zero noise: the fused label is constant per
        # latent cluster, so a trained predictor should sit within 0.05 of it.
        cfg = SyntheticConfig(n_queries=1200, embedding_dim=16, n_latent_clusters=3,
                              seed=13, noise_sigma=0.0, reference_fraction=0.0)
        trace, _ = generate_synthetic_trace(cfg)
        labels = build_labels(trace, LabelConfig(alpha=0.5, beta=0.5))
        x = trace.embeddings
        split = 1000
        mlp_cfg = MlpConfig(input_dim=16, hidden_dims=(32,), activation="relu",
                            learning_rate=3e-3, batch_size=64, max_epochs=60,
                            early_stop_patience=10, seed=1, validation_fraction=0.15)
        model, _ = train(init_model(mlp_cfg), x[:split], labels.s_fused[:split])
        held = np.abs(predict_batch(model, x[split:]) - labels.s_fused[split:])
        assert float(held.mean()) < 0.05


class TestCheckpoint:
    def test_round_trip_bytes(self, tmp_path):
        cfg = tiny_cfg(seed=8)
        rng = np.random.default_rng(0)
        model, _ = train(init_model(cfg), rng.normal(size=(60, 3)), rng.random(60))
        p1 = tmp_path / "m.ckpt"
        save_checkpoint(model, p1)
        loaded = load_checkpoint(p1)
        assert loaded.config == model.config
        assert np.array_equal(loaded.params, model.params)
        p2 = tmp_path / "m2.ckpt"
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_payload_rejected(self, tmp_path):
        model = init_model(tiny_cfg())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        from tierroute.errors import BundleIntegrityError
        with pytest.raises(BundleIntegrityError, match="payload"):
            load_checkpoint(path)


class TestLayers:
    def test_layers_are_views_of_params(self):
        model = init_model(tiny_cfg(input_dim=3, hidden_dims=(4, 2)))
        shapes = [(w.shape, b.shape) for w, b in model.layers]
        assert shapes == [((3, 4), (4,)), ((4, 2), (2,)), ((2, 1), (1,))]
        assert np.array_equal(np.concatenate([a.ravel() for layer in model.layers
                                              for a in layer]), model.params)
        model.layers[1][1][0] = 7.0
        assert model.params[3 * 4 + 4 + 4 * 2] == 7.0

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda m: m.copy()])
    def test_copies_do_not_share_parameters(self, duplicate):
        model = init_model(tiny_cfg())
        twin = duplicate(model)
        if duplicate is copy.copy:  # shares ``params``; its layers follow a new array
            twin.params = twin.params.copy()
        twin.layers[0][0][0, 0] += 1.0
        assert twin.params[0] == model.params[0] + 1.0
        assert model.layers[0][0][0, 0] == model.params[0]


# ---------------------------------------------------------------------------
# The list-based predictor that the one ``params`` array replaced, kept as a
# reference: per-layer weight and bias lists, each layer's gradient its own
# array, four lists of per-layer Adam moments, and a forward pass that keeps
# every pre-activation and activation.
# ---------------------------------------------------------------------------

def _activate(z, kind):
    return np.maximum(z, 0.0) if kind == "relu" else np.tanh(z)


def _activate_grad(z, a, kind):
    return (z > 0).astype(z.dtype) if kind == "relu" else 1.0 - a * a


class ListModel:
    def __init__(self, weights, biases, config, input_mean=None, input_scale=None):
        self.weights, self.biases, self.config = weights, biases, config
        self.input_mean = np.zeros(config.input_dim) if input_mean is None else input_mean
        self.input_scale = np.ones(config.input_dim) if input_scale is None else input_scale

    def copy(self):
        return ListModel([w.copy() for w in self.weights], [b.copy() for b in self.biases],
                         self.config, self.input_mean.copy(), self.input_scale.copy())

    def flat_params(self):
        return np.concatenate([a.ravel() for w, b in zip(self.weights, self.biases)
                               for a in (w, b)])

    def set_flat_params(self, flat):
        offset = 0
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            self.weights[i] = flat[offset:offset + w.size].reshape(w.shape).copy()
            offset += w.size
            self.biases[i] = flat[offset:offset + b.size].copy()
            offset += b.size


def ref_init(cfg):
    rng = np.random.default_rng(cfg.seed)
    dims = [cfg.input_dim, *cfg.hidden_dims, 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ListModel(weights, biases, cfg)


def ref_forward(model, x):
    kind = model.config.activation
    x = (x - model.input_mean) / model.input_scale
    activations, pre, a = [x], [], x
    for i in range(len(model.weights) - 1):
        z = a @ model.weights[i] + model.biases[i]
        a = _activate(z, kind)
        pre.append(z)
        activations.append(a)
    z_out = a @ model.weights[-1] + model.biases[-1]
    pre.append(z_out)
    return activations, pre, _sigmoid(z_out[:, 0])


def ref_backward(model, x, targets):
    kind = model.config.activation
    activations, pre, y = ref_forward(model, x)
    err = y - targets
    delta = ((2.0 / x.shape[0]) * err * y * (1.0 - y))[:, None]
    d_weights = [None] * len(model.weights)
    d_biases = [None] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        d_weights[i] = activations[i].T @ delta
        d_biases[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * _activate_grad(pre[i - 1], activations[i], kind)
    return d_weights, d_biases


def ref_mse(model, x, targets):
    return float(np.mean((ref_forward(model, x)[2] - targets) ** 2))


def ref_train(model, x, t, cfg):
    rng = np.random.default_rng(cfg.seed)
    n = x.shape[0]
    split_order = rng.permutation(n)
    n_val = min(max(int(round(cfg.validation_fraction * n)), 1), n - 1)
    x_train, t_train = x[split_order[:n - n_val]], t[split_order[:n - n_val]]
    x_val, t_val = x[split_order[n - n_val:]], t[split_order[n - n_val:]]
    work = model.copy()
    work.input_mean = x_train.mean(axis=0)
    scale = x_train.std(axis=0)
    work.input_scale = np.where(scale < 1e-12, 1.0, scale)
    m_w = [np.zeros_like(w) for w in work.weights]
    v_w = [np.zeros_like(w) for w in work.weights]
    m_b = [np.zeros_like(b) for b in work.biases]
    v_b = [np.zeros_like(b) for b in work.biases]
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, cfg.learning_rate
    step, best, best_val, since_improve, curve = 0, work.copy(), np.inf, 0, []
    n_train = x_train.shape[0]
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(n_train)
        for start in range(0, n_train, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            d_w, d_b = ref_backward(work, x_train[idx], t_train[idx])
            step += 1
            corr1, corr2 = 1.0 - beta1 ** step, 1.0 - beta2 ** step
            for i in range(len(work.weights)):
                m_w[i] = beta1 * m_w[i] + (1 - beta1) * d_w[i]
                v_w[i] = beta2 * v_w[i] + (1 - beta2) * d_w[i] ** 2
                work.weights[i] -= lr * (m_w[i] / corr1) / (np.sqrt(v_w[i] / corr2) + eps)
                m_b[i] = beta1 * m_b[i] + (1 - beta1) * d_b[i]
                v_b[i] = beta2 * v_b[i] + (1 - beta2) * d_b[i] ** 2
                work.biases[i] -= lr * (m_b[i] / corr1) / (np.sqrt(v_b[i] / corr2) + eps)
        train_mse, val_mse = ref_mse(work, x_train, t_train), ref_mse(work, x_val, t_val)
        curve.append((epoch, train_mse, val_mse))
        if val_mse < best_val:
            best_val, best, since_improve = val_mse, work.copy(), 0
        else:
            since_improve += 1
            if since_improve > cfg.early_stop_patience:
                break
    return best, curve


def ref_gradient_check(model, x, t, step=1e-5):
    x, t = x.reshape(1, -1), np.array([t])
    d_w, d_b = ref_backward(model, x, t)
    analytic = np.concatenate([a.ravel() for dw, db in zip(d_w, d_b) for a in (dw, db)])
    flat = model.flat_params()
    probe = model.copy()
    numeric = np.empty_like(flat)
    for j in range(flat.size):
        saved = flat[j]
        flat[j] = saved + step
        probe.set_flat_params(flat)
        up = ref_mse(probe, x, t)
        flat[j] = saved - step
        probe.set_flat_params(flat)
        down = ref_mse(probe, x, t)
        flat[j] = saved
        numeric[j] = (up - down) / (2.0 * step)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def ref_checkpoint_bytes(model):
    flat = model.flat_params()
    header = {"format": "tierroute-mlp-v1", **asdict(model.config), "param_count": flat.size}
    return (json.dumps(header, sort_keys=True) + "\n").encode("utf-8") + b"".join(
        a.astype("<f8").tobytes() for a in (model.input_mean, model.input_scale, flat))


class TestMatchesListReference:
    """The one-array predictor gives the list-based one's results bit for bit."""

    @pytest.mark.parametrize("hidden", [(), (4,), (64, 32)])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_train_gradient_check_and_checkpoint(self, tmp_path, activation, hidden):
        rng = np.random.default_rng(len(hidden) + 10)
        x = rng.normal(size=(121, 5)) * 3.0 + 1.0
        t = rng.random(121)
        # 109 training rows in batches of 16: the last batch is short.
        cfg = MlpConfig(input_dim=5, hidden_dims=hidden, activation=activation,
                        learning_rate=1e-2, batch_size=16, max_epochs=12,
                        early_stop_patience=3, seed=3, validation_fraction=0.1)
        assert np.array_equal(init_model(cfg).params, ref_init(cfg).flat_params())

        model, report = train(init_model(cfg), x, t)
        ref, curve = ref_train(ref_init(cfg), x, t, cfg)
        assert np.array_equal(model.params, ref.flat_params())
        assert np.array_equal(model.input_mean, ref.input_mean)
        assert np.array_equal(model.input_scale, ref.input_scale)
        assert report.loss_curve == curve
        assert report.epochs_run == len(curve)
        assert np.array_equal(predict_batch(model, x), ref_forward(ref, x)[2])

        assert gradient_check(model, x[0], 0.3) == ref_gradient_check(ref, x[0], 0.3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        assert path.read_bytes() == ref_checkpoint_bytes(ref)

    @pytest.mark.parametrize("entry", [0, -1])
    def test_nan_parameter_diverges_at_epoch_1(self, entry):
        cfg = tiny_cfg(hidden_dims=(4, 3))
        model = init_model(cfg)
        model.params[entry] = np.nan
        rng = np.random.default_rng(4)
        with pytest.raises(TrainingDivergedError, match="non-finite loss at epoch 1"):
            train(model, rng.normal(size=(40, 3)), rng.random(40))

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_predict_batch_inputs(self, activation):
        cfg = MlpConfig(input_dim=5, hidden_dims=(64, 32), activation=activation, seed=6)
        model = init_model(cfg)
        rng = np.random.default_rng(8)
        model.params[:] = rng.normal(size=model.params.size)
        model.input_mean = rng.normal(size=5)
        model.input_scale = rng.random(5) + 0.5
        ref = ref_init(cfg)
        ref.set_flat_params(model.params)
        ref.input_mean, ref.input_scale = model.input_mean, model.input_scale
        wide = rng.normal(size=(4097, 10)) * 3.0
        with_nan = rng.normal(size=(6, 5))
        with_nan[2, 3] = np.nan
        inputs = [
            wide[:1, :5],  # one row: the matrix-vector product path
            wide[:, :5].copy(),
            wide[7, :5].copy(),  # 1-D
            wide[:50, :5].astype(np.float32),
            np.round(wide[:50, :5]).astype(np.int64),
            wide[::3, 1::2],  # non-contiguous view
            with_nan,
        ]
        for x in inputs:
            expected = ref_forward(ref, np.atleast_2d(np.asarray(x, dtype=np.float64)))[2]
            assert np.array_equal(predict_batch(model, x), expected, equal_nan=True)
        assert np.isnan(predict_batch(model, with_nan)[2])
