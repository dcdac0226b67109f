import numpy as np
import pytest

from tierroute.errors import DimensionMismatchError, TrainingDivergedError
from tierroute.labels import LabelConfig, build_labels
from tierroute.mlp import (
    MlpConfig,
    gradient_check,
    init_model,
    load_checkpoint,
    predict,
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
        assert np.array_equal(a.flat_params(), b.flat_params())

    def test_empty_hidden_is_logistic_regression(self):
        model = init_model(tiny_cfg(input_dim=7, hidden_dims=()))
        assert model.param_count() == 7 + 1
        assert len(model.weights) == 1

    def test_param_count_chain(self):
        # 2048*256+256 + 256*64+64 + 64*1+1
        model = init_model(tiny_cfg(input_dim=2048, hidden_dims=(256, 64)))
        expected = 2048 * 256 + 256 + 256 * 64 + 64 + 64 * 1 + 1
        assert expected == 541_057
        assert model.param_count() == expected


class TestPredict:
    def test_zero_weights_give_half(self):
        model = init_model(tiny_cfg())
        model.set_flat_params(np.zeros(model.param_count()))
        assert predict(model, np.array([3.0, -1.0, 2.0])) == pytest.approx(0.5)

    def test_deterministic(self):
        model = init_model(tiny_cfg(seed=4))
        x = np.array([0.3, -0.7, 1.1])
        assert predict(model, x) == predict(model, x)

    def test_open_unit_interval(self):
        model = init_model(tiny_cfg(seed=2))
        rng = np.random.default_rng(0)
        scores = predict_batch(model, rng.normal(size=(100, 3)) * 50)
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_dim_mismatch(self):
        model = init_model(tiny_cfg())
        with pytest.raises(DimensionMismatchError):
            predict(model, np.zeros(5))


class TestGradientCheck:
    def test_tiny_model_bound(self):
        model = init_model(tiny_cfg(seed=0))
        rng = np.random.default_rng(0)
        err = gradient_check(model, rng.normal(size=3), 0.3)
        assert err < 1e-4

    def test_zero_everything_special_point(self):
        model = init_model(tiny_cfg(activation="relu"))
        model.set_flat_params(np.zeros(model.param_count()))
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
        model, report = train(init_model(cfg), x, t, cfg)
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
        model, _ = train(init_model(cfg), x[:500], t[:500], cfg)
        held_mse = float(np.mean((predict_batch(model, x[500:]) - t[500:]) ** 2))
        assert held_mse < 0.01

    def test_deterministic_snapshot_selection(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(120, 3))
        t = rng.random(120)
        cfg = tiny_cfg(max_epochs=30, early_stop_patience=3)
        m1, r1 = train(init_model(cfg), x, t, cfg)
        m2, r2 = train(init_model(cfg), x, t, cfg)
        assert r1.epochs_run == r2.epochs_run
        assert np.array_equal(m1.flat_params(), m2.flat_params())

    def test_best_val_not_worse_than_first_epoch(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(150, 3))
        t = rng.random(150)
        cfg = tiny_cfg(max_epochs=40, early_stop_patience=40)
        _, report = train(init_model(cfg), x, t, cfg)
        assert report.final_val_mse <= report.loss_curve[0][2] + 1e-12

    def test_divergence_raises_with_epoch(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 3))
        t = rng.random(40)
        cfg = tiny_cfg(max_epochs=5)
        model = init_model(cfg)
        model.weights[0][0, 0] = np.nan
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            train(model, x, t, cfg)

    def test_full_batch_permutation_invariance(self):
        # With shuffling disabled and full-batch updates, permuting the
        # training rows only reorders gradient summation.
        rng = np.random.default_rng(9)
        x = rng.normal(size=(40, 3))
        t = rng.random(40)
        cfg = tiny_cfg(max_epochs=25, early_stop_patience=25, batch_size=64,
                       shuffle_each_epoch=False, validation_fraction=0.1)
        m1, _ = train(init_model(cfg), x, t, cfg)
        perm = rng.permutation(36)
        x2 = x.copy()
        t2 = t.copy()
        x2[:36], t2[:36] = x[:36][perm], t[:36][perm]
        m2, _ = train(init_model(cfg), x2, t2, cfg)
        probe = rng.normal(size=(20, 3))
        assert np.max(np.abs(predict_batch(m1, probe) - predict_batch(m2, probe))) < 1e-9

    def test_rejects_out_of_range_targets(self):
        cfg = tiny_cfg()
        with pytest.raises(ValueError, match="targets"):
            train(init_model(cfg), np.zeros((4, 3)), np.array([0.1, 0.5, 1.2, 0.0]), cfg)


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
        model, _ = train(init_model(mlp_cfg), x[:split], labels.s_fused[:split], mlp_cfg)
        held = np.abs(predict_batch(model, x[split:]) - labels.s_fused[split:])
        assert float(held.mean()) < 0.05


class TestCheckpoint:
    def test_round_trip_bytes(self, tmp_path):
        cfg = tiny_cfg(seed=8)
        rng = np.random.default_rng(0)
        model, _ = train(init_model(cfg), rng.normal(size=(60, 3)), rng.random(60), cfg)
        p1 = tmp_path / "m.ckpt"
        save_checkpoint(model, p1)
        loaded = load_checkpoint(p1)
        assert loaded.config == model.config
        assert np.array_equal(loaded.flat_params(), model.flat_params())
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
