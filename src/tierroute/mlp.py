"""Small MLP regressor mapping query embeddings to a consistency score in (0, 1).

Training minimizes mean squared error against the fused soft labels with the
Adam update rule; the returned model is the best-validation snapshot.

Inputs are standardized per dimension with statistics fitted on the training
split and stored with the model, so embedding scale never saturates the
logistic output.

The parameters live in one float64 array, ``MlpModel.params``: layer by layer
from input to output, each weight matrix (shape ``(fan_in, fan_out)``,
row-major) followed by its bias vector. ``MlpModel.layers`` gives views of it.

Inference keeps one activation at a time, made in place on its layer's fresh
matrix product; training keeps only the activations the backward pass reads.

Checkpoint layout (``tierroute-mlp-v1``): an arrays file (see ``formats``)
whose header holds the config fields plus ``param_count``, and whose payload is
the input mean vector (input_dim), the input scale vector (input_dim), then the
in-memory ``params`` array as it is. Loading rejects a non-finite entry or an
input scale that is not positive.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import BundleIntegrityError, DimensionMismatchError, TrainingDivergedError
from .fields import MISSING, read, typed
from .formats import header_line, payload_arrays, write_arrays

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class MlpConfig:
    input_dim: int
    hidden_dims: tuple[int, ...] = (256, 64)
    activation: str = "relu"
    learning_rate: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 200
    early_stop_patience: int = 10
    seed: int = 0
    validation_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.input_dim <= 0:
            raise ValueError("input_dim must be positive")
        if any(h <= 0 for h in self.hidden_dims):
            raise ValueError("hidden layer widths must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if self.learning_rate <= 0 or self.batch_size <= 0 or self.max_epochs <= 0:
            raise ValueError("learning_rate, batch_size, max_epochs must be positive")
        if self.early_stop_patience < 0 or self.seed < 0:
            raise ValueError("early_stop_patience and seed must be >= 0")
        if not (0.0 < self.validation_fraction < 1.0):
            raise ValueError("validation_fraction must lie in (0, 1)")


@dataclass
class MlpModel:
    """``params`` holds every weight and bias in one float64 array, in the
    checkpoint's order; ``layers`` gives views of it."""

    params: np.ndarray
    config: MlpConfig
    input_mean: np.ndarray
    input_scale: np.ndarray

    @property
    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(weight, bias) views of ``params`` per layer, input layer first."""
        return _layer_views(self.params, self.config)

    def copy(self) -> MlpModel:
        return MlpModel(params=self.params.copy(), config=self.config,
                        input_mean=self.input_mean.copy(), input_scale=self.input_scale.copy())


@dataclass
class TrainReport:
    epochs_run: int
    final_train_mse: float
    final_val_mse: float
    loss_curve: list[tuple[int, float, float]] = field(default_factory=list)


def _layer_shapes(cfg: MlpConfig) -> list[tuple[int, int]]:
    dims = [cfg.input_dim, *cfg.hidden_dims, 1]
    return list(zip(dims[:-1], dims[1:]))


def _param_count(cfg: MlpConfig) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in _layer_shapes(cfg))


def _layer_views(flat: np.ndarray, cfg: MlpConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views of an array laid out like ``params``; a weight has
    shape ``(fan_in, fan_out)``."""
    views, offset = [], 0
    for fan_in, fan_out in _layer_shapes(cfg):
        weight = flat[offset:offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        views.append((weight, flat[offset:offset + fan_out]))
        offset += fan_out
    return views


def init_model(cfg: MlpConfig) -> MlpModel:
    """Glorot-uniform weights, zero biases; deterministic under cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    model = MlpModel(params=np.zeros(_param_count(cfg)), config=cfg,
                     input_mean=np.zeros(cfg.input_dim), input_scale=np.ones(cfg.input_dim))
    for weight, _ in model.layers:
        fan_in, fan_out = weight.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weight[...] = rng.uniform(-limit, limit, size=weight.shape)
    return model


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # The clamp keeps outputs strictly inside (0, 1) in float64 even for
    # saturating logits, so threshold comparisons stay meaningful.
    z = np.clip(z, -36.0, 36.0)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _forward(model: MlpModel, x: np.ndarray, kept: list[np.ndarray] | None = None) -> np.ndarray:
    """Scores for the rows of ``x``; ``kept``, if given, collects the activations, input first."""
    a = x - model.input_mean
    a /= model.input_scale
    *hidden, (w_out, b_out) = model.layers
    for weight, bias in hidden:
        if kept is not None:
            kept.append(a)
        a = a @ weight
        a += bias
        if model.config.activation == "relu":
            np.maximum(a, 0.0, out=a)
        else:
            np.tanh(a, out=a)
    if kept is not None:
        kept.append(a)
    z = a @ w_out
    z += b_out
    return _sigmoid(z[:, 0])


def predict_batch(model: MlpModel, embeddings: np.ndarray) -> np.ndarray:
    """Forward pass for an (n, input_dim) matrix; returns scores in (0, 1)."""
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    if embeddings.shape[1] != model.config.input_dim:
        raise DimensionMismatchError(
            f"embedding dim {embeddings.shape[1]} != model input_dim {model.config.input_dim}"
        )
    return _forward(model, embeddings)


def _backward(model: MlpModel, x: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, float]:
    """Gradient of mean squared error over the batch, laid out like ``params``;
    returns (gradient, loss)."""
    relu = model.config.activation == "relu"
    activations: list[np.ndarray] = []
    y = _forward(model, x, activations)
    batch = x.shape[0]
    err = y - targets
    loss = float(np.mean(err ** 2))
    # d loss / d z_out, with sigmoid' = y (1 - y)
    delta = (2.0 / batch) * err * y * (1.0 - y)
    delta = delta[:, None]
    grad = np.empty_like(model.params)
    layers, d_layers = model.layers, _layer_views(grad, model.config)
    for i in range(len(layers) - 1, -1, -1):
        d_weight, d_bias = d_layers[i]
        d_weight[...] = activations[i].T @ delta
        d_bias[...] = delta.sum(axis=0)
        if i > 0:
            a = activations[i]  # relu' from a: max(z, 0) > 0 exactly where z > 0
            delta = (delta @ layers[i][0].T) * ((a > 0).astype(a.dtype) if relu else 1.0 - a * a)
    return grad, loss


def _mse(model: MlpModel, x: np.ndarray, targets: np.ndarray) -> float:
    return float(np.mean((_forward(model, x) - targets) ** 2))


def train(model: MlpModel, embeddings: np.ndarray,
          targets: np.ndarray) -> tuple[MlpModel, TrainReport]:
    """Adam under ``model.config``, stopped early; returns the best-validation snapshot."""
    cfg = model.config
    x = np.asarray(embeddings, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != t.shape[0]:
        raise ValueError("embeddings rows must match targets length")
    if x.shape[1] != model.config.input_dim:
        raise DimensionMismatchError(
            f"embedding dim {x.shape[1]} != model input_dim {model.config.input_dim}"
        )
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("targets must lie in [0, 1]")

    rng = np.random.default_rng(cfg.seed)
    n = x.shape[0]
    split_order = rng.permutation(n)
    n_val = min(max(int(round(cfg.validation_fraction * n)), 1), n - 1) if n > 1 else 0
    train_idx = split_order[: n - n_val]
    val_idx = split_order[n - n_val:]
    x_train, t_train = x[train_idx], t[train_idx]
    x_val, t_val = (x[val_idx], t[val_idx]) if n_val else (x_train, t_train)

    work = model.copy()
    work.input_mean = x_train.mean(axis=0)
    scale = x_train.std(axis=0)
    work.input_scale = np.where(scale < 1e-12, 1.0, scale)
    m = np.zeros_like(work.params)  # Adam's first and second moments
    v = np.zeros_like(work.params)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    best = work.copy()
    best_val = np.inf
    best_train = np.inf
    since_improve = 0
    curve: list[tuple[int, float, float]] = []
    epochs_run = 0

    n_train = x_train.shape[0]
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(n_train)
        for start in range(0, n_train, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            grad, _ = _backward(work, x_train[idx], t_train[idx])
            step += 1
            corr1 = 1.0 - beta1 ** step
            corr2 = 1.0 - beta2 ** step
            m = beta1 * m + (1 - beta1) * grad
            v = beta2 * v + (1 - beta2) * grad ** 2
            work.params -= cfg.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + eps)

        train_mse = _mse(work, x_train, t_train)
        val_mse = _mse(work, x_val, t_val)
        epochs_run = epoch
        curve.append((epoch, train_mse, val_mse))
        if not (np.isfinite(train_mse) and np.isfinite(val_mse)):
            raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
        if val_mse < best_val:
            best_val = val_mse
            best_train = train_mse
            best = work.copy()
            since_improve = 0
        else:
            since_improve += 1
            if since_improve > cfg.early_stop_patience:
                break

    report = TrainReport(
        epochs_run=epochs_run,
        final_train_mse=best_train,
        final_val_mse=best_val,
        loss_curve=curve,
    )
    return best, report


def gradient_check(model: MlpModel, embedding: np.ndarray, target: float,
                   step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Uses the per-example squared error; the model must be tiny (<= 10^4
    parameters) since the finite-difference sweep is O(params) forward passes.
    """
    if _param_count(model.config) > 10_000:
        raise ValueError("gradient_check requires a model with <= 10^4 parameters")
    x = np.asarray(embedding, dtype=np.float64).reshape(1, -1)
    t = np.asarray([target], dtype=np.float64)
    analytic, _ = _backward(model, x, t)

    probe = model.copy()
    params = probe.params
    numeric = np.empty_like(params)
    for j in range(params.size):
        saved = params[j]
        params[j] = saved + step
        up = _mse(probe, x, t)
        params[j] = saved - step
        down = _mse(probe, x, t)
        params[j] = saved
        numeric[j] = (up - down) / (2.0 * step)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# Checkpoint IO
# ---------------------------------------------------------------------------

_CKPT_FORMAT = "tierroute-mlp-v1"


def save_checkpoint(model: MlpModel, path: str | Path) -> None:
    header = {"format": _CKPT_FORMAT, **asdict(model.config), "param_count": model.params.size}
    write_arrays(path, header, model.input_mean, model.input_scale, model.params)


def load_checkpoint(path: str | Path) -> MlpModel:
    error = BundleIntegrityError
    header, body = header_line(path, _CKPT_FORMAT, error)
    cfg = read(MlpConfig, header, f"{path}: header", error=error)
    expected = _param_count(cfg)
    count = typed(header.get("param_count", MISSING), int, f"{path}: header.param_count", error)
    if count != expected:
        raise error(f"{path}: header param_count {count}, but the architecture has {expected}")
    input_mean, input_scale, params = payload_arrays(
        path, body, error, input_mean=cfg.input_dim, input_scale=cfg.input_dim, params=expected)
    bad = np.flatnonzero(input_scale <= 0.0)
    if bad.size:
        raise error(f"{path}: input_scale[{bad[0]}] is {input_scale[bad[0]]}; "
                    "it must be positive")
    return MlpModel(params=params, config=cfg, input_mean=input_mean, input_scale=input_scale)
