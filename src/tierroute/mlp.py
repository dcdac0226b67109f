"""Small MLP regressor mapping query embeddings to a consistency score in (0, 1).

Training minimizes mean squared error against the fused soft labels with the
Adam update rule; the returned model is the best-validation snapshot.

Inputs are standardized per dimension with statistics fitted on the training
split and stored with the model, so embedding scale never saturates the
logistic output.

Checkpoint layout (``tierroute-mlp-v1``): an arrays file (see ``formats``)
whose header holds the config fields plus ``param_count``, and whose payload is
the input mean vector (input_dim), the input scale vector (input_dim), then the
flat parameter array ordered layer by layer from input to output, weight matrix
first (shape ``(fan_in, fan_out)``) then bias vector.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import BundleIntegrityError, DimensionMismatchError, TrainingDivergedError
from .fields import MISSING, read, typed
from .formats import header_line, write_arrays

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
    shuffle_each_epoch: bool = True

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
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    config: MlpConfig
    input_mean: np.ndarray | None = None
    input_scale: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.input_mean is None:
            self.input_mean = np.zeros(self.config.input_dim)
        if self.input_scale is None:
            self.input_scale = np.ones(self.config.input_dim)

    def param_count(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def copy(self) -> MlpModel:
        return MlpModel(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            config=self.config,
            input_mean=self.input_mean.copy(),
            input_scale=self.input_scale.copy(),
        )

    def flat_params(self) -> np.ndarray:
        chunks = []
        for w, b in zip(self.weights, self.biases):
            chunks.append(w.ravel(order="C"))
            chunks.append(b.ravel())
        return np.concatenate(chunks)

    def set_flat_params(self, flat: np.ndarray) -> None:
        offset = 0
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            self.weights[i] = flat[offset:offset + w.size].reshape(w.shape).copy()
            offset += w.size
            self.biases[i] = flat[offset:offset + b.size].copy()
            offset += b.size


@dataclass
class TrainReport:
    epochs_run: int
    final_train_mse: float
    final_val_mse: float
    loss_curve: list[tuple[int, float, float]] = field(default_factory=list)


def _layer_dims(cfg: MlpConfig) -> list[int]:
    return [cfg.input_dim, *cfg.hidden_dims, 1]


def init_model(cfg: MlpConfig) -> MlpModel:
    """Glorot-uniform weights, zero biases; deterministic under cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    dims = _layer_dims(cfg)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights=weights, biases=biases, config=cfg)


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


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    return np.maximum(z, 0.0) if kind == "relu" else np.tanh(z)


def _activate_grad(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    return (z > 0).astype(z.dtype) if kind == "relu" else 1.0 - a * a


def _forward(model: MlpModel, x: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    kind = model.config.activation
    x = (x - model.input_mean) / model.input_scale
    activations = [x]
    pre = []
    a = x
    n_layers = len(model.weights)
    for i in range(n_layers - 1):
        z = a @ model.weights[i] + model.biases[i]
        a = _activate(z, kind)
        pre.append(z)
        activations.append(a)
    z_out = a @ model.weights[-1] + model.biases[-1]
    pre.append(z_out)
    y = _sigmoid(z_out[:, 0])
    return activations, pre, y


def predict_batch(model: MlpModel, embeddings: np.ndarray) -> np.ndarray:
    """Forward pass for an (n, input_dim) matrix; returns scores in (0, 1)."""
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    if embeddings.shape[1] != model.config.input_dim:
        raise DimensionMismatchError(
            f"embedding dim {embeddings.shape[1]} != model input_dim {model.config.input_dim}"
        )
    _, _, y = _forward(model, embeddings)
    return y


def predict(model: MlpModel, embedding: np.ndarray) -> float:
    return float(predict_batch(model, np.asarray(embedding).reshape(1, -1))[0])


def _backward(model: MlpModel, x: np.ndarray, targets: np.ndarray
              ) -> tuple[list[np.ndarray], list[np.ndarray], float]:
    """Gradients of mean squared error over the batch; returns (dW, db, loss)."""
    kind = model.config.activation
    activations, pre, y = _forward(model, x)
    batch = x.shape[0]
    err = y - targets
    loss = float(np.mean(err ** 2))
    # d loss / d z_out, with sigmoid' = y (1 - y)
    delta = (2.0 / batch) * err * y * (1.0 - y)
    delta = delta[:, None]
    d_weights: list[np.ndarray] = [np.empty(0)] * len(model.weights)
    d_biases: list[np.ndarray] = [np.empty(0)] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        d_weights[i] = activations[i].T @ delta
        d_biases[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * _activate_grad(pre[i - 1], activations[i], kind)
    return d_weights, d_biases, loss


def _mse(model: MlpModel, x: np.ndarray, targets: np.ndarray) -> float:
    _, _, y = _forward(model, x)
    return float(np.mean((y - targets) ** 2))


def train(model: MlpModel, embeddings: np.ndarray, targets: np.ndarray,
          cfg: MlpConfig | None = None) -> tuple[MlpModel, TrainReport]:
    """Mini-batch Adam with early stopping; returns the best-validation snapshot."""
    cfg = cfg or model.config
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
    split_order = rng.permutation(n) if cfg.shuffle_each_epoch else np.arange(n)
    n_val = min(max(int(round(cfg.validation_fraction * n)), 1), n - 1) if n > 1 else 0
    train_idx = split_order[: n - n_val]
    val_idx = split_order[n - n_val:]
    x_train, t_train = x[train_idx], t[train_idx]
    x_val, t_val = (x[val_idx], t[val_idx]) if n_val else (x_train, t_train)

    work = model.copy()
    work.input_mean = x_train.mean(axis=0)
    scale = x_train.std(axis=0)
    work.input_scale = np.where(scale < 1e-12, 1.0, scale)
    m_w = [np.zeros_like(w) for w in work.weights]
    v_w = [np.zeros_like(w) for w in work.weights]
    m_b = [np.zeros_like(b) for b in work.biases]
    v_b = [np.zeros_like(b) for b in work.biases]
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
        order = rng.permutation(n_train) if cfg.shuffle_each_epoch else np.arange(n_train)
        for start in range(0, n_train, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            d_w, d_b, _ = _backward(work, x_train[idx], t_train[idx])
            step += 1
            corr1 = 1.0 - beta1 ** step
            corr2 = 1.0 - beta2 ** step
            for i in range(len(work.weights)):
                m_w[i] = beta1 * m_w[i] + (1 - beta1) * d_w[i]
                v_w[i] = beta2 * v_w[i] + (1 - beta2) * d_w[i] ** 2
                work.weights[i] -= cfg.learning_rate * (m_w[i] / corr1) / (np.sqrt(v_w[i] / corr2) + eps)
                m_b[i] = beta1 * m_b[i] + (1 - beta1) * d_b[i]
                v_b[i] = beta2 * v_b[i] + (1 - beta2) * d_b[i] ** 2
                work.biases[i] -= cfg.learning_rate * (m_b[i] / corr1) / (np.sqrt(v_b[i] / corr2) + eps)

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
    if model.param_count() > 10_000:
        raise ValueError("gradient_check requires a model with <= 10^4 parameters")
    x = np.asarray(embedding, dtype=np.float64).reshape(1, -1)
    t = np.asarray([target], dtype=np.float64)
    d_w, d_b, _ = _backward(model, x, t)
    analytic = np.concatenate([
        np.concatenate([dw.ravel(order="C"), db.ravel()]) for dw, db in zip(d_w, d_b)
    ])

    flat = model.flat_params()
    probe = model.copy()
    numeric = np.empty_like(flat)
    for j in range(flat.size):
        saved = flat[j]
        flat[j] = saved + step
        probe.set_flat_params(flat)
        up = _mse(probe, x, t)
        flat[j] = saved - step
        probe.set_flat_params(flat)
        down = _mse(probe, x, t)
        flat[j] = saved
        numeric[j] = (up - down) / (2.0 * step)
    probe.set_flat_params(flat)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# Checkpoint IO
# ---------------------------------------------------------------------------

_CKPT_FORMAT = "tierroute-mlp-v1"


def save_checkpoint(model: MlpModel, path: str | Path) -> None:
    header = {"format": _CKPT_FORMAT, **asdict(model.config), "param_count": model.param_count()}
    write_arrays(path, header, model.input_mean, model.input_scale, model.flat_params())


def load_checkpoint(path: str | Path) -> MlpModel:
    error = BundleIntegrityError
    header, body = header_line(path, _CKPT_FORMAT, error)
    cfg = read(MlpConfig, header, f"{path}: header", error=error)
    dims = _layer_dims(cfg)
    expected = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:]))
    count = typed(header.get("param_count", MISSING), int, f"{path}: header.param_count", error)
    if count != expected:
        raise error(f"{path}: header param_count {count}, but the architecture has {expected}")
    total = expected + 2 * cfg.input_dim
    if len(body) != total * 8:
        raise error(f"{path}: parameter payload holds {len(body)} bytes, expected {total * 8}")
    flat = np.frombuffer(body, dtype="<f8").astype(np.float64)
    model = init_model(cfg)
    model.input_mean = flat[: cfg.input_dim].copy()
    model.input_scale = flat[cfg.input_dim: 2 * cfg.input_dim].copy()
    model.set_flat_params(flat[2 * cfg.input_dim:])
    return model
