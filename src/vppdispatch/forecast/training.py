"""Training, inference, uncertainty estimation and online updating.

One ForecastModel predicts one target series (a building's load, the solar
capacity, or the market price) over a fixed horizon.  Linear models are fit
by least squares and predict recursively one step at a time; recurrent
models train by plain mini-batch gradient descent with a fixed learning
rate (deliberately no adaptive optimizer: it would only add nondeterminism
surface at this scale) and predict the whole horizon directly.

Five online update schemes are supported: no update, a self-adaptive
affine correction fitted to recent prediction errors, retraining from
scratch, continued training at a reduced learning rate, and continued
training with the recurrent cell frozen so only the readout adapts.

``predict_stacked`` forecasts M recurrent series at one step in one stacked
forward with each series' ``predict`` bits.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..domain import TimeGrid
from .features import (
    build_features,
    calendar_encoding,
    recurrent_sequence,
    recurrent_sequences,
    window_dataset_linear,
    window_dataset_recurrent,
)
from .models import CELL_PARAMS, PARAM_NAMES, GateWeights, LinearAR, RecurrentNet, mse, recurrence

TARGETS = ("solar_capacity", "load", "price")
FLOORED_TARGETS = ("solar_capacity", "load")
SCHEME_KINDS = ("noft", "selfadapt", "scratch", "smalllr", "freeze")


class DivergenceError(RuntimeError):
    def __init__(self, epoch: int, detail: str = "became non-finite"):
        super().__init__(f"training loss {detail} at epoch {epoch}")
        self.epoch = epoch


class UpdateSchemeError(ValueError):
    pass


@dataclass(frozen=True)
class Normalization:
    feat_mean: np.ndarray
    feat_scale: np.ndarray
    target_mean: float
    target_scale: float

    @staticmethod
    def fit(X: np.ndarray, y: np.ndarray) -> "Normalization":
        """Per-feature z-scoring stats; constant features get scale 1."""
        axes = tuple(range(X.ndim - 1))
        mean = X.mean(axis=axes)
        scale = X.std(axis=axes)
        scale = np.where(scale < 1e-12, 1.0, scale)
        t_scale = float(y.std())
        return Normalization(mean, scale, float(y.mean()), t_scale if t_scale >= 1e-12 else 1.0)

    def norm_x(self, X: np.ndarray) -> np.ndarray:
        return (X - self.feat_mean) / self.feat_scale

    def norm_y(self, y: np.ndarray) -> np.ndarray:
        return (y - self.target_mean) / self.target_scale

    def denorm_y(self, y: np.ndarray) -> np.ndarray:
        return y * self.target_scale + self.target_mean


@dataclass(frozen=True)
class UncertaintyEstimate:
    """Per-horizon-step standard deviation of validation residuals."""

    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=np.float64))
        if np.any(self.sigma < 0):
            raise ValueError("sigma must be nonnegative")


@dataclass(frozen=True)
class UpdateScheme:
    kind: str = "noft"
    lr_multiplier: float = 0.1
    freeze_layers: tuple[str, ...] = ("cell",)
    correction_window: int = 72

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme {self.kind!r}, expected one of {SCHEME_KINDS}")
        if not (0 < self.lr_multiplier <= 1):
            raise ValueError("lr_multiplier must be in (0, 1]")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 150
    learning_rate: float = 0.05
    batch_size: int = 32
    seed: int = 0


@dataclass(frozen=True)
class ModelSpec:
    kind: str  # "linear" | "recurrent"
    target: str
    lag_K: int = 24
    horizon: int = 24
    hidden_dim: int = 32

    def __post_init__(self):
        if self.kind not in ("linear", "recurrent"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        if self.lag_K < 1 or self.horizon < 1:
            raise ValueError("lag_K and horizon must be >= 1")


@dataclass
class ForecastModel:
    spec: ModelSpec
    norm: Normalization
    linear: LinearAR | None = None
    net: RecurrentNet | None = None
    correction: tuple[float, float] = (1.0, 0.0)  # prediction -> a*pred + b
    train_losses: list[float] = field(default_factory=list)

    def copy(self) -> "ForecastModel":
        return ForecastModel(
            spec=self.spec,
            norm=self.norm,
            linear=self.linear.copy() if self.linear is not None else None,
            net=self.net.copy() if self.net is not None else None,
            correction=self.correction,
            train_losses=list(self.train_losses),
        )


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------

def _gd_train(
    net: RecurrentNet,
    X: np.ndarray,
    Y: np.ndarray,
    hyper: TrainConfig,
    learning_rate: float,
    trainable: tuple[str, ...] = PARAM_NAMES,
) -> list[float]:
    """Mini-batch gradient descent on normalized data; returns the
    full-dataset loss per epoch (index 0 is the pre-update loss).

    Raises ``DivergenceError`` when a loss becomes non-finite, or when the
    final loss ends above the pre-update one: the weights exploded even if
    they stayed finite.
    """
    rng = np.random.default_rng(hyper.seed)
    n = X.shape[0]
    batch = min(hyper.batch_size, n)
    losses = [mse(net.forward(X)[0], Y)]
    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            loss, grads = net.loss_and_grads(X[idx], Y[idx])
            if not np.isfinite(loss):
                raise DivergenceError(epoch)
            for name in trainable:
                net.params[name] -= learning_rate * grads[name]
        losses.append(mse(net.forward(X)[0], Y))
        if not np.isfinite(losses[-1]):
            raise DivergenceError(epoch)
    if losses[-1] > losses[0]:
        raise DivergenceError(hyper.epochs - 1, f"rose from {losses[0]:.3g} to {losses[-1]:.3g}")
    return losses


def make_dataset(
    spec: ModelSpec, history: np.ndarray, calendar: TimeGrid, t_start: int, t_end: int
) -> tuple[np.ndarray, np.ndarray]:
    """Raw (unnormalized) training pairs for a model spec over a step range."""
    if spec.kind == "linear":
        return window_dataset_linear(history, calendar, spec.lag_K, t_start, t_end)
    return window_dataset_recurrent(history, calendar, spec.lag_K, spec.horizon, t_start, t_end)


def train(spec: ModelSpec, dataset: tuple[np.ndarray, np.ndarray], hyper: TrainConfig) -> ForecastModel:
    """Fit a model on (features, targets) pairs.

    Normalization statistics come from this dataset only.  Deterministic
    given ``hyper.seed``.
    """
    X, Y = dataset
    if X.shape[0] == 0:
        raise ValueError("dataset is empty")
    norm = Normalization.fit(X, Y)
    Xn, Yn = norm.norm_x(X), norm.norm_y(Y)
    if spec.kind == "linear":
        model = ForecastModel(spec=spec, norm=norm, linear=LinearAR.fit(Xn, Yn))
        resid = Xn @ model.linear.coef + model.linear.intercept - Yn
        model.train_losses = [float(np.mean(Yn * Yn)), float(np.mean(resid * resid))]
        return model
    net = RecurrentNet(input_dim=X.shape[2], hidden_dim=spec.hidden_dim, output_horizon=spec.horizon, seed=hyper.seed)
    losses = _gd_train(net, Xn, Yn, hyper, hyper.learning_rate)
    return ForecastModel(spec=spec, norm=norm, net=net, train_losses=losses)


# ----------------------------------------------------------------------
# inference
# ----------------------------------------------------------------------

def predict(model: ForecastModel, history: np.ndarray, calendar: TimeGrid, t: int, horizon_T: int) -> np.ndarray:
    """Point forecasts for steps [t, t+horizon_T) given history up to t.

    Applies the model's affine correction, then floors solar and load
    forecasts at zero.
    """
    spec = model.spec
    history = np.asarray(history, dtype=np.float64)
    if spec.kind == "linear":
        # The features of step t+h are the calendar of t+h and the K values
        # before it, the later ones this forecast's own predictions.  The
        # calendar block is encoded and normalized once; per step only the
        # lags are, and the dot product runs on the same 6+K operands as
        # over the whole normalized feature vector.
        K, norm = spec.lag_K, model.norm
        out = np.empty(horizon_T)
        lags = np.empty(K + horizon_T)
        lags[:K] = build_features(history, calendar, t, K)[6:]  # raises on a short history
        steps = calendar_encoding(calendar, t + np.arange(horizon_T)).T
        row = np.empty((horizon_T, 6 + K))
        row[:, :6] = (steps - norm.feat_mean[:6]) / norm.feat_scale[:6]
        lag_mean, lag_scale = norm.feat_mean[6:], norm.feat_scale[6:]
        for h in range(horizon_T):
            np.divide(lags[h : h + K] - lag_mean, lag_scale, out=row[h, 6:])
            value = model.linear.predict(row[h]) * norm.target_scale + norm.target_mean
            out[h] = lags[K + h] = value  # recursive: feed the prediction back
    else:
        if horizon_T > spec.horizon:
            raise ValueError(f"model horizon {spec.horizon} cannot cover {horizon_T} steps")
        seq = recurrent_sequence(history, calendar, t, spec.lag_K)
        yn, _ = model.net.forward(model.norm.norm_x(seq)[None, :, :])
        out = np.asarray(model.norm.denorm_y(yn[0][:horizon_T]))
    return _corrected(model, out)


def predict_stacked(
    models: Sequence[ForecastModel],
    histories: Sequence[np.ndarray],
    calendar: TimeGrid,
    t: int,
    horizon_T: int,
) -> np.ndarray:
    """``predict`` for M recurrent models at one step in one stacked
    forward, shape (M, horizon_T); a model may appear more than once.

    Row m is ``predict(models[m], histories[m], calendar, t, horizon_T)``
    bit for bit, with its checks.  The models share ``lag_K`` and
    ``hidden_dim``.  Each series is normalized with its own model's
    ``norm_x`` into one C-contiguous (M, 1, K, 7) batch, which
    ``recurrence`` runs as M batch-1 forwards over the nets' weights
    stacked by ``GateWeights.stack`` (see ``models.recurrence`` for why
    the bits are kept), then denormalized and corrected per series.
    """
    for model in models:
        if horizon_T > model.spec.horizon:
            raise ValueError(f"model horizon {model.spec.horizon} cannot cover {horizon_T} steps")
    if len({model.spec.lag_K for model in models}) > 1:
        raise ValueError("stacked models must share lag_K")
    seqs = recurrent_sequences(histories, calendar, t, models[0].spec.lag_K)
    batch = np.stack([model.norm.norm_x(seq)[None] for model, seq in zip(models, seqs)])
    yn, _ = recurrence(batch, GateWeights.stack([model.net for model in models]))
    return np.stack(
        [_corrected(model, model.norm.denorm_y(y[0, :horizon_T])) for model, y in zip(models, yn)]
    )


def _corrected(model: ForecastModel, out: np.ndarray) -> np.ndarray:
    """Apply the model's affine correction, then floor solar and load at zero."""
    a, b = model.correction
    out = a * out + b
    if model.spec.target in FLOORED_TARGETS:
        out = np.maximum(out, 0.0)
    return out


def estimate_variance(
    model: ForecastModel,
    history: np.ndarray,
    calendar: TimeGrid,
    t_start: int,
    t_end: int,
    windows: list | None = None,
) -> UncertaintyEstimate:
    """Empirical residual spread per horizon step over validation windows.

    Windows start at every step in [t_start, t_end - horizon]; at least two
    are required for the spread to be defined.  If ``windows`` is given,
    each window's ``(actual, predicted)`` pair is appended to it, so callers
    can score the same forecasts without predicting again.

    A recurrent model predicts all windows in one batched forward over
    ``window_dataset_recurrent``'s sequences, which are the ones ``predict``
    builds per window.  Its rows go through a matrix-matrix product where a
    single window's forward goes through a matrix-vector one, so a
    prediction can differ from ``predict``'s in its last bits.  A linear
    model predicts window by window.
    """
    spec = model.spec
    H = spec.horizon
    starts = range(max(t_start, spec.lag_K), t_end - H + 1)
    if model.net is not None and len(starts) > 0:
        X, actuals = window_dataset_recurrent(history, calendar, spec.lag_K, H, t_start, t_end)
        yn, _ = model.net.forward(model.norm.norm_x(X))
        pairs = zip(actuals, _corrected(model, model.norm.denorm_y(yn)))
    else:
        pairs = ((np.asarray(history[t : t + H]), predict(model, history, calendar, t, H)) for t in starts)
    residuals = []
    for actual, pred in pairs:
        residuals.append(actual - pred)
        if windows is not None:
            windows.append((actual, pred))
    if len(residuals) < 2:
        raise ValueError(f"need at least 2 validation windows, got {len(residuals)}")
    R = np.stack(residuals)
    return UncertaintyEstimate(np.std(R, axis=0))


# ----------------------------------------------------------------------
# online updates
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OnlineData:
    """What an online update may look at: the realized series so far, the
    window of fresh observations, and the logged (predicted, actual) pairs."""

    history: np.ndarray
    calendar: TimeGrid
    now: int
    online_window: int = 336
    predicted: np.ndarray = field(default_factory=lambda: np.zeros(0))
    actual: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _fit_affine_correction(predicted: np.ndarray, actual: np.ndarray) -> tuple[float, float]:
    var = float(np.var(predicted))
    if var < 1e-12:
        a = 1.0
    else:
        a = float(np.cov(predicted, actual, ddof=0)[0, 1]) / var
    b = float(np.mean(actual) - a * np.mean(predicted))
    return a, b


def apply_update(
    model: ForecastModel, scheme: UpdateScheme, online: OnlineData, hyper: TrainConfig
) -> ForecastModel:
    """Produce the updated model for one fine-tuning event (the input model
    is never mutated)."""
    if scheme.kind == "noft":
        return model

    if scheme.kind == "selfadapt":
        w = scheme.correction_window
        if online.predicted.shape[0] < 2:
            raise UpdateSchemeError("selfadapt needs at least 2 (predicted, actual) pairs")
        if w > online.predicted.shape[0]:
            raise UpdateSchemeError(
                f"correction window {w} larger than available data {online.predicted.shape[0]}"
            )
        a, b = _fit_affine_correction(online.predicted[-w:], online.actual[-w:])
        a0, b0 = model.correction
        out = model.copy()
        out.correction = (a * a0, a * b0 + b)  # compose onto the existing correction
        return out

    if scheme.kind == "scratch":
        dataset = make_dataset(model.spec, online.history, online.calendar, 0, online.now)
        return train(model.spec, dataset, hyper)

    # gradient-based continual schemes
    if model.net is None:
        raise UpdateSchemeError(f"scheme {scheme.kind!r} requires a recurrent model")
    start = max(0, online.now - online.online_window)
    X, Y = make_dataset(model.spec, online.history, online.calendar, start, online.now)
    out = model.copy()
    Xn, Yn = out.norm.norm_x(X), out.norm.norm_y(Y)
    if scheme.kind == "smalllr":
        losses = _gd_train(out.net, Xn, Yn, hyper, hyper.learning_rate * scheme.lr_multiplier)
    else:  # freeze: only the readout moves
        trainable = tuple(n for n in PARAM_NAMES if n not in CELL_PARAMS)
        losses = _gd_train(out.net, Xn, Yn, hyper, hyper.learning_rate, trainable)
    out.train_losses = out.train_losses + losses[1:]
    return out


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------

_MAGIC = b"VPPFCST1"
_VERSION = 1


def _model_arrays(model: ForecastModel) -> dict[str, np.ndarray]:
    arrays = {
        "norm.feat_mean": model.norm.feat_mean,
        "norm.feat_scale": model.norm.feat_scale,
        "norm.target": np.array([model.norm.target_mean, model.norm.target_scale]),
        "correction": np.array(model.correction),
    }
    if model.linear is not None:
        arrays["linear.coef"] = model.linear.coef
        arrays["linear.intercept"] = np.array([model.linear.intercept])
    if model.net is not None:
        for name in PARAM_NAMES:
            arrays[f"net.{name}"] = model.net.params[name]
    return arrays


def save_model(model: ForecastModel, path: str) -> None:
    """Checkpoint layout: magic, version, JSON header with the shape table,
    then raw float64 arrays row-major in header order."""
    arrays = _model_arrays(model)
    header = {
        "kind": model.spec.kind,
        "target": model.spec.target,
        "lag_K": model.spec.lag_K,
        "horizon": model.spec.horizon,
        "hidden_dim": model.spec.hidden_dim,
        "input_dim": model.net.input_dim if model.net is not None else None,
        "shapes": [[name, list(arr.shape)] for name, arr in arrays.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(blob)))
        fh.write(blob)
        for _, arr in arrays.items():
            fh.write(np.ascontiguousarray(arr, dtype=np.float64).tobytes())


def load_model(path: str) -> ForecastModel:
    with open(path, "rb") as fh:
        if fh.read(8) != _MAGIC:
            raise ValueError(f"{path}: not a forecast checkpoint")
        version, hlen = struct.unpack("<II", fh.read(8))
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        header = json.loads(fh.read(hlen))
        arrays = {}
        for name, shape in header["shapes"]:
            count = int(np.prod(shape)) if shape else 1
            arrays[name] = np.frombuffer(fh.read(count * 8), dtype=np.float64).reshape(shape).copy()

    spec = ModelSpec(
        kind=header["kind"],
        target=header["target"],
        lag_K=header["lag_K"],
        horizon=header["horizon"],
        hidden_dim=header["hidden_dim"],
    )
    norm = Normalization(
        feat_mean=arrays["norm.feat_mean"],
        feat_scale=arrays["norm.feat_scale"],
        target_mean=float(arrays["norm.target"][0]),
        target_scale=float(arrays["norm.target"][1]),
    )
    model = ForecastModel(spec=spec, norm=norm, correction=tuple(arrays["correction"]))
    if spec.kind == "linear":
        model.linear = LinearAR(arrays["linear.coef"], float(arrays["linear.intercept"][0]))
    else:
        net = RecurrentNet.__new__(RecurrentNet)
        net.input_dim = int(header["input_dim"])
        net.hidden_dim = spec.hidden_dim
        net.output_horizon = spec.horizon
        net.params = {name: arrays[f"net.{name}"] for name in PARAM_NAMES}
        model.net = net
    return model
