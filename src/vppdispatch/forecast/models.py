"""Forecasting model internals: a linear autoregressor and a gated
recurrent network written directly in numpy.

The recurrent cell uses the standard update/reset gating; the readout is a
single affine map from the final hidden state to one value per horizon
step.  Gradients are hand-derived backpropagation through time and are
pinned against central finite differences in the tests, so any change here
must keep them exact.  The gates' logistic function is branch-free and
gives the same bits as the two-branch stable form; ``mse`` is the one
definition of the training loss, shared by ``loss_and_grads`` and the
per-epoch loss that training logs from a forward pass alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PARAM_NAMES = ("Wz", "Uz", "bz", "Wr", "Ur", "br", "Wc", "Uc", "bc", "Wo", "bo")
CELL_PARAMS = ("Wz", "Uz", "bz", "Wr", "Ur", "br", "Wc", "Uc", "bc")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow and without boolean indexing.

    ``z = exp(-|x|)`` is ``exp(-x)`` for x >= 0 and ``exp(x)`` for x < 0, so
    this is ``1 / (1 + exp(-x))`` and ``exp(x) / (1 + exp(x))`` on the two
    sides, the textbook stable form, bit for bit; one division over the
    whole array is cheaper than masking on these small arrays.
    """
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, z) / (1.0 + z)


def mse(prediction: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared error, the training loss; an overflow reads as inf."""
    diff = prediction - targets
    with np.errstate(over="ignore"):  # divergence shows up as inf and is reported upstream
        return float(np.mean(diff * diff))


@dataclass
class LinearAR:
    """One-step-ahead affine predictor over a flat feature vector."""

    coef: np.ndarray
    intercept: float

    def predict(self, features: np.ndarray) -> float:
        return float(features @ self.coef + self.intercept)

    def copy(self) -> "LinearAR":
        return LinearAR(self.coef.copy(), self.intercept)

    @staticmethod
    def fit(X: np.ndarray, y: np.ndarray, ridge: float = 1e-8) -> "LinearAR":
        """Least squares with a tiny ridge for conditioning."""
        n, f = X.shape
        Xa = np.concatenate([X, np.ones((n, 1))], axis=1)
        gram = Xa.T @ Xa + ridge * np.eye(f + 1)
        beta = np.linalg.solve(gram, Xa.T @ y)
        return LinearAR(beta[:f], float(beta[f]))


class RecurrentNet:
    """Gated recurrent network with an affine per-horizon readout."""

    def __init__(self, input_dim: int, hidden_dim: int, output_horizon: int, seed: int = 0):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.output_horizon = output_horizon
        rng = np.random.default_rng(seed)
        D, H, O = input_dim, hidden_dim, output_horizon

        def glorot(shape):
            s = np.sqrt(6.0 / (shape[0] + shape[1]))
            return rng.uniform(-s, s, size=shape)

        self.params: dict[str, np.ndarray] = {}
        for gate in ("z", "r", "c"):
            self.params[f"W{gate}"] = glorot((H, D))
            self.params[f"U{gate}"] = glorot((H, H))
            self.params[f"b{gate}"] = np.zeros(H)
        self.params["Wo"] = glorot((O, H))
        self.params["bo"] = np.zeros(O)

    def copy(self) -> "RecurrentNet":
        dup = RecurrentNet.__new__(RecurrentNet)
        dup.input_dim = self.input_dim
        dup.hidden_dim = self.hidden_dim
        dup.output_horizon = self.output_horizon
        dup.params = {k: v.copy() for k, v in self.params.items()}
        return dup

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------

    def forward(self, sequences: np.ndarray, cache: list | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Run the recurrence over a batch of sequences.

        ``sequences`` has shape (B, K, input_dim).  Returns the readout
        (B, output_horizon) and the final hidden state (B, hidden_dim).
        The hidden state starts at zero.  Pass a list as ``cache`` to
        record per-step activations for ``backward``.
        """
        sequences = np.asarray(sequences, dtype=np.float64)
        if sequences.ndim != 3 or sequences.shape[2] != self.input_dim:
            raise ValueError(
                f"expected sequences of shape (B, K, {self.input_dim}), got {sequences.shape}"
            )
        if sequences.shape[1] == 0:
            raise ValueError("sequence must be nonempty")
        p = self.params
        B = sequences.shape[0]
        h = np.zeros((B, self.hidden_dim))
        for k in range(sequences.shape[1]):
            x = sequences[:, k, :]
            z = _sigmoid(x @ p["Wz"].T + h @ p["Uz"].T + p["bz"])
            r = _sigmoid(x @ p["Wr"].T + h @ p["Ur"].T + p["br"])
            c = np.tanh(x @ p["Wc"].T + (r * h) @ p["Uc"].T + p["bc"])
            h_new = (1.0 - z) * h + z * c
            if cache is not None:
                cache.append((x, h, z, r, c))
            h = h_new
        y = h @ p["Wo"].T + p["bo"]
        return y, h

    def backward(self, cache: list, d_y: np.ndarray, h_final: np.ndarray) -> dict[str, np.ndarray]:
        """Backpropagate a readout gradient through time.

        ``cache`` comes from ``forward``; ``d_y`` is dLoss/d(readout) with
        shape (B, output_horizon).  Returns dLoss/d(param) for every
        parameter tensor.
        """
        p = self.params
        grads = {k: np.zeros_like(v) for k, v in p.items()}
        grads["Wo"] = d_y.T @ h_final
        grads["bo"] = d_y.sum(axis=0)
        dh = d_y @ p["Wo"]
        for x, h_prev, z, r, c in reversed(cache):
            dz = dh * (c - h_prev)
            dc = dh * z
            dh_prev = dh * (1.0 - z)

            dc_pre = dc * (1.0 - c * c)
            grads["Wc"] += dc_pre.T @ x
            grads["Uc"] += dc_pre.T @ (r * h_prev)
            grads["bc"] += dc_pre.sum(axis=0)
            drh = dc_pre @ p["Uc"]
            dr = drh * h_prev
            dh_prev = dh_prev + drh * r

            dr_pre = dr * r * (1.0 - r)
            grads["Wr"] += dr_pre.T @ x
            grads["Ur"] += dr_pre.T @ h_prev
            grads["br"] += dr_pre.sum(axis=0)
            dh_prev = dh_prev + dr_pre @ p["Ur"]

            dz_pre = dz * z * (1.0 - z)
            grads["Wz"] += dz_pre.T @ x
            grads["Uz"] += dz_pre.T @ h_prev
            grads["bz"] += dz_pre.sum(axis=0)
            dh_prev = dh_prev + dz_pre @ p["Uz"]

            dh = dh_prev
        return grads

    def loss_and_grads(
        self, sequences: np.ndarray, targets: np.ndarray
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean squared error over the batch and its parameter gradients."""
        cache: list = []
        y, h = self.forward(sequences, cache)
        diff = y - targets
        d_y = 2.0 * diff / diff.size
        return mse(y, targets), self.backward(cache, d_y, h)

