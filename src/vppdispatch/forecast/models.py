"""Forecasting model internals: a linear autoregressor and a gated
recurrent network written directly in numpy.

The recurrent cell uses the standard update/reset gating; the readout is a
single affine map from the final hidden state to one value per horizon
step.  Gradients are hand-derived backpropagation through time and are
pinned against central finite differences in the tests, so any change here
must keep them exact.  The three gates run fused, one stacked product per
step for all their inputs, with the same bits as a gate-at-a-time cell.
One loop, ``recurrence``, runs one net or a stack of M nets over a leading
axis (the weights stacked as ``GateWeights``), each net of a stack with
the bits of its own forward; ``RecurrentNet.forward`` is its unstacked
case.  The gates' logistic function is branch-free and gives the same
bits as the two-branch stable form; ``mse`` is the one definition of the
training loss, shared by ``loss_and_grads`` and the full-dataset losses
that training checks before its first epoch and after its last.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

PARAM_NAMES = ("Wz", "Uz", "bz", "Wr", "Ur", "br", "Wc", "Uc", "bc", "Wo", "bo")
CELL_PARAMS = ("Wz", "Uz", "bz", "Wr", "Ur", "br", "Wc", "Uc", "bc")


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function without overflow and without boolean indexing.

    ``z = exp(-|x|)`` is ``exp(-x)`` for x >= 0 and ``exp(x)`` for x < 0, so
    this is ``1 / (1 + exp(-x))`` and ``exp(x) / (1 + exp(x))`` on the two
    sides, the textbook stable form, bit for bit.  The numerator is
    ``max(z, x >= 0)``: 1 where x >= 0 (there z <= 1) and z elsewhere (there
    z >= 0).  The maximum runs branch-free, where ``np.where`` over a
    random sign pattern mispredicts a branch per element.  ``out`` may be
    ``x`` itself, which saves the result's allocation.
    """
    z = np.abs(x)
    np.negative(z, out=z)
    np.exp(z, out=z)
    num = np.maximum(z, x >= 0, out=out)
    z += 1.0
    num /= z
    return num


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


class GateWeights(NamedTuple):
    """A recurrent net's weights stacked gate-major, optionally with a
    leading stack axis of M nets.

    Without a stack axis the shapes are ``W`` (3, H, D) ``[Wz; Wr; Wc]``,
    ``Uzr`` (2, H, H) ``[Uz; Ur]``, ``bzr`` (2, H), ``Uc`` (H, H), ``bc``
    (H,), ``Wo`` (O, H) and ``bo`` (O,); a stack puts (M,) in front of
    each.  Every array holds the weights in their own orientation and
    C-contiguous; ``recurrence`` uses them through transposed views.
    """

    W: np.ndarray
    Uzr: np.ndarray
    bzr: np.ndarray
    Uc: np.ndarray
    bc: np.ndarray
    Wo: np.ndarray
    bo: np.ndarray

    @staticmethod
    def stack(nets: Sequence["RecurrentNet"]) -> "GateWeights":
        """The weights of M nets of one shape along a leading axis; a net
        may appear more than once.  The arrays are copies."""
        return GateWeights(*(np.stack(arrays) for arrays in zip(*(net.gate_weights() for net in nets))))


def recurrence(
    sequences: np.ndarray, weights: GateWeights, cache: list | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The gated recurrence and its readout, for one net or a stack of nets.

    ``sequences`` is (B, K, D) for one net's ``weights`` or (M, B, K, D)
    for a stack, series m running through net m.  Returns the readout
    (..., B, O) and the final hidden state (..., B, H); ``cache``, if
    given, receives each step's ``(x, h, z, r, c)``.

    The gates run fused, gate-major.  A step makes one input product into
    a (..., 3, B, H) buffer, one recurrent product (..., 2, B, H) for z
    and r, one in-place ``_sigmoid`` over that block, and ``c`` from
    ``(r * h) @ Uc.T``.  A stacked ``matmul`` makes one BLAS call per
    (series, gate) on exactly the operands of the per-gate ``x @ Wz.T``,
    so every product keeps its bits, and series m of a stack gets the bits
    of its own unstacked forward.  That holds only while the weights enter
    as transposed views of C-contiguous arrays and ``x`` as a broadcast
    view: copying the transposed weights contiguous changes the operands
    of both the input product and the readout, and their bits.  A (B, 3H)
    product would keep the bits too, except in a one-unit cell, whose
    per-gate products are matrix-vector ones that round differently.  Each
    pre-activation adds ``h U`` to ``x W`` (one commutative sum) and then
    ``b``, which is ``(x W + h U) + b`` bit for bit, and the new state is
    ``(1 - z) * h + z * c``, so the activations are the per-gate loop's
    (pinned against ``LoopRecurrentNet`` in the tests).  ``backward``
    reads the cache of an unstacked call.
    """
    W, Uzr, bzr, Uc, bc, Wo, bo = weights
    W_T, Uzr_T, Uc_T = W.swapaxes(-1, -2), Uzr.swapaxes(-1, -2), Uc.swapaxes(-1, -2)
    bzr, bc = bzr[..., None, :], bc[..., None, :]
    *stack, B, K, _ = sequences.shape
    h = np.zeros((*stack, B, Uc.shape[-1]))
    xw = np.empty((*stack, 3, B, Uc.shape[-1]))
    xw_zr, xw_c = xw[..., :2, :, :], xw[..., 2, :, :]
    for k in range(K):
        x = sequences[..., k, :]
        np.matmul(x[..., None, :, :], W_T, out=xw)
        zr = np.matmul(h[..., None, :, :], Uzr_T)
        zr += xw_zr
        zr += bzr
        _sigmoid(zr, out=zr)
        z, r = zr[..., 0, :, :], zr[..., 1, :, :]
        xw_c += np.matmul(r * h, Uc_T)
        xw_c += bc
        c = np.tanh(xw_c)
        h_new = 1.0 - z
        h_new *= h
        h_new += z * c
        if cache is not None:
            cache.append((x, h, z, r, c))
        h = h_new
    return np.matmul(h, Wo.swapaxes(-1, -2)) + bo[..., None, :], h


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

    def gate_weights(self) -> GateWeights:
        """This net's weights stacked gate-major (see ``GateWeights``)."""
        p = self.params
        return GateWeights(
            W=np.stack((p["Wz"], p["Wr"], p["Wc"])),
            Uzr=np.stack((p["Uz"], p["Ur"])),
            bzr=np.stack((p["bz"], p["br"])),
            Uc=p["Uc"], bc=p["bc"], Wo=p["Wo"], bo=p["bo"],
        )

    def forward(self, sequences: np.ndarray, cache: list | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Run the recurrence over a batch of sequences.

        ``sequences`` has shape (B, K, input_dim).  Returns the readout
        (B, output_horizon) and the final hidden state (B, hidden_dim).
        The hidden state starts at zero.  Pass a list as ``cache`` to
        record per-step activations for ``backward``.  This is
        ``recurrence`` over the net's own weights, with no stack axis.
        """
        sequences = np.asarray(sequences, dtype=np.float64)
        if sequences.ndim != 3 or sequences.shape[2] != self.input_dim:
            raise ValueError(
                f"expected sequences of shape (B, K, {self.input_dim}), got {sequences.shape}"
            )
        if sequences.shape[1] == 0:
            raise ValueError("sequence must be nonempty")
        return recurrence(sequences, self.gate_weights(), cache)

    def backward(self, cache: list, d_y: np.ndarray, h_final: np.ndarray) -> dict[str, np.ndarray]:
        """Backpropagate a readout gradient through time.

        ``cache`` comes from ``forward``; ``d_y`` is dLoss/d(readout) with
        shape (B, output_horizon).  Returns dLoss/d(param) for every
        parameter tensor.

        A step writes the pre-activation gradients ``[dz_pre, dr_pre,
        dc_pre]`` into one (3, B, H) buffer and accumulates, with one call
        each, ``dW += dpre.T @ x`` over the three gates, ``dU_zr +=
        dpre[:2].T @ h_prev`` over z and r, and ``db += dpre.sum`` over
        the batch; ``dUc`` takes ``dc_pre.T @ (r * h_prev)``.  As forward,
        the stacked products make one BLAS call per gate on the per-gate
        operands.  Every elementwise factor is formed in the per-gate
        loop's order, and the hidden state's recurrent terms ``dr_pre @ Ur``
        and ``dz_pre @ Uz`` stay two products (from one stacked call) added
        r first, so the gradients are that loop's bit for bit.
        """
        p = self.params
        B, H = d_y.shape[0], self.hidden_dim
        dW = np.zeros((3, H, self.input_dim))
        dU_zr = np.zeros((2, H, H))
        dUc = np.zeros((H, H))
        db = np.zeros((3, H))
        dpre = np.empty((3, B, H))
        dz_pre, dr_pre, dc_pre = dpre
        dpre_T = dpre.transpose(0, 2, 1)
        U_zr = np.stack((p["Uz"], p["Ur"]))
        Uc = p["Uc"]
        dh = d_y @ p["Wo"]
        for x, h_prev, z, r, c in reversed(cache):
            dz = dh * (c - h_prev)
            dc = dh * z
            dh_prev = dh * (1.0 - z)

            np.multiply(dc, 1.0 - c * c, out=dc_pre)
            drh = dc_pre @ Uc
            dr = drh * h_prev
            dh_prev += drh * r
            np.multiply(dr * r, 1.0 - r, out=dr_pre)
            np.multiply(dz * z, 1.0 - z, out=dz_pre)

            dW += np.matmul(dpre_T, x)
            dU_zr += np.matmul(dpre_T[:2], h_prev)
            dUc += dc_pre.T @ (r * h_prev)
            db += dpre.sum(axis=1)
            dh_z, dh_r = np.matmul(dpre[:2], U_zr)
            dh_prev += dh_r
            dh_prev += dh_z
            dh = dh_prev
        return {
            "Wz": dW[0], "Uz": dU_zr[0], "bz": db[0],
            "Wr": dW[1], "Ur": dU_zr[1], "br": db[1],
            "Wc": dW[2], "Uc": dUc, "bc": db[2],
            "Wo": d_y.T @ h_final, "bo": d_y.sum(axis=0),
        }

    def loss_and_grads(
        self, sequences: np.ndarray, targets: np.ndarray
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean squared error over the batch and its parameter gradients."""
        cache: list = []
        y, h = self.forward(sequences, cache)
        diff = y - targets
        d_y = 2.0 * diff / diff.size
        return mse(y, targets), self.backward(cache, d_y, h)

