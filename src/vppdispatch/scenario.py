"""Scenario sampling: point forecasts + uncertainty -> N joint realizations.

Each scenario draws independent Gaussian noise per step, per target and per
device, centered on the point forecast with the per-horizon-step residual
spread as standard deviation.  Negative draws are truncated at zero (the
bias this induces is negligible while sigma stays well below the mean, and
it keeps every realization physically meaningful).  No correlation across
steps or targets is invented: the uncertainty estimate carries none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Forecasts:
    """Point forecasts over a horizon: solar per generator (G, T), load per
    building (U, T), price (T,)."""

    solar: np.ndarray
    load: np.ndarray
    price: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "solar", np.atleast_2d(np.asarray(self.solar, dtype=np.float64)))
        object.__setattr__(self, "load", np.atleast_2d(np.asarray(self.load, dtype=np.float64)))
        object.__setattr__(self, "price", np.asarray(self.price, dtype=np.float64))
        T = self.price.shape[0]
        if self.solar.shape[1] != T or self.load.shape[1] != T:
            raise ValueError("forecast series lengths disagree")

    @property
    def horizon(self) -> int:
        return self.price.shape[0]


@dataclass(frozen=True)
class Uncertainty:
    """Per-step sigmas, broadcastable against the matching forecast arrays."""

    solar: np.ndarray
    load: np.ndarray
    price: np.ndarray

    def __post_init__(self):
        for name in ("solar", "load", "price"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if np.any(arr < 0):
                raise ValueError(f"{name} sigma must be nonnegative")
            object.__setattr__(self, name, arr)

    @staticmethod
    def zero() -> "Uncertainty":
        return Uncertainty(np.zeros(1), np.zeros(1), np.zeros(1))


@dataclass(frozen=True)
class ScenarioSet:
    """N sampled realizations: solar (N, G, T), load (N, U, T), price (N, T)."""

    solar: np.ndarray
    load: np.ndarray
    price: np.ndarray
    seed: int

    @property
    def n_scenarios(self) -> int:
        return self.price.shape[0]

    @property
    def horizon(self) -> int:
        return self.price.shape[1]


def sample_scenarios(forecasts: Forecasts, uncertainty: Uncertainty, N: int, seed: int) -> ScenarioSet:
    """Draw N truncated-Gaussian realizations around the point forecasts.

    Deterministic given (forecasts, uncertainty, N, seed); draws are
    independent across scenarios, steps and targets.
    """
    if N < 1:
        raise ValueError("scenario count N must be >= 1")
    T = forecasts.horizon
    rng = np.random.default_rng(seed)

    def draw(mean: np.ndarray, sigma: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        sig = np.broadcast_to(np.asarray(sigma, dtype=np.float64), mean.shape)
        noise = rng.standard_normal(shape)
        return np.maximum(mean[None, ...] + sig[None, ...] * noise, 0.0)

    price = draw(forecasts.price, uncertainty.price, (N, T))
    solar = draw(forecasts.solar, uncertainty.solar, (N,) + forecasts.solar.shape)
    load = draw(forecasts.load, uncertainty.load, (N,) + forecasts.load.shape)
    return ScenarioSet(solar=solar, load=load, price=price, seed=seed)

