"""District scoring: emission, price and grid cost plus normalization.

The three costs follow the smart-building competition conventions:

* emission cost floors consumption per building before weighting by carbon
  intensity, ``sum_t (sum_i max(E_it, 0)) * c_t``;
* price cost floors at the district level, ``sum_t max(E_t_dist, 0) * p_t``
  (uncompensated export), so the two flooring levels genuinely differ;
* grid cost is half ramping plus half the summed monthly mean/max ratio of
  district consumption.

Scores are reported normalized against a no-storage baseline; the average
score is the unweighted mean of the three normalized components (the equal
weighting is a convention, noted in report footnotes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CostBreakdown:
    emission: float
    price: float
    grid: float


@dataclass(frozen=True)
class NormalizedScores:
    average: float
    emission: float
    price: float
    grid: float


def emission_cost(consumptions: np.ndarray, carbon: np.ndarray) -> float:
    """Carbon-weighted positive consumption, floored per building.

    ``consumptions`` has shape (n_buildings, T); ``carbon`` has shape (T,).
    """
    consumptions = np.asarray(consumptions, dtype=np.float64)
    carbon = np.asarray(carbon, dtype=np.float64)
    if consumptions.ndim != 2 or consumptions.shape[1] != carbon.shape[0]:
        raise ValueError(
            f"consumptions shape {consumptions.shape} does not align with carbon length {carbon.shape[0]}"
        )
    return float(np.sum(np.maximum(consumptions, 0.0).sum(axis=0) * carbon))


def price_cost(district: np.ndarray, price: np.ndarray) -> float:
    """Price-weighted positive district consumption (flooring after netting
    across buildings, unlike the per-building emission flooring)."""
    district = np.asarray(district, dtype=np.float64)
    price = np.asarray(price, dtype=np.float64)
    if district.shape != price.shape:
        raise ValueError(f"district length {district.shape} != price length {price.shape}")
    return float(np.sum(np.maximum(district, 0.0) * price))


def grid_cost(district: np.ndarray, month_labels: np.ndarray) -> float:
    """Half ramping plus half the summed monthly load-factor ratio.

    Ramping is the total absolute step-to-step change of district
    consumption (exports count at full magnitude).  Each month contributes
    mean/max of the district series; a month whose maximum is exactly zero
    contributes the neutral ratio 1.
    """
    district = np.asarray(district, dtype=np.float64)
    month_labels = np.asarray(month_labels)
    if district.shape[0] < 2:
        raise ValueError("grid cost needs at least 2 steps")
    if district.shape != month_labels.shape:
        raise ValueError("month labels must align with the district series")
    if np.any(np.diff(month_labels) < 0):
        raise ValueError("month labels must be nondecreasing")

    ramping = float(np.sum(np.abs(np.diff(district))))
    load_factor = 0.0
    for m in np.unique(month_labels):
        chunk = district[month_labels == m]
        peak = float(np.max(chunk))
        # export-heavy months could push mean/max below zero; floor at the
        # neutral end so the cost stays a nonnegative quantity
        load_factor += 1.0 if peak == 0.0 else max(float(np.mean(chunk)) / peak, 0.0)
    return 0.5 * (ramping + load_factor)


def cost_breakdown(
    consumptions: np.ndarray,
    price: np.ndarray,
    carbon: np.ndarray,
    month_labels: np.ndarray,
) -> CostBreakdown:
    district = np.asarray(consumptions, dtype=np.float64).sum(axis=0)
    return CostBreakdown(
        emission=emission_cost(consumptions, carbon),
        price=price_cost(district, price),
        grid=grid_cost(district, month_labels),
    )


def normalize(costs: CostBreakdown, baseline: CostBreakdown) -> NormalizedScores:
    """Each component divided by the no-storage baseline; average is the
    unweighted mean of the three ratios."""
    for name, value in (("emission", baseline.emission), ("price", baseline.price), ("grid", baseline.grid)):
        if value <= 0:
            raise ValueError(f"baseline {name} cost must be > 0, got {value}")
    e = costs.emission / baseline.emission
    p = costs.price / baseline.price
    g = costs.grid / baseline.grid
    return NormalizedScores(average=(e + p + g) / 3.0, emission=e, price=p, grid=g)


def wmape(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Weighted mean absolute percentage error, sum|a-p| / sum|a|."""
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if actual.shape != predicted.shape:
        raise ValueError(f"shape mismatch: {actual.shape} vs {predicted.shape}")
    denom = float(np.sum(np.abs(actual)))
    if denom == 0.0:
        raise ValueError("wmape undefined for all-zero actuals")
    return float(np.sum(np.abs(actual - predicted))) / denom
