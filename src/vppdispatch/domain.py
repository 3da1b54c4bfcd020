"""Core value types for district energy dispatch.

Everything downstream (simulator, optimizer, controllers, metrics) works on
the types defined here.  Conventions, fixed once for the whole package:

* power is per-step average kW, energy is kWh, prices are $/kWh and carbon
  intensity is kg CO2/kWh;
* one step lasts ``step_hours`` hours (default 1), so at the default kW and
  kWh are numerically interchangeable;
* calendar labels are pure modulo arithmetic on the absolute hour index:
  hour of day = idx % 24, day of week = (idx // 24) % 7, and months are
  fixed 30-day blocks, month of year = (idx // 720) % 12.

All types are immutable after construction (arrays are marked read-only),
so instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HOURS_PER_DAY = 24
HOURS_PER_MONTH = 720  # fixed 30-day months

PLAN_TOL = 1e-9


def _series(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeGrid:
    """Absolute time axis of a problem: ``horizon_T`` steps from ``start_index``."""

    start_index: int
    horizon_T: int
    step_hours: float = 1.0

    def __post_init__(self):
        if self.horizon_T < 1:
            raise ValueError("horizon_T must be >= 1")
        if self.step_hours <= 0:
            raise ValueError("step_hours must be > 0")

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.start_index, self.start_index + self.horizon_T)

    @property
    def hour_of_day(self) -> np.ndarray:
        return self.indices % HOURS_PER_DAY

    @property
    def month_index(self) -> np.ndarray:
        """Absolute month counter (never wraps), used for monthly grouping."""
        return self.indices // HOURS_PER_MONTH

    def window(self, start: int, length: int) -> "TimeGrid":
        """Sub-grid of ``length`` steps starting ``start`` steps into this grid."""
        if start < 0 or start + length > self.horizon_T:
            raise ValueError("window outside grid")
        return TimeGrid(self.start_index + start, length, self.step_hours)


@dataclass(frozen=True)
class GenerationDevice:
    """A dispatchable generation unit, e.g. one building's PV array.

    The per-step generation ceiling is the smaller of the nameplate bound and
    the (forecast or realized) available capacity supplied at solve time.
    """

    id: str
    p_min: np.ndarray
    p_max_capacity: float

    def __post_init__(self):
        object.__setattr__(self, "p_min", _series(self.p_min, f"generator {self.id} p_min"))


@dataclass(frozen=True)
class StorageDevice:
    """A battery.  Efficiencies here are the simulator's ground truth; the
    optimizer deliberately models the battery with unit efficiency."""

    id: str
    e_min: float
    e_max: float
    p_charge_max: float
    p_discharge_max: float
    e_initial: float
    eta_charge: float = 1.0
    eta_discharge: float = 1.0


@dataclass(frozen=True)
class MarketSeries:
    """Per-step market price and grid carbon intensity.

    A district facing several markets is represented by the average price
    over markets, so a single series suffices.
    """

    price: np.ndarray
    carbon_intensity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "price", _series(self.price, "market.price"))
        object.__setattr__(
            self, "carbon_intensity", _series(self.carbon_intensity, "market.carbon_intensity")
        )


@dataclass(frozen=True)
class BuildingSeries:
    """One building's realized load and realized maximum solar generation."""

    id: str
    load: np.ndarray
    solar_capacity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "load", _series(self.load, f"building {self.id} load"))
        object.__setattr__(
            self, "solar_capacity", _series(self.solar_capacity, f"building {self.id} solar_capacity")
        )


@dataclass(frozen=True)
class ProblemInstance:
    """A complete dispatch problem: time grid, buildings, devices and market.

    By convention ``storages[i]`` and ``generators[i]`` are attached to
    ``buildings[i]`` (a building may lack either; the lists may be shorter
    than ``buildings`` but not longer).
    """

    grid: TimeGrid
    buildings: tuple[BuildingSeries, ...]
    generators: tuple[GenerationDevice, ...]
    storages: tuple[StorageDevice, ...]
    market: MarketSeries

    def __post_init__(self):
        object.__setattr__(self, "buildings", tuple(self.buildings))
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "storages", tuple(self.storages))

    @property
    def n_steps(self) -> int:
        return self.grid.horizon_T

    def slice(self, start: int, length: int) -> "ProblemInstance":
        """Restrict every series to the window [start, start+length)."""
        sl = slice(start, start + length)
        return ProblemInstance(
            grid=self.grid.window(start, length),
            buildings=tuple(
                BuildingSeries(b.id, b.load[sl], b.solar_capacity[sl]) for b in self.buildings
            ),
            generators=tuple(
                GenerationDevice(g.id, g.p_min[sl], g.p_max_capacity) for g in self.generators
            ),
            storages=self.storages,
            market=MarketSeries(self.market.price[sl], self.market.carbon_intensity[sl]),
        )


@dataclass(frozen=True)
class DispatchPlan:
    """Decision series over a planning window.

    ``p_gen`` has one row per generator, ``p_charge``/``p_discharge``/``soc``
    one row per storage.  A valid plan never charges and discharges the same
    storage in the same step.
    """

    p_grid: np.ndarray
    p_gen: np.ndarray
    p_charge: np.ndarray
    p_discharge: np.ndarray
    soc: np.ndarray

    def __post_init__(self):
        for name in ("p_grid", "p_gen", "p_charge", "p_discharge", "soc"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_steps(self) -> int:
        return self.p_grid.shape[0]


def validate_instance(instance: ProblemInstance) -> list[str]:
    """Collect every invariant violation in ``instance``.

    Violations are data, not faults: the return value is a list of
    human-readable strings with a path-like locator, empty iff the instance
    is well formed.
    """
    v: list[str] = []
    grid = instance.grid
    T = grid.horizon_T
    if T < 1:
        v.append("grid.horizon_T: must be >= 1")
    if grid.step_hours <= 0:
        v.append("grid.step_hours: must be > 0")

    if len(instance.buildings) == 0:
        v.append("buildings: at least one building required")
    for i, b in enumerate(instance.buildings):
        if b.load.shape[0] != T:
            v.append(f"buildings[{i}].load: length {b.load.shape[0]} != horizon {T}")
        if b.solar_capacity.shape[0] != T:
            v.append(
                f"buildings[{i}].solar_capacity: length {b.solar_capacity.shape[0]} != horizon {T}"
            )
        if np.any(b.load < 0):
            v.append(f"buildings[{i}].load: negative values")
        if np.any(b.solar_capacity < 0):
            v.append(f"buildings[{i}].solar_capacity: negative values")

    for i, g in enumerate(instance.generators):
        if g.p_min.shape[0] != T:
            v.append(f"generators[{i}].p_min: length {g.p_min.shape[0]} != horizon {T}")
        if np.any(g.p_min < 0):
            v.append(f"generators[{i}].p_min: negative values")
        if np.any(g.p_min > g.p_max_capacity):
            v.append(f"generators[{i}].p_min: exceeds p_max_capacity {g.p_max_capacity}")

    for i, s in enumerate(instance.storages):
        if not (0 <= s.e_min <= s.e_initial <= s.e_max):
            v.append(
                f"storages[{i}] ({s.id}): require 0 <= e_min <= e_initial <= e_max, "
                f"got e_min={s.e_min}, e_initial={s.e_initial}, e_max={s.e_max}"
            )
        if s.p_charge_max <= 0:
            v.append(f"storages[{i}].p_charge_max: must be > 0")
        if s.p_discharge_max <= 0:
            v.append(f"storages[{i}].p_discharge_max: must be > 0")
        for nm, eta in (("eta_charge", s.eta_charge), ("eta_discharge", s.eta_discharge)):
            if not (0 < eta <= 1):
                v.append(f"storages[{i}].{nm}: must be in (0, 1], got {eta}")

    for nm, series in (("price", instance.market.price), ("carbon_intensity", instance.market.carbon_intensity)):
        if series.shape[0] != T:
            v.append(f"market.{nm}: length {series.shape[0]} != horizon {T}")
        if np.any(series < 0):
            v.append(f"market.{nm}: negative values")

    return v


def validate_plan(
    plan: DispatchPlan,
    instance: ProblemInstance,
    gen_caps: np.ndarray | None = None,
    tol: float = PLAN_TOL,
) -> list[str]:
    """Check a plan against device bounds, SOC dynamics and complementarity.

    Bound and dynamics checks use absolute tolerance ``tol``; the
    charge/discharge exclusivity check is exact (one of the pair must be
    exactly zero).  ``gen_caps`` optionally tightens generation ceilings to
    the capacity series the plan was solved against.
    """
    v: list[str] = []
    T = plan.n_steps
    dt = instance.grid.step_hours
    if np.any(plan.p_grid < -tol):
        v.append("p_grid: negative grid draw")

    for i, g in enumerate(instance.generators):
        pg = plan.p_gen[i]
        cap = np.full(T, g.p_max_capacity)
        if gen_caps is not None:
            cap = np.minimum(cap, gen_caps[i][:T])
        if np.any(pg < g.p_min[:T] - tol) or np.any(pg > cap + tol):
            v.append(f"p_gen[{i}]: generation bound violated")

    for i, s in enumerate(instance.storages):
        pc, pd, e = plan.p_charge[i], plan.p_discharge[i], plan.soc[i]
        if np.any(pc < -tol) or np.any(pc > s.p_charge_max + tol):
            v.append(f"p_charge[{i}]: charge bound violated")
        if np.any(pd < -tol) or np.any(pd > s.p_discharge_max + tol):
            v.append(f"p_discharge[{i}]: discharge bound violated")
        if np.any(e < s.e_min - tol) or np.any(e > s.e_max + tol):
            v.append(f"soc[{i}]: state-of-charge bound violated")
        both = (pc > 0) & (pd > 0)
        if np.any(both):
            v.append(f"p_charge[{i}]/p_discharge[{i}]: simultaneous charge and discharge")
        # plan SOC uses the optimizer's nominal unit-efficiency battery model
        prev = np.concatenate(([s.e_initial], e[:-1]))
        if np.any(np.abs(e - (prev + dt * pc - dt * pd)) > tol):
            v.append(f"soc[{i}]: dynamics inconsistent with charge/discharge")

    return v
