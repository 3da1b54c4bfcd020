"""Ground-truth stepping environment for a district of buildings.

The simulator applies storage actions with the true battery physics (which
may be perturbed relative to what the optimizer assumes) and records the
realized per-building consumption.  Solar is must-take: each building's
realized maximum generation is subtracted from its load in full, whatever
the planner intended.

Infeasible actions are clipped, never rejected: controllers run on
forecasts that can be wrong, and the episode must keep going so the rolling
horizon can correct them.  Clip magnitudes are recorded for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import ProblemInstance, StorageDevice


class ComplementarityError(ValueError):
    """A storage was asked to charge and discharge in the same step."""


@dataclass(frozen=True)
class PerturbationConfig:
    """How the true environment deviates from the nominal device parameters.

    ``efficiency_true`` maps storage id to the (eta_charge, eta_discharge)
    pair actually applied; storages not listed use their declared values.
    ``capacity_scale`` multiplies every storage's e_max.
    """

    efficiency_true: dict[str, tuple[float, float]] = field(default_factory=dict)
    capacity_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.capacity_scale <= 0:
            raise ValueError("capacity_scale must be > 0")
        for sid, (ec, ed) in self.efficiency_true.items():
            if not (0 < ec <= 1 and 0 < ed <= 1):
                raise ValueError(f"efficiencies for storage {sid} must be in (0, 1]")

    def efficiencies(self, device: StorageDevice) -> tuple[float, float]:
        return self.efficiency_true.get(device.id, (device.eta_charge, device.eta_discharge))


@dataclass
class SimState:
    """Mutable episode state: current step, SOC per storage, realized logs."""

    t: int
    soc: np.ndarray
    consumption: list[np.ndarray] = field(default_factory=list)
    actions: list[np.ndarray] = field(default_factory=list)
    clip_amount: float = 0.0


def step_battery(
    soc: float,
    action_charge: float,
    action_discharge: float,
    device: StorageDevice,
    perturb: PerturbationConfig,
    step_hours: float = 1.0,
) -> tuple[float, float, float]:
    """Apply one charge/discharge action to a battery.

    Actions are clipped to the power bounds and to the energy headroom so
    the SOC clamp never actually engages.  Returns the new SOC and the
    charge/discharge power actually applied.
    """
    if action_charge < 0 or action_discharge < 0:
        raise ValueError("actions must be nonnegative")
    if action_charge > 0 and action_discharge > 0:
        raise ComplementarityError(
            f"storage {device.id}: simultaneous charge {action_charge} and discharge {action_discharge}"
        )
    eta_c, eta_d = perturb.efficiencies(device)
    e_max = device.e_max * perturb.capacity_scale

    actual_charge = min(action_charge, device.p_charge_max, max(0.0, (e_max - soc) / (eta_c * step_hours)))
    actual_discharge = min(
        action_discharge, device.p_discharge_max, max(0.0, (soc - device.e_min) * eta_d / step_hours)
    )
    new_soc = soc + eta_c * actual_charge * step_hours - actual_discharge * step_hours / eta_d
    new_soc = min(max(new_soc, device.e_min), e_max)  # float-safety only; clipping already guarantees it
    return new_soc, actual_charge, actual_discharge


def step_environment(
    state: SimState,
    actions: np.ndarray,
    instance: ProblemInstance,
    perturb: PerturbationConfig,
) -> tuple[SimState, np.ndarray, float]:
    """Advance the district one step under the given storage actions.

    ``actions`` has shape (n_storages, 2): requested (charge, discharge)
    power per storage.  Returns the state (advanced in place), per-building
    net consumption, and district consumption.  Storage i is attached to
    building i.
    """
    t = state.t
    if t >= instance.n_steps:
        raise IndexError(f"step {t} beyond horizon {instance.n_steps}")
    if len(instance.storages) > len(instance.buildings):
        raise ValueError("more storages than buildings; storage i attaches to building i")

    dt = instance.grid.step_hours
    actions = np.asarray(actions, dtype=np.float64)
    net_action = np.zeros(len(instance.buildings))
    applied = np.zeros_like(actions)
    for i, dev in enumerate(instance.storages):
        new_soc, ac, ad = step_battery(state.soc[i], actions[i, 0], actions[i, 1], dev, perturb, dt)
        state.soc[i] = new_soc
        applied[i] = (ac, ad)
        state.clip_amount += abs(actions[i, 0] - ac) + abs(actions[i, 1] - ad)
        net_action[i] = ac - ad

    consumption = np.array(
        [b.load[t] - b.solar_capacity[t] + net_action[i] for i, b in enumerate(instance.buildings)]
    )
    state.consumption.append(consumption)
    state.actions.append(applied)
    state.t = t + 1
    return state, consumption, float(consumption.sum())


class Simulator:
    """Convenience wrapper running a whole episode over an instance window."""

    def __init__(self, instance: ProblemInstance, perturb: PerturbationConfig | None = None):
        self.instance = instance
        self.perturb = perturb if perturb is not None else PerturbationConfig()
        self.state = SimState(
            t=0, soc=np.array([s.e_initial for s in instance.storages], dtype=np.float64)
        )

    @property
    def done(self) -> bool:
        return self.state.t >= self.instance.n_steps

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, float]:
        _, consumption, district = step_environment(self.state, actions, self.instance, self.perturb)
        return consumption, district

    def consumption_matrix(self) -> np.ndarray:
        """Realized per-building consumption, shape (n_buildings, steps so far)."""
        if not self.state.consumption:
            return np.zeros((len(self.instance.buildings), 0))
        return np.stack(self.state.consumption, axis=1)

    def action_log(self) -> np.ndarray:
        """Applied actions, shape (steps, n_storages, 2)."""
        if not self.state.actions:
            return np.zeros((0, len(self.instance.storages), 2))
        return np.stack(self.state.actions, axis=0)

