"""The three benchmark workloads of rolling-horizon control.

Every field of every configuration is spelled out here, with the values the
frozen presets in ``vppdispatch.presets`` held when this benchmark was
written, so an edit to the presets or to a dataclass default cannot
silently change what the benchmark measures.

``--seed`` reaches each workload through one field.  The two forecasting
workloads run on their frozen districts and take it as the controller seed
(forecaster initialisation, scenario draws and fine-tune shuffling); the
perfect-foresight workload has no randomness of its own, so it seeds the
data of its districts instead.  It runs two districts per round: how many
simplex iterations a district needs depends on its data by several per cent,
and pooling two halves that share of the run-to-run spread.
"""

from __future__ import annotations

from dataclasses import dataclass

from vppdispatch.controller import ControllerConfig, Split
from vppdispatch.forecast import TrainConfig, UpdateScheme
from vppdispatch.simulator import PerturbationConfig
from vppdispatch.synthetic import DriftSpec, SyntheticSpec


@dataclass(frozen=True)
class Workload:
    name: str
    districts: tuple[SyntheticSpec, ...]  # one episode each per round
    split: Split
    controller: ControllerConfig
    perturbation: PerturbationConfig
    finetune_events: int  # fine-tune events each episode must make


def _scheme(kind: str) -> UpdateScheme:
    return UpdateScheme(kind=kind, lr_multiplier=0.1, freeze_layers=("cell",), correction_window=72)


def _controller(**fields) -> ControllerConfig:
    base = dict(
        horizon_T=24, T_rl=1, T_ft=999, epsilon=0.13, scheme=_scheme("smalllr"),
        n_scenarios=50, seed=0, forecaster="recurrent", price_forecaster="linear",
        use_scenarios=True, lag_K=24, hidden_dim=16,
        train=TrainConfig(epochs=120, learning_rate=0.15, batch_size=64, seed=0),
        finetune=TrainConfig(epochs=40, learning_rate=0.15, batch_size=64, seed=0),
        epsilon_window=24, finetune_cooldown=999, val_window=384, online_window=168,
    )
    base.update(fields)
    return ControllerConfig(**base)


def sofo_drift(seed: int) -> Workload:
    """The paper's controller on the drift district (DRIFT_* presets)."""
    districts = (SyntheticSpec(
        days=30, n_buildings=2, drift=DriftSpec(day=13, load_scale=1.2),
        noise_load=0.10, noise_solar=0.15, noise_price=0.0, weekly_amplitude=0.0,
        base_load_kw=1.0, pv_scale=2.0, price_offpeak=0.08, price_peak=0.24,
        price_tilt=0.05, peak_tilt=0.12, peak_hours=(16, 17, 18, 19, 20),
        battery_hours=5.0, battery_c_rate=0.30, seed=42,
    ),)
    return Workload(
        name="sofo_drift",
        districts=districts,
        split=Split(train_end=12 * 24, val_end=14 * 24),
        controller=_controller(seed=seed),
        perturbation=PerturbationConfig(
            efficiency_true={"bat_b0": (0.93, 0.93), "bat_b1": (0.93, 0.93)},
            capacity_scale=1.0, seed=0,
        ),
        finetune_events=1,
    )


def clairvoyant_rolling(seed: int) -> Workload:
    """Perfect-foresight deterministic MPC, re-planned every step over 48 steps."""
    districts = tuple(SyntheticSpec(
        days=6, n_buildings=2, drift=None,
        noise_load=0.08, noise_solar=0.15, noise_price=0.0, weekly_amplitude=0.0,
        base_load_kw=1.0, pv_scale=2.0, price_offpeak=0.08, price_peak=0.24,
        price_tilt=0.05, peak_tilt=0.12, peak_hours=(16, 17, 18, 19, 20),
        battery_hours=5.0, battery_c_rate=0.2, seed=2 * seed + k,
    ) for k in range(2))
    return Workload(
        name="clairvoyant_rolling",
        districts=districts,
        # no training window: the oracle needs none; 120 control steps each
        split=Split(train_end=0, val_end=24),
        controller=_controller(
            horizon_T=48, epsilon=None, scheme=_scheme("noft"), forecaster="oracle",
            use_scenarios=False,
        ),
        perturbation=PerturbationConfig(efficiency_true={}, capacity_scale=1.0, seed=0),
        finetune_events=0,
    )


def sofo_wide(seed: int) -> Workload:
    """300 scenarios on the sweep district (SWEEP_* presets), linear
    forecasters, no fine-tuning."""
    districts = (SyntheticSpec(
        days=18, n_buildings=2, drift=None,
        noise_load=0.05, noise_solar=0.08, noise_price=0.05, weekly_amplitude=0.0,
        base_load_kw=1.0, pv_scale=1.8, price_offpeak=0.08, price_peak=0.24,
        price_tilt=0.05, peak_tilt=0.12, peak_hours=(16, 17, 18, 19, 20),
        battery_hours=4.0, battery_c_rate=0.15, seed=21,
    ),)
    return Workload(
        name="sofo_wide",
        districts=districts,
        split=Split(train_end=10 * 24, val_end=12 * 24),
        controller=_controller(
            n_scenarios=300, seed=seed, forecaster="linear", scheme=_scheme("noft"), val_window=240,
        ),
        perturbation=PerturbationConfig(efficiency_true={}, capacity_scale=1.0, seed=0),
        finetune_events=0,
    )


WORKLOADS = {w.__name__: w for w in (sofo_drift, clairvoyant_rolling, sofo_wide)}
