"""Frozen experiment configurations.

These are the seeded setups the regression suite and the example scripts
run.  They are deliberately pinned: scores on them are compared against
recorded expectations, so any change here invalidates the recorded
numbers.
"""

from __future__ import annotations

from .benchmark import RunConfig
from .controller import ControllerConfig
from .forecast import TrainConfig, UpdateScheme
from .simulator import PerturbationConfig
from .synthetic import DriftSpec, SyntheticSpec

# 30-day district, two buildings, +20% load regime change on day 13.  The
# validation window (days 13-14) sees the new regime, so the initial
# uncertainty estimates are honest about it.  True battery efficiency is
# 0.93 while the planner's model is nominal, exercising the feedback value
# of re-planning.  Model updates happen in a single error-triggered event
# near the start of the control window.
DRIFT_SPEC = SyntheticSpec(
    days=30,
    n_buildings=2,
    drift=DriftSpec(day=13, load_scale=1.2),
    noise_load=0.10,
    noise_solar=0.15,
    pv_scale=2.0,
    battery_hours=5.0,
    battery_c_rate=0.30,
    peak_tilt=0.12,
    seed=42,
)

DRIFT_PERTURBATION = PerturbationConfig(
    efficiency_true={"bat_b0": (0.93, 0.93), "bat_b1": (0.93, 0.93)}
)

DRIFT_CONTROLLER = ControllerConfig(
    horizon_T=24,
    T_rl=1,
    T_ft=999,  # beyond the window: adaptation rides on the error trigger
    epsilon=0.13,
    scheme=UpdateScheme("smalllr"),
    n_scenarios=50,
    seed=7,
    forecaster="recurrent",
    hidden_dim=16,
    train=TrainConfig(epochs=120, learning_rate=0.15, batch_size=64, seed=0),
    finetune=TrainConfig(epochs=40, learning_rate=0.15, batch_size=64, seed=0),
    online_window=168,
    finetune_cooldown=999,
    val_window=384,
)

DRIFT_TRAIN_DAYS = 12
DRIFT_VAL_DAYS = 2

# The frozen-cell scheme converges to the least-squares readout on the
# online window, so it overfits (and over-sharpens plans) at the default
# update budget; it gets a gentler one in the scheme comparison.
FREEZE_FINETUNE = TrainConfig(epochs=15, learning_rate=0.10, batch_size=64, seed=0)


def drift_benchmark_config(out_dir: str, seeds=(7,), scenario_counts=()) -> RunConfig:
    """Controller grid on the frozen drift district."""
    return RunConfig(
        out_dir=out_dir,
        synthetic=DRIFT_SPEC,
        train_days=DRIFT_TRAIN_DAYS,
        val_days=DRIFT_VAL_DAYS,
        controller=DRIFT_CONTROLLER,
        perturbation=DRIFT_PERTURBATION,
        seeds=tuple(seeds),
        scenario_counts=tuple(scenario_counts),
        components=True,
    )


# Smaller drift-free district used for the scenario-count convergence study
# (the sweep re-runs the full controller once per seed and scenario count).
# The battery is power-limited, yet the scenario-minimum balance caps still
# bind often: at N=75 and N=300 the cap binds at the executed step of about
# 36% of re-plans and at about 40% of all (re-plan, step) pairs, and the cap
# level (the per-step minimum district load over the scenarios) keeps
# falling as N grows, so that channel does not converge.
# The tariff carries measurement noise as well, so the scenario-mean price
# is a second sampling channel; it is unbiased and its spread shrinks with
# the count.
SWEEP_SPEC = SyntheticSpec(
    days=18,
    n_buildings=2,
    noise_load=0.05,
    noise_solar=0.08,
    noise_price=0.05,
    pv_scale=1.8,
    battery_hours=4.0,
    battery_c_rate=0.15,
    peak_tilt=0.12,
    seed=21,
)

SWEEP_CONTROLLER = ControllerConfig(
    horizon_T=24,
    T_rl=1,
    T_ft=999,
    epsilon=0.13,
    scheme=UpdateScheme("smalllr"),
    n_scenarios=75,
    seed=0,
    forecaster="recurrent",
    hidden_dim=16,
    train=TrainConfig(epochs=120, learning_rate=0.15, batch_size=64, seed=0),
    finetune=TrainConfig(epochs=40, learning_rate=0.15, batch_size=64, seed=0),
    online_window=168,
    finetune_cooldown=999,
    val_window=240,
)


def sweep_config(out_dir: str, seeds=tuple(range(10)), counts=(1, 25, 50, 75, 150, 300)) -> RunConfig:
    """Scenario-count sweep on the frozen drift-free district."""
    return RunConfig(
        out_dir=out_dir,
        synthetic=SWEEP_SPEC,
        train_days=10,
        val_days=2,
        controllers=("nostorage",),
        controller=SWEEP_CONTROLLER,
        seeds=tuple(seeds),
        scenario_counts=tuple(counts),
        components=False,
    )
