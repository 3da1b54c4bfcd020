"""Rolling-horizon controllers: the stochastic forecast-and-optimize loop
plus the rule-based and deterministic baselines.

The main loop pre-trains forecasting models on the training window,
estimates per-horizon-step uncertainty on the validation window, then per
control step: infers forecasts, samples scenarios, solves the stochastic
program, executes the head of the plan in the simulator, and fine-tunes
the models whenever the scheduled interval elapses or recent prediction
error exceeds the trigger.  Every baseline funnels through the same engine
so behaviour differs only along the intended axes (scenarios on/off,
re-plan interval, update scheme).

Each re-plan starts the simplex from the previous re-plan's optimal basis,
shifted by the steps between the two, and with it the inverse of its basis
matrix, derived from the previous re-plan's final inverse instead of
inverted afresh, also where a basic SOC column of the step shifted out
reaches a kept row.  A re-plan starts cold,
from the solver's slack basis where every row logical is basic, when that
basis is unusable or the two plans share no step, and after a fallback the
next re-plan starts cold.  A warm re-plan inverts its basis with ``inv``
only when no inverse could be carried (an artificial column still basic
at the previous optimum, a singular block in the derivation) or when the
carried one misses the solver's check; those re-plans are counted and
logged at DEBUG.

An infeasible program never aborts an episode: the step falls back to zero
action and the incident is counted.  Likewise a fine-tune whose training
diverges keeps the target's previous model; the event is counted and
logged at WARNING.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace

import numpy as np

from .domain import ProblemInstance, StorageDevice
from .evaluate import CostBreakdown, cost_breakdown, wmape
from .forecast import (
    DivergenceError,
    ForecastModel,
    ModelSpec,
    OnlineData,
    TrainConfig,
    UncertaintyEstimate,
    UpdateScheme,
    apply_update,
    estimate_variance,
    make_dataset,
    predict,  # not called here; perfbench/tracing.py wraps each layer function under this module's name
    predict_stacked,
    train,
)
from .dispatch import build_deterministic, build_stochastic, extract_plan, shift_basis, solve_lp
from .dispatch.simplex import SolveOptions
from .scenario import Forecasts, Uncertainty, sample_scenarios
from .simulator import PerturbationConfig, Simulator

RBC_CHARGE_HOURS = (10, 11, 12, 13)
RBC_DISCHARGE_HOURS = (16, 17, 18, 19)
RBC_FRACTION = 0.10

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Split:
    """Offsets into an instance: train [0, train_end), validation
    [train_end, val_end), control [val_end, end)."""

    train_end: int
    val_end: int

    def check(self, total: int) -> None:
        if not (0 <= self.train_end <= self.val_end < total):
            raise ValueError(f"split ({self.train_end}, {self.val_end}) outside instance of {total} steps")


@dataclass(frozen=True)
class ControllerConfig:
    horizon_T: int = 24
    T_rl: int = 1
    T_ft: int = 168
    epsilon: float | None = None  # None: 1.5x each target's validation WMAPE
    scheme: UpdateScheme = UpdateScheme("smalllr")
    n_scenarios: int = 75
    seed: int = 0
    forecaster: str = "recurrent"  # recurrent | linear | oracle
    price_forecaster: str = "linear"  # tariffs are schedule-like; the 24h lag fits them exactly
    use_scenarios: bool = True
    lag_K: int = 24
    hidden_dim: int = 32
    train: TrainConfig = TrainConfig(epochs=120, learning_rate=0.05, batch_size=32)
    finetune: TrainConfig = TrainConfig(epochs=25, learning_rate=0.05, batch_size=32)
    epsilon_window: int = 24
    finetune_cooldown: int = 24
    val_window: int = 72
    online_window: int = 336

    def __post_init__(self):
        if not (1 <= self.T_rl <= self.horizon_T):
            raise ValueError("require 1 <= T_rl <= horizon_T")
        if self.T_ft < 1:
            raise ValueError("T_ft must be >= 1")
        if self.n_scenarios < 1:
            raise ValueError("n_scenarios must be >= 1")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.forecaster not in ("recurrent", "linear", "oracle"):
            raise ValueError(f"unknown forecaster {self.forecaster!r}")


@dataclass
class EpisodeResult:
    controller: str
    seed: int
    control_start: int
    steps: int
    charge: np.ndarray
    discharge: np.ndarray
    soc: np.ndarray
    consumption: np.ndarray
    district: np.ndarray
    price_paid: np.ndarray
    costs: CostBreakdown
    forecast_log: dict[str, dict[str, np.ndarray]]
    wmape_by_target: dict[str, float]
    clip_amount: float
    lp_fallbacks: int
    fine_tune_steps: list[int]
    fine_tune_seconds: list[float]
    dispatch_seconds: list[float]
    seconds_per_day: float
    models: dict | None = None
    finetune_divergences: int = 0  # updates that diverged and kept the old model
    warm_starts: int = 0  # re-plans solved from the previous plan's shifted basis
    cold_starts: int = 0  # re-plans solved cold, from the solver's slack basis
    inverse_refusals: int = 0  # warm starts that inverted their basis: the shift derived no inverse, or it missed the check
    phase_pivots: tuple[int, int, int] = (0, 0, 0)  # pivots of simplex phases 1, 2 and 3, summed over re-plans
    sigma_skips: int = 0  # series left out of a sigma estimate for want of two windows


@dataclass
class PretrainedBundle:
    """Models plus validation statistics, reusable across episodes."""

    models: dict[str, ForecastModel]
    sigmas: dict[str, UncertaintyEstimate]
    val_wmape: dict[str, float]

    def copy(self) -> "PretrainedBundle":
        return PretrainedBundle(
            models={k: m.copy() for k, m in self.models.items()},
            sigmas=dict(self.sigmas),
            val_wmape=dict(self.val_wmape),
        )


# ----------------------------------------------------------------------
# forecast providers
# ----------------------------------------------------------------------

class OracleProvider:
    """Perfect foresight: forecasts are the realized series, sigma is zero."""

    divergences = 0
    sigma_skips = 0

    def __init__(self, instance: ProblemInstance):
        self.instance = instance
        self.val_wmape: dict[str, float] = {}

    def point_forecasts(self, t: int, H: int) -> Forecasts:
        sl = slice(t, t + H)
        return Forecasts(
            solar=np.stack([b.solar_capacity[sl] for b in self.instance.buildings])
            if self.instance.generators
            else np.zeros((0, H)),
            load=np.stack([b.load[sl] for b in self.instance.buildings]),
            price=self.instance.market.price[sl],
        )

    def sigmas(self, H: int) -> Uncertainty:
        return Uncertainty.zero()

    def maybe_finetune(self, *args, **kwargs) -> float | None:
        return None

    def final_models(self) -> dict:
        return {}


class ModelProvider:
    """Trained forecasting models over the instance's realized series.

    One model per building load, one shared model for solar capacity
    (trained on all buildings' series pooled, applied per building) and one
    for the price.

    At each re-plan every recurrent series, the shared solar model once per
    building, runs in one stacked forward, and every linear series in one
    stacked recursion (two calls of ``predict_stacked``, one per kind).
    """

    def __init__(self, instance: ProblemInstance, split: Split, config: ControllerConfig):
        self.instance = instance
        self.split = split
        self.config = config
        self.grid = instance.grid
        spec_kind = config.forecaster
        self.specs = {}
        self.series: dict[str, list[np.ndarray]] = {}
        mk = lambda target, kind=spec_kind: ModelSpec(
            kind=kind, target=target, lag_K=config.lag_K,
            horizon=config.horizon_T, hidden_dim=config.hidden_dim,
        )
        self.specs["price"] = mk("price", kind=config.price_forecaster)
        self.series["price"] = [np.asarray(instance.market.price)]
        if instance.generators:
            self.specs["solar"] = mk("solar_capacity")
            self.series["solar"] = [np.asarray(b.solar_capacity) for b in instance.buildings]
        for u in range(len(instance.buildings)):
            key = f"load:{u}"
            self.specs[key] = mk("load")
            self.series[key] = [np.asarray(instance.buildings[u].load)]

        # the rows of the two stacks: one per recurrent series, one per linear series
        self._stack_rows, self._linear_rows = (
            [(key, series) for key, spec in self.specs.items() if spec.kind == kind for series in self.series[key]]
            for kind in ("recurrent", "linear")
        )

        self.models: dict[str, ForecastModel] = {}
        self.sigma: dict[str, UncertaintyEstimate] = {}
        self.val_wmape: dict[str, float] = {}
        self.pred_log: dict[str, list[float]] = {k: [] for k in self.specs}
        self.act_log: dict[str, list[float]] = {k: [] for k in self.specs}
        self.last_finetune = -(10**9)
        self.n_finetunes = 0
        self.divergences = 0
        self.sigma_skips = 0

    # -- training ------------------------------------------------------

    def pretrain(self) -> None:
        cfg = self.config
        for key, spec in self.specs.items():
            Xs, Ys = [], []
            for series in self.series[key]:
                X, Y = make_dataset(spec, series, self.grid, 0, self.split.train_end)
                Xs.append(X)
                Ys.append(Y)
            dataset = (np.concatenate(Xs), np.concatenate(Ys))
            hyper = replace(cfg.train, seed=cfg.seed * 7919 + _key_salt(key))
            self.models[key] = train(spec, dataset, hyper)
        self._estimate_sigma(self.split.train_end, self.split.val_end, initial=True)

    def load_bundle(self, bundle: PretrainedBundle) -> None:
        owned = bundle.copy()
        self.models = owned.models
        self.sigma = owned.sigmas
        self.val_wmape = owned.val_wmape

    def bundle(self) -> PretrainedBundle:
        return PretrainedBundle(self.models, self.sigma, self.val_wmape).copy()

    def _estimate_sigma(self, t_start: int, t_end: int, initial: bool = False) -> None:
        for key, model in self.models.items():
            residual_sets, windows = [], []
            for series in self.series[key]:
                series_windows: list = []
                try:
                    est = estimate_variance(model, series, self.grid, t_start, t_end, series_windows)
                except ValueError as exc:
                    # a series with fewer than two windows enters neither figure
                    self.sigma_skips += 1
                    logger.debug(
                        "sigma of %s skips a series: %d validation windows in [%d, %d) (%s)",
                        key, len(series_windows), t_start, t_end, exc,
                    )
                    continue
                residual_sets.append(est.sigma)
                windows += series_windows
            if residual_sets:
                pooled = np.sqrt(np.mean(np.square(np.stack(residual_sets)), axis=0))
                self.sigma[key] = UncertaintyEstimate(pooled)
            elif key not in self.sigma:
                self.sigma[key] = UncertaintyEstimate(np.zeros(self.config.horizon_T))
            if initial:
                a = np.concatenate([act for act, _ in windows]) if windows else np.zeros(0)
                p = np.concatenate([pred for _, pred in windows]) if windows else np.zeros(0)
                self.val_wmape[key] = wmape(a, p) if a.size and np.sum(np.abs(a)) > 0 else 0.0

    # -- inference -----------------------------------------------------

    def point_forecasts(self, t: int, H: int) -> Forecasts:
        rows: dict[str, list[np.ndarray]] = {key: [] for key in self.specs}
        for stack in (self._stack_rows, self._linear_rows):
            if stack:
                stacked = predict_stacked(
                    [self.models[key] for key, _ in stack], [series for _, series in stack], self.grid, t, H,
                )
                for (key, _), row in zip(stack, stacked):
                    rows[key].append(row)
        solar = np.stack(rows["solar"]) if "solar" in rows else np.zeros((0, H))
        load = np.stack([rows[f"load:{u}"][0] for u in range(len(self.instance.buildings))])
        return Forecasts(solar=solar, load=load, price=np.maximum(rows["price"][0], 0.0))

    def sigmas(self, H: int) -> Uncertainty:
        def cut(key: str) -> np.ndarray:
            if key not in self.sigma:
                return np.zeros(H)
            s = self.sigma[key].sigma
            return s[:H] if s.shape[0] >= H else np.pad(s, (0, H - s.shape[0]), mode="edge")

        load = np.stack([cut(f"load:{u}") for u in range(len(self.instance.buildings))])
        return Uncertainty(solar=cut("solar"), load=load, price=cut("price"))

    # -- online logging and updating ------------------------------------

    def log_step(self, t: int, forecasts: Forecasts, offset: int) -> None:
        self.pred_log["price"].append(float(forecasts.price[offset]))
        self.act_log["price"].append(float(self.series["price"][0][t]))
        if "solar" in self.specs:
            # pooled log: one pair per building per step
            for g in range(forecasts.solar.shape[0]):
                self.pred_log["solar"].append(float(forecasts.solar[g, offset]))
                self.act_log["solar"].append(float(self.series["solar"][g][t]))
        for u in range(forecasts.load.shape[0]):
            key = f"load:{u}"
            self.pred_log[key].append(float(forecasts.load[u, offset]))
            self.act_log[key].append(float(self.series[key][0][t]))

    def rolling_wmape(self, key: str) -> float | None:
        w = self.config.epsilon_window * (len(self.series[key]) if key == "solar" else 1)
        acts = np.asarray(self.act_log[key][-w:])
        preds = np.asarray(self.pred_log[key][-w:])
        if acts.size < w or np.sum(np.abs(acts)) == 0:
            return None
        return wmape(acts, preds)

    def _error_trigger(self) -> bool:
        for key in self.specs:
            rw = self.rolling_wmape(key)
            if rw is None:
                continue
            threshold = self.config.epsilon
            if threshold is None:
                threshold = 1.5 * max(self.val_wmape.get(key, 0.0), 1e-6)
            if rw >= threshold:
                return True
        return False

    def maybe_finetune(self, t_abs: int, step_in_control: int) -> float | None:
        """Run one fine-tuning event if due; returns wall seconds or None."""
        cfg = self.config
        if cfg.scheme.kind == "noft":
            return None
        scheduled = step_in_control > 0 and step_in_control % cfg.T_ft == 0
        cooled = step_in_control - self.last_finetune >= cfg.finetune_cooldown
        if not (scheduled or (cooled and self._error_trigger())):
            return None
        started = time.perf_counter()
        updated_any = False
        for key, model in self.models.items():
            scheme = cfg.scheme
            if scheme.kind in ("smalllr", "freeze") and model.spec.kind == "linear":
                scheme = UpdateScheme("scratch")  # closed-form models refit instead
            if scheme.kind == "selfadapt" and len(self.pred_log[key]) < scheme.correction_window:
                continue  # not enough pairs for this target yet; catch it next event
            # solar updates on the first building's series; the model is shared
            series = self.series[key][0]
            online = OnlineData(
                history=series,
                calendar=self.grid,
                now=t_abs,
                online_window=cfg.online_window,
                predicted=np.asarray(self.pred_log[key]),
                actual=np.asarray(self.act_log[key]),
            )
            base_hyper = cfg.train if scheme.kind == "scratch" else cfg.finetune
            hyper = replace(base_hyper, seed=cfg.seed * 104729 + self.n_finetunes * 31 + _key_salt(key))
            updated_any = True  # a diverged update still spends the event and its cooldown
            try:
                self.models[key] = apply_update(model, scheme, online, hyper)
            except DivergenceError as exc:
                self.divergences += 1
                logger.warning("fine-tune of %s at step %d diverged (%s); keeping the previous model", key, t_abs, exc)
        if not updated_any:
            return None  # nothing eligible yet; do not burn the cooldown
        self._estimate_sigma(max(cfg.lag_K, t_abs - cfg.val_window), t_abs)
        self.last_finetune = step_in_control
        self.n_finetunes += 1
        return time.perf_counter() - started

    def final_models(self) -> dict:
        return self.models


def _key_salt(key: str) -> int:
    return sum(ord(ch) * (i + 1) for i, ch in enumerate(key))


# ----------------------------------------------------------------------
# episode engine
# ----------------------------------------------------------------------

def _control_window(instance: ProblemInstance, split: Split) -> ProblemInstance:
    """The steps [split.val_end, end) of ``instance``, over which controllers act."""
    split.check(instance.n_steps)
    return instance.slice(split.val_end, instance.n_steps - split.val_end)


def _lp_instance(instance: ProblemInstance, t_abs: int, H: int, soc_now: np.ndarray) -> ProblemInstance:
    """Window the instance for planning and pin e_initial at the live SOC."""
    window = instance.slice(t_abs, H)
    storages = tuple(
        StorageDevice(
            s.id, s.e_min, s.e_max, s.p_charge_max, s.p_discharge_max,
            e_initial=float(np.clip(soc_now[i], s.e_min, s.e_max)),
            eta_charge=s.eta_charge, eta_discharge=s.eta_discharge,
        )
        for i, s in enumerate(window.storages)
    )
    return ProblemInstance(window.grid, window.buildings, window.generators, storages, window.market)


def run_episode(
    instance: ProblemInstance,
    split: Split,
    config: ControllerConfig,
    name: str,
    perturb: PerturbationConfig | None = None,
    pretrained: PretrainedBundle | None = None,
) -> EpisodeResult:
    """Forecast-and-optimize rolling control over the instance's control window."""
    window = _control_window(instance, split)
    control_start, control_len = split.val_end, window.n_steps
    sim = Simulator(window, perturb)

    if config.forecaster == "oracle":
        provider: OracleProvider | ModelProvider = OracleProvider(instance)
    else:
        provider = ModelProvider(instance, split, config)
        if pretrained is not None:
            provider.load_bundle(pretrained)
        else:
            provider.pretrain()

    n_storages = len(instance.storages)
    plan = None
    plan_t0 = 0
    plan_forecasts: Forecasts | None = None
    last_lp, last_basis = None, None  # the last optimal program and its basis
    warm_starts = inverse_refusals = 0
    phase_pivots = np.zeros(3, dtype=np.int64)
    lp_fallbacks = 0
    dispatch_seconds: list[float] = []
    fine_tune_steps: list[int] = []
    fine_tune_seconds: list[float] = []
    soc_track = np.zeros((n_storages, control_len))
    loop_started = time.perf_counter()

    for t_rel in range(control_len):
        t_abs = control_start + t_rel
        if t_rel % config.T_rl == 0:
            started = time.perf_counter()
            H = min(config.horizon_T, control_len - t_rel)
            forecasts = provider.point_forecasts(t_abs, H)
            lp_inst = _lp_instance(instance, t_abs, H, sim.state.soc)
            if config.use_scenarios:
                # common random numbers across re-plans: the same noise bank
                # recentered on fresh forecasts keeps successive plans from
                # jittering for sampling reasons alone
                scen = sample_scenarios(
                    forecasts, provider.sigmas(H), config.n_scenarios,
                    seed=config.seed * 1_000_003,
                )
                lp = build_stochastic(lp_inst, scen)
            else:
                lp = build_deterministic(lp_inst, forecasts)
            start = None if last_basis is None else shift_basis(last_basis, last_lp, lp, t_rel - plan_t0)
            last_lp = last_basis = None  # let the old inverse go before the solve allocates
            solution = solve_lp(lp, SolveOptions(basis=start))
            phase_pivots += solution.phase_iterations
            if solution.warm_start == "accepted":
                warm_starts += 1
                if solution.start_inverse != "carried":
                    inverse_refusals += 1
                    logger.debug("re-plan at step %d inverts its warm basis: %s", t_abs, solution.start_inverse)
            elif solution.warm_start is not None:
                logger.debug("re-plan at step %d starts cold: warm basis %s", t_abs, solution.warm_start)
            if solution.status == "optimal":
                plan = extract_plan(solution, lp)
                plan_t0 = t_rel
                plan_forecasts = forecasts
                last_lp, last_basis = lp, solution.basis
            else:
                plan = None
                lp_fallbacks += 1
                logger.debug(
                    "re-plan at step %d: LP %s after %d iterations; executing zero action",
                    t_abs, solution.status, solution.iterations,
                )
            dispatch_seconds.append(time.perf_counter() - started)

        offset = t_rel - plan_t0
        if plan is not None and offset < plan.n_steps:
            actions = np.stack([plan.p_charge[:, offset], plan.p_discharge[:, offset]], axis=1)
        else:
            actions = np.zeros((n_storages, 2))  # fallback after an unsolved program
        if (
            isinstance(provider, ModelProvider)
            and plan_forecasts is not None
            and offset < plan_forecasts.horizon
        ):
            provider.log_step(t_abs, plan_forecasts, offset)

        sim.step(actions)
        soc_track[:, t_rel] = sim.state.soc

        spent = provider.maybe_finetune(t_abs + 1, t_rel + 1)
        if spent is not None:
            fine_tune_steps.append(t_rel)
            fine_tune_seconds.append(spent)

    loop_seconds = time.perf_counter() - loop_started
    result = _finalize(
        name, config, split, window, sim, soc_track,
        provider, lp_fallbacks, dispatch_seconds,
        fine_tune_steps, fine_tune_seconds, loop_seconds,
    )
    result.warm_starts = warm_starts
    result.cold_starts = len(dispatch_seconds) - warm_starts
    result.inverse_refusals = inverse_refusals
    result.phase_pivots = tuple(int(p) for p in phase_pivots)
    return result


def _run_schedule(
    name: str,
    config: ControllerConfig,
    split: Split,
    window: ProblemInstance,
    perturb: PerturbationConfig | None,
    actions: np.ndarray,
) -> EpisodeResult:
    """Apply the fixed ``actions``, shape (steps, n_storages, 2), over the control window."""
    sim = Simulator(window, perturb)
    soc_track = np.zeros((len(window.storages), window.n_steps))
    loop_started = time.perf_counter()
    for t_rel in range(window.n_steps):
        sim.step(actions[t_rel])
        soc_track[:, t_rel] = sim.state.soc
    loop_seconds = time.perf_counter() - loop_started
    return _finalize(
        name, config, split, window, sim, soc_track, OracleProvider(window), 0, [], [], [], loop_seconds
    )


def _finalize(
    name, config, split, window, sim, soc_track, provider,
    lp_fallbacks, dispatch_seconds, fine_tune_steps, fine_tune_seconds, loop_seconds,
) -> EpisodeResult:
    control_start, control_len = split.val_end, window.n_steps
    consumption = sim.consumption_matrix()
    district = consumption.sum(axis=0)
    costs = cost_breakdown(
        consumption, window.market.price, window.market.carbon_intensity, window.grid.month_index
    )
    acts = sim.action_log()
    charge = acts[:, :, 0].T if acts.size else np.zeros((0, control_len))
    discharge = acts[:, :, 1].T if acts.size else np.zeros((0, control_len))

    forecast_log: dict[str, dict[str, np.ndarray]] = {}
    wmape_by_target: dict[str, float] = {}
    if isinstance(provider, ModelProvider):
        for key in provider.specs:
            a = np.asarray(provider.act_log[key])
            p = np.asarray(provider.pred_log[key])
            forecast_log[key] = {"actual": a, "predicted": p}
        for group in ("load", "solar", "price"):
            keys = [k for k in provider.specs if k == group or k.startswith(group + ":")]
            a = np.concatenate([np.asarray(provider.act_log[k]) for k in keys]) if keys else np.zeros(0)
            p = np.concatenate([np.asarray(provider.pred_log[k]) for k in keys]) if keys else np.zeros(0)
            if a.size and np.sum(np.abs(a)) > 0:
                wmape_by_target[group] = wmape(a, p)

    return EpisodeResult(
        controller=name,
        seed=config.seed,
        control_start=control_start,
        steps=control_len,
        charge=charge,
        discharge=discharge,
        soc=soc_track,
        consumption=consumption,
        district=district,
        price_paid=np.maximum(district, 0.0) * window.market.price,
        costs=costs,
        forecast_log=forecast_log,
        wmape_by_target=wmape_by_target,
        clip_amount=sim.state.clip_amount,
        lp_fallbacks=lp_fallbacks,
        fine_tune_steps=fine_tune_steps,
        fine_tune_seconds=fine_tune_seconds,
        dispatch_seconds=dispatch_seconds,
        seconds_per_day=loop_seconds / max(control_len, 1) * 24.0,
        models=provider.final_models(),
        finetune_divergences=provider.divergences,
        sigma_skips=provider.sigma_skips,
    )


# ----------------------------------------------------------------------
# named controllers
# ----------------------------------------------------------------------

def run_sofo(
    instance: ProblemInstance,
    split: Split,
    config: ControllerConfig,
    perturb: PerturbationConfig | None = None,
    pretrained: PretrainedBundle | None = None,
) -> EpisodeResult:
    """Full stochastic forecast-and-optimize controller."""
    cfg = replace(config, use_scenarios=True)
    return run_episode(instance, split, cfg, "sofo", perturb, pretrained)


def run_mpc(
    instance: ProblemInstance,
    split: Split,
    config: ControllerConfig,
    adaptive: bool = False,
    perturb: PerturbationConfig | None = None,
    pretrained: PretrainedBundle | None = None,
) -> EpisodeResult:
    """Deterministic point-forecast control.

    Non-adaptive: day-ahead re-planning with frozen models.  Adaptive:
    hourly rolling plus the self-adaptive affine correction.
    """
    if adaptive:
        cfg = replace(config, use_scenarios=False, T_rl=1, scheme=UpdateScheme("selfadapt"))
        name = "ampc"
    else:
        cfg = replace(
            config, use_scenarios=False, T_rl=min(24, config.horizon_T), scheme=UpdateScheme("noft")
        )
        name = "mpc"
    return run_episode(instance, split, cfg, name, perturb, pretrained)


def run_rbc(
    instance: ProblemInstance,
    split: Split,
    config: ControllerConfig,
    perturb: PerturbationConfig | None = None,
) -> EpisodeResult:
    """Fixed schedule: charge 10% of capacity 10:00-13:00, discharge it
    16:00-19:00, idle otherwise; the simulator clips what does not fit."""
    window = _control_window(instance, split)
    hours = window.grid.hour_of_day
    rate = RBC_FRACTION * np.array([s.e_max for s in window.storages], dtype=np.float64)
    actions = np.zeros((window.n_steps, len(window.storages), 2))
    actions[np.isin(hours, RBC_CHARGE_HOURS), :, 0] = rate
    actions[np.isin(hours, RBC_DISCHARGE_HOURS), :, 1] = rate
    return _run_schedule("rbc", config, split, window, perturb, actions)


def run_no_storage(
    instance: ProblemInstance,
    split: Split,
    config: ControllerConfig,
    perturb: PerturbationConfig | None = None,
) -> EpisodeResult:
    """Zero-action baseline used for score normalization."""
    window = _control_window(instance, split)
    actions = np.zeros((window.n_steps, len(window.storages), 2))
    return _run_schedule("nostorage", config, split, window, perturb, actions)
