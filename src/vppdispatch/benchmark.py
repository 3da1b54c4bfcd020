"""Benchmark orchestration: controller grid, component ablation, scenario
sweep, report files and plots.

All randomness flows from the config's seed list; outputs are byte-stable
for identical configs.  Wall-clock measurements are real and therefore go
to ``timings.txt``, which is the one deliberately non-deterministic output
file.  Models are pre-trained once per seed and shared (as copies) across
the controllers of that seed, which changes nothing semantically because
every controller would train the identical models from the identical seed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .controller import (
    ControllerConfig,
    EpisodeResult,
    ModelProvider,
    PretrainedBundle,
    Split,
    run_episode,
    run_mpc,
    run_no_storage,
    run_rbc,
    run_sofo,
)
from .dataio import load_dataset, write_csv
from .domain import ProblemInstance
from .evaluate import NormalizedScores, normalize
from .forecast import TrainConfig, UpdateScheme
from .plots import bar_chart, line_chart
from .simulator import PerturbationConfig
from .synthetic import DriftSpec, SyntheticSpec, generate_synthetic

CONTROLLERS = ("nostorage", "rbc", "mpc", "ampc", "sofo")
COMPONENT_VARIANTS = ("mpc", "mpc_rolling", "mpc_stochastic", "sofo")
DEFAULT_SWEEP = (1, 25, 50, 75, 150, 300)


@dataclass(frozen=True)
class RunConfig:
    out_dir: str
    dataset_path: str | None = None
    synthetic: SyntheticSpec | None = SyntheticSpec()
    train_days: int = 8
    val_days: int = 2
    controllers: tuple[str, ...] = CONTROLLERS
    controller: ControllerConfig = ControllerConfig()
    perturbation: PerturbationConfig = PerturbationConfig()
    seeds: tuple[int, ...] = (0,)
    scenario_counts: tuple[int, ...] = ()
    components: bool = True

    def split(self, instance: ProblemInstance) -> Split:
        split = Split(train_end=self.train_days * 24, val_end=(self.train_days + self.val_days) * 24)
        split.check(instance.n_steps)
        return split


def _from_dict(cls, raw: dict, where: str):
    """``cls(**raw)``, raising ValueError on keys that ``cls`` has no field for."""
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"{where}: unknown config key(s) {', '.join(map(repr, unknown))}")
    return cls(**raw)


def load_run_config(path: str) -> RunConfig:
    """Read a benchmark config written as JSON, such as ``run_config.json``.

    Raises ValueError naming any key that matches no config field.
    """
    raw = json.loads(Path(path).read_text())
    if "synthetic" in raw and raw["synthetic"] is not None:
        syn = dict(raw["synthetic"])
        if syn.get("drift") is not None:
            syn["drift"] = _from_dict(DriftSpec, syn["drift"], "synthetic.drift")
        if "peak_hours" in syn:
            syn["peak_hours"] = tuple(syn["peak_hours"])
        raw["synthetic"] = _from_dict(SyntheticSpec, syn, "synthetic")
    if "controller" in raw:
        ctl = dict(raw["controller"])
        if isinstance(ctl.get("scheme"), dict):
            scheme = dict(ctl["scheme"])
            if "freeze_layers" in scheme:
                scheme["freeze_layers"] = tuple(scheme["freeze_layers"])
            ctl["scheme"] = _from_dict(UpdateScheme, scheme, "controller.scheme")
        elif "scheme" in ctl:
            ctl["scheme"] = UpdateScheme(ctl["scheme"])
        for k in ("train", "finetune"):
            if k in ctl:
                ctl[k] = _from_dict(TrainConfig, ctl[k], f"controller.{k}")
        raw["controller"] = _from_dict(ControllerConfig, ctl, "controller")
    if "perturbation" in raw:
        pert = dict(raw["perturbation"])
        if "efficiency_true" in pert:
            pert["efficiency_true"] = {k: tuple(v) for k, v in pert["efficiency_true"].items()}
        raw["perturbation"] = _from_dict(PerturbationConfig, pert, "perturbation")
    for k in ("controllers", "seeds", "scenario_counts"):
        if k in raw:
            raw[k] = tuple(raw[k])
    return _from_dict(RunConfig, raw, "config")


def _dump_config(config: RunConfig, path: Path) -> None:
    def default(obj):
        if hasattr(obj, "__dict__") or hasattr(obj, "__dataclass_fields__"):
            return asdict(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        raise TypeError(f"not serializable: {type(obj)}")

    path.write_text(json.dumps(asdict(config), indent=1, sort_keys=True, default=default))


def _instance(config: RunConfig) -> ProblemInstance:
    if config.dataset_path:
        return load_dataset(config.dataset_path)
    if config.synthetic is None:
        raise ValueError("config needs dataset_path or synthetic spec")
    return generate_synthetic(config.synthetic)


def _pretrain(instance, split, config: RunConfig, seed: int) -> PretrainedBundle:
    cfg = replace(config.controller, seed=seed)
    provider = ModelProvider(instance, split, cfg)
    provider.pretrain()
    return provider.bundle()


def _run_one(
    name: str, instance, split, config: RunConfig, seed: int, bundle: PretrainedBundle | None
) -> EpisodeResult:
    cfg = replace(config.controller, seed=seed)
    perturb = config.perturbation
    if name == "nostorage":
        return run_no_storage(instance, split, cfg)
    if name == "rbc":
        return run_rbc(instance, split, cfg, perturb)
    if name == "mpc":
        return run_mpc(instance, split, cfg, perturb=perturb, pretrained=bundle)
    if name == "ampc":
        return run_mpc(instance, split, cfg, adaptive=True, perturb=perturb, pretrained=bundle)
    if name == "sofo":
        return run_sofo(instance, split, cfg, perturb=perturb, pretrained=bundle)
    if name == "mpc_rolling":
        c = replace(cfg, use_scenarios=False, T_rl=1, scheme=UpdateScheme("noft"))
        return run_episode(instance, split, c, name, perturb, bundle)
    if name == "mpc_stochastic":
        c = replace(cfg, use_scenarios=True, T_rl=1, scheme=UpdateScheme("noft"))
        return run_episode(instance, split, c, name, perturb, bundle)
    raise ValueError(f"unknown controller {name!r}")


@dataclass
class BenchmarkResult:
    out_dir: Path
    episodes: dict = field(default_factory=dict)  # (name, seed) or (name, seed, N) -> EpisodeResult
    baseline: EpisodeResult | None = None
    files: list[Path] = field(default_factory=list)


def seed_stats(
    result: BenchmarkResult, name: str, seeds, N: int | None = None
) -> tuple[NormalizedScores, NormalizedScores]:
    """Mean and standard deviation over ``seeds`` of the normalized scores of
    the episodes ``(name, seed, N)``, each summed in the order of ``seeds``."""
    scores = [normalize(result.episodes[(name, s, N)].costs, result.baseline.costs) for s in seeds]
    columns = {f.name: [getattr(sc, f.name) for sc in scores] for f in fields(NormalizedScores)}
    mean = NormalizedScores(**{k: float(np.mean(v)) for k, v in columns.items()})
    std = NormalizedScores(**{k: float(np.std(v)) for k, v in columns.items()})
    return mean, std


def run_benchmark(config: RunConfig) -> BenchmarkResult:
    """Run the controller grid and write every report file.

    Raises on any episode fault; partial results stay on disk.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "trajectories").mkdir(exist_ok=True)
    (out / "plots").mkdir(exist_ok=True)
    instance = _instance(config)
    split = config.split(instance)
    result = BenchmarkResult(out_dir=out)
    timings: list[str] = []

    needs_models = [n for n in config.controllers if n not in ("nostorage", "rbc")]
    if config.components:
        needs_models += [v for v in COMPONENT_VARIANTS if v not in config.controllers]
    bundles: dict[int, PretrainedBundle] = {}
    if needs_models or config.scenario_counts:
        for seed in config.seeds:
            bundles[seed] = _pretrain(instance, split, config, seed)

    result.baseline = run_no_storage(instance, split, replace(config.controller, seed=config.seeds[0]))
    base_costs = result.baseline.costs

    names = list(dict.fromkeys(list(config.controllers) + (list(COMPONENT_VARIANTS) if config.components else [])))
    for seed in config.seeds:
        bundle = bundles.get(seed)
        for name in names:
            ep = _run_one(name, instance, split, config, seed, bundle and bundle.copy())
            result.episodes[(name, seed, None)] = ep
        for N in config.scenario_counts:
            cfg = replace(config.controller, seed=seed, n_scenarios=N)
            ep = run_sofo(instance, split, cfg, perturb=config.perturbation, pretrained=bundle and bundle.copy())
            result.episodes[("sofo", seed, N)] = ep

    # ---- summary.csv (normalized scores, one row per controller x seed)
    rows = []
    for name in names:
        for seed in config.seeds:
            ep = result.episodes[(name, seed, None)]
            sc = normalize(ep.costs, base_costs)
            rows.append([
                name, seed, float(sc.average), float(sc.emission), float(sc.price), float(sc.grid),
                float(ep.wmape_by_target.get("load", np.nan)),
                float(ep.wmape_by_target.get("solar", np.nan)),
                float(ep.wmape_by_target.get("price", np.nan)),
                ep.lp_fallbacks, float(ep.clip_amount),
            ])
            timings.append(
                f"{name} seed={seed} seconds_per_24h_dispatch={ep.seconds_per_day:.3f} "
                f"finetune_events={len(ep.fine_tune_steps)} finetune_seconds={sum(ep.fine_tune_seconds):.3f}"
            )
    summary = out / "summary.csv"
    write_csv(summary, [
        "controller", "seed", "average", "emission", "price", "grid",
        "wmape_load", "wmape_solar", "wmape_price", "lp_fallbacks", "clip_kw",
    ], rows)
    result.files.append(summary)

    # ---- components.csv (ablation layout: each variant adds one module)
    if config.components:
        comp_rows = []
        prev_avg: float | None = None
        for name in COMPONENT_VARIANTS:
            mean, _ = seed_stats(result, name, config.seeds)
            improv = float("nan") if prev_avg is None else (prev_avg - mean.average) / prev_avg
            comp_rows.append([name, mean.average, improv, mean.emission, mean.price, mean.grid])
            prev_avg = mean.average
        components = out / "components.csv"
        write_csv(components, ["variant", "average", "improv_vs_prev", "emission", "price", "grid"], comp_rows)
        result.files.append(components)

    # ---- scenario sweep (Figure-3 layout)
    if config.scenario_counts:
        long_rows, stat_rows = [], []
        for N in config.scenario_counts:
            for seed in config.seeds:
                sc = normalize(result.episodes[("sofo", seed, N)].costs, base_costs)
                long_rows.append([N, seed, float(sc.average), float(sc.emission), float(sc.price), float(sc.grid)])
            mean, std = seed_stats(result, "sofo", config.seeds, N)
            stat_rows.append([N, mean.average, std.average])
        sweep = out / "scenario_sweep.csv"
        write_csv(sweep, ["n_scenarios", "seed", "average", "emission", "price", "grid"], long_rows)
        sweep_stats = out / "scenario_sweep_stats.csv"
        write_csv(sweep_stats, ["n_scenarios", "mean_average", "std_average"], stat_rows)
        result.files += [sweep, sweep_stats]

    # ---- per-run trajectories
    for name in names:
        for seed in config.seeds:
            ep = result.episodes[(name, seed, None)]
            rows = _episode_rows(ep, instance, split)
            path = out / "trajectories" / f"{name}_seed{seed}.csv"
            write_csv(path, ["t", "entity", "quantity", "value"], rows)
            result.files.append(path)

    _render_plots(result, config, names, out)
    (out / "timings.txt").write_text("\n".join(timings) + "\n")
    _dump_config(config, out / "run_config.json")
    result.files += [out / "run_config.json"]
    return result


def _episode_rows(ep: EpisodeResult, instance, split) -> list:
    rows = []
    window = instance.slice(split.val_end, instance.n_steps - split.val_end)
    for t in range(ep.steps):
        for i, b in enumerate(window.buildings):
            rows.append([t, b.id, "consumption", float(ep.consumption[i, t])])
        for i, s in enumerate(window.storages):
            rows.append([t, s.id, "charge", float(ep.charge[i, t]) if ep.charge.size else 0.0])
            rows.append([t, s.id, "discharge", float(ep.discharge[i, t]) if ep.discharge.size else 0.0])
            rows.append([t, s.id, "soc", float(ep.soc[i, t])])
        rows.append([t, "district", "consumption", float(ep.district[t])])
        rows.append([t, "district", "price_paid", float(ep.price_paid[t])])
    return rows


def _render_plots(result: BenchmarkResult, config: RunConfig, names: list[str], out: Path) -> None:
    metrics = [f.name for f in fields(NormalizedScores)]
    means = [seed_stats(result, name, config.seeds)[0] for name in names]
    groups = {m: [getattr(mean, m) for mean in means] for m in metrics}
    bar_chart(str(out / "plots" / "summary.svg"), names, groups, "Normalized cost by controller", "score")
    result.files.append(out / "plots" / "summary.svg")

    if config.components:
        means = [seed_stats(result, name, config.seeds)[0] for name in COMPONENT_VARIANTS]
        comp_groups = {m: [getattr(mean, m) for mean in means] for m in metrics}
        bar_chart(
            str(out / "plots" / "components.svg"),
            list(COMPONENT_VARIANTS), comp_groups,
            "Component ablation (cumulative)", "score",
        )
        result.files.append(out / "plots" / "components.svg")

    if config.scenario_counts:
        Ns = np.array(config.scenario_counts, dtype=float)
        stats = [seed_stats(result, "sofo", config.seeds, N) for N in config.scenario_counts]
        mu = np.array([mean.average for mean, _ in stats])
        sd = np.array([std.average for _, std in stats])
        line_chart(
            str(out / "plots" / "scenario_sweep.svg"),
            {"mean": (Ns, mu)},
            "Average score vs scenario count", "scenarios", "score",
            bands={"std": (Ns, mu - sd, mu + sd)},
        )
        result.files.append(out / "plots" / "scenario_sweep.svg")

    for name in names:
        ep = result.episodes[(name, config.seeds[0], None)]
        t = np.arange(ep.steps, dtype=float)
        line_chart(
            str(out / "plots" / f"district_{name}.svg"),
            {name: (t, ep.district)},
            f"District consumption: {name} (seed {config.seeds[0]})", "control step", "kW",
        )
        result.files.append(out / "plots" / f"district_{name}.svg")
