"""Command-line surface.

Subcommands: ``validate`` (schema/invariant check of a dataset),
``generate`` (seeded synthetic dataset), ``forecast`` (train models and
report accuracy), ``dispatch`` (build and solve one plan), ``benchmark``
(full controller grid with reports and plots) and ``report`` (re-render
plots from existing CSVs).  Log verbosity comes from the VPPDISPATCH_LOG
environment variable only; every output is reproducible from the config
and seeds.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

logger = logging.getLogger("vppdispatch")


def _setup_logging() -> None:
    level = os.environ.get("VPPDISPATCH_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")


def _cmd_validate(args) -> int:
    from .dataio import DatasetError, load_dataset
    from .domain import validate_instance

    try:
        instance = load_dataset(args.data)
    except DatasetError as exc:
        print(f"schema error: {exc}")
        return 1
    violations = validate_instance(instance)
    for v in violations:
        print(f"violation: {v}")
    if not violations:
        print(f"ok: {len(instance.buildings)} buildings, {instance.n_steps} steps")
    return 1 if violations else 0


def _cmd_generate(args) -> int:
    from .dataio import write_dataset
    from .synthetic import DriftSpec, SyntheticSpec, generate_synthetic

    drift = DriftSpec(args.drift_day, args.drift_scale) if args.drift_day else None
    spec = SyntheticSpec(
        days=args.days, n_buildings=args.buildings, drift=drift,
        noise_load=args.noise_load, noise_solar=args.noise_solar, seed=args.seed,
    )
    instance = generate_synthetic(spec)
    write_dataset(instance, args.out)
    print(f"wrote {args.days}-day dataset for {args.buildings} buildings to {args.out}")
    return 0


def _split_from_args(args, instance) -> "Split":
    from .controller import Split

    split = Split(train_end=args.train_days * 24, val_end=(args.train_days + args.val_days) * 24)
    split.check(instance.n_steps)
    return split


def _cmd_forecast(args) -> int:
    from .controller import ControllerConfig, ModelProvider
    from .dataio import load_dataset
    from .evaluate import wmape
    from .forecast import predict, save_model

    instance = load_dataset(args.data)
    split = _split_from_args(args, instance)
    cfg = ControllerConfig(seed=args.seed, forecaster=args.model, hidden_dim=args.hidden)
    provider = ModelProvider(instance, split, cfg)
    provider.pretrain()
    print("target        val_wmape")
    for key in sorted(provider.specs):
        print(f"{key:12s}  {provider.val_wmape[key]:.4f}")
    # accuracy over the held-out control window, one-step-ahead
    control = range(split.val_end, instance.n_steps - 1)
    for key in sorted(provider.specs):
        series = provider.series[key][0]
        preds = [float(predict(provider.models[key], series, instance.grid, t, 1)[0]) for t in control]
        acts = [float(series[t]) for t in control]
        if np.sum(np.abs(acts)) > 0:
            print(f"{key:12s}  control one-step wmape {wmape(np.array(acts), np.array(preds)):.4f}")
    if args.save:
        Path(args.save).mkdir(parents=True, exist_ok=True)
        for key, model in provider.models.items():
            save_model(model, str(Path(args.save) / f"{key.replace(':', '_')}.fcst"))
        print(f"checkpoints written to {args.save}")
    return 0


def _cmd_dispatch(args) -> int:
    from .controller import ControllerConfig, ModelProvider, Split
    from .dataio import load_dataset, write_csv
    from .dispatch import build_deterministic, build_stochastic, extract_plan, solve_lp, write_mps
    from .scenario import Forecasts, sample_scenarios

    instance = load_dataset(args.data)
    start, H = args.start, args.horizon
    if start + H > instance.n_steps:
        print(f"window [{start}, {start + H}) outside dataset of {instance.n_steps} steps")
        return 1
    window = instance.slice(start, H)
    if args.oracle:
        fc = Forecasts(
            solar=np.stack([b.solar_capacity for b in window.buildings]),
            load=np.stack([b.load for b in window.buildings]),
            price=window.market.price,
        )
        sigmas = None
    else:
        split = Split(train_end=max(24, start - 48), val_end=start)
        cfg = ControllerConfig(seed=args.seed, forecaster=args.model, horizon_T=H)
        provider = ModelProvider(instance, split, cfg)
        provider.pretrain()
        fc = provider.point_forecasts(start, H)
        sigmas = provider.sigmas(H)

    if args.scenarios > 0 and sigmas is not None:
        scen = sample_scenarios(fc, sigmas, args.scenarios, seed=args.seed)
        lp = build_stochastic(window, scen)
    else:
        lp = build_deterministic(window, fc)
    solution = solve_lp(lp)
    # the stochastic program drops a constant from its objective; adding it
    # back reports the two-stage expected cost
    objective = solution.objective + lp.meta["objective_offset"]
    print(f"status={solution.status} objective={objective:.6f} iterations={solution.iterations}")
    if args.mps:
        write_mps(lp, args.mps)
        print(f"wrote {args.mps}")
    if solution.status != "optimal":
        return 1
    plan = extract_plan(solution, lp)
    rows = []
    for t in range(plan.n_steps):
        rows.append([t, "grid", "draw", float(plan.p_grid[t])])
        for i, g in enumerate(window.generators):
            rows.append([t, g.id, "generation", float(plan.p_gen[i, t])])
        for i, s in enumerate(window.storages):
            rows.append([t, s.id, "charge", float(plan.p_charge[i, t])])
            rows.append([t, s.id, "discharge", float(plan.p_discharge[i, t])])
            rows.append([t, s.id, "soc", float(plan.soc[i, t])])
    write_csv(args.out, ["t", "entity", "quantity", "value"], rows)
    print(f"wrote {args.out}")
    return 0


def _cmd_benchmark(args) -> int:
    from .benchmark import load_run_config, run_benchmark

    try:
        config = load_run_config(args.config)
        if args.out:
            config = replace(config, out_dir=args.out)
        if args.seed:
            config = replace(config, seeds=tuple(int(s) for s in args.seed.split(",")))
        if args.controller:
            config = replace(config, controllers=tuple(args.controller.split(",")))
        if args.scenarios is not None:
            config = replace(config, controller=replace(config.controller, n_scenarios=args.scenarios))
        if args.scheme:
            from .forecast import UpdateScheme

            config = replace(config, controller=replace(config.controller, scheme=UpdateScheme(args.scheme)))
    except ValueError as exc:
        print(f"config error: {exc}")
        return 1
    try:
        result = run_benchmark(config)
    except Exception as exc:  # partial outputs remain on disk for inspection
        print(f"benchmark failed: {exc}")
        return 1
    print(f"wrote {len(result.files)} files under {result.out_dir}")
    print("note: the average score is the unweighted mean of the three normalized components")
    return 0


def _cmd_report(args) -> int:
    import csv

    from .plots import bar_chart, line_chart

    out = Path(args.out)
    summary = out / "summary.csv"
    if summary.exists():
        with open(summary) as fh:
            rows = list(csv.DictReader(fh))
        names = sorted({r["controller"] for r in rows}, key=lambda n: [r["controller"] for r in rows].index(n))
        groups = {}
        for metric in ("average", "emission", "price", "grid"):
            groups[metric] = [
                float(np.mean([float(r[metric]) for r in rows if r["controller"] == n])) for n in names
            ]
        (out / "plots").mkdir(exist_ok=True)
        bar_chart(str(out / "plots" / "summary.svg"), names, groups, "Normalized cost by controller", "score")
        print(f"re-rendered {out / 'plots' / 'summary.svg'}")
    sweep = out / "scenario_sweep_stats.csv"
    if sweep.exists():
        with open(sweep) as fh:
            rows = list(csv.DictReader(fh))
        Ns = np.array([float(r["n_scenarios"]) for r in rows])
        mu = np.array([float(r["mean_average"]) for r in rows])
        sd = np.array([float(r["std_average"]) for r in rows])
        (out / "plots").mkdir(exist_ok=True)
        line_chart(
            str(out / "plots" / "scenario_sweep.svg"),
            {"mean": (Ns, mu)}, "Average score vs scenario count", "scenarios", "score",
            bands={"std": (Ns, mu - sd, mu + sd)},
        )
        print(f"re-rendered {out / 'plots' / 'scenario_sweep.svg'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(prog="vppdispatch", description="district dispatch engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a dataset directory")
    p.add_argument("--data", required=True)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--days", type=int, default=14)
    p.add_argument("--buildings", type=int, default=2)
    p.add_argument("--drift-day", type=int, default=0)
    p.add_argument("--drift-scale", type=float, default=1.2)
    p.add_argument("--noise-load", type=float, default=0.08)
    p.add_argument("--noise-solar", type=float, default=0.15)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("forecast", help="train forecasting models and report accuracy")
    p.add_argument("--data", required=True)
    p.add_argument("--train-days", type=int, default=8)
    p.add_argument("--val-days", type=int, default=2)
    p.add_argument("--model", choices=("linear", "recurrent"), default="recurrent")
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--save", default="")
    p.set_defaults(fn=_cmd_forecast)

    p = sub.add_parser("dispatch", help="solve a single dispatch plan")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default="plan.csv")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--horizon", type=int, default=24)
    p.add_argument("--scenarios", type=int, default=0)
    p.add_argument("--oracle", action="store_true", help="plan against realized series")
    p.add_argument("--model", choices=("linear", "recurrent"), default="linear")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mps", default="", help="also export the program in MPS layout")
    p.set_defaults(fn=_cmd_dispatch)

    p = sub.add_parser("benchmark", help="run the controller grid from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="")
    p.add_argument("--seed", default="", help="comma-separated seed list override")
    p.add_argument("--controller", default="", help="comma-separated controller subset")
    p.add_argument("--scenarios", type=int, default=None)
    p.add_argument("--scheme", choices=("noft", "selfadapt", "scratch", "smalllr", "freeze"), default="")
    p.set_defaults(fn=_cmd_benchmark)

    p = sub.add_parser("report", help="re-render plots from benchmark CSVs")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
