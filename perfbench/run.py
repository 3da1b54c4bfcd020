"""Rolling-horizon dispatch benchmark.

    python3 perfbench/run.py --workload sofo_drift --seed 1 --seconds 1 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  One process, BLAS pinned
to one thread.  A run is a cold set-up (district, forecaster pretraining,
initial sigma estimates) followed by whole control episodes until
``--seconds`` have passed (at least one).  The outputs are then checked
outside the timed region, and the last line of standard output is the
result object.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
wraps every layer boundary and reports the per-layer metrics instead (see
README.md).
"""

import time

PROCESS_T0 = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def _import_program():
    """Import vppdispatch from this checkout's src/ or exit non-zero."""
    src = ROOT / "src"
    if not (src / "vppdispatch" / "__init__.py").is_file():
        sys.exit(f"no program source under {src}")
    sys.path.insert(0, str(src))
    import vppdispatch

    if Path(vppdispatch.__file__).resolve().parent != (src / "vppdispatch").resolve():
        sys.exit(f"vppdispatch imported from {vppdispatch.__file__}, not from {src}")


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    _import_program()
    import numpy as np

    from tracing import LAYER_UNITS, Recorder
    from vppdispatch.controller import ModelProvider, run_episode, run_no_storage
    from vppdispatch.evaluate import normalize
    from vppdispatch.synthetic import generate_synthetic
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    recorder = Recorder(traced=bool(args.trace))

    with recorder.installed():
        # -------- set-up: everything before the first control step
        instances = [generate_synthetic(spec) for spec in wl.districts]
        bundles = [None] * len(instances)
        if wl.controller.forecaster != "oracle":
            for k, instance in enumerate(instances):
                provider = ModelProvider(instance, wl.split, wl.controller)
                provider.pretrain()
                bundles[k] = provider.bundle()
        setup_s = time.process_time()  # CPU seconds since the process started
        setup_wall_s = time.perf_counter() - PROCESS_T0

        # -------- timed region: whole rounds, one episode per district
        episodes, walls, cpus = [], [], []
        started = time.perf_counter()
        while not walls or time.perf_counter() - started < args.seconds:
            for instance, bundle in zip(instances, bundles):
                recorder.begin_episode()
                t0, c0 = time.perf_counter(), time.process_time()
                episodes.append((instance, run_episode(
                    instance, wl.split, wl.controller, wl.name, wl.perturbation, bundle,
                )))
                walls.append(time.perf_counter() - t0)
                cpus.append(time.process_time() - c0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -------- checks, outside the timed region
    import checks

    errors: list[str] = []
    for k, (instance, ep) in enumerate(episodes):
        window = instance.slice(wl.split.val_end, instance.n_steps - wl.split.val_end)
        found = checks.check_trajectory(window, wl.perturbation, ep.charge, ep.discharge, ep.soc, ep.consumption)
        found += checks.check_costs(window, ep.consumption, ep.costs)
        if len(ep.fine_tune_steps) != wl.finetune_events:
            found.append(f"{len(ep.fine_tune_steps)} fine-tune events, expected {wl.finetune_events}")
        if wl.controller.forecaster == "oracle":
            optimum = checks.perfect_information_optimum(window, wl.perturbation)
            found += checks.check_price_bound(ep.costs.price, optimum)
        errors += [f"episode {k}: {e}" for e in found]
    for program in recorder.programs:
        errors += checks.check_program(program)
    replans = sum(len(ep.dispatch_seconds) for _, ep in episodes)
    fallbacks = sum(ep.lp_fallbacks for _, ep in episodes)
    if (replans, fallbacks) != (recorder.solves, recorder.failed_solves):
        errors.append(
            f"episodes report {replans} re-plans / {fallbacks} fallbacks, "
            f"probe saw {recorder.solves} / {recorder.failed_solves}"
        )

    scores = [
        normalize(ep.costs, run_no_storage(instance, wl.split, wl.controller, wl.perturbation).costs).average
        for instance, ep in episodes[: len(instances)]
    ]
    steps = sum(ep.steps for _, ep in episodes)
    control_day_s = sum(cpus) / steps * 24.0
    info = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "episodes": len(episodes),
        "control_steps": steps,
        "replans": recorder.solves,
        "simplex_iterations_per_solve": recorder.iterations / recorder.solves,
        "lp_fallbacks": fallbacks,
        "finetune_events": sum(len(ep.fine_tune_steps) for _, ep in episodes),
        "programs_checked": len(recorder.programs),
        "normalized_average": scores,
        "control_day_s": control_day_s,
        "setup_wall_s": setup_wall_s,
        "control_day_wall_s": sum(walls) / steps * 24.0,
        "errors": errors[:20],
        "environment": _environment(),
    }

    if args.trace:
        metrics = {
            name: {"value": value, "unit": LAYER_UNITS[name]}
            for name, value in recorder.layer_metrics().items()
        }
        recorder.write_spans(OUT_DIR / f"trace-{wl.name}-seed{args.seed}.jsonl")
    else:
        intervals_ms = 1e3 * recorder.decision_intervals(cpu=True)
        wall_ms = 1e3 * recorder.decision_intervals(cpu=False)
        info["step_wall_ms_p50"] = float(np.percentile(wall_ms, 50))
        info["step_wall_ms_p90"] = float(np.percentile(wall_ms, 90))
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "control_day_s": {"value": control_day_s, "unit": "s"},
            "step_ms_p50": {"value": float(np.percentile(intervals_ms, 50)), "unit": "ms"},
            "step_ms_p90": {"value": float(np.percentile(intervals_ms, 90)), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        info["decision_intervals"] = int(intervals_ms.size)

    result = {
        "correct": not errors,
        "attempted": recorder.solves,
        "failed": recorder.failed_solves,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n"
    )
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
