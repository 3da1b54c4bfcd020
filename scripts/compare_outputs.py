"""Diff this checkout's outputs against a base git ref, field by field.

    python scripts/compare_outputs.py --base HEAD~1 [--tol 0]

The base is checked out into a temporary git worktree, removed afterwards;
the head is this checkout as it stands, uncommitted edits included.  Each
tree runs in its own subprocess, with BLAS pinned to one thread as
``perfbench/run.py`` pins it, and imports the program from its own ``src``
and the workloads from its own ``perfbench/workloads.py``.  For every
benchmark workload, at seeds 3 and 9 (``SEEDS``), it pretrains the
forecasting bundle the way ``perfbench/run.py`` does (none for the oracle
workload) and runs ``run_episode`` once per district with that bundle.
The fields are every array, cost, count and forecast log of each
``EpisodeResult`` with its final models, and every weight, normalization
and sigma of each bundle; the wall-clock fields are left out.  Each tree
also runs its own ``scripts/run_drift_benchmark.py``: every cell of its
CSV reports is a field, and each SVG plot is one field of its bytes.
``timings.txt`` (wall clock) and ``run_config.json`` (which names the
output directory) are left out.  Each episode's first re-plan starts from
the slack basis, which violates the balance rows, so it runs phase 1.  Each
tree also solves two programs cold, each through a phase 1 of its own: the
48-step deterministic and the 50-scenario stochastic dispatch program of an
8-day district whose batteries start at half their capacity.  Their fields
are ``x``, the objective, the pivots of each phase and the final basis.

One line per field says ``bitwise`` or gives the maximum absolute
difference, the maximum elementwise relative difference and the norm-wise
relative difference: the maximum absolute difference over the field's
largest finite magnitude on either side.  The script exits 1 when a field
that both trees produce differs by a norm-wise relative difference above
``--tol``, or changes shape or type; fields only one tree produces are
listed and do not fail.  Judged norm-wise, an entry that is an exact 0 on
one side and a rounding residue on the other passes with the rest of its
field, while a change in a small entry that is large next to the field's
largest still fails.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WALL_CLOCK = frozenset({"fine_tune_seconds", "dispatch_seconds", "seconds_per_day"})
SEEDS = (3, 9)


# ----------------------------------------------------------------------
# the outputs of one tree (run in a subprocess)
# ----------------------------------------------------------------------

def flatten(value, name: str = "") -> dict[str, np.ndarray]:
    """Every leaf of a result as a named array: dataclasses, dicts, lists
    and plain objects are walked; wall-clock fields are left out, and
    ``None`` becomes the string ``"None"``."""
    if dataclasses.is_dataclass(value):
        items = [(f.name, getattr(value, f.name)) for f in dataclasses.fields(value) if f.name not in WALL_CLOCK]
    elif isinstance(value, dict):
        items = [(str(k), v) for k, v in value.items()]
    elif isinstance(value, (list, tuple)) and not all(np.isscalar(v) for v in value):
        items = [(str(i), v) for i, v in enumerate(value)]
    elif hasattr(value, "__dict__"):
        items = list(vars(value).items())
    else:
        return {name: np.asarray("None" if value is None else value)}
    out: dict[str, np.ndarray] = {}
    for key, item in items:
        out.update(flatten(item, f"{name}.{key}" if name else key))
    return out


def _cell(text: str) -> np.ndarray:
    """A CSV cell as a number when it parses as one, else as its text."""
    try:
        return np.asarray(float(text))
    except ValueError:
        return np.asarray(text)


def report_fields(out_dir: Path) -> dict[str, np.ndarray]:
    """The fields of a drift benchmark report directory:
    ``drift/<file>/row<i>.<column>`` for every cell of every CSV, numbers as
    floats and text as text, and ``drift/<file>`` with the bytes of every
    SVG."""
    fields: dict[str, np.ndarray] = {}
    for path in sorted(out_dir.rglob("*.csv")):
        key = f"drift/{path.relative_to(out_dir).as_posix()}"
        with path.open(newline="") as f:
            for i, row in enumerate(csv.DictReader(f)):
                fields.update({f"{key}/row{i}.{column}": _cell(text) for column, text in row.items()})
    for path in sorted(out_dir.rglob("*.svg")):
        fields[f"drift/{path.relative_to(out_dir).as_posix()}"] = np.asarray(np.void(path.read_bytes()))
    return fields


def cold_solve_fields() -> dict[str, np.ndarray]:
    """The fields of the two cold solves that run phase 1, ``cold/<program>/<field>``."""
    from vppdispatch.dispatch import build_deterministic, build_stochastic, solve_lp
    from vppdispatch.scenario import Forecasts, Uncertainty, sample_scenarios
    from vppdispatch.synthetic import SyntheticSpec, generate_synthetic

    district = generate_synthetic(SyntheticSpec(
        days=8, n_buildings=2, noise_load=0.08, noise_solar=0.15, pv_scale=2.0,
        battery_hours=5.0, battery_c_rate=0.2, seed=3,
    ))
    window = district.slice(7, 48)
    window = dataclasses.replace(window, storages=tuple(
        dataclasses.replace(s, e_initial=0.5 * s.e_max) for s in window.storages
    ))
    forecasts = Forecasts(
        solar=np.stack([b.solar_capacity for b in window.buildings]),
        load=np.stack([b.load for b in window.buildings]),
        price=window.market.price,
    )
    spread = Uncertainty(solar=np.full(48, 0.2), load=np.full(48, 0.15), price=np.full(48, 0.02))
    programs = {
        "deterministic": build_deterministic(window, forecasts),
        "stochastic": build_stochastic(window, sample_scenarios(forecasts, spread, N=50, seed=1)),
    }
    fields: dict[str, np.ndarray] = {}
    for name, lp in programs.items():
        solution = solve_lp(lp)
        fields.update({
            f"cold/{name}/x": solution.x,
            f"cold/{name}/objective": np.asarray(solution.objective),
            f"cold/{name}/phase_iterations": np.asarray(solution.phase_iterations),
            f"cold/{name}/basis.cols": solution.basis.cols,
            f"cold/{name}/basis.rows": solution.basis.rows,
        })
    return fields


def collect(tree: Path) -> dict[str, np.ndarray]:
    """The fields of ``tree``'s program on every workload and seed, of its
    cold phase-1 solves, and of its drift benchmark reports."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import vppdispatch

    if Path(vppdispatch.__file__).resolve().parent != (tree / "src" / "vppdispatch").resolve():
        sys.exit(f"vppdispatch imported from {vppdispatch.__file__}, not from {tree / 'src'}")
    from vppdispatch.controller import ModelProvider, run_episode
    from vppdispatch.synthetic import generate_synthetic
    from workloads import WORKLOADS

    fields = cold_solve_fields()
    for workload in sorted(WORKLOADS):
        for seed in SEEDS:
            wl = WORKLOADS[workload](seed)
            for k, spec in enumerate(wl.districts):
                instance = generate_synthetic(spec)
                bundle = None
                if wl.controller.forecaster != "oracle":
                    provider = ModelProvider(instance, wl.split, wl.controller)
                    provider.pretrain()
                    bundle = provider.bundle()
                    fields.update(flatten(bundle, f"{workload}/seed{seed}/district{k}/bundle"))
                episode = run_episode(instance, wl.split, wl.controller, wl.name, wl.perturbation, bundle)
                fields.update(flatten(episode, f"{workload}/seed{seed}/district{k}/episode"))
                print(f"{tree}: {workload} seed {seed} district {k}", file=sys.stderr, flush=True)
    with tempfile.TemporaryDirectory(prefix="drift-") as out_dir:
        subprocess.run(
            [sys.executable, str(tree / "scripts" / "run_drift_benchmark.py"), "--out", out_dir],
            check=True, cwd=tree, stdout=subprocess.DEVNULL,
            env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        )
        fields.update(report_fields(Path(out_dir)))
    print(f"{tree}: drift benchmark reports", file=sys.stderr, flush=True)
    return fields


# ----------------------------------------------------------------------
# the diff
# ----------------------------------------------------------------------

def diff(base: np.ndarray, head: np.ndarray) -> tuple[str, float]:
    """A verdict on one field and the norm-wise relative difference it
    counts against the tolerance: 0 when bitwise, inf when not comparable
    or when a NaN or an infinity moved."""
    if base.shape != head.shape:
        return f"shape {base.shape} -> {head.shape}", np.inf
    if base.dtype != head.dtype:
        return f"dtype {base.dtype} -> {head.dtype}", np.inf
    if base.tobytes() == head.tobytes():
        return "bitwise", 0.0
    if base.dtype.kind not in "biuf":
        return "differs", np.inf
    x, y = base.astype(np.float64), head.astype(np.float64)
    same = (x == y) | (np.isnan(x) & np.isnan(y))
    with np.errstate(invalid="ignore"):
        gap = np.where(same, 0.0, np.abs(x - y))
        gap[np.isnan(gap)] = np.inf  # a NaN against a number
        scale = np.maximum(np.abs(x), np.abs(y))
        rel = np.divide(gap, scale, out=np.zeros_like(gap), where=gap > 0)
        rel[np.isnan(rel)] = np.inf  # inf against inf of the other sign
    worst = gap.max()  # 0 when only signed zeros or NaN payloads differ, inf when a NaN or infinity moved
    norm = worst / scale[np.isfinite(scale)].max() if 0.0 < worst < np.inf else worst
    return f"max abs {worst:.3g}, max rel {rel.max():.3g}, norm rel {norm:.3g}", float(norm)


def compare(base: dict[str, np.ndarray], head: dict[str, np.ndarray], tol: float) -> tuple[list[str], bool]:
    """Report lines for every field, and whether any shared field is above ``tol``."""
    lines, failed = [], False
    counts = {"bitwise": 0, "within": 0, "above": 0}
    for name in sorted(base.keys() & head.keys()):
        verdict, rel = diff(base[name], head[name])
        above = rel > tol
        failed |= above
        counts["bitwise" if verdict == "bitwise" else "above" if above else "within"] += 1
        lines.append(f"{name}: {verdict}" + ("  ABOVE TOL" if above else ""))
    for name in sorted(base.keys() - head.keys()):
        lines.append(f"{name}: only in base")
    for name in sorted(head.keys() - base.keys()):
        lines.append(f"{name}: only in head")
    lines.append(
        f"{len(base.keys() & head.keys())} shared fields: {counts['bitwise']} bitwise, "
        f"{counts['within']} within --tol {tol:g}, {counts['above']} above; "
        f"{len(base.keys() - head.keys())} only in base, {len(head.keys() - base.keys())} only in head"
    )
    return lines, failed


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

@contextmanager
def base_worktree(ref: str, parent: Path):
    """``ref`` checked out, detached, into a git worktree under ``parent``."""
    path = Path(tempfile.mkdtemp(prefix="base-", dir=parent))
    subprocess.run(
        ["git", "-C", str(ROOT), "worktree", "add", "--detach", str(path), ref],
        check=True, stdout=subprocess.DEVNULL,
    )
    try:
        yield path
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(path)], check=False)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], check=False)


def run_tree(tree: Path, out: Path) -> dict[str, np.ndarray]:
    """``collect`` in a fresh interpreter with BLAS on one thread."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(Path(__file__).resolve()), "--collect", str(tree), "--out", str(out)]
    subprocess.run(cmd, check=True, cwd=tree, env=env)
    with np.load(out) as data:
        return {name: data[name] for name in data.files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git ref to compare this checkout against")
    parser.add_argument("--tol", type=float, default=0.0, help="largest relative difference allowed")
    parser.add_argument("--collect", type=Path, help=argparse.SUPPRESS)  # one tree, in the subprocess
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect is not None:
        np.savez(args.out, **collect(args.collect.resolve()))
        return 0
    if args.base is None:
        parser.error("--base is required")
    if args.tol < 0:
        parser.error("--tol must be nonnegative")

    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as workdir:
        workdir = Path(workdir)
        with base_worktree(args.base, workdir) as base_tree:
            base = run_tree(base_tree, workdir / "base.npz")
        head = run_tree(ROOT, workdir / "head.npz")
    lines, failed = compare(base, head, args.tol)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
