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
and sigma of each bundle; the wall-clock fields are left out.

One line per field says ``bitwise`` or gives the maximum absolute and
relative difference.  The script exits 1 when a field that both trees
produce differs by a relative difference above ``--tol``, or changes shape
or type; fields only one tree produces are listed and do not fail.
"""

from __future__ import annotations

import argparse
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


def collect(tree: Path) -> dict[str, np.ndarray]:
    """The fields of ``tree``'s program on every workload and seed."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import vppdispatch

    if Path(vppdispatch.__file__).resolve().parent != (tree / "src" / "vppdispatch").resolve():
        sys.exit(f"vppdispatch imported from {vppdispatch.__file__}, not from {tree / 'src'}")
    from vppdispatch.controller import ModelProvider, run_episode
    from vppdispatch.synthetic import generate_synthetic
    from workloads import WORKLOADS

    fields: dict[str, np.ndarray] = {}
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
    return fields


# ----------------------------------------------------------------------
# the diff
# ----------------------------------------------------------------------

def diff(base: np.ndarray, head: np.ndarray) -> tuple[str, float]:
    """A verdict on one field and the relative difference it counts
    against the tolerance: 0 when bitwise, inf when not comparable."""
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
    return f"max abs {gap.max():.3g}, max rel {rel.max():.3g}", float(rel.max())


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
