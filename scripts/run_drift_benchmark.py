"""Controller grid on the frozen 30-day drift district.

Writes summary/components/trajectory CSVs and SVG plots under the output
directory (default ``out/drift``), then prints the normalized scores.
"""

import argparse

from vppdispatch.benchmark import run_benchmark, seed_stats
from vppdispatch.presets import drift_benchmark_config


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/drift")
    parser.add_argument("--seeds", default="7", help="comma-separated")
    args = parser.parse_args()
    seeds = tuple(int(s) for s in args.seeds.split(","))

    result = run_benchmark(drift_benchmark_config(args.out, seeds=seeds))
    print(f"{'controller':14s} {'average':>8s} {'emission':>9s} {'price':>8s} {'grid':>8s}")
    names = sorted({k[0] for k in result.episodes if k[2] is None})
    for name in names:
        mean, _ = seed_stats(result, name, seeds)
        print(f"{name:14s} {mean.average:8.4f} {mean.emission:9.4f} {mean.price:8.4f} {mean.grid:8.4f}")
    print(f"\nreports under {result.out_dir}")


if __name__ == "__main__":
    main()
