"""Scenario-count convergence study on the frozen drift-free district.

Runs the stochastic controller for every (seed, scenario count) pair and
reports the mean and spread of the average score per count.
"""

import argparse

from vppdispatch.benchmark import run_benchmark, seed_stats
from vppdispatch.presets import sweep_config


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/sweep")
    parser.add_argument("--counts", default="1,25,50,75,150,300")
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(10)))
    args = parser.parse_args()
    counts = tuple(int(c) for c in args.counts.split(","))
    seeds = tuple(int(s) for s in args.seeds.split(","))

    result = run_benchmark(sweep_config(args.out, seeds=seeds, counts=counts))
    print(f"{'N':>5s} {'mean':>8s} {'std':>8s}")
    for N in counts:
        mean, std = seed_stats(result, "sofo", seeds, N)
        print(f"{N:5d} {mean.average:8.5f} {std.average:8.5f}")
    print(f"\nreports under {result.out_dir}")


if __name__ == "__main__":
    main()
