#!/usr/bin/env python3
"""Sweep hypercube dimension and report hitting-time coincidence rates.

For each dimension t the script runs seeded random graph processes on
Q^t and tabulates how often the minimum-degree-one, connectivity, and
matching hitting times coincide, along with their means.  Reports per
dimension can be written with --out-dir for later comparison.
"""

import argparse
import os
import sys

from prodperc.catalog import CATALOG
from prodperc.experiments import ConfigError, ExperimentConfig, emit_report, run_trials
from prodperc.graph_core import GraphBuildError


def hypercube(t: int):
    """Q^t as its catalog name where it has one (so reports keep their
    bytes), else as t copies of K2."""
    name = f"Q{t}"
    return name if name in CATALOG else [{"kind": "complete", "m": 2}] * t


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-dim", type=int, default=5)
    parser.add_argument("--max-dim", type=int, default=9)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--out-dir", help="write one CSV report per dimension")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.min_dim < 2 or args.max_dim < args.min_dim:
        print("error: need 2 <= min-dim <= max-dim", file=sys.stderr)
        return 2
    dims = range(args.min_dim, args.max_dim + 1)
    try:
        configs = [ExperimentConfig.from_dict({
            "kind": "hitting_times", "product": hypercube(t), "seed": args.seed,
            "trials": args.trials, "workers": args.workers}) for t in dims]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    print(f"{'t':>3} {'n':>6} {'coincidence':>12} {'mean_tau1':>10} "
          f"{'mean_tau2':>10} {'mean_tau3':>10}")
    for t, config in zip(dims, configs):
        try:
            summary = run_trials(config)
        except (ConfigError, GraphBuildError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        agg = summary.aggregates
        print(f"{t:>3} {2 ** t:>6} {agg['coincidence_rate']:>12.3f} "
              f"{agg['mean_tau1']:>10.1f} {agg['mean_tau2']:>10.1f} "
              f"{agg['mean_tau3']:>10.1f}")
        if args.out_dir:
            path = os.path.join(args.out_dir, f"hitting_Q{t}.csv")
            emit_report(summary, path, "csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
