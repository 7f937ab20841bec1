#!/usr/bin/env python3
"""Component structure of percolated hypercubes near the isolated-vertex
threshold.

For each dimension t the script samples Q^t_p at p = critical_p(Q^t,
omega), where omega defaults to ln(t) so the expected number of
isolated vertices is ln(d).  It reports how often the sample decomposes
into one giant component plus isolated vertices only, and how often
those isolated vertices are additionally pairwise non-adjacent.
"""

import argparse
import math
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
    parser.add_argument("--dims", default="6,9",
                        help="comma-separated hypercube dimensions")
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--omega", type=float, default=None,
                        help="expected isolated-vertex count (default ln t)")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--out-dir", help="write one CSV report per dimension")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        dims = [int(part) for part in args.dims.split(",") if part.strip()]
    except ValueError:
        print(f"error: bad --dims value {args.dims!r}", file=sys.stderr)
        return 2
    if not dims or min(dims) < 2:
        print("error: need dimensions >= 2", file=sys.stderr)
        return 2
    try:
        configs = [ExperimentConfig.from_dict({
            "kind": "percolation_profile", "product": hypercube(t),
            "seed": args.seed, "trials": args.trials,
            "omega": args.omega if args.omega is not None else math.log(t),
            "workers": args.workers}) for t in dims]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    print(f"{'t':>3} {'p':>10} {'isolated_only':>14} {'spread_ok':>10} "
          f"{'structure':>10} {'mean_giant':>11}")
    for t, config in zip(dims, configs):
        try:
            summary = run_trials(config)
        except (ConfigError, GraphBuildError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        agg = summary.aggregates
        print(f"{t:>3} {agg['p']:>10.6f} {agg['frac_non_giant_isolated']:>14.3f} "
              f"{agg['frac_distance_ok']:>10.3f} {agg['frac_structure_ok']:>10.3f} "
              f"{agg['mean_giant']:>11.1f}")
        if args.out_dir:
            path = os.path.join(args.out_dir, f"structure_Q{t}.csv")
            emit_report(summary, path, "csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
