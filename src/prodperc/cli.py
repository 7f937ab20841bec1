"""Command line entry points.

Subcommands: ``product`` (build and print parameters), ``process``
(hitting-time trials), ``percolate`` (component-profile trials),
``iso`` (profiles, bounds, minimum cut), ``obstruct`` (minimal
obstruction enumeration plus structural checks), ``verify`` (the full
invariant battery).  Exit codes: 0 success, 1 counterexample or
assertion failure, 2 usage or configuration error.

``product`` loads only ``catalog`` and ``graph_core``; the other
subcommands load ``experiments``, which loads what their kind runs.
"""

import argparse
import json
import os
import sys

from .catalog import TAU3_MODES, ConfigError, resolve_product
from .graph_core import GraphBuildError, build_product

_KIND_BY_COMMAND = {
    "process": "hitting_times",
    "percolate": "percolation_profile",
    "iso": "isoperimetry",
    "obstruct": "obstructions",
    "verify": "verify_all",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodperc",
        description="Percolation, hitting times, and matchings on Cartesian "
                    "product graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, trials: bool = True):
        sp.add_argument("--config", help="JSON config file; flags override its values")
        sp.add_argument("--product", help="catalog product name (e.g. Q6, K3xK3)")
        sp.add_argument("--seed", type=int, help="base seed (default 0)")
        if trials:
            sp.add_argument("--trials", type=int, help="number of trials")
        sp.add_argument("--out", help="report path; omitted prints to stdout")
        sp.add_argument("--format", dest="fmt", choices=("csv", "json"),
                        help="report format (default csv)")
        sp.add_argument("--workers", type=int,
                        help="worker processes (default and cap os.cpu_count()); "
                             "trials run in groups of at most 32 consecutive indices, "
                             "and neither the worker count nor the grouping changes a row")

    sp = sub.add_parser("product", help="build a product and print n, d, C, m")
    sp.add_argument("--config", help="JSON config file with a product field")
    sp.add_argument("--product", help="catalog product name")

    sp = sub.add_parser("process", help="hitting-time trials")
    add_common(sp)
    sp.add_argument("--tau3-mode", dest="tau3_mode", choices=TAU3_MODES,
                    help="accepted for config-hash compatibility; no effect on rows")

    sp = sub.add_parser("percolate", help="percolation component-profile trials")
    add_common(sp)
    sp.add_argument("--p", type=float, help="edge probability")
    sp.add_argument("--omega", type=float,
                    help="sets p = critical_p(product, omega)")

    sp = sub.add_parser("iso", help="isoperimetric profile, bounds, minimum cut")
    add_common(sp, trials=False)
    sp.add_argument("--p", type=float, help="annotate component-size thresholds")
    sp.add_argument("--omega", type=float,
                    help="sets p = critical_p(product, omega)")

    sp = sub.add_parser("obstruct", help="minimal obstruction enumeration and structural checks")
    add_common(sp)
    sp.add_argument("--p", type=float, help="edge probability")
    sp.add_argument("--omega", type=float,
                    help="sets p = critical_p(product, omega)")
    sp.add_argument("--u-max", dest="u_max", type=int,
                    help="largest removal-set size to enumerate")
    sp.add_argument("--component-threshold", dest="component_threshold",
                    type=float, help="override the S/B size split")

    sp = sub.add_parser("verify", help="run the cross-module invariant battery")
    add_common(sp, trials=False)
    return parser


def _read_config(path: str) -> dict:
    """The JSON object in a config file; ConfigError if it cannot be read,
    decoded or parsed."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    return data


def _cmd_product(args) -> int:
    product = None
    if args.config:
        product = _read_config(args.config).get("product")
    if args.product is not None:
        product = args.product
    if product is None:
        raise ConfigError("product subcommand needs --product or a config with one")
    specs, catalog_name = resolve_product(product)
    pg = build_product(specs)
    label = catalog_name or pg.label()
    print(f"label={label}")
    print(f"n={pg.n}")
    print(f"d={pg.d if pg.d is not None else 'irregular'}")
    print(f"C={pg.C}")
    print(f"m={pg.m}")
    return 0


def _cmd_experiment(args) -> int:
    from .experiments import (CONFIG_KEYS, ExperimentConfig, emit_report,
                              render_report, run_trials, verify_all)
    kind = _KIND_BY_COMMAND[args.command]
    data = {}
    if getattr(args, "config", None):
        data = _read_config(args.config)
        if "kind" in data and data["kind"] != kind:
            raise ConfigError(
                f"config kind {data['kind']!r} does not match the "
                f"{args.command} subcommand ({kind})")
    data["kind"] = kind
    # Each flag's dest is the config field it overrides.
    for key, attr in {"product": "product", **CONFIG_KEYS}.items():
        value = getattr(args, attr, None)
        if value is not None:
            data[key] = value
    if "seed" not in data:
        data["seed"] = 0
    config = ExperimentConfig.from_dict(data)
    if config.out:
        # checked before the run, so a bad path exits 2 before any trial
        if os.path.isdir(config.out):
            raise ConfigError(f"cannot write report {config.out}: it is a directory")
        folder = os.path.dirname(config.out) or "."
        if not os.path.isdir(folder):
            raise ConfigError(f"cannot write report {config.out}: no directory {folder}")
    if kind == "verify_all":
        status, summary = verify_all(config)
    else:
        status, summary = 0, run_trials(config)
    if config.out:
        emit_report(summary, config.out, config.fmt)
        print(f"wrote {config.out}")
    else:
        sys.stdout.write(render_report(summary, config.fmt))
    return status


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "product":
            return _cmd_product(args)
        return _cmd_experiment(args)
    except (ConfigError, GraphBuildError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
