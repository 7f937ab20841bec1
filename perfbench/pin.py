"""Pin the report digests the benchmark checks every run against.

Run from the root of a checkout whose reports are known good:

    python3 perfbench/pin.py [WORKLOAD ...]

It runs every command of the named workloads (default: all), at both
sizes, once for each of the PINNED_SEEDS experiment seeds, and writes
their digests to perfbench/pins.json, keeping those of other workloads.
Regenerate pins only when a report is meant to change, and say why.
"""

import json
import sys

from workloads import (OUT_DIR, PINNED_SEEDS, PINS_PATH, SIZES, WORKLOADS,
                       check_report, cli_env, report_digest, run_cli,
                       write_configs)


def main(names: list[str]) -> int:
    unknown = set(names) - set(WORKLOADS["full"])
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}", file=sys.stderr)
        return 2
    env = cli_env()
    pins = json.loads(PINS_PATH.read_text(encoding="utf-8")) if PINS_PATH.is_file() else {}
    for size in SIZES:
        for workload in WORKLOADS[size].values():
            if names and workload.name not in names:
                continue
            by_seed = pins.setdefault(size, {}).setdefault(workload.name, {})
            for exp_seed in range(PINNED_SEEDS):
                run_dir = OUT_DIR / "pin" / size / workload.name
                paths = write_configs(workload, exp_seed, run_dir)
                digests = {}
                for cmd in workload.commands:
                    config_path, report_path = paths[cmd.name]
                    result = run_cli(cmd.subcommand, config_path, env)
                    if result.returncode != 0:
                        problem = f"{cmd.name}: exit {result.returncode}"
                    else:
                        text = report_path.read_text(encoding="utf-8")
                        # Every check but the pin itself.
                        problem = check_report(cmd, text, report_digest(text))
                    if problem:
                        print(f"{size} {workload.name} seed {exp_seed} {problem}",
                              file=sys.stderr)
                        return 1
                    digests[cmd.name] = report_digest(text)
                by_seed[str(exp_seed)] = digests
                print(f"pinned {size} {workload.name} seed {exp_seed}",
                      file=sys.stderr, flush=True)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
