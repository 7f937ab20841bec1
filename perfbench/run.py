"""prodperc benchmark: one command, every metric by name with its unit.

    python3 perfbench/run.py --workload hitting_q12 --seed 0 --seconds 38 --trace 0

Run from the root of a checkout; the program is run from ``src/`` as it
stands, so nothing is built or installed.  ``--seed`` picks the
experiment seed the workload's configs carry: ``--seed`` mod
PINNED_SEEDS, whose report digests perfbench/pins.json pins.

``--trace 0`` measures end to end.  Each attempt sets up once (each
workload product built by ``prodperc product``, as a fresh process) and
then runs the workload's CLI commands; attempts repeat until
``--seconds`` is spent, each on the next experiment seed.  Every report
is checked against its pinned digest.  The metrics are medians over the
attempts:

* wall_s: wall time of the workload's commands;
* cpu_s: user plus system time of those processes and their pool workers;
* setup_s: interpreter start, import, config validation and product build;
* peak_rss_mb: the largest resident set of any process in an attempt;
* success_frac: attempts whose commands all exited 0 with pinned reports,
  over attempts made; that is 1 - failed_frac, reported this way because
  a metric that reads 0 on a good run cannot carry a relative bound.

The three times are in reference seconds.  On a shared VM the vCPUs run
up to twice as slow for seconds to minutes at a time while neighbours
load the host, and CPU time slows with wall time, so raw seconds from
two sets of runs can disagree by 50%.  The benchmark therefore runs on
the first ``workers`` CPUs it may use and samples the host's speed: it
times a fixed pure-Python kernel (about 10 ms) on those CPUs in turn at
the start and end of each timed phase (set-up; commands) and, with the
running CLI process and its children stopped, every 0.1 s of the phase
(the time stopped is not counted).  The phase's times are scaled by
REFERENCE_S over the mean kernel time sampled in it.  Raw seconds are
printed on the line before the result, and every kernel sample is kept
in the full record.

``--trace 1`` runs the workload once through the CLI, then replays it
in-process with spans around the library calls (see tracing.py) and prints
the per-layer metrics.  Spans go to .bench_out/ at the end of the run.

The last line of stdout is the result as one JSON object; the line
before it records the environment and the raw times.  A full record,
with every sample, goes to .bench_out/.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import (OUT_DIR, PINS_PATH, ROOT, SIZES, SRC_DIR, WORKLOADS,
                       check_report, cli_env, experiment_seed, run_cli,
                       write_configs)

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("success_frac", "ratio"))

# About the reference kernel's median time on the VM the benchmark was
# defined on (2 vCPUs of an Intel Xeon, family 6 model 143), so that
# reference seconds read close to raw seconds there.  Times are scaled
# to it.
REFERENCE_S = 0.02
_REFERENCE_TABLE = list(range(1 << 16))


def reference_kernel() -> float:
    """Seconds one pass of a fixed pure-Python loop takes: list indexing,
    integer arithmetic and set inserts, the interpreter work the program
    is made of."""
    table = _REFERENCE_TABLE
    seen = set()
    x = acc = 0
    start = time.perf_counter()
    for _ in range(40000):
        x = (x * 1103515245 + 12345) & 0xFFFF
        acc += table[x]
        if not x & 7:
            seen.add(x)
    return time.perf_counter() - start


class HostSpeed:
    """Samples the host's speed: the reference kernel's time on the
    benchmark CPUs in turn, around and while each timed process runs."""

    def __init__(self, cpus: list[int]):
        self.cpus = cpus
        self.samples: list[float] = []

    def probe(self) -> None:
        os.sched_setaffinity(0, {self.cpus[len(self.samples) % len(self.cpus)]})
        self.samples.append(reference_kernel())
        os.sched_setaffinity(0, self.cpus)

    def timed(self, phase, *args) -> tuple[float, tuple]:
        """Run ``phase(*args, probe=...)``; returns REFERENCE_S over the
        mean kernel time sampled at its start, during it and at its end,
        and what it returned.  The mean, because a phase's time is its
        work times the mean of 1/speed over it."""
        first = len(self.samples)
        self.probe()
        result = phase(*args, probe=self.probe)
        self.probe()
        return REFERENCE_S / statistics.fmean(self.samples[first:]), result


def setup_once(workload, paths, env, probe=None) -> tuple[float, list[str]]:
    """Time ``prodperc product`` on each product of the workload."""
    total = 0.0
    problems = []
    for cmd in workload.products():
        result = run_cli("product", paths[cmd.name][0], env, probe)
        total += result.wall_s
        if result.returncode != 0:
            problems.append(f"setup {cmd.name}: exit {result.returncode}")
    return total, problems


def run_commands(workload, paths, env, pins, probe=None) -> tuple[dict, list[str], dict]:
    """Run the workload's commands once; returns the sample, the
    problems found and the report texts."""
    wall = cpu = rss = 0.0
    problems = []
    reports = {}
    for cmd in workload.commands:
        config_path, report_path = paths[cmd.name]
        if report_path.exists():
            report_path.unlink()
        result = run_cli(cmd.subcommand, config_path, env, probe)
        wall += result.wall_s
        cpu += result.cpu_s
        rss = max(rss, result.peak_rss_mb)
        if result.returncode != 0:
            problems.append(f"{cmd.name}: exit {result.returncode}")
            continue
        reports[cmd.name] = report_path.read_text(encoding="utf-8")
        problem = check_report(cmd, reports[cmd.name], pins.get(cmd.name))
        if problem:
            problems.append(problem)
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}, problems, reports


def measure(workload, inputs, workload_seed: int, env, seconds: float,
            cpus: list[int]) -> dict:
    """Attempts until ``seconds`` is spent; attempt k runs on experiment
    seed ``workload_seed + k`` (mod PINNED_SEEDS), so that the medians
    cover several inputs, not one.  ``inputs(exp_seed)`` gives that
    seed's config paths and pinned digests."""
    # Untimed: warms the bytecode and file caches.
    setup_once(workload, inputs(experiment_seed(workload_seed))[0], env)
    start = time.perf_counter()
    speed = HostSpeed(cpus)
    attempts = []
    while True:
        began = time.perf_counter()
        exp_seed = experiment_seed(workload_seed + len(attempts))
        paths, pins = inputs(exp_seed)
        setup_scale, (setup_s, problems) = speed.timed(setup_once, workload, paths, env)
        scale, (raw, run_problems, _) = speed.timed(run_commands, workload, paths,
                                                    env, pins)
        sample = {"wall_s": raw["wall_s"] * scale, "cpu_s": raw["cpu_s"] * scale,
                  "setup_s": setup_s * setup_scale,
                  "peak_rss_mb": raw["peak_rss_mb"], "raw_wall_s": raw["wall_s"],
                  "raw_cpu_s": raw["cpu_s"], "raw_setup_s": setup_s,
                  "problems": problems + run_problems, "experiment_seed": exp_seed,
                  "attempt_s": time.perf_counter() - began}
        attempts.append(sample)
        for problem in sample["problems"]:
            print(f"FAILED: {problem}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        # Start another attempt only if it should end within half an
        # attempt of the deadline.
        typical = statistics.median(a["attempt_s"] for a in attempts)
        if elapsed + typical / 2 > seconds:
            break
    failed = sum(1 for a in attempts if a["problems"])
    metrics = {name: statistics.median(a[name] for a in attempts)
               for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
    metrics["success_frac"] = (len(attempts) - failed) / len(attempts)
    raw = {name: statistics.median(a[name] for a in attempts)
           for name in ("raw_wall_s", "raw_cpu_s", "raw_setup_s")}
    raw["reference_s"] = statistics.median(speed.samples)
    return {"attempted": len(attempts), "failed": failed,
            "metrics": {name: (metrics[name], unit) for name, unit in END_TO_END},
            "raw": raw, "reference_samples": speed.samples, "samples": attempts}


def traced(workload, paths, env, pins, exp_seed: int, trace_path) -> dict:
    import tracing  # imports the library from src/

    setup_once(workload, paths, env)  # untimed warm-up, as in measure()
    setup_s, problems = setup_once(workload, paths, env)
    sample, run_problems, reports = run_commands(workload, paths, env, pins)
    problems += run_problems
    # Each command's report is checked twice: from the CLI, then replayed.
    attempted = 2 * len(workload.commands)
    if run_problems:
        for problem in problems:
            print(f"FAILED: {problem}", file=sys.stderr)
        return {"attempted": attempted, "failed": attempted, "metrics": {},
                "problems": problems}
    tracer = tracing.Tracer()
    facts, replay_problems = tracing.replay(workload, exp_seed, reports, pins, tracer)
    bpe = tracing.bytes_per_edge(workload)
    imports = tracing.import_times(env)
    metrics = tracing.layer_metrics(workload, tracer, facts, imports, bpe,
                                    sample["wall_s"], setup_s)
    tracer.dump(trace_path)
    problems += replay_problems
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return {"attempted": attempted, "failed": min(attempted, len(problems)),
            "metrics": metrics, "problems": problems,
            "cli_sample": dict(sample, setup_s=setup_s)}


def environment(workload, workload_seed: int, cpus: list[int]) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor() or None,
        "cpus_used": cpus,
        "workers": workload.workers,
        "revision": revision(),
        "workload": workload.name,
        "workload_seed": workload_seed,
    }


def revision() -> str:
    """git HEAD of the checkout, or a sha256 over the library sources
    where the checkout is not a git repository."""
    if (ROOT / ".git").exists():
        try:
            return "git:" + subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC_DIR / "prodperc").glob("*.py")):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return "src-sha256:" + digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny runs every code path at a size that takes "
                             "seconds; for the benchmark's own check")
    args = parser.parse_args(argv)
    if not (SRC_DIR / "prodperc" / "cli.py").is_file():
        print(f"error: no prodperc sources under {SRC_DIR}; run from a checkout",
              file=sys.stderr)
        return 2
    if not PINS_PATH.is_file():
        print(f"error: missing {PINS_PATH}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.size][args.workload]
    all_pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))[args.size][workload.name]
    tag = f"{args.size}-{workload.name}-seed{args.seed}-trace{args.trace}"

    def inputs(exp_seed: int) -> tuple[dict, dict]:
        paths = write_configs(workload, exp_seed, OUT_DIR / tag / f"seed{exp_seed}")
        return paths, all_pins[str(exp_seed)]

    env = cli_env()
    # The CLI processes inherit these CPUs: one per worker.
    cpus = sorted(os.sched_getaffinity(0))[:workload.workers]
    os.sched_setaffinity(0, cpus)
    info = environment(workload, args.seed, cpus)
    if args.trace:
        exp_seed = experiment_seed(args.seed)
        paths, pins = inputs(exp_seed)
        result = traced(workload, paths, env, pins, exp_seed,
                        OUT_DIR / f"spans-{tag}.json")
        info["experiment_seeds"] = [exp_seed]
    else:
        result = measure(workload, inputs, args.seed, env, args.seconds, cpus)
        info["experiment_seeds"] = [a["experiment_seed"] for a in result["samples"]]
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    record = dict(result, metrics=metrics, environment=info)
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                encoding="utf-8")
    print(json.dumps({"environment": info, "raw": result.get("raw")}))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
