"""Benchmark workloads: the CLI invocations each one makes, the config
files it feeds them, running them as fresh processes, and checking
their reports against pinned digests.

Every workload is a closed loop: one client runs one ``prodperc``
invocation at a time and waits for it to end.  The program sees only
the generated config files.
"""

import hashlib
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PINS_PATH = BENCH_DIR / "pins.json"

# How often a timed process is stopped to sample the host's speed.
PROBE_EVERY_S = 0.1

# Report digests can only be pinned for a finite set of experiment
# seeds, so the workload seed selects one of these.
PINNED_SEEDS = 32


def cube(dim: int) -> list[dict]:
    """Product list for Q_dim; Q11 and up are not catalog names."""
    return [{"kind": "complete", "m": 2}] * dim


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``prodperc <subcommand> --config <file>``."""

    name: str
    subcommand: str
    config: dict


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    commands: tuple[Command, ...]

    def products(self) -> list[Command]:
        """Commands whose config names a product; set-up builds each."""
        return [cmd for cmd in self.commands if "product" in cmd.config]


def _hitting(product, trials) -> Workload:
    return Workload("hitting_q12", 1, (
        Command("process", "process",
                {"kind": "hitting_times", "product": product,
                 "trials": trials, "workers": 1}),))


def _percolation(product, trials) -> Workload:
    return Workload("percolation_q14", 2, (
        Command("percolate", "percolate",
                {"kind": "percolation_profile", "product": product,
                 "trials": trials, "omega": 1.0, "workers": 2}),))


def _exact(iso_exhaustive, iso_cut, obstruct_product, obstruct_trials) -> Workload:
    return Workload("exact_small", 1, (
        Command("iso_exhaustive", "iso",
                {"kind": "isoperimetry", "product": iso_exhaustive}),
        Command("iso_cut", "iso", {"kind": "isoperimetry", "product": iso_cut}),
        Command("obstruct", "obstruct",
                {"kind": "obstructions", "product": obstruct_product,
                 "trials": obstruct_trials, "p": 0.7, "workers": 1}),
        Command("verify", "verify", {"kind": "verify_all"}),
    ))


_K5K2K2 = [{"kind": "complete", "m": 5}, {"kind": "complete", "m": 2},
           {"kind": "complete", "m": 2}]

# "tiny" keeps every code path of "full" at a size that runs in seconds;
# the benchmark's own check uses it.
WORKLOADS = {
    "full": {w.name: w for w in (
        _hitting(cube(12), 10),
        _percolation(cube(14), 40),
        _exact(_K5K2K2, "Q8", "Q4", 150))},
    "tiny": {w.name: w for w in (
        _hitting("Q6", 5),
        _percolation("Q8", 6),
        _exact("K3xK3", "Q4", "Q3", 20))},
}
SIZES = tuple(WORKLOADS)


def experiment_seed(workload_seed: int) -> int:
    return workload_seed % PINNED_SEEDS


def write_configs(workload: Workload, exp_seed: int, run_dir: Path) -> dict:
    """Write one config file per command; returns name -> (config, report) paths."""
    run_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for cmd in workload.commands:
        report = run_dir / f"{cmd.name}.csv"
        config = dict(cmd.config, seed=exp_seed, out=str(report))
        path = run_dir / f"{cmd.name}.json"
        path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
        paths[cmd.name] = (path, report)
    return paths


@dataclass(frozen=True)
class ProcessResult:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + env["PYTHONPATH"]
                                        if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str], env: dict, probe=None) -> ProcessResult:
    """Run one process to completion; CPU and peak RSS come from wait4,
    which covers the process and every child it reaped (pool workers).

    With ``probe``, the process and its children are stopped every
    PROBE_EVERY_S while ``probe()`` runs; the time stopped is left out
    of wall_s.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, env=env, cwd=ROOT,
                            start_new_session=probe is not None)
    stopped = 0.0
    if probe is not None:
        pidfd = os.pidfd_open(proc.pid)
        try:
            while not select.select([pidfd], [], [], PROBE_EVERY_S)[0]:
                paused = time.perf_counter()
                try:
                    os.killpg(proc.pid, signal.SIGSTOP)
                except ProcessLookupError:  # exited between the two calls
                    break
                try:
                    probe()
                finally:
                    os.killpg(proc.pid, signal.SIGCONT)
                stopped += time.perf_counter() - paused
        finally:
            os.close(pidfd)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start - stopped
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessResult(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                         usage.ru_maxrss / 1024.0)


def run_cli(subcommand: str, config_path: Path, env: dict, probe=None) -> ProcessResult:
    return run_process([sys.executable, "-m", "prodperc", subcommand,
                        "--config", str(config_path)], env, probe)


def report_digest(text: str) -> str:
    """sha256 of a CSV report without its generated_at line."""
    kept = [line for line in text.splitlines(keepends=True)
            if not line.startswith("# generated_at=")]
    return hashlib.sha256("".join(kept).encode("utf-8")).hexdigest()


def parse_report(text: str) -> tuple[tuple[str, ...], dict]:
    """Columns and aggregates (``# agg:key=value`` lines) of a CSV report."""
    lines = text.splitlines()
    columns = next((line for line in lines if not line.startswith("#")), "")
    aggs = {}
    for line in lines:
        if line.startswith("# agg:"):
            key, _, value = line[len("# agg:"):].partition("=")
            try:
                aggs[key] = int(value)
            except ValueError:
                aggs[key] = float(value)
    return tuple(columns.split(",")), aggs


def check_report(cmd: Command, text: str, pinned: str | None) -> str | None:
    """None when the report is correct, else a one-line reason."""
    if cmd.subcommand == "verify" and parse_report(text)[1].get("counterexamples") != 0:
        return f"{cmd.name}: counterexamples != 0"
    digest = report_digest(text)
    if digest != pinned:
        return f"{cmd.name}: digest {digest[:12]} != pinned {str(pinned)[:12]}"
    return None
