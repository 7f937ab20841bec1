"""Traced run: per-layer metrics from spans around calls into the library.

The replay makes the same public calls the CLI makes for a workload,
in-process, and records a span around each.  Nothing under ``src/`` is
patched or wrapped: spans come only from this file.  Each replay step
runs twice, once with spans and once without, alternating which goes
first; the ratio of the two totals is the tracing overhead.  Each
replayed report is rendered again and must match its pinned digest, so
the replay is known to do the CLI's work.

Probes the CLI does not make come with the replay: the RNG streams on
their own, a maximum matching at each hitting trial's tau1 prefix, the
allocation of each built product, and fresh-interpreter imports.

Every workload reports every metric; a layer the workload does not call
reports 0 with a ``.count`` of 0.
"""

import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from math import comb

from workloads import SRC_DIR, check_report, parse_report

sys.path.insert(0, str(SRC_DIR))

from prodperc.experiments import (ExperimentConfig, TrialSummary,  # noqa: E402
                                  render_report, resolve_product, round9,
                                  verify_all)
from prodperc.graph_core import build_product  # noqa: E402
from prodperc.isoperimetry import (BoundParams, edge_connectivity,  # noqa: E402
                                   exhaustive_profile, f_star)
from prodperc.matching import maximum_matching  # noqa: E402
from prodperc.obstructions import (find_minimal_obstructions,  # noqa: E402
                                   verify_determination,
                                   verify_three_components)
from prodperc.process import (component_profile, run_process,  # noqa: E402
                              sample_ordering, sample_percolation)
from prodperc.rng import Xoshiro256StarStar, derive_trial_seed  # noqa: E402

# Per-layer metrics, each with the end-to-end metric and workload it
# should move.  TIMINGS are (name, unit, moves) and expand to .p50, .tail
# and .count; VALUES are (name, unit, better, moves).
TIMINGS = (
    ("cli.import_s", "s",
     "setup_s, mostly on exact_small (four interpreter starts per run)"),
    ("graph_core.build_product_s", "s",
     "setup_s on every workload; wall_s and cpu_s on percolation_q14 "
     "(each pool worker builds the product)"),
    ("rng.next_double_ns", "ns", "wall_s on percolation_q14 and exact_small"),
    ("rng.shuffle_ms", "ms", "wall_s on hitting_q12"),
    ("process.sample_ordering_ms", "ms", "wall_s on hitting_q12"),
    ("process.run_process_ms", "ms", "wall_s on hitting_q12"),
    ("process.sample_percolation_ms", "ms", "wall_s and cpu_s on percolation_q14"),
    ("process.component_profile_ms", "ms", "wall_s and cpu_s on percolation_q14"),
    ("matching.maximum_matching_ms", "ms",
     "wall_s on hitting_q12, through augmenting-search speed, not a new "
     "tau3 algorithm"),
    ("isoperimetry.exhaustive_profile_s", "s", "wall_s on exact_small"),
    ("isoperimetry.edge_connectivity_s", "s", "wall_s on exact_small"),
    ("obstructions.find_minimal_ms", "ms", "wall_s on exact_small"),
    ("obstructions.checks_ms", "ms", "wall_s on exact_small"),
    ("experiments.verify_all_s", "s", "wall_s on exact_small"),
    ("experiments.render_report_s", "s", "wall_s on every workload (small)"),
)
VALUES = (
    ("graph_core.bytes_per_edge", "B/edge", "lower", "peak_rss_mb on percolation_q14"),
    ("process.tau3_eq_tau1_share", "ratio", "higher",
     "none; the input property a warm-started tau3 solve relies on"),
    ("isoperimetry.subsets_per_s", "1/s", "higher", "wall_s on exact_small"),
    ("obstructions.removal_sets", "count", "lower", "wall_s on exact_small"),
    ("experiments.report_bytes", "B", "lower", "wall_s on every workload (small)"),
    ("experiments.pool_efficiency", "ratio", "higher",
     "wall_s and cpu_s on percolation_q14"),
    ("trace.overhead_frac", "ratio", "lower", "none (reported, not gated)"),
)
_SCALE = {"s": 1.0, "ms": 1e3, "ns": 1e9}

# Top-level replay spans that the CLI spends between set-up and exit.
_SERIAL_WORK = ("trial", "isoperimetry.exhaustive_profile",
                "isoperimetry.edge_connectivity", "experiments.verify_all",
                "experiments.render_report")

RNG_PROBE_SEEDS = 16
IMPORT_PROBES = 12
_IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import prodperc.cli; "
                   "print(time.perf_counter() - t)")


def layer_metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for name, unit, _ in TIMINGS:
        out += [(f"{name}.p50", unit, "lower"), (f"{name}.tail", unit, "lower"),
                (f"{name}.count", "count", "higher")]
    out += [(name, unit, better) for name, unit, better, _ in VALUES]
    return out


def tail(values: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it, and never
    below the median (so the median itself up to 20 samples)."""
    median = statistics.median(values)
    if len(values) <= 10:
        return median
    return max(median, sorted(values)[len(values) - 11])


class Tracer:
    """Spans kept in memory: name, start, end, parent span, trial index."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, trial: int | None = None):
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, trial]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _, _ in self.spans
                if span_name == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover
        (children of one span are sequential, so their sum)."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def dump(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        selfs = self.self_times()
        spans = [{"name": name, "start_s": start - origin, "end_s": end - origin,
                  "parent": parent, "trial": trial, "self_s": own}
                 for (name, start, end, parent, trial), own in zip(self.spans, selfs)]
        by_name: dict[str, dict] = {}
        for span in spans:
            entry = by_name.setdefault(span["name"], {"count": 0, "total_s": 0.0,
                                                      "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += span["end_s"] - span["start_s"]
            entry["self_s"] += span["self_s"]
        path.write_text(json.dumps({"by_name": by_name, "spans": spans}) + "\n",
                        encoding="utf-8")


class _Untraced:
    def span(self, name, trial=None):
        return nullcontext()


class PairedReplay:
    """Runs every step untraced and traced, alternating which goes first."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.untraced = _Untraced()
        self.traced_s = 0.0
        self.untraced_s = 0.0
        self.steps = 0

    def step(self, fn, *args):
        order = (False, True) if self.steps % 2 == 0 else (True, False)
        self.steps += 1
        result = None
        for traced in order:
            start = time.perf_counter()
            value = fn(self.tracer if traced else self.untraced, *args)
            elapsed = time.perf_counter() - start
            if traced:
                self.traced_s += elapsed
                result = value
            else:
                self.untraced_s += elapsed
        return result


def _config(cmd, exp_seed) -> ExperimentConfig:
    return ExperimentConfig.from_dict(dict(cmd.config, seed=exp_seed))


def _build(tr, config):
    with tr.span("graph_core.build_product"):
        return config.build()


def _hitting_trial(tr, pg, config, index):
    seed = derive_trial_seed(config.seed, index)
    with tr.span("trial", index):
        with tr.span("process.sample_ordering", index):
            ordering = sample_ordering(pg, seed)
        with tr.span("process.run_process", index):
            times = run_process(pg, ordering, tau3_mode=config.tau3_mode)
    tau3 = -1 if times.tau3 is None else times.tau3
    coincident = int(times.tau3 is not None and times.tau1 == times.tau2 == times.tau3)
    return (index, seed, times.tau1, times.tau2, tau3, coincident), ordering


def _percolation_trial(tr, pg, config, index):
    seed = derive_trial_seed(config.seed, index)
    with tr.span("trial", index):
        p = config.effective_p(pg)
        with tr.span("process.sample_percolation", index):
            sample = sample_percolation(pg, p, seed)
        with tr.span("process.component_profile", index):
            prof = component_profile(pg, sample)
    non_giant_isolated = int(sum(1 for size in prof.sizes if size >= 2) <= 1)
    dist = prof.min_isolated_distance
    return (index, seed, round9(p), len(prof.sizes), prof.giant,
            len(prof.isolated), prof.mid_components, non_giant_isolated,
            -1 if dist is None else dist,
            int(non_giant_isolated and (dist is None or dist >= 2)))


def _obstruction_trial(tr, pg, config, index):
    seed = derive_trial_seed(config.seed, index)
    with tr.span("trial", index):
        p = config.effective_p(pg)
        with tr.span("process.sample_percolation", index):
            sample = sample_percolation(pg, p, seed)
        with tr.span("obstructions.find_minimal", index):
            minimal = find_minimal_obstructions(pg, sample, u_max=config.u_max,
                                                threshold=config.component_threshold)
        with tr.span("obstructions.checks", index):
            three_checked = three_cx = 0
            for record in minimal:
                report = verify_three_components(pg, sample, record)
                if not report.skipped_out_of_scope:
                    three_checked += report.checked_vertices
                    three_cx += len(report.counterexamples)
            det = verify_determination(pg, sample, u_max=config.u_max,
                                       threshold=config.component_threshold,
                                       minimal=minimal)
    return (index, seed, round9(p), minimal[0].u if minimal else -1, len(minimal),
            three_checked, three_cx, det.group_count, det.max_group,
            len(det.violating_groups))


def _isoperimetry(tr, pg, config):
    params = BoundParams.from_product(pg, config.p if config.p is not None else 0.5)
    exact = None
    if pg.n <= 24:
        with tr.span("isoperimetry.exhaustive_profile"):
            exact = exhaustive_profile(pg, keep_witnesses=False).f
    cut = None
    if pg.n <= 256:
        with tr.span("isoperimetry.edge_connectivity"):
            cut = edge_connectivity(pg)
    rows = [(k, round9(f_star(params, k)), exact[k - 1] if exact else -1)
            for k in range(1, pg.n)]
    return rows, cut


def _verify(tr, config):
    with tr.span("experiments.verify_all"):
        return verify_all(config)


def _render(tr, summary):
    with tr.span("experiments.render_report"):
        return render_report(summary, "csv")


def _summary(config, rows, cli_report: str) -> TrialSummary:
    columns, aggs = parse_report(cli_report)
    return TrialSummary(kind=config.kind, config_hash=config.config_hash(),
                        config=config.canonical_dict(),
                        product_label=config.product_label(), columns=columns,
                        rows=tuple(rows), aggregates=aggs)


def _removal_sets(n: int, u_max: int, minimal_size: int) -> int:
    """Removal sets find_minimal_obstructions enumerates: every set of
    size 1 .. the minimal obstruction size, or up to the scan cap."""
    top = minimal_size if minimal_size > 0 else min(u_max, (n - 1) // 2)
    return sum(comb(n, u) for u in range(1, top + 1))


def replay(workload, exp_seed, cli_reports: dict, pins: dict, tracer: Tracer):
    """Replay the workload's commands; returns (facts, problems).

    ``cli_reports`` maps command name to the report text the CLI wrote
    in this run; its columns and aggregates complete the replayed rows
    into a report that must match the pinned digest.
    """
    run = PairedReplay(tracer)
    facts = {"report_bytes": 0, "removal_sets": 0, "exhaustive_subsets": 0,
             "tau1_tau3": [], "sampled_m": None}
    problems = []
    for cmd in workload.commands:
        config = _config(cmd, exp_seed)
        if config.kind == "verify_all":
            status, summary = run.step(_verify, config)
            if status != 0:
                problems.append(f"{cmd.name}: verify_all exit status {status}")
        else:
            pg = run.step(_build, config)
            if config.kind == "isoperimetry":
                rows, cut = run.step(_isoperimetry, pg, config)
                if pg.n <= 24:
                    facts["exhaustive_subsets"] += 1 << pg.n
                if cut is not None and cut != parse_report(
                        cli_reports[cmd.name])[1].get("min_cut"):
                    problems.append(f"{cmd.name}: replayed min cut {cut} differs")
            else:
                trial = {"hitting_times": _hitting_trial,
                         "percolation_profile": _percolation_trial,
                         "obstructions": _obstruction_trial}[config.kind]
                rows = [run.step(trial, pg, config, i) for i in range(config.trials)]
                if config.kind == "hitting_times":
                    probe_matching(tracer, pg, rows)
                    facts["tau1_tau3"] = [(row[2], row[4]) for row, _ in rows]
                    rows = [row for row, _ in rows]
                if config.kind == "obstructions":
                    facts["removal_sets"] += sum(
                        _removal_sets(pg.n, config.u_max, row[3]) for row in rows)
                probe_rng(tracer, pg.m, config)
                facts["sampled_m"] = pg.m
            summary = _summary(config, rows, cli_reports[cmd.name])
        text = run.step(_render, summary)
        facts["report_bytes"] += len(text.encode("utf-8"))
        problem = check_report(cmd, text, pins.get(cmd.name))
        if problem:
            problems.append(f"replay {problem}")
    facts["overhead_frac"] = run.traced_s / run.untraced_s - 1.0
    return facts, problems


def probe_rng(tracer: Tracer, m: int, config) -> None:
    """An m-long next_double stream and an m-long shuffle at the first
    trial seeds, each from a fresh generator as the samplers use them."""
    for index in range(min(config.trials, RNG_PROBE_SEEDS)):
        seed = derive_trial_seed(config.seed, index)
        with tracer.span("rng.next_double", index):
            next_double = Xoshiro256StarStar(seed).next_double
            for _ in range(m):
                next_double()
        perm = list(range(m))
        with tracer.span("rng.shuffle", index):
            Xoshiro256StarStar(seed).shuffle(perm)


def probe_matching(tracer: Tracer, pg, hitting_rows) -> None:
    """Maximum matching on the tau1-prefix view of each hitting trial."""
    for row, ordering in hitting_rows:
        mask = bytearray(pg.m)
        for eid in ordering.permutation[:row[2]]:
            mask[eid] = 1
        mask = bytes(mask)
        with tracer.span("matching.maximum_matching", row[0]):
            maximum_matching(pg, mask)


def bytes_per_edge(workload) -> float:
    """tracemalloc net allocation of each built product, per edge."""
    total_bytes = total_edges = 0
    for cmd in workload.products():
        specs, _ = resolve_product(cmd.config["product"])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pg = build_product(specs)
            total_bytes += tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        total_edges += pg.m
        del pg
    return total_bytes / total_edges


def import_times(env) -> list[float]:
    out = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_SNIPPET], env=env,
                              capture_output=True, text=True, check=True)
        out.append(float(proc.stdout.strip()))
    return out


def layer_metrics(workload, tracer: Tracer, facts: dict, imports: list[float],
                  bpe: float, wall_s: float, setup_s: float) -> dict:
    """Every per-layer metric by name, as (value, unit)."""
    samples = {name: [d * _SCALE[unit] for d in tracer.durations(name.rsplit("_", 1)[0])]
               for name, unit, _ in TIMINGS}
    samples["cli.import_s"] = imports
    if facts["sampled_m"]:
        samples["rng.next_double_ns"] = [d * 1e9 / facts["sampled_m"]
                                         for d in tracer.durations("rng.next_double")]
    metrics = {}
    for name, unit, _ in TIMINGS:
        values = samples[name]
        metrics[f"{name}.p50"] = (statistics.median(values) if values else 0.0, unit)
        metrics[f"{name}.tail"] = (tail(values) if values else 0.0, unit)
        metrics[f"{name}.count"] = (len(values), "count")
    taus = facts["tau1_tau3"]
    profiles = tracer.durations("isoperimetry.exhaustive_profile")
    serial = sum(end - start for name, start, end, parent, _ in tracer.spans
                 if parent is None and name in _SERIAL_WORK)
    values = {
        "graph_core.bytes_per_edge": bpe,
        "process.tau3_eq_tau1_share": (sum(1 for tau1, tau3 in taus if tau1 == tau3)
                                       / len(taus) if taus else 0.0),
        "isoperimetry.subsets_per_s": (facts["exhaustive_subsets"] / sum(profiles)
                                       if profiles else 0.0),
        "obstructions.removal_sets": facts["removal_sets"],
        "experiments.report_bytes": facts["report_bytes"],
        "experiments.pool_efficiency": serial / (workload.workers * (wall_s - setup_s)),
        "trace.overhead_frac": facts["overhead_frac"],
    }
    for name, unit, _, _ in VALUES:
        metrics[name] = (values[name], unit)
    return metrics
