"""Seeded Monte Carlo harness: trial batteries, aggregation, reports.

An :class:`ExperimentConfig` names a product (catalog entry or explicit
base list), an experiment kind, a trial count, and a base seed.  Trial
i derives its own seed as splitmix64(base_seed XOR i), so any row can
be reproduced in isolation and results do not depend on scheduling.
Trials run in groups of at most ``GROUP_LANES`` (set here) consecutive
indices; a group draws its trials' random words in lockstep, the words
each trial's own generator gives.

Kinds:

* ``hitting_times``: one uniform edge ordering per trial, drawn only as
  far as the hitting times need (``process.hitting_times``); rows carry
  tau1, tau2, tau3 (-1 when the full graph never reaches the target
  matching size) and the coincidence flag tau1 = tau2 = tau3.
* ``percolation_profile``: one bond percolation sample per trial; rows
  carry the component structure used by the sprinkling argument (giant
  size, isolated count, whether every non-giant component is isolated,
  minimum host distance between isolated vertices).
* ``obstructions``: one sample per trial; rows carry the minimal
  obstruction size/count and the outcomes of the three-component and
  shared-W+S+B checks.
* ``isoperimetry``: single instance, no trial loop; rows carry f*(k)
  and, when the order admits exhaustive enumeration, exact f(k).
* ``verify_all``: the cross-module invariant battery of
  ``prodperc.battery``; rows are suites.

A kind imports the modules it runs when it runs: ``process`` and
``rng`` where trial rows are computed (``process`` also when ``omega``
sets p), ``isoperimetry`` for its kind, ``obstructions`` for obstruction
rows, ``battery`` for ``verify_all``, and ``pickle`` only when trials
run on more than one worker.  Such a run forks one child per worker
(``os.fork``, never more than the trial groups or the CPUs the process
may run on); each child computes its share of the groups on the
product it inherited and sends its rows back pickled down a pipe.
Where ``os.fork`` is missing, the groups run in-process.

Reports are CSV (provenance as ``# key=value`` comments, one header
row, aggregates as trailing ``# agg:key=value`` comments) or JSON with
fixed key order.  Integers are written verbatim; every real value is
rounded once to 9 significant digits when the row or aggregate is
built, so both formats carry identical numbers.  Repeated runs of the
same config produce byte-identical reports apart from the
``generated_at`` line, which is excluded from the config hash.
"""

import hashlib
import json
import math
import os
import time
from typing import TYPE_CHECKING, NamedTuple

from .catalog import TAU3_MODES, ConfigError, product_label, resolve_product
from .graph_core import BaseGraphSpec, ProductGraph, build_product, is_integer

if TYPE_CHECKING:
    from .process import ComponentProfile, HittingTimes, PercolationSample

# Report columns per kind; the kinds in the order errors list them.
_COLUMNS = {
    "hitting_times": ("trial", "seed", "tau1", "tau2", "tau3", "coincident"),
    "percolation_profile": ("trial", "seed", "p", "components", "giant",
                            "isolated", "mid_components", "non_giant_isolated",
                            "min_isolated_distance", "structure_ok"),
    "isoperimetry": ("k", "f_star", "f_exact"),
    "obstructions": ("trial", "seed", "p", "minimal_size", "minimal_count",
                     "three_checked", "three_counterexamples", "wsb_groups",
                     "wsb_max_group", "wsb_violations"),
    "verify_all": ("suite", "instances", "counterexamples", "status", "detail"),
}
KINDS = tuple(_COLUMNS)
_PERCOLATION_KINDS = ("percolation_profile", "obstructions")

# Most trials one group draws in lockstep: every lane holds its whole
# mask until its row, and fewer, larger groups balance worse over the
# forked workers.  ``rng.bernoulli_masks`` widens a draw with chunk
# lanes, so the cap bounds the masks held, not the cost per draw.
GROUP_LANES = 32


def round9(x: float) -> float:
    """Round to 9 significant digits.

    Applied exactly once, when a value enters a row or aggregate, so
    CSV text and JSON floats agree by construction.
    """
    return float(f"{x:.9g}")


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


class _ConfigFields(NamedTuple):
    kind: str
    specs: tuple[BaseGraphSpec, ...]
    seed: int
    trials: int = 1
    catalog_name: str | None = None
    p: float | None = None
    omega: float | None = None
    u_max: int = 4
    component_threshold: float | None = None
    tau3_mode: str = "bisect"
    out: str | None = None
    format: str = "csv"
    workers: int | None = None


class ExperimentConfig(_ConfigFields):
    """One experiment definition; validated on construction.

    ``p`` and ``omega`` are mutually exclusive; percolation kinds need
    exactly one (``omega`` sets p = critical_p(pg, omega)), the
    isoperimetry kind accepts one optionally for threshold
    annotations, and the remaining kinds accept neither.  ``product``
    may be empty only for ``verify_all``, which runs on a built-in
    corpus.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; known: {', '.join(KINDS)}")
        if not self.specs and self.kind != "verify_all":
            raise ConfigError(f"kind {self.kind!r} needs a product")
        for name in ("seed", "trials", "u_max", "workers"):
            value = getattr(self, name)
            if not (is_integer(value) or value is None and name == "workers"):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("p", "omega", "component_threshold"):
            value = getattr(self, name)
            if value is not None and not (is_integer(value) or isinstance(value, float)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be a path string, got {self.out!r}")
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError(f"seed must fit in 64 bits, got {self.seed}")
        if self.trials < 1:
            raise ConfigError(f"trials must be a positive integer, got {self.trials!r}")
        given = [name for name, value in (("p", self.p), ("omega", self.omega))
                 if value is not None]
        if self.kind in _PERCOLATION_KINDS and len(given) != 1:
            raise ConfigError(f"kind {self.kind!r} needs exactly one of p / omega")
        if self.kind == "isoperimetry" and len(given) > 1:
            raise ConfigError("isoperimetry accepts at most one of p / omega")
        if self.kind in ("hitting_times", "verify_all") and given:
            raise ConfigError(f"kind {self.kind!r} does not take {' or '.join(given)}")
        if self.p is not None and not 0.0 < self.p <= 1.0:
            raise ConfigError(f"p must lie in (0, 1], got {self.p}")
        if self.omega is not None and self.omega <= 0.0:
            raise ConfigError(f"omega must be positive, got {self.omega}")
        if self.u_max < 1:
            raise ConfigError(f"u_max must be at least 1, got {self.u_max}")
        if self.component_threshold is not None and self.component_threshold <= 0:
            raise ConfigError("component_threshold must be positive")
        if self.tau3_mode not in TAU3_MODES:
            raise ConfigError(f"unknown tau3_mode {self.tau3_mode!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if self.workers is not None and self.workers < 1:
            raise ConfigError(f"workers must be at least 1, got {self.workers}")
        return self

    @classmethod
    def _make(cls, values) -> "ExperimentConfig":
        # ``_replace`` builds through ``_make``: check its values too
        return cls(*values)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be an object, got {type(data).__name__}")
        unknown = set(data) - {"kind", "product", *CONFIG_KEYS}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kind = data.get("kind")
        if kind is None:
            raise ConfigError("missing config key: kind")
        if "seed" not in data:
            raise ConfigError("missing config key: seed")
        specs: tuple[BaseGraphSpec, ...] = ()
        catalog_name = None
        if "product" in data:
            specs, catalog_name = resolve_product(data["product"])
        elif kind != "verify_all":
            raise ConfigError("missing config key: product")
        kwargs = {key: data[key] for key in CONFIG_KEYS if key in data}
        return cls(kind=kind, specs=specs, catalog_name=catalog_name, **kwargs)

    def canonical_dict(self) -> dict:
        """Reproduction-relevant fields with defaults applied.

        Execution plumbing (out, format, workers) is excluded: it
        cannot change a single row.  The hash of this dict identifies
        the experiment.
        """
        out = {"kind": self.kind}
        if self.specs:
            out["product"] = [spec.to_dict() for spec in self.specs]
        out["seed"] = self.seed
        out["trials"] = self.trials
        if self.p is not None:
            out["p"] = self.p
        if self.omega is not None:
            out["omega"] = self.omega
        if self.kind == "hitting_times":
            out["tau3_mode"] = self.tau3_mode
        if self.kind == "obstructions":
            out["u_max"] = self.u_max
            if self.component_threshold is not None:
                out["component_threshold"] = self.component_threshold
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def product_label(self) -> str:
        return product_label(self.specs, self.catalog_name)

    def build(self) -> ProductGraph:
        if not self.specs:
            raise ConfigError("this config has no product to build")
        return build_product(self.specs)

    def effective_p(self, pg: ProductGraph) -> float:
        if self.p is not None:
            return self.p
        if self.omega is not None:
            from .process import critical_p
            return critical_p(pg, self.omega)
        raise ConfigError("neither p nor omega configured")


# The ExperimentConfig fields a config sets under their own names; "kind"
# and "product" (resolved to specs and catalog_name) are read apart.
CONFIG_KEYS = tuple(name for name in ExperimentConfig._fields
                    if name not in ("kind", "specs", "catalog_name"))


class TrialSummary(NamedTuple):
    """Rows plus aggregates for one experiment run."""

    kind: str
    config_hash: str
    config: dict
    product_label: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    aggregates: dict


def _percentile(values, q: float):
    """Nearest-rank percentile: sorted[ceil(q * len) - 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _hitting_row(index: int, trial_seed: int, times: "HittingTimes") -> tuple:
    tau3 = -1 if times.tau3 is None else times.tau3
    coincident = int(times.tau3 is not None
                     and times.tau1 == times.tau2 == times.tau3)
    return (index, trial_seed, times.tau1, times.tau2, tau3, coincident)


def _percolation_row(index: int, sample: "PercolationSample", prof: "ComponentProfile") -> tuple:
    non_singletons = sum(1 for size in prof.sizes if size >= 2)
    non_giant_isolated = int(non_singletons <= 1)
    dist = prof.min_isolated_distance
    dist_cell = -1 if dist is None else dist
    structure_ok = int(non_giant_isolated and (dist is None or dist >= 2))
    return (index, sample.seed, round9(sample.p), len(prof.sizes), prof.giant,
            len(prof.isolated), prof.mid_components, non_giant_isolated,
            dist_cell, structure_ok)


def _obstruction_row(config: ExperimentConfig, pg: ProductGraph, index: int,
                     sample: "PercolationSample") -> tuple:
    from .obstructions import (find_minimal_obstructions, verify_determination,
                               verify_three_components)
    minimal = find_minimal_obstructions(pg, sample, u_max=config.u_max,
                                        threshold=config.component_threshold)
    three_checked = 0
    three_cx = 0
    for record in minimal:
        report = verify_three_components(pg, sample, record)
        if not report.skipped_out_of_scope:
            three_checked += report.checked_vertices
            three_cx += len(report.counterexamples)
    det = verify_determination(pg, sample, u_max=config.u_max,
                               threshold=config.component_threshold,
                               minimal=minimal)
    minimal_size = minimal[0].u if minimal else -1
    return (index, sample.seed, round9(sample.p), minimal_size, len(minimal),
            three_checked, three_cx, det.group_count, det.max_group,
            len(det.violating_groups))


def _compute_rows(config: ExperimentConfig, pg: ProductGraph, indices) -> list[tuple]:
    """Rows of the given trial indices, in order.

    Every kind draws the random words of all the indices in one call,
    ``hitting_times`` or ``sample_percolations``, and percolation
    profiles are computed in one ``component_profiles`` call; each row
    still depends only on the config and its own index.
    """
    from .process import component_profiles, hitting_times, sample_percolations
    from .rng import derive_trial_seed
    seeds = [derive_trial_seed(config.seed, index) for index in indices]
    if config.kind == "hitting_times":
        return list(map(_hitting_row, indices, seeds, hitting_times(pg, seeds)))
    if config.kind not in _PERCOLATION_KINDS:
        raise ConfigError(f"kind {config.kind!r} has no per-trial rows")
    samples = sample_percolations(pg, config.effective_p(pg), seeds)
    if config.kind == "percolation_profile":
        return list(map(_percolation_row, indices, samples, component_profiles(pg, samples)))
    return [_obstruction_row(config, pg, index, sample)
            for index, sample in zip(indices, samples)]


def _trial_groups(trials: int, workers: int) -> list[range]:
    """Consecutive index ranges of near-equal size, at most GROUP_LANES
    long, as many as a multiple of ``workers`` allows."""
    count = -(-trials // GROUP_LANES)
    count = min(trials, -(-count // workers) * workers)
    size, extra = divmod(trials, count)
    groups = []
    start = 0
    for g in range(count):
        stop = start + size + (g < extra)
        groups.append(range(start, stop))
        start = stop
    return groups


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forked_rows(config: ExperimentConfig, pg: ProductGraph, groups: list[range],
                 workers: int) -> list[tuple]:
    """Rows of ``groups`` from ``workers`` forked children; the parent
    computes none.

    Child w computes ``groups[w::workers]`` on the product it inherited,
    writes ``(True, rows per group)`` or ``(False, exception)`` pickled
    down its pipe, and leaves by ``os._exit``, so it never runs the
    parent's code past the fork.  The parent reads the pipes in order,
    reaps every child, and re-raises the first child's exception; a
    child that ends without writing its result raises RuntimeError.
    The caller must hold no other thread: a forked child gets only the
    thread that forked it.
    """
    import pickle
    children = []  # (pid, read end of its pipe)
    statuses = []
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(read_fd)
                    try:
                        result = (True, [_compute_rows(config, pg, group)
                                         for group in groups[w::workers]])
                    except Exception as exc:
                        result = (False, exc)
                    with open(write_fd, "wb") as pipe:
                        pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        payloads = [pipe.read() for _, pipe in children]
    finally:
        # on a failure the unread children see a closed pipe and exit
        for pid, pipe in children:
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
    rows_by_group = [None] * len(groups)
    for w, ((pid, _), status, payload) in enumerate(zip(children, statuses, payloads)):
        if status:
            raise RuntimeError(f"trial worker {w} (pid {pid}) ended with status "
                               f"{os.waitstatus_to_exitcode(status)} before sending its rows")
        done, value = pickle.loads(payload)
        if not done:
            raise value
        rows_by_group[w::workers] = value
    return [row for rows in rows_by_group for row in rows]


def _trial_rows(config: ExperimentConfig, pg: ProductGraph) -> list[tuple]:
    # more processes than CPUs only shrink the lockstep groups
    cpus = _usable_cpus()
    workers = min(config.workers or cpus, cpus)
    groups = _trial_groups(config.trials, workers)
    # no more workers than groups: a child without a group only costs its fork
    workers = min(workers, len(groups))
    if workers > 1:
        if config.kind != "percolation_profile":
            pg.edges  # builds the adjacency arrays once, for the forked workers to share
        return _forked_rows(config, pg, groups, workers)
    return [row for group in groups for row in _compute_rows(config, pg, group)]


def _aggregate_hitting(pg: ProductGraph, rows) -> dict:
    tau1 = [row[2] for row in rows]
    tau2 = [row[3] for row in rows]
    finite3 = [row[4] for row in rows if row[4] >= 0]
    never = len(rows) - len(finite3)
    violations = sum(1 for row in rows if row[2] > row[3])
    if pg.n % 2 == 0:
        violations += sum(1 for row in rows if row[4] >= 0 and row[2] > row[4])
    out = {
        "trials": len(rows),
        "coincidence_rate": round9(sum(row[5] for row in rows) / len(rows)),
        "order_violations": violations,
        "tau3_never": never,
        "mean_tau1": round9(sum(tau1) / len(tau1)),
        "p50_tau1": _percentile(tau1, 0.5),
        "p90_tau1": _percentile(tau1, 0.9),
        "mean_tau2": round9(sum(tau2) / len(tau2)),
        "p50_tau2": _percentile(tau2, 0.5),
        "p90_tau2": _percentile(tau2, 0.9),
    }
    if finite3:
        out["mean_tau3"] = round9(sum(finite3) / len(finite3))
        out["p50_tau3"] = _percentile(finite3, 0.5)
        out["p90_tau3"] = _percentile(finite3, 0.9)
    else:
        out["mean_tau3"] = -1
        out["p50_tau3"] = -1
        out["p90_tau3"] = -1
    return out


def _aggregate_percolation(rows) -> dict:
    count = len(rows)
    dist_ok = sum(1 for row in rows if row[8] == -1 or row[8] >= 2)
    return {
        "trials": count,
        "p": rows[0][2],
        "frac_non_giant_isolated": round9(sum(row[7] for row in rows) / count),
        "frac_distance_ok": round9(dist_ok / count),
        "frac_structure_ok": round9(sum(row[9] for row in rows) / count),
        "mean_components": round9(sum(row[3] for row in rows) / count),
        "mean_giant": round9(sum(row[4] for row in rows) / count),
        "mean_isolated": round9(sum(row[5] for row in rows) / count),
    }


def _aggregate_obstructions(rows) -> dict:
    count = len(rows)
    with_obs = [row for row in rows if row[3] >= 0]
    return {
        "trials": count,
        "p": rows[0][2],
        "obstruction_rate": round9(len(with_obs) / count),
        "mean_minimal_size": (round9(sum(row[3] for row in with_obs) / len(with_obs))
                              if with_obs else -1),
        "three_counterexamples": sum(row[6] for row in rows),
        "wsb_violations": sum(row[9] for row in rows),
        "max_wsb_group": max((row[8] for row in rows), default=0),
    }


def _run_isoperimetry(pg: ProductGraph, p: float | None, params):
    from .isoperimetry import (EXHAUSTIVE_MAX_VERTICES, MIN_CUT_MAX_VERTICES, edge_connectivity,
                               exhaustive_profile, f_star)
    exact: tuple[int, ...] | None = None
    symmetry_ok = 1
    if pg.n <= EXHAUSTIVE_MAX_VERTICES:
        profile = exhaustive_profile(pg, keep_witnesses=False)
        exact = profile.f
        symmetry_ok = int(all(profile.f_of(k) == profile.f_of(pg.n - k)
                              for k in range(1, pg.n)))
    rows = []
    violations = 0
    for k in range(1, pg.n):
        star_val = round9(f_star(params, k))
        f_exact = exact[k - 1] if exact is not None else -1
        if exact is not None and f_exact < star_val - 1e-9:
            violations += 1
        rows.append((k, star_val, f_exact))
    aggregates = {
        "n": pg.n,
        "d": pg.d,
        "C": pg.C,
        "m": pg.m,
        "profile_exhaustive": int(exact is not None),
        "bound_violations": violations if exact is not None else -1,
        "symmetry_ok": symmetry_ok,
    }
    if pg.n <= MIN_CUT_MAX_VERTICES:
        cut = edge_connectivity(pg)
        aggregates["min_cut"] = cut
        aggregates["min_cut_equals_d"] = int(cut == pg.d)
    if p is not None:
        aggregates["s_threshold"] = round9(params.s_threshold)
        aggregates["b_threshold"] = round9(params.b_threshold)
    return rows, aggregates


def run_trials(config: ExperimentConfig) -> TrialSummary:
    """Execute the experiment; rows are ordered by trial index."""
    if config.kind == "verify_all":
        from .battery import run_battery
        rows, aggregates = run_battery(config.seed)
    else:
        pg = config.build()
        # Check the obstruction enumeration limit, and derive p, the bound
        # parameters and the default obstruction threshold, before any
        # worker starts, so a value outside their domain is a config
        # error, not a traceback.
        try:
            p = (None if config.p is None and config.omega is None
                 else config.effective_p(pg))
            if config.kind == "isoperimetry":
                from .isoperimetry import BoundParams
                params = BoundParams.from_product(pg, 0.5 if p is None else p)
            elif config.kind == "obstructions":
                from .obstructions import check_enumeration_limit, default_threshold
                check_enumeration_limit(pg.n, config.u_max)
                if config.component_threshold is None:
                    default_threshold(pg, p)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if config.kind == "isoperimetry":
            rows, aggregates = _run_isoperimetry(pg, p, params)
        else:
            rows = _trial_rows(config, pg)
            if config.kind == "hitting_times":
                aggregates = _aggregate_hitting(pg, rows)
            elif config.kind == "percolation_profile":
                aggregates = _aggregate_percolation(rows)
            else:
                aggregates = _aggregate_obstructions(rows)
    return TrialSummary(kind=config.kind, config_hash=config.config_hash(),
                        config=config.canonical_dict(),
                        product_label=config.product_label(),
                        columns=_COLUMNS[config.kind], rows=tuple(rows),
                        aggregates=aggregates)


def render_report(summary: TrialSummary, fmt: str = "csv",
                  generated_at: str | None = None) -> str:
    """Serialize a summary; identical inputs give identical bytes apart
    from the generated_at stamp."""
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    if generated_at is None:
        generated_at = time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())
    if fmt == "json":
        doc = {
            "config_hash": summary.config_hash,
            "kind": summary.kind,
            "product": summary.product_label,
            "config": summary.config,
            "generated_at": generated_at,
            "columns": list(summary.columns),
            "rows": [list(row) for row in summary.rows],
            "aggregates": summary.aggregates,
        }
        return json.dumps(doc, indent=2) + "\n"
    lines = [
        f"# config_hash={summary.config_hash}",
        f"# kind={summary.kind}",
        f"# product={summary.product_label}",
        f"# config={json.dumps(summary.config, sort_keys=True, separators=(',', ':'))}",
        f"# generated_at={generated_at}",
        ",".join(summary.columns),
    ]
    lines.extend(",".join(_format_cell(cell) for cell in row) for row in summary.rows)
    lines.extend(f"# agg:{key}={_format_cell(value)}"
                 for key, value in summary.aggregates.items())
    return "\n".join(lines) + "\n"


def emit_report(summary: TrialSummary, path: str, fmt: str = "csv") -> str:
    """Write the report to ``path``; returns the path."""
    text = render_report(summary, fmt)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    return path


def verify_all(config: ExperimentConfig) -> tuple[int, TrialSummary]:
    """Cross-module invariant battery; exit status 0 iff no counterexample."""
    if config.kind != "verify_all":
        raise ConfigError(f"verify_all needs kind verify_all, got {config.kind!r}")
    summary = run_trials(config)
    return summary.aggregates["exit_status"], summary
