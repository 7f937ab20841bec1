"""Experiment configs, trial runners, reports, and the CLI."""

import concurrent.futures
import json
from dataclasses import replace

import pytest

from helpers import report_digest
from prodperc import battery, cli, experiments, graph_core
from prodperc.cli import main
from prodperc.experiments import (ConfigError, ExperimentConfig, emit_report,
                                  render_report, resolve_product, round9,
                                  run_trials, verify_all, _percentile)
from prodperc.process import (critical_p, run_process, sample_ordering,
                              sample_percolation)
from prodperc.rng import derive_trial_seed

K2 = {"kind": "complete", "m": 2}


def make(**kwargs):
    return ExperimentConfig.from_dict(kwargs)


def hitting(product="Q2", **kwargs):
    kwargs.setdefault("kind", "hitting_times")
    kwargs.setdefault("product", product)
    kwargs.setdefault("seed", 0)
    return make(**kwargs)


# --- config validation -------------------------------------------------------

@pytest.mark.parametrize("data", [
    {"kind": "nope", "product": "Q2", "seed": 0},
    {"kind": "hitting_times", "seed": 0},                                # no product
    {"kind": "hitting_times", "product": "Q2"},                         # no seed
    {"kind": "hitting_times", "product": "Q2", "seed": "zero"},
    {"kind": "hitting_times", "product": "Q2", "seed": True},
    {"kind": "hitting_times", "product": "Q2", "seed": -1},
    {"kind": "hitting_times", "product": "Q2", "seed": 1 << 64},
    {"kind": "hitting_times", "product": "Q2", "seed": 0, "trials": 0},
    {"kind": "hitting_times", "product": "Q2", "seed": 0, "p": 0.5},
    {"kind": "hitting_times", "product": "Q2", "seed": 0, "tau3_mode": "magic"},
    {"kind": "hitting_times", "product": "Q2", "seed": 0, "format": "xml"},
    {"kind": "hitting_times", "product": "Q2", "seed": 0, "workers": 0},
    {"kind": "hitting_times", "product": "Q2", "seed": 0, "bogus": 1},
    {"kind": "hitting_times", "product": [], "seed": 0},
    {"kind": "hitting_times", "product": "Q99", "seed": 0},
    {"kind": "hitting_times", "product": [{"kind": "complete"}], "seed": 0},
    {"kind": "percolation_profile", "product": "Q2", "seed": 0},         # needs p
    {"kind": "percolation_profile", "product": "Q2", "seed": 0, "p": 0.5, "omega": 1.0},
    {"kind": "percolation_profile", "product": "Q2", "seed": 0, "p": 0.0},
    {"kind": "percolation_profile", "product": "Q2", "seed": 0, "p": 1.5},
    {"kind": "percolation_profile", "product": "Q2", "seed": 0, "omega": -1.0},
    {"kind": "isoperimetry", "product": "Q2", "seed": 0, "p": 0.5, "omega": 1.0},
    {"kind": "obstructions", "product": "Q2", "seed": 0, "p": 0.5, "u_max": 0},
    {"kind": "obstructions", "product": "Q2", "seed": 0, "p": 0.5,
     "component_threshold": 0.0},
    {"kind": "verify_all", "seed": 0, "p": 0.5},
    {"kind": "verify_all", "seed": 0, "fault_injection": "matching"},  # removed key
])
def test_rejected_configs(data):
    with pytest.raises(ConfigError):
        make(**data)


def test_accepted_minimal_configs():
    assert hitting().trials == 1
    assert make(kind="verify_all", seed=3).product_label() == "builtin-corpus"
    assert make(kind="isoperimetry", product="Q3", seed=0).p is None
    cfg = make(kind="obstructions", product="Q2", seed=0, p=0.5, u_max=2)
    assert cfg.u_max == 2
    # JSON 1 stays an int, so the config hash does not change
    assert type(make(kind="percolation_profile", product="Q2", seed=0,
                     p=1).canonical_dict()["p"]) is int


def test_resolve_product_forms():
    specs, name = resolve_product("Q2")
    assert name == "Q2" and len(specs) == 2
    specs2, name2 = resolve_product([K2, K2])
    assert name2 is None and specs2 == specs
    with pytest.raises(ConfigError):
        resolve_product(7)


# --- canonical identity ------------------------------------------------------

def test_hash_tracks_science_fields_only():
    base = hitting(trials=5)
    assert base.config_hash() != hitting(trials=6).config_hash()
    assert base.config_hash() != hitting(trials=5, seed=1).config_hash()
    assert base.config_hash() != hitting(trials=5, tau3_mode="incremental").config_hash()
    assert base.config_hash() != hitting("Q3", trials=5).config_hash()
    same = hitting(trials=5, out="x.csv", format="json", workers=8)
    assert base.config_hash() == same.config_hash()


def test_hash_agrees_between_catalog_and_explicit_specs():
    named = hitting("Q2")
    explicit = hitting([K2, K2])
    assert named.config_hash() == explicit.config_hash()
    assert named.product_label() == "Q2"
    assert explicit.product_label() == "K2xK2"


def test_percolation_hash_tracks_p_and_omega():
    by_p = make(kind="percolation_profile", product="Q2", seed=0, p=0.5)
    assert by_p.config_hash() != make(kind="percolation_profile", product="Q2",
                                      seed=0, p=0.25).config_hash()
    assert by_p.config_hash() != make(kind="percolation_profile", product="Q2",
                                      seed=0, omega=1.0).config_hash()
    obs = make(kind="obstructions", product="Q2", seed=0, p=0.5)
    assert obs.config_hash() != make(kind="obstructions", product="Q2",
                                     seed=0, p=0.5, u_max=2).config_hash()


# --- small numeric helpers ----------------------------------------------------

def test_round9_and_percentile():
    assert round9(0.12345678912345) == 0.123456789
    assert round9(1.0) == 1.0
    assert _percentile([3, 1, 2, 4], 0.5) == 2
    assert _percentile([3, 1, 2, 4], 0.9) == 4
    assert _percentile([7], 0.5) == 7


# --- trial runs ----------------------------------------------------------------

def test_single_edge_hitting_times_are_all_one():
    summary = run_trials(make(kind="hitting_times", product=[K2], seed=9, trials=10))
    assert len(summary.rows) == 10
    assert [row[0] for row in summary.rows] == list(range(10))
    for row in summary.rows:
        assert row[2:] == (1, 1, 1, 1)
    agg = summary.aggregates
    assert agg["coincidence_rate"] == 1.0
    assert agg["order_violations"] == 0 and agg["tau3_never"] == 0
    assert agg["mean_tau1"] == agg["p50_tau3"] == 1


def test_hitting_rows_are_reproducible_and_seeded_per_trial():
    config = hitting("Q3", trials=6, seed=123)
    a = run_trials(config)
    b = run_trials(config)
    assert a.rows == b.rows
    assert len({row[1] for row in a.rows}) == 6
    assert a.config_hash == config.config_hash()


@pytest.mark.parametrize("kwargs", [
    {"kind": "hitting_times", "product": "Q4"},
    {"kind": "percolation_profile", "product": "Q4", "omega": 1.0},
    {"kind": "obstructions", "product": "Q3", "p": 0.35},
], ids=["hitting", "percolation", "obstructions"])
def test_workers_do_not_change_rows(kwargs):
    serial = make(trials=8, seed=77, workers=1, **kwargs)
    parallel = make(trials=8, seed=77, workers=2, **kwargs)
    assert run_trials(serial).rows == run_trials(parallel).rows


@pytest.mark.parametrize("kwargs, row_function, trial_of", [
    ({"kind": "hitting_times", "product": "Q4"}, None, None),
    ({"kind": "percolation_profile", "product": "Q4", "omega": 1.0}, "_percolation_row",
     lambda index, sample, profile: (index, sample)),
    ({"kind": "obstructions", "product": "Q3", "p": 0.35}, "_obstruction_row",
     lambda config, pg, index, sample: (index, sample)),
], ids=["hitting", "percolation", "obstructions"])
def test_trial_groups_do_not_change_rows(kwargs, row_function, trial_of, monkeypatch):
    # 70 trials run as 3 lockstep groups serially and as 4 with two workers
    rows = run_trials(make(trials=70, seed=31, workers=2, **kwargs)).rows
    assert run_trials(make(trials=5, seed=31, workers=1, **kwargs)).rows == rows[:5]
    if row_function is None:
        config = make(trials=70, seed=31, workers=1, **kwargs)
        assert run_trials(config).rows == rows
        pg = config.build()
        for index, seed, tau1, tau2, tau3, _ in rows:
            assert seed == derive_trial_seed(31, index)
            times = run_process(pg, sample_ordering(pg, seed))
            assert (tau1, tau2, tau3) == (times.tau1, times.tau2, times.tau3)
        return
    masks = {}
    compute = getattr(experiments, row_function)

    def recording(*args):
        index, sample = trial_of(*args)
        masks[index] = sample.mask
        return compute(*args)

    monkeypatch.setattr(experiments, row_function, recording)
    config = make(trials=70, seed=31, workers=1, **kwargs)
    assert run_trials(config).rows == rows
    pg = config.build()
    p = config.effective_p(pg)
    assert [masks[i] for i in range(70)] == [
        sample_percolation(pg, p, derive_trial_seed(31, i)).mask for i in range(70)]


def test_pool_workers_reuse_the_parent_product(monkeypatch):
    # a worker that builds again raises in its initializer and breaks the
    # pool; spawn and forkserver workers start unpatched and build their own
    kwargs = dict(kind="percolation_profile", product="Q4", seed=9, trials=8,
                  omega=1.0)
    config = make(workers=2, **kwargs)
    pg = config.build()
    serial = experiments._trial_rows(make(workers=1, **kwargs), pg)

    def build_again(self):
        raise AssertionError("product built twice")

    monkeypatch.setattr(ExperimentConfig, "build", build_again)
    assert experiments._trial_rows(config, pg) == serial
    assert experiments._WORKER is None


CSR_FIELDS = {"adj_off", "adj_flat", "adj_eid", "edges"}


@pytest.mark.parametrize("product", ["C5xK2xK3", "Q6"])
def test_percolation_group_leaves_the_adjacency_arrays_unbuilt(product):
    # the profiles read the shift plan and the host rows alone
    config = make(kind="percolation_profile", product=product, seed=3, trials=20, p=0.3)
    pg = config.build()
    rows = experiments._compute_rows(config, pg, range(20))
    assert len(rows) == 20 and "shift_plan" in vars(pg)
    assert not CSR_FIELDS & set(vars(pg))


def test_cli_product_leaves_the_adjacency_arrays_unbuilt(monkeypatch, capsys):
    built = []

    def recording(specs):
        built.append(graph_core.build_product(specs))
        return built[-1]

    monkeypatch.setattr(cli, "build_product", recording)
    assert main(["product", "--product", "Q10"]) == 0
    assert "m=5120" in capsys.readouterr().out.splitlines()
    [pg] = built
    assert not CSR_FIELDS & set(vars(pg))


@pytest.mark.parametrize("kind, extra, arrays", [
    ("hitting_times", {}, True),
    ("obstructions", {"p": 0.35}, True),
    ("percolation_profile", {"omega": 1.0}, False),
], ids=["hitting", "obstructions", "percolation"])
def test_pool_starts_with_the_arrays_its_workers_read(monkeypatch, pools, kind, extra,
                                                      arrays):
    # forked workers share what the parent built before the pool starts;
    # arrays a worker builds itself cost every worker the build
    built = []
    init = experiments._init_worker

    def recording(config):
        built.append(CSR_FIELDS <= set(vars(experiments._WORKER[1])))
        init(config)

    monkeypatch.setattr(experiments, "_init_worker", recording)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    config = make(kind=kind, product="Q3", seed=2, trials=8, workers=2, **extra)
    experiments._trial_rows(config, config.build())
    assert built == [arrays]


@pytest.fixture
def pools(monkeypatch):
    """Swaps ProcessPoolExecutor for an in-process fake that starts no
    process; returns the (max_workers, task groups) of each pool."""
    started = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            self.groups = []
            started.append((max_workers, self.groups))
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, groups):
            self.groups.extend(groups)
            return map(fn, self.groups)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return started


def test_pool_never_exceeds_the_trial_groups(monkeypatch, pools):
    # a forked pool starts every worker at its first task, so 64 workers
    # for 3 one-trial groups would fork 61 that never get one
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 64)
    kwargs = dict(kind="hitting_times", product="Q4", seed=5, trials=3)
    rows = run_trials(make(workers=64, **kwargs)).rows
    assert [max_workers for max_workers, _ in pools] == [3]
    assert rows == run_trials(make(workers=1, **kwargs)).rows


@pytest.mark.parametrize("workers", [None, 2, 64])
def test_pool_never_exceeds_the_cpu_count(monkeypatch, pools, workers):
    # 64 workers on 2 CPUs would split 100 trials into 64 groups of one
    # or two, each drawing masks one or two lanes wide
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    kwargs = dict(kind="percolation_profile", product="Q4", seed=5, trials=100,
                  omega=1.0)
    rows = run_trials(make(workers=workers, **kwargs)).rows
    [(max_workers, groups)] = pools
    assert max_workers == 2
    assert groups == [range(0, 25), range(25, 50), range(50, 75), range(75, 100)]
    assert rows == run_trials(make(workers=1, **kwargs)).rows


def test_percolation_profile_run():
    config = make(kind="percolation_profile", product="Q4", seed=4,
                  trials=12, omega=1.0)
    summary = run_trials(config)
    pg = config.build()
    expected_p = round9(critical_p(pg, 1.0))
    assert all(row[2] == expected_p for row in summary.rows)
    for row in summary.rows:
        assert sum(1 for s in (row[4],) if s) >= 0
        assert row[3] >= 1 and 1 <= row[4] <= pg.n
        assert row[9] in (0, 1)
    agg = summary.aggregates
    assert agg["trials"] == 12 and agg["p"] == expected_p
    assert 0.0 <= agg["frac_structure_ok"] <= 1.0
    mean_giant = round9(sum(row[4] for row in summary.rows) / 12)
    assert agg["mean_giant"] == mean_giant


def test_obstruction_run_counts_checks():
    config = make(kind="obstructions", product="Q2", seed=5, trials=20, p=0.4)
    summary = run_trials(config)
    assert len(summary.rows) == 20
    for row in summary.rows:
        assert (row[3] == -1) == (row[4] == 0)
    agg = summary.aggregates
    assert 0.0 <= agg["obstruction_rate"] <= 1.0
    assert agg["three_counterexamples"] == 0
    assert agg["wsb_violations"] == 0


def test_obstruction_enumeration_guard():
    config = make(kind="obstructions", product="K3xK3xK2", seed=0, p=0.5)
    with pytest.raises(ConfigError):
        run_trials(config)
    # explicit small u_max keeps the same product runnable
    run_trials(make(kind="obstructions", product="K3xK3xK2", seed=0, p=0.9,
                    u_max=1))


def test_isoperimetry_run_exact_branch():
    summary = run_trials(make(kind="isoperimetry", product="Q3", seed=0, p=0.5))
    assert [row[0] for row in summary.rows] == list(range(1, 8))
    assert tuple(row[2] for row in summary.rows) == (3, 4, 5, 4, 5, 4, 3)
    agg = summary.aggregates
    assert agg["min_cut"] == 3 and agg["min_cut_equals_d"] == 1
    assert agg["bound_violations"] == 0 and agg["symmetry_ok"] == 1
    assert "s_threshold" in agg and "b_threshold" in agg
    bare = run_trials(make(kind="isoperimetry", product="Q3", seed=0))
    assert "s_threshold" not in bare.aggregates


def test_isoperimetry_run_large_branch():
    summary = run_trials(make(kind="isoperimetry", product="Q5", seed=0))
    assert all(row[2] == -1 for row in summary.rows)
    assert summary.aggregates["profile_exhaustive"] == 0
    assert summary.aggregates["bound_violations"] == -1
    assert summary.aggregates["min_cut"] == 5


# --- reports --------------------------------------------------------------------

def test_render_report_deterministic_bytes():
    config = hitting("Q3", trials=4, seed=2)
    first = render_report(run_trials(config), "csv", generated_at="T")
    second = render_report(run_trials(config), "csv", generated_at="T")
    assert first == second
    assert render_report(run_trials(config), "json", generated_at="T") \
        == render_report(run_trials(config), "json", generated_at="T")


def test_csv_and_json_reports_agree():
    config = make(kind="percolation_profile", product="Q3", seed=8,
                  trials=5, p=0.6)
    summary = run_trials(config)
    csv_text = render_report(summary, "csv", generated_at="T")
    doc = json.loads(render_report(summary, "json", generated_at="T"))
    assert list(doc) == ["config_hash", "kind", "product", "config",
                         "generated_at", "columns", "rows", "aggregates"]
    assert doc["config_hash"] == summary.config_hash
    lines = csv_text.strip().split("\n")
    assert lines[0] == f"# config_hash={summary.config_hash}"
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert lines[header_at].split(",") == list(doc["columns"])
    data_lines = [line for line in lines[header_at + 1:] if not line.startswith("#")]
    assert len(data_lines) == len(doc["rows"])
    for text_row, json_row in zip(data_lines, doc["rows"]):
        for cell, value in zip(text_row.split(","), json_row):
            assert float(cell) == pytest.approx(float(value))
    agg_lines = [line for line in lines if line.startswith("# agg:")]
    assert len(agg_lines) == len(doc["aggregates"])


def test_emit_report_writes_file(tmp_path):
    config = hitting("Q2", trials=2, seed=1)
    path = tmp_path / "report.csv"
    emit_report(run_trials(config), str(path), "csv")
    text = path.read_text(encoding="utf-8")
    assert text.startswith("# config_hash=")
    assert text.endswith("\n")


def test_render_report_rejects_unknown_format():
    with pytest.raises(ConfigError):
        render_report(run_trials(hitting("Q2")), "xml")


# --- verification battery ---------------------------------------------------------

@pytest.fixture
def broken_matching(monkeypatch):
    """Make the battery's matching solver report one vertex too many.

    The coupling suite never calls the solver, so it is stubbed out to
    keep the fault tests fast.
    """
    solver = battery.tutte_berge_deficiency
    monkeypatch.setattr(battery, "tutte_berge_deficiency",
                        lambda pg, mask=None: solver(pg, mask) + 1)
    monkeypatch.setattr(battery, "_suite_coupling", lambda seed: (1, 0, ""))


def test_battery_passes_clean():
    status, summary = verify_all(make(kind="verify_all", seed=11))
    assert status == 0
    assert summary.aggregates["exit_status"] == 0
    assert summary.aggregates["counterexamples"] == 0
    assert len(summary.rows) == 8
    assert all(row[3] == "ok" for row in summary.rows)
    assert all(row[2] == 0 for row in summary.rows)
    # pinned report digest (generated_at excluded): the battery's rows
    # must not change unless a suite is meant to
    assert report_digest(render_report(summary, "csv")) == \
        "bfa65c8bcf9c8334777526902c1b89303825a2ee9e4c259f0bba60eed83c11cb"


def test_battery_catches_injected_fault(broken_matching):
    status, summary = verify_all(make(kind="verify_all", seed=11))
    assert status == 1
    failing = {row[0] for row in summary.rows if row[3] == "fail"}
    assert "oracle_equivalence" in failing
    # every instance fails, and the row carries the first one's detail
    assert summary.rows[0] == ("oracle_equivalence", 232, 232, "fail",
                               "random mask K4 trial 0 seed 1722442076919654607")


def test_coupling_suite_reports_union_mismatch(monkeypatch):
    exposures = battery.double_exposures
    batches = []

    def tampered(pg, p, seeds):
        out = exposures(pg, p, seeds)
        if not batches:
            first, second, union = out[3]
            mask = bytearray(union.mask)
            mask[0] ^= 1
            out[3] = (first, second, replace(union, mask=bytes(mask)))
        batches.append(seeds)
        return out

    monkeypatch.setattr(battery, "double_exposures", tampered)
    assert battery._suite_coupling(5) == (1, 1, "union mismatch at trial 3")
    assert len(batches) == 1


def test_verify_all_rejects_other_kinds():
    with pytest.raises(ConfigError):
        verify_all(hitting("Q2"))


# --- command line -----------------------------------------------------------------

def test_cli_product(capsys):
    assert main(["product", "--product", "Q3"]) == 0
    out = capsys.readouterr().out
    assert "label=Q3" in out and "n=8" in out and "d=3" in out


def test_cli_product_unknown_name(capsys):
    assert main(["product", "--product", "Q99"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_product_needs_a_product(capsys):
    assert main(["product"]) == 2


def test_cli_process_stdout_json(capsys):
    code = main(["process", "--product", "Q2", "--trials", "3",
                 "--seed", "4", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "hitting_times"
    assert len(doc["rows"]) == 3


def test_cli_out_file(tmp_path, capsys):
    path = tmp_path / "run.csv"
    code = main(["percolate", "--product", "Q2", "--p", "0.5",
                 "--trials", "2", "--out", str(path)])
    assert code == 0
    assert path.exists()
    assert f"wrote {path}" in capsys.readouterr().out


def test_cli_config_file_roundtrip(tmp_path, capsys):
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(
        {"kind": "hitting_times", "product": "Q2", "seed": 6, "trials": 2}))
    assert main(["process", "--config", str(config_path)]) == 0
    # flags override config file values
    assert main(["process", "--config", str(config_path), "--trials", "1"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line and not line.startswith("#") and not line.startswith("trial")]
    assert len(rows) == 2 + 1


def test_cli_config_kind_mismatch(tmp_path, capsys):
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(
        {"kind": "hitting_times", "product": "Q2", "seed": 0}))
    assert main(["percolate", "--config", str(config_path), "--p", "0.5"]) == 2
    assert "does not match" in capsys.readouterr().err


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(
        {"kind": "hitting_times", "product": "Q2", "seed": 0, "bogus": 1}))
    assert main(["process", "--config", str(config_path)]) == 2


def test_cli_missing_config_file(capsys):
    assert main(["process", "--config", "/nonexistent/exp.json"]) == 2


@pytest.mark.parametrize("command, config", [
    ("percolate", {"p": "0.5"}),
    ("process", {"workers": "2"}),
    ("process", {"trials": True}),
    ("process", {"out": 3}),
    ("obstruct", {"p": 0.5, "u_max": "3"}),
    ("process", {"product": [{"kind": "complete", "m": "3"}]}),
    ("process", {"product": [{"kind": "circulant", "m": 5, "offsets": 3}]}),
    ("process", b"\xff\xfe{}"),  # not UTF-8
    ("process", None),  # a directory
    ("process", {"product": [{"kind": "circulant", "m": 0, "offsets": [1]}]}),
])
def test_cli_rejects_unreadable_or_mistyped_config(command, config, tmp_path,
                                                  monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        pytest.fail("a worker pool started before the config was checked")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    path = tmp_path / "exp.json"
    if config is None:
        path = tmp_path
    elif isinstance(config, bytes):
        path.write_bytes(config)
    else:
        path.write_text(json.dumps({"product": "Q2", "seed": 0, **config}))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("edge_list", ["directory", "not utf-8", "missing", "name too long"])
def test_cli_rejects_unreadable_edge_list(edge_list, tmp_path, monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        pytest.fail("a worker pool started before the edge list was checked")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    path = tmp_path / "graph.txt"
    if edge_list == "directory":
        path.mkdir()
    elif edge_list == "not utf-8":
        path.write_bytes(b"2 1\n0 1 \xff\n")
    elif edge_list == "name too long":
        path = tmp_path / ("x" * 300)
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({"product": [{"kind": "edge_list", "path": str(path)}],
                                  "seed": 0, "workers": 2}))
    assert main(["process", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err and "Traceback" not in err


def test_cli_bad_probability(capsys):
    assert main(["percolate", "--product", "Q2", "--p", "0"]) == 2


@pytest.mark.parametrize("argv", [
    ["percolate", "--product", "Q4", "--omega", "100"],
    ["percolate", "--product", "Q4", "--omega", "100", "--workers", "2"],
    ["iso", "--product", "Q4", "--p", "1.0"],
    # omega = n gives p = 0, outside the default threshold's domain
    ["obstruct", "--product", "Q4", "--omega", "16", "--trials", "2", "--workers", "1"],
    ["obstruct", "--product", "Q4", "--omega", "16", "--trials", "2", "--workers", "2"],
])
def test_cli_rejects_out_of_domain_probability(argv, monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        pytest.fail("a worker pool started before the config was checked")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag, argv", [
    ("--component-threshold", ["obstruct", "--product", "Q3", "--p", "0.5"]),
    ("--p", ["obstruct", "--product", "Q3"]),
    ("--omega", ["percolate", "--product", "Q4"]),
], ids=["component_threshold", "p", "omega"])
def test_cli_rejects_non_finite_reals(flag, argv, value, monkeypatch, capsys):
    # a NaN would reach the config hash and a JSON report strict parsers reject
    def no_pool(*args, **kwargs):
        pytest.fail("a worker pool started before the config was checked")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert main(argv + [f"{flag}={value}", "--trials", "2", "--workers", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv, digest", [
    (["percolate"], "9b500e7169aa9924004642661dbde8b2ba7ee516a97d8cebd17106355b4e3388"),
    (["obstruct", "--component-threshold", "3"],
     "f0f507c27596da3d97cc6e03b7a6bb511e5a862eef76e98451112e5622d65a40"),
], ids=["percolate", "obstruct-threshold"])
def test_cli_runs_at_omega_n_without_the_default_threshold(argv, digest, capsys):
    assert main(argv + ["--product", "Q4", "--omega", "16", "--trials", "2",
                        "--workers", "1"]) == 0
    assert report_digest(capsys.readouterr().out) == digest


@pytest.mark.parametrize("out", ["directory", "missing folder"])
def test_cli_bad_out_path_exits_before_trials(out, tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        pytest.fail("trials ran before the report path was checked")

    monkeypatch.setattr(experiments, "run_trials", no_run)
    path = tmp_path if out == "directory" else tmp_path / "missing" / "x.csv"
    assert main(["process", "--product", "Q4", "--trials", "2", "--workers", "2",
                 "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_cli_fault_injection_exits_nonzero(broken_matching, capsys):
    assert main(["verify", "--seed", "11"]) == 1
    rows = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines()
                if line and not line.startswith("#"))
    assert rows["oracle_equivalence"].split(",")[2] == "fail"


def test_cli_respects_size_cap(monkeypatch, capsys):
    monkeypatch.setenv("PPL_MAX_VERTICES", "16")
    assert main(["product", "--product", "Q6"]) == 2
    assert main(["process", "--product", "Q6"]) == 2


@pytest.mark.parametrize("product", [
    [{"kind": "complete", "m": 1500}],
    # each order is under the cap, their product is not
    [{"kind": "cycle", "m": 9}, {"kind": "complete_bipartite_balanced", "r": 4},
     {"kind": "petersen"}, {"kind": "circulant", "m": 8, "offsets": [1, 7]}],
], ids=["one base", "product"])
def test_cli_size_cap_fires_before_bases_are_built(product, tmp_path, monkeypatch, capsys):
    def no_build(spec):
        pytest.fail("a base was built before the vertex cap was checked")

    monkeypatch.setattr(graph_core, "build_base", no_build)
    monkeypatch.setenv("PPL_MAX_VERTICES", "100")
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"kind": "percolation_profile", "product": product,
                                "omega": 1, "seed": 0}))
    assert main(["percolate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cap is 100" in err and err.count("\n") == 1


def test_module_entry_point():
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "prodperc", "product",
                           "--product", "K3xK3"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "n=9" in proc.stdout
