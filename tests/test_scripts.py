"""The sweep scripts under scripts/: hypercubes past the catalog, and
bad input exits 2 with a one-line message."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Q11 is past the catalog (Q2..Q10), so the product goes in as 11 K2 specs
SWEEPS = [
    ("percolation_structure", ["--dims", "11", "--trials", "2"], "structure_Q11.csv"),
    ("hitting_time_scaling", ["--min-dim", "11", "--max-dim", "11", "--trials", "1"],
     "hitting_Q11.csv"),
]


@pytest.mark.parametrize("name, argv, report", SWEEPS)
def test_script_runs_past_the_catalog(tmp_path, capsys, name, argv, report):
    code = load(name).main(argv + ["--workers", "1", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(out) == 2 and out[1].split()[0] == "11"
    assert "K2x" * 10 + "K2" in (tmp_path / report).read_text(encoding="utf-8")


@pytest.mark.parametrize("name, argv", [
    ("percolation_structure", ["--dims", "11", "--trials", "0"]),
    ("hitting_time_scaling", ["--min-dim", "11", "--max-dim", "11", "--trials", "0"]),
    # past the default vertex cap, rejected before anything is allocated
    ("percolation_structure", ["--dims", "27", "--trials", "1"]),
])
def test_script_rejects_bad_input(capsys, name, argv):
    assert load(name).main(argv + ["--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
