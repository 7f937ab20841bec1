"""What importing the package and running a subcommand loads: exports
resolve on first use, and each subcommand imports only its own modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prodperc
from prodperc.cli import main

SRC = Path(prodperc.__file__).resolve().parent.parent


def test_every_export_resolves():
    for name in prodperc.__all__:
        assert getattr(prodperc, name) is not None, name
    namespace = {}
    exec("from prodperc import *", namespace)
    assert set(prodperc.__all__) <= set(namespace)
    assert set(prodperc.__all__) <= set(dir(prodperc))
    assert set(prodperc._EXPORTS) == set(prodperc.__all__) - {"__version__"}
    with pytest.raises(AttributeError):
        prodperc.no_such_name


def test_exports_are_the_defining_modules_objects():
    from prodperc import catalog, experiments
    assert prodperc.ConfigError is catalog.ConfigError is experiments.ConfigError
    assert prodperc.run_trials is experiments.run_trials


# Each run is a list of CLI argv lists run in one fresh interpreter; the
# script prints the package modules loaded afterwards, and the pool's.
_LOADED = """
import json, sys
from prodperc.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps(sorted(name for name in sys.modules if name.startswith("prodperc")
                        or name == "concurrent.futures.process")))
"""


def _loaded_after(*runs) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _LOADED, json.dumps(runs)],
                          capture_output=True, text=True, env=env, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_product_loads_only_catalog_and_graph_core():
    assert _loaded_after(["product", "--product", "Q4"]) == {
        "prodperc", "prodperc.cli", "prodperc.catalog", "prodperc.graph_core"}


@pytest.mark.parametrize("runs, absent", [
    ([["product", "--product", "Q4"],
      ["process", "--product", "Q4", "--trials", "2", "--workers", "1"]],
     {"concurrent.futures.process", "prodperc.isoperimetry",
      "prodperc.obstructions", "prodperc.battery"}),
    ([["iso", "--product", "Q3"]], {"prodperc.obstructions", "prodperc.battery"}),
], ids=["product+process", "iso"])
def test_subcommands_skip_modules_they_do_not_run(runs, absent):
    assert _loaded_after(*runs) & absent == set()


def test_tau3_mode_choices_survive(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["process", "--product", "Q2", "--tau3-mode", "magic"])
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit) as exit_info:
        main(["process", "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "bisect" in out and "incremental" in out


def test_battery_does_not_load_experiments():
    # the suites share GROUP_LANES with the trial runner through rng
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, prodperc.battery; "
                               "print('prodperc.experiments' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"
