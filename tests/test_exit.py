"""The process entry point ``cli.run``: flushed output, the exit status,
no interpreter finalisation, and the profiler/tracer fallback.

Each test runs a fresh interpreter, since ``run`` ends the process it
runs in.  ``PYTHONUNBUFFERED`` is dropped, so stdout is block-buffered
into a pipe as it is for a user's shell pipeline.
"""

import os
import subprocess
import sys
from pathlib import Path

import prodperc
from prodperc.experiments import ExperimentConfig, render_report, run_trials

SRC = Path(prodperc.__file__).resolve().parent.parent


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _python(*argv, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=_env(),
                          **kwargs)


def test_stdout_report_is_flushed_whole():
    proc = _python("-m", "prodperc", "process", "--product", "Q4", "--trials", "3")
    assert proc.returncode == 0 and proc.stderr == ""
    stamp = next(line.split("=", 1)[1] for line in proc.stdout.splitlines()
                 if line.startswith("# generated_at="))
    config = ExperimentConfig.from_dict({"kind": "hitting_times", "product": "Q4",
                                         "trials": 3, "seed": 0})
    assert proc.stdout == render_report(run_trials(config), generated_at=stamp)


def test_exit_codes_pass_through():
    proc = _python("-m", "prodperc", "product", "--product", "Q3")
    assert proc.returncode == 0 and "n=8\n" in proc.stdout
    proc = _python("-m", "prodperc", "product", "--product", "nope")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: unknown catalog product")
    # started with fd 1 closed, sys.stdout is None: nothing to flush
    proc = _python("-m", "prodperc", "product", "--product", "Q3",
                   preexec_fn=lambda: os.close(1))
    assert proc.returncode == 0 and proc.stderr == ""


def _into_closed_pipe(*argv) -> tuple[int, str]:
    """Exit status and stderr of a call whose stdout reader closed before
    the call started writing."""
    proc = subprocess.Popen([sys.executable, "-m", "prodperc", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env())
    proc.stdout.close()
    err = proc.stderr.read().decode("utf-8")
    proc.stderr.close()
    return proc.wait(), err


def test_report_into_a_closed_pipe_exits_1():
    # the report is larger than the pipe, so main's own write fails
    status, err = _into_closed_pipe("process", "--product", "Q4", "--trials", "3000")
    assert status == 1
    assert err.count("i/o error:") == 1 and err.count("\n") == 1
    assert "Exception ignored" not in err


def test_buffered_output_into_a_closed_pipe_exits_1():
    # product's few lines stay in the buffer until run flushes them;
    # finalisation would print "Exception ignored" and exit 120
    status, err = _into_closed_pipe("product", "--product", "Q3")
    assert status == 1
    assert err.startswith("i/o error:") and err.count("\n") == 1


_ATEXIT = """
import atexit, sys
from prodperc.cli import run
atexit.register(print, "atexit ran")
if sys.argv[1:] == ["profiled"]:
    sys.setprofile(lambda *args: None)
run(["product", "--product", "Q3"])
"""


def test_run_skips_finalisation_unless_profiled():
    quiet = _python("-c", _ATEXIT)
    assert quiet.returncode == 0
    assert quiet.stdout.endswith("m=12\n") and "atexit ran" not in quiet.stdout
    profiled = _python("-c", _ATEXIT, "profiled")
    assert profiled.returncode == 0
    assert profiled.stdout.endswith("m=12\natexit ran\n")


def test_cprofile_prints_its_stats():
    proc = _python("-m", "cProfile", "-m", "prodperc", "product", "--product", "Q3")
    assert proc.returncode == 0
    assert proc.stdout.startswith("label=Q3\n")
    assert "function calls" in proc.stdout and "Ordered by" in proc.stdout
