"""Perfect matchings, hitting times, and percolation on Cartesian
product graphs.

The package builds products of small regular base graphs, runs the
uniform random edge process and bond percolation on them, computes
maximum matchings and Tutte-style obstructions exactly, and checks the
analytic isoperimetric and tree-counting bounds against exhaustive
enumeration at small scale.  Everything randomized flows through one
documented generator stack, so every result is reproducible from a
64-bit seed.

The names in ``__all__`` are resolved on first use (PEP 562), so
importing the package loads none of its modules until one of those
names is read.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {name: module for module, names in (
    ("catalog", "CATALOG ConfigError build_catalog_product"),
    ("experiments", "ExperimentConfig TrialSummary emit_report render_report "
                    "run_trials verify_all"),
    ("graph_core", "BaseGraph BaseGraphSpec GraphBuildError ProductGraph "
                   "build_base build_product cartesian_product"),
    ("isoperimetry", "BoundParams IsoperimetricProfile edge_connectivity "
                     "exhaustive_profile f_star"),
    ("matching", "MatchingState maximum_matching"),
    ("obstructions", "ObstructionRecord default_threshold "
                     "find_minimal_obstructions"),
    ("process", "EdgeOrdering HittingTimes PercolationSample component_profile "
                "critical_p hitting_times run_process "
                "sample_ordering sample_percolation"),
) for name in names.split()}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
