"""Perfect matchings, hitting times, and percolation on Cartesian
product graphs.

The package builds products of small regular base graphs, runs the
uniform random edge process and bond percolation on them, computes
maximum matchings and Tutte-style obstructions exactly, and checks the
analytic isoperimetric and tree-counting bounds against exhaustive
enumeration at small scale.  Everything randomized flows through one
documented generator stack, so every result is reproducible from a
64-bit seed.
"""

from .catalog import CATALOG, build_catalog_product
from .experiments import (ConfigError, ExperimentConfig, TrialSummary,
                          emit_report, render_report, run_trials, verify_all)
from .graph_core import (BaseGraph, BaseGraphSpec, GraphBuildError,
                         ProductGraph, build_base, build_product,
                         cartesian_product)
from .isoperimetry import (BoundParams, IsoperimetricProfile, edge_boundary,
                           edge_connectivity, exhaustive_profile, f_star)
from .matching import MatchingState, maximum_matching, tutte_berge_deficiency
from .obstructions import (ObstructionRecord, classify_removal,
                           default_threshold, find_minimal_obstructions)
from .process import (EdgeOrdering, HittingTimes, PercolationSample,
                      component_profile, critical_p, double_exposure,
                      hitting_times, run_process, sample_ordering,
                      sample_percolation)

__version__ = "0.1.0"

__all__ = [
    "BaseGraph", "BaseGraphSpec", "BoundParams", "CATALOG", "ConfigError",
    "EdgeOrdering", "ExperimentConfig", "GraphBuildError", "HittingTimes",
    "IsoperimetricProfile", "MatchingState", "ObstructionRecord",
    "PercolationSample", "ProductGraph", "TrialSummary",
    "build_base", "build_catalog_product", "build_product",
    "cartesian_product", "classify_removal",
    "component_profile", "critical_p", "default_threshold",
    "double_exposure", "edge_boundary", "edge_connectivity", "emit_report",
    "exhaustive_profile", "f_star", "find_minimal_obstructions",
    "hitting_times", "maximum_matching", "render_report", "run_process",
    "run_trials", "sample_ordering", "sample_percolation",
    "tutte_berge_deficiency", "verify_all", "__version__",
]
