"""Tests for structured means of matrix-valued observations.

A small number of subjects each contribute one r x c matrix; the package
tests whether the columns of the common mean matrix share values within
prescribed groups, without assuming normality or any covariance structure.
Baselines (row-wise ANOVA / Kruskal-Wallis with multiplicity corrections,
pairwise two-sample mean tests), a Monte Carlo harness with canned study
designs, and a batch CLI round out the toolkit.
"""

from importlib import import_module

from .baselines import (
    PairwiseCqSummary,
    adjust_pvalues,
    anova_rowwise,
    chen_qin_two_sample,
    kruskal_rowwise,
    pairwise_cq_procedure,
)
from .core import (
    DataStack,
    GroupPartition,
    ProjectionMatrix,
    build_projection,
)
from .engine import (
    TestResult,
    compute_gram,
    deviation_estimate,
    discover_structure,
    mean_matrix_test,
    screen_row_sets,
    test_known_difference,
    test_known_matrix,
    trace_cov_sq_fast,
    trace_cov_sq_naive,
)
from .io import LoadedStack, load_stack, read_row_sets, write_stack_file

__version__ = "0.1.0"

# Defined here rather than in ``presets`` so that the command-line parser
# can offer them without importing the Monte Carlo modules.
DEFAULT_REPLICATES = 1000
PRESET_NAMES = ("table1", "table2", "table3", "table4", "table5", "webtable2")

# The Monte Carlo modules load on first use (PEP 562), so the commands that
# do not simulate never import them.
_LAZY = {
    "covariance": ("Ar1Factor", "BlockDiagonalCovariance", "CompoundCovariance",
                   "CompoundFactor", "DenseCovariance", "DenseFactor", "IdentityCovariance",
                   "KroneckerCovariance", "sqrt_factor"),
    "presets": ("build_preset",),
    "simulate": ("MethodOutcome", "MultiplicativeMean", "NoiseScenario", "RejectionReport",
                 "RightBlockMean", "SimConfig", "SparseMean", "ZeroMean", "gen_stack",
                 "monte_carlo", "replicate_rng"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name not in _LAZY_MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_LAZY_MODULE[name]}", __name__), name)


__all__ = [
    "Ar1Factor",
    "BlockDiagonalCovariance",
    "CompoundCovariance",
    "CompoundFactor",
    "DataStack",
    "DenseCovariance",
    "DenseFactor",
    "GroupPartition",
    "IdentityCovariance",
    "KroneckerCovariance",
    "LoadedStack",
    "MethodOutcome",
    "MultiplicativeMean",
    "NoiseScenario",
    "PRESET_NAMES",
    "PairwiseCqSummary",
    "ProjectionMatrix",
    "RejectionReport",
    "RightBlockMean",
    "SimConfig",
    "SparseMean",
    "TestResult",
    "ZeroMean",
    "adjust_pvalues",
    "anova_rowwise",
    "build_preset",
    "build_projection",
    "chen_qin_two_sample",
    "compute_gram",
    "deviation_estimate",
    "discover_structure",
    "gen_stack",
    "kruskal_rowwise",
    "load_stack",
    "mean_matrix_test",
    "monte_carlo",
    "pairwise_cq_procedure",
    "read_row_sets",
    "replicate_rng",
    "screen_row_sets",
    "sqrt_factor",
    "test_known_difference",
    "test_known_matrix",
    "trace_cov_sq_fast",
    "trace_cov_sq_naive",
    "write_stack_file",
]
