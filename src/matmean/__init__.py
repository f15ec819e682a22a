"""Tests for structured means of matrix-valued observations.

A small number of subjects each contribute one r x c matrix; the package
tests whether the columns of the common mean matrix share values within
prescribed groups, without assuming normality or any covariance structure.
Baselines (row-wise ANOVA / Kruskal-Wallis with multiplicity corrections,
pairwise two-sample mean tests), a Monte Carlo harness with canned study
designs, and a batch CLI round out the toolkit.

Each exported name loads its module on first use (PEP 562), so
``import matmean`` loads nothing, numpy included, until a name is used.
"""

from importlib import import_module

__version__ = "0.1.0"

# Defined here rather than in ``presets`` so that the command-line parser
# can offer them without importing the Monte Carlo modules.
DEFAULT_REPLICATES = 1000
PRESET_NAMES = ("table1", "table2", "table3", "table4", "table5", "webtable2")

_EXPORTS = {
    "baselines": ("PairwiseCqSummary", "adjust_pvalues", "anova_rowwise", "chen_qin_two_sample",
                  "kruskal_rowwise", "pairwise_cq_procedure"),
    "core": ("DataStack", "GroupPartition", "ProjectionMatrix", "build_projection"),
    "covariance": ("Ar1Factor", "BlockDiagonalCovariance", "CompoundCovariance",
                   "CompoundFactor", "DenseCovariance", "DenseFactor", "IdentityCovariance",
                   "KroneckerCovariance", "sqrt_factor"),
    "engine": ("TestResult", "compute_gram", "deviation_estimate", "discover_structure",
               "mean_matrix_test", "screen_row_sets", "test_known_difference",
               "test_known_matrix", "trace_cov_sq_fast", "trace_cov_sq_naive"),
    "io": ("LoadedStack", "load_stack", "read_row_sets", "write_stack_file"),
    "presets": ("build_preset",),
    "simulate": ("MethodOutcome", "MultiplicativeMean", "NoiseScenario", "RejectionReport",
                 "RightBlockMean", "SimConfig", "SparseMean", "ZeroMean", "gen_stack",
                 "monte_carlo", "replicate_rng"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "PRESET_NAMES"])


def __getattr__(name, asked=__name__):
    # ``asked`` is the module the name was looked up on, for the error
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {asked!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
