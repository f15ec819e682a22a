"""Competitor procedures: row-wise tests and a pairwise two-sample scan.

These are the methods a practitioner would reach for first: run a
one-way ANOVA or Kruskal-Wallis test on every row across the column
groups, correct for multiplicity, and reject if anything survives; or
compare every pair of columns with a high-dimensional two-sample mean
test under a Bonferroni correction.  They are included both as
baselines for simulation studies and because they answer a different
question (which rows differ) than the matrix-level test.

Row-wise pooling treats the N subject values within a row/column-group
cell as independent replicates, which is only valid when the noise has
no cross-correlation.  The simulation tables restrict the comparison
accordingly; outside that regime these baselines are reported for
size distortion, not as valid tests.

Kruskal-Wallis ranks its rows in blocks of ``_KW_BLOCK_VALUES`` pooled
values, so its temporaries stay small however many rows there are.

The F and chi-square tails of the row-wise tests come from
``scipy.special`` (``fdtrc`` and ``chdtrc``, the functions behind
``scipy.stats.f.sf`` and ``chi2.sf``), so ``scipy.stats`` is never
imported.  ``anova_rowwise`` and ``kruskal_rowwise`` import them when
called; no other code in the package loads scipy.  The Chen-Qin normal
tail comes from ``matmean.normal`` through the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataStack, GroupPartition
# trace_cov_sq_fast is not called here, but perfbench/tracer.py wraps it by name
from .engine import (MIN_SUBJECTS, TestResult, _gram, _one_sample_terms, _standardize,
                     trace_cov_sq_fast)

__all__ = [
    "PairwiseCqSummary",
    "anova_rowwise",
    "kruskal_rowwise",
    "adjust_pvalues",
    "chen_qin_two_sample",
    "pairwise_cq_procedure",
]

# Kruskal-Wallis pools and ranks at most this many values at a time.
# Each (rows, N*c) temporary of a block (the pooled copy, its argsort,
# the group keys) then takes at most 100 KiB, under glibc's default
# 128 KiB mmap threshold: it is reused from the heap rather than mapped,
# page-faulted and unmapped on every call, and it stays in cache.
_KW_BLOCK_VALUES = 12_800

# rows whose within-group sum of squares is at most this share of their
# total sum of squares are degenerate: they get p = 1 rather than an F tail
_DEGENERATE_RTOL = 1e-10


def _pooled_layout(stack: DataStack, partition: GroupPartition):
    """Shared checks for the row-wise tests; returns the group indicator."""
    n, _, c = stack.values.shape
    if partition.n_cols != c:
        raise ValueError(
            f"partition covers {partition.n_cols} columns, stack has {c}"
        )
    g = partition.n_groups
    if g < 2:
        raise ValueError("row-wise tests need at least 2 column groups")
    # with n >= 2 and c >= g, the error term has n*c - g >= g >= 2 degrees of freedom
    if n < 2:
        raise ValueError("pooling needs at least 2 subjects per column")
    indicator = np.zeros((c, g))
    assign = np.asarray(partition.assignment) - 1
    indicator[np.arange(c), assign] = 1.0
    return indicator, assign


def anova_rowwise(stack: DataStack, partition: GroupPartition) -> np.ndarray:
    """One-way F test per row, pooling subjects within column groups.

    For each of the r rows, the N values in every column are pooled by
    the column's group, giving N*c_q replicates per group, and a
    standard one-way ANOVA is run across the g groups.  The sums of
    squares are taken from each row's residuals about its mean, so a
    shift of a row and a scaling of the data leave p unchanged up to
    rounding.  Returns one p-value per row.  A row whose within-group
    sum of squares is at most ``_DEGENERATE_RTOL`` times its total sum
    of squares gets p = 1: a constant row, and also a row whose groups
    are each constant but differ, whose F is infinite.
    """
    from scipy.special import fdtrc

    indicator, _ = _pooled_layout(stack, partition)
    vals = stack.values
    n, r, c = vals.shape
    g = partition.n_groups
    counts = n * np.asarray(partition.sizes, dtype=float)
    n_tot = n * c

    resid = vals - vals.mean(axis=(0, 2), keepdims=True)
    ss_total = np.einsum("irc,irc->r", resid, resid)
    group_sum = resid.sum(axis=0) @ indicator
    ss_between = (group_sum * group_sum / counts).sum(axis=1)
    ss_within = ss_total - ss_between

    degenerate = ss_within <= _DEGENERATE_RTOL * ss_total
    df1, df2 = g - 1, n_tot - g
    p = np.ones(r)
    live = ~degenerate
    if live.any():
        f = (ss_between[live] / df1) / (ss_within[live] / df2)
        p[live] = fdtrc(df1, df2, f)
    return p


def _rank_in_place(flat: np.ndarray) -> tuple:
    """Replace every row by the mid-ranks of its sorted values.

    One argsort and one in-place sort per row.  Afterwards ``flat[i, p]``
    is the mid-rank of the value at sorted position p of row i: p + 1,
    except that each run of equal values gets the mean of its positions,
    so ranks are exact half-integers.  Returns the argsort, the all-tied
    rows and the tie sums; the tie sum of a row is sum(t^3 - t) over its
    runs of length t, read off the same runs.
    """
    r, m = flat.shape
    order = np.argsort(flat, axis=1)
    flat.sort(axis=1)
    tied = flat[:, 1:] == flat[:, :-1]
    all_tied = flat[:, 0] == flat[:, -1]
    flat[:] = np.arange(1.0, m + 1.0)
    tie_sum = np.zeros(r)
    rows = np.flatnonzero(tied.any(axis=1))
    if rows.size:
        starts = np.ones((rows.size, m), dtype=bool)
        starts[:, 1:] = ~tied[rows]
        first = np.flatnonzero(starts)
        length = np.diff(first, append=starts.size)
        # 1-based position of a run's first value plus half its length
        mid = (2 * (first % m) + length + 1) / 2.0
        runs = np.cumsum(starts).reshape(starts.shape) - 1
        flat[rows] = mid[runs]
        t = length.astype(float)
        tie_sum[rows] = np.bincount(first // m, weights=t**3 - t, minlength=rows.size)
    return order, all_tied, tie_sum


def kruskal_rowwise(stack: DataStack, partition: GroupPartition) -> np.ndarray:
    """Kruskal-Wallis test per row with mid-rank tie correction.

    Same pooling as anova_rowwise but on ranks, so it is exactly
    invariant under monotone transformations of a row.  All-tied rows
    get p = 1.  Blocks of rows (128 when N*c = 100) are pooled, ranked
    and summed by group in turn; the statistic, the tie correction and
    the tail then take all rows at once.
    """
    from scipy.special import chdtrc

    _, assign = _pooled_layout(stack, partition)
    vals = stack.values
    n, r, c = vals.shape
    g = partition.n_groups
    counts = n * np.asarray(partition.sizes, dtype=float)
    n_tot = n * c

    # flattening is subject-major, so the group labels tile per subject
    labels = np.tile(assign, n)
    step = max(1, _KW_BLOCK_VALUES // n_tot)
    rank_sum, all_tied, tie_sum = np.empty((r, g)), np.empty(r, dtype=bool), np.empty(r)
    for lo in range(0, r, step):
        rows = slice(lo, lo + step)
        # a copy of its own even for one row, since it is ranked in place
        ranks = np.array(vals[:, rows].transpose(1, 0, 2), order="C").reshape(-1, n_tot)
        order, all_tied[rows], tie_sum[rows] = _rank_in_place(ranks)
        # key i*g + q collects the ranks of block row i that fall in
        # group q; sums of half-integers are exact in any order
        m = len(ranks)
        keys = labels[order]
        keys += np.arange(0, m * g, g)[:, None]
        rank_sum[rows] = np.bincount(keys.ravel(), ranks.ravel(), m * g).reshape(m, g)
    h = 12.0 / (n_tot * (n_tot + 1)) * (rank_sum * rank_sum / counts).sum(
        axis=1
    ) - 3.0 * (n_tot + 1)
    correction = 1.0 - tie_sum / (n_tot**3 - n_tot)

    p = np.ones(r)
    live = ~all_tied
    if live.any():
        p[live] = chdtrc(g - 1, np.maximum(h[live] / correction[live], 0.0))
    return p


def adjust_pvalues(p, method: str, family: int | None = None) -> np.ndarray:
    """Multiplicity adjustment: Benjamini-Hochberg step-up or Bonferroni.

    ``p`` is a 1-d array; a NaN marks a failed test, stays NaN and is left
    out of the family, whose size is the number of other entries unless
    ``family`` gives it.  Step-up values come from the reversed cumulative
    minimum, so they are monotone in p and never exceed Bonferroni's.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"p-values must form a 1-d array, got shape {p.shape}")
    live = ~np.isnan(p)
    q = p[live]
    if ((q < 0.0) | (q > 1.0)).any():
        raise ValueError("p-values must lie in [0, 1]")
    m = q.size if family is None else family
    if method == "bonferroni":
        q = np.minimum(1.0, q * m)
    elif method == "fdr":
        order = np.argsort(q, kind="stable")
        scaled = q[order] * m / np.arange(1, q.size + 1)
        q[order] = np.minimum(np.minimum.accumulate(scaled[::-1])[::-1], 1.0)
    else:
        raise ValueError(f"method must be 'fdr' or 'bonferroni', got {method!r}")
    adjusted = np.full(p.shape, np.nan)
    adjusted[live] = q
    return adjusted


def _cross_trace_estimate(cross: np.ndarray) -> np.ndarray:
    """Unbiased estimate of tr(Sigma_1 Sigma_2) from each cross gram.

    Expands the product of two pair-averages over mutually distinct
    indices; inclusion-exclusion on the index coincidences reduces all
    four sums to row/column marginals of the cross gram, so the cost
    stays O(n1 * n2).  ``cross`` has shape (..., n1, n2).
    """
    n1, n2 = cross.shape[-2:]
    if min(n1, n2) < 2:
        raise ValueError("cross-trace estimate needs at least 2 per group")
    sq = cross * cross
    row_sum = cross.sum(axis=-1)
    col_sum = cross.sum(axis=-2)
    row_sq = sq.sum(axis=-1)
    col_sq = sq.sum(axis=-2)
    total = cross.sum(axis=(-2, -1))
    total_sq = sq.sum(axis=(-2, -1))
    t1 = total_sq / (n1 * n2)
    t2a = (col_sum * col_sum - col_sq).sum(axis=-1) / (n1 * (n1 - 1) * n2)
    t2b = (row_sum * row_sum - row_sq).sum(axis=-1) / (n1 * n2 * (n2 - 1))
    t3 = (
        total * total
        - (row_sum * row_sum).sum(axis=-1)
        - (col_sum * col_sum).sum(axis=-1)
        + total_sq
    ) / (n1 * (n1 - 1) * n2 * (n2 - 1))
    return t1 - t2a - t2b + t3


def _cq_results(
    within_a, within_b, cross: np.ndarray, dim: int, alpha: float
) -> list[TestResult]:
    """Two-sample tests from per-group terms and a batch of cross grams.

    Terms that overflow are left non-finite, without a warning: the
    result reports them as a failure.
    """
    (loc_a, _, var_a), (loc_b, _, var_b) = within_a, within_b
    n1, n2 = cross.shape[-2:]
    with np.errstate(over="ignore", invalid="ignore"):
        loc = loc_a + loc_b - 2.0 * cross.sum(axis=(-2, -1)) / (n1 * n2)
        var = var_a + var_b + 4.0 * _cross_trace_estimate(cross) / (n1 * n2)
    return _standardize(
        loc, var, var, dim, alpha, "plug-in variance",
        n_used=n1 + n2, c_used=2, orientation="columns",
    )


def chen_qin_two_sample(group1, group2, alpha: float = 0.05) -> TestResult:
    """High-dimensional two-sample mean test on two sets of vectors.

    The location statistic sums the off-diagonal gram averages within
    each group minus twice the cross average, so it estimates the
    squared mean difference without any covariance inversion.  The
    plug-in variance combines the per-group variance-scale traces with
    an unbiased cross-trace estimate.

    In the returned TestResult ``deviation_est`` is the location
    statistic and ``trace_cov_sq`` the composite variance estimate
    (there is no single-trace denominator in the two-sample case).
    """
    x = np.asarray(group1, dtype=float)
    y = np.asarray(group2, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ValueError(
            f"groups must be 2-d with a common dimension, got {x.shape} and {y.shape}"
        )
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("group data contain non-finite values")
    if min(x.shape[0], y.shape[0]) < MIN_SUBJECTS:
        raise ValueError(f"each group needs at least {MIN_SUBJECTS} vectors")
    with np.errstate(over="ignore", invalid="ignore"):
        cross = x @ y.T
    terms = _one_sample_terms(_gram(x)), _one_sample_terms(_gram(y))
    return _cq_results(*terms, cross, x.shape[1], alpha)[0]


@dataclass(frozen=True)
class PairwiseCqSummary:
    """All-pairs two-sample scan over columns with Bonferroni control.

    ``p_values`` are the raw one-sided p per pair (NaN where the pair
    test failed); ``adjusted`` multiplies by the full pair count, failed
    pairs included.  The family-wise decision rejects when any adjusted p
    falls below alpha.
    """

    pairs: tuple[tuple[int, int], ...]
    p_values: tuple[float, ...]
    adjusted: tuple[float, ...]
    alpha: float
    reject: bool | None
    failed_pairs: tuple[int, ...] = ()
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def pairwise_cq_procedure(stack: DataStack, alpha: float = 0.05) -> PairwiseCqSummary:
    """Run the two-sample test on every column pair of the stack.

    Each column is treated as a group of N r-vectors (dependence
    between columns is deliberately ignored; that is the procedure
    under study).  One big gram over all column vectors feeds every
    pair, each column's own terms are computed once, and all pairs are
    scored in one batched call.
    """
    n, r, c = stack.values.shape
    if n < MIN_SUBJECTS:
        raise ValueError(f"pairwise scan needs at least {MIN_SUBJECTS} subjects")
    if c < 2:
        raise ValueError("pairwise scan needs at least 2 columns")
    flat = stack.values.transpose(2, 0, 1).reshape(c * n, r)
    # block (a, b) of the column gram is big[a, :, b, :]
    big = _gram(flat).reshape(c, n, c, n)
    cols = np.arange(c)
    within = _one_sample_terms(big[cols, :, cols, :])
    ia, ib = np.triu_indices(c, 1)
    results = _cq_results([t[ia] for t in within], [t[ib] for t in within],
                          big[ia, :, ib, :], r, alpha)
    raw = np.array([res.p_value for res in results])
    adjusted = adjust_pvalues(raw, "bonferroni", family=raw.size)
    valid = ~np.isnan(adjusted)
    return PairwiseCqSummary(
        pairs=tuple(zip(ia.tolist(), ib.tolist())),
        p_values=tuple(raw.tolist()),
        adjusted=tuple(adjusted.tolist()),
        alpha=alpha,
        reject=bool((adjusted[valid] < alpha).any()) if valid.any() else None,
        failed_pairs=tuple(k for k, res in enumerate(results) if not res.ok),
        failure=None if valid.any() else "every pair test failed",
    )
