"""Tests for grouped column-mean structure in stacks of matrices.

The workhorse statistic compares subjects pairwise through the gram
matrix of their projected, vectorized data.  Averaging the off-diagonal
gram entries over ordered pairs gives an unbiased estimate of the
squared projected mean; a three-part U-statistic over distinct index
tuples estimates the variance scale.  Their ratio is asymptotically
standard normal when the grouped-mean hypothesis holds, with rejection
for large positive values.

All estimators work for any number of subjects N >= 4, with cost
O(N^2 r c) per test; no per-row covariance estimation is involved, so r
may vastly exceed N.  The estimators accept a batch of grams, which is
how row-set screening and the pairwise column search score all their
tests in one call.

The p-values come from ``matmean.normal``, a pure-Python port of the
Cephes ``ndtr`` that scipy evaluates, bit for bit, so nothing in this
module needs scipy.  A test rejects when its p-value is below alpha.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DataStack,
    GroupPartition,
    ProjectionMatrix,
    _Record,
    build_projection,
    drop_singletons,
)
from .normal import ndtr

__all__ = [
    "TestResult",
    "compute_gram",
    "deviation_estimate",
    "trace_cov_sq_naive",
    "trace_cov_sq_fast",
    "mean_matrix_test",
    "test_known_matrix",
    "test_known_difference",
    "screen_row_sets",
    "discover_structure",
]

MIN_SUBJECTS = 4


@dataclass(frozen=True)
class TestResult(_Record):
    """Outcome of a one-sided standardized mean-structure test.

    ``deviation_est`` estimates the squared projected mean (zero under
    the hypothesis) and ``trace_cov_sq`` the variance-scale trace used
    in the denominator.  ``failure`` is set instead of a statistic when
    the data are too degenerate to standardize; all float fields are
    NaN in that case.
    """

    statistic: float
    p_value: float
    deviation_est: float
    trace_cov_sq: float
    n_used: int
    r_used: int
    c_used: int
    orientation: str
    alpha: float
    reject: bool | None
    failure: str | None = None
    dropped_columns: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return self.failure is None


def _gram(y: np.ndarray) -> np.ndarray:
    """N x N gram of the subjects along axis 0, each flattened to a vector.

    ``y @ y.T`` on one buffer runs as a symmetric rank-k update, so the
    result is exactly symmetric.  Entries that overflow are left as they
    come: the estimates built on them are reported as a failure.
    """
    y = y.reshape(y.shape[0], -1)
    with np.errstate(over="ignore", invalid="ignore"):
        return y @ y.T


def compute_gram(stack: DataStack, projection: ProjectionMatrix) -> np.ndarray:
    """N x N gram matrix of the projected, vectorized subject data.

    Entry (i, j) is the Frobenius inner product of X_i P and X_j P,
    which equals tr(X_i' X_j P) because P is idempotent.  Centering
    within groups applies P, so the cost is O(N^2 r c).
    """
    return _gram(projection.apply(stack.values))


def _unbatched(values: np.ndarray, gram: np.ndarray):
    """A plain float for a single gram, the array for a batch."""
    return float(values) if gram.ndim == 2 else values


def deviation_estimate(gram: np.ndarray):
    """Average off-diagonal gram entry over ordered pairs.

    Unbiased for the squared projected mean: diagonal entries are
    excluded precisely because they carry the noise variance.  Takes
    one gram (a float comes back) or a batch of shape (..., N, N).
    """
    gram = np.asarray(gram, dtype=float)
    n = _gram_size(gram, minimum=2)
    with np.errstate(over="ignore", invalid="ignore"):
        off_sum = gram.sum(axis=(-2, -1)) - np.trace(gram, axis1=-2, axis2=-1)
    return _unbatched(off_sum / (n * (n - 1)), gram)


def trace_cov_sq_naive(gram: np.ndarray) -> float:
    """Reference implementation of the variance-scale estimator.

    Sums over explicit ordered tuples of distinct indices, so the cost
    is O(N^4).  Kept as the oracle for the fast version; do not use on
    large N.
    """
    n = _gram_size(gram, minimum=MIN_SUBJECTS)
    a = np.asarray(gram, dtype=float)
    term1 = sum(a[i, j] ** 2 for i, j in itertools.permutations(range(n), 2))
    term2 = sum(
        a[i, j] * a[i, k] for i, j, k in itertools.permutations(range(n), 3)
    )
    term3 = sum(
        a[i, j] * a[k, l] for i, j, k, l in itertools.permutations(range(n), 4)
    )
    d2 = n * (n - 1)
    d3 = d2 * (n - 2)
    d4 = d3 * (n - 3)
    return term1 / d2 - 2.0 * term2 / d3 + term3 / d4


def trace_cov_sq_fast(gram: np.ndarray):
    """O(N^2) evaluation of the variance-scale estimator.

    With b the gram matrix with its diagonal zeroed, the three tuple
    sums reduce to S2, sum_i row_i^2 - S2, and S1^2 - 2 S2 - 4 P3,
    where S1 and S2 are the total sum and total squared sum of b and
    P3 the middle quantity.  Takes one gram (a float comes back) or a
    batch of shape (..., N, N).  An estimate that overflows comes back
    non-finite, without a warning.
    """
    n = _gram_size(gram, minimum=MIN_SUBJECTS)
    b = np.array(gram, dtype=float)
    diag = np.arange(n)
    b[..., diag, diag] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        s1 = b.sum(axis=(-2, -1))
        s2 = (b * b).sum(axis=(-2, -1))
        rows = b.sum(axis=-1)
        p3 = (rows * rows).sum(axis=-1) - s2
        quad = s1 * s1 - 2.0 * s2 - 4.0 * p3
        d2 = n * (n - 1)
        d3 = d2 * (n - 2)
        d4 = d3 * (n - 3)
        return _unbatched(s2 / d2 - 2.0 * p3 / d3 + quad / d4, b)


def _gram_size(gram: np.ndarray, minimum: int) -> int:
    gram = np.asarray(gram)
    if gram.ndim < 2 or gram.shape[-1] != gram.shape[-2]:
        raise ValueError(f"gram matrix must be square, got shape {gram.shape}")
    n = gram.shape[-1]
    if n < minimum:
        raise ValueError(f"need at least {minimum} subjects, got {n}")
    return n


def _standardize(
    dev, tsq, var, r_used, alpha: float, nonpositive: str, **common
) -> list[TestResult]:
    """One-sided z-tests, z = dev / sqrt(var), for a batch of estimates.

    ``tsq`` is the variance-scale estimate reported as ``trace_cov_sq``
    and ``r_used`` may differ per test.  A non-finite estimate or a
    nonpositive ``tsq`` or ``var`` gives a failure instead of a
    statistic, so overflow never passes as a NaN that does not reject.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    dev, tsq, var, r_used = np.broadcast_arrays(dev, tsq, var, r_used)
    with np.errstate(divide="ignore", invalid="ignore"):
        stat = dev / np.sqrt(var)
    results = []
    for d, t, v, z, r in zip(
        *(a.ravel().tolist() for a in (dev, tsq, var, stat, r_used))
    ):
        finite = math.isfinite(d) and math.isfinite(t) and math.isfinite(v)
        failure = None
        if finite and (t <= 0.0 or v <= 0.0):
            failure = f"unstable variance estimate (nonpositive {nonpositive})"
        elif not (finite and math.isfinite(z)):
            failure = "non-finite estimate (floating-point overflow)"
        ok = failure is None
        p = ndtr(-z) if ok else math.nan
        results.append(TestResult(
            statistic=z if ok else math.nan, p_value=p,
            deviation_est=d, trace_cov_sq=t, r_used=r, alpha=alpha,
            reject=p < alpha if ok else None, failure=failure, **common,
        ))
    return results


def _one_sample_terms(grams: np.ndarray) -> tuple:
    """Location, trace and variance 2 tr(Sigma^2) / (N (N-1)) of one sample per gram."""
    n = grams.shape[-1]
    tsq = trace_cov_sq_fast(grams)
    return deviation_estimate(grams), tsq, 2.0 * tsq / (n * (n - 1))


def _gram_results(grams: np.ndarray, alpha: float, r_used, **common) -> list[TestResult]:
    """The test on each gram of a batch of shape (..., N, N)."""
    n = grams.shape[-1]
    if n < MIN_SUBJECTS:
        raise ValueError(
            f"the variance estimator needs at least {MIN_SUBJECTS} subjects, got {n}"
        )
    return _standardize(
        *_one_sample_terms(grams), r_used, alpha, "trace estimate", n_used=n, **common
    )


def _prepared(
    stack: DataStack, partition: GroupPartition, orientation: str
) -> tuple[DataStack, GroupPartition, tuple[int, ...]]:
    """Stack in testing orientation, singleton-free partition, dropped columns."""
    if orientation not in ("columns", "rows"):
        raise ValueError(f"orientation must be 'columns' or 'rows', got {orientation!r}")
    work = stack.transposed() if orientation == "rows" else stack
    if partition.n_cols != work.n_cols:
        raise ValueError(
            f"partition covers {partition.n_cols} columns but the "
            f"{orientation} dimension is {work.n_cols}"
        )
    if partition.max_group_size < 2:
        raise ValueError(
            "partition needs at least one group of size >= 2; "
            "all groups are singletons"
        )
    dropped = partition.singleton_columns()
    work, partition = drop_singletons(work, partition)
    return work, partition, dropped


def mean_matrix_test(
    stack: DataStack,
    partition: GroupPartition,
    alpha: float = 0.05,
    orientation: str = "columns",
) -> TestResult:
    """Test whether column means coincide within each group.

    Columns in singleton groups are removed first; they cannot move
    the statistic and only sit outside every comparison.  Pass
    ``orientation="rows"`` to test a grouping of the rows instead, in
    which case the partition must cover the r rows.

    Returns a TestResult; when the projected data are fully degenerate
    (for example identical subjects with group-constant columns) or
    the estimates overflow, the result carries a ``failure`` message
    instead of a statistic.
    """
    work, partition, dropped = _prepared(stack, partition, orientation)
    gram = compute_gram(work, build_projection(partition))
    return _gram_results(
        gram, alpha, r_used=work.n_rows, c_used=work.n_cols,
        orientation=orientation, dropped_columns=dropped,
    )[0]


def screen_row_sets(
    stack: DataStack,
    partition: GroupPartition,
    row_sets: list[list[int]],
    alpha: float = 0.05,
) -> list[TestResult]:
    """``mean_matrix_test`` on the rows of each set, one result per set.

    Centering acts within each row, so the stack is centered once and
    every set's gram is formed from its rows of the centered data.
    """
    work, partition, dropped = _prepared(stack, partition, "columns")
    y = build_projection(partition).apply(work.values)
    grams = np.empty((len(row_sets), work.n_subjects, work.n_subjects))
    for k, rows in enumerate(row_sets):
        grams[k] = _gram(y[:, rows, :])
    return _gram_results(
        grams, alpha, r_used=[len(rows) for rows in row_sets], c_used=work.n_cols,
        orientation="columns", dropped_columns=dropped,
    )


def test_known_matrix(stack: DataStack, m0: np.ndarray, alpha: float = 0.05) -> TestResult:
    """Test whether the mean matrix equals a fully specified ``m0``.

    Subjects are centered by ``m0`` and compared without any column
    projection, so every entry contributes and no group-size rule
    applies.
    """
    m0 = np.asarray(m0, dtype=float)
    if m0.shape != (stack.n_rows, stack.n_cols):
        raise ValueError(
            f"m0 has shape {m0.shape}, expected {(stack.n_rows, stack.n_cols)}"
        )
    if not np.isfinite(m0).all():
        raise ValueError("m0 contains non-finite values")
    return _gram_results(
        _gram(stack.values - m0), alpha, r_used=stack.n_rows, c_used=stack.n_cols,
        orientation="columns",
    )[0]


def _pair_grams(x: np.ndarray) -> np.ndarray:
    """Gram of each column pair a < b of an (N, r, c) array as one group.

    Centering a pair leaves +-D/2 in its two columns, D = x_a - x_b, so
    its gram is D D' / 2.  Forming D first avoids the cancellation that
    expanding it through products of the columns would suffer.
    Differences are taken against one column at a time, so the working
    buffer never exceeds one copy of the data.
    """
    n, r, c = x.shape
    cols = x.transpose(2, 0, 1)
    grams = np.empty((c * (c - 1) // 2, n, n))
    buf = np.empty((c - 1, n, r))
    k = 0
    for a in range(c - 1):
        d = np.subtract(cols[a], cols[a + 1:], out=buf[: c - 1 - a])
        np.matmul(d, d.transpose(0, 2, 1), out=grams[k : k + len(d)])
        k += len(d)
    return grams / 2.0


def test_known_difference(
    stack: DataStack,
    mu0: np.ndarray | float,
    col_a: int,
    col_b: int,
    alpha: float = 0.05,
) -> TestResult:
    """Test whether column ``col_a`` exceeds column ``col_b`` by ``mu0``.

    ``mu0`` may be a scalar or a length-r vector; it is subtracted
    from column ``col_a`` and the two columns are then tested as one
    group of two.  Equivalent to embedding the pair in a full
    partition with every other column a singleton.
    """
    c = stack.n_cols
    if not (0 <= col_a < c and 0 <= col_b < c) or col_a == col_b:
        raise ValueError(
            f"need two distinct column indices in 0..{c - 1}, got {col_a}, {col_b}"
        )
    mu0 = np.asarray(mu0, dtype=float)
    if mu0.ndim not in (0, 1) or (mu0.ndim == 1 and mu0.shape[0] != stack.n_rows):
        raise ValueError(f"mu0 must be a scalar or length-{stack.n_rows} vector")
    if not np.isfinite(mu0).all():
        raise ValueError("mu0 contains non-finite values")
    pair = np.stack([stack.values[:, :, col_a] - mu0, stack.values[:, :, col_b]], axis=2)
    return _gram_results(
        _pair_grams(pair), alpha, r_used=stack.n_rows, c_used=2, orientation="columns"
    )[0]


def _merge_groups(c: int, merge_pairs: list[tuple[int, int]]) -> GroupPartition:
    parent = list(range(c))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in merge_pairs:
        parent[find(i)] = find(j)
    return GroupPartition.from_labels([find(k) for k in range(c)])


def discover_structure(stack: DataStack, alpha: float = 0.05) -> dict:
    """Sequential column-structure search; returns the full decision trace.

    Step one tests the single-group hypothesis (no column effect); if it is
    not rejected the search stops.  Otherwise every column pair is tested
    with the rest left as singletons, the pairwise p-values are adjusted
    (FDR drives the decisions; Bonferroni is reported alongside), and pairs
    that are *not* significantly different are merged by transitive closure
    into the final grouping, which is then tested as a whole.
    """
    # imported here because the baselines module imports this one
    from .baselines import adjust_pvalues

    c = stack.n_cols
    overall = mean_matrix_test(stack, GroupPartition.from_sizes((c,)), alpha=alpha)
    trace: dict = {
        "overall": overall.to_dict(),
        "pairs": None,
        "grouping": None,
        "final": None,
        "conclusion": None,
    }
    if overall.failure:
        return trace
    if not overall.reject:
        trace["conclusion"] = "column-independent mean"
        return trace

    all_pairs = list(itertools.combinations(range(c), 2))
    results = _gram_results(
        _pair_grams(stack.values), alpha, r_used=stack.n_rows, c_used=2,
        orientation="columns",
    )
    p = np.array([result.p_value for result in results])
    # FDR over the pairs that ran; Bonferroni over every attempted pair.
    # A failed pair's adjusted p-values are NaN.
    p_fdr = adjust_pvalues(p, "fdr").tolist()
    p_bonferroni = adjust_pvalues(p, "bonferroni", family=p.size).tolist()
    entries = [
        {
            "cols": [i, j],
            "p_value": result.p_value,
            "p_fdr": p_fdr[k],
            "p_bonferroni": p_bonferroni[k],
            "failure": result.failure,
        }
        for k, ((i, j), result) in enumerate(zip(all_pairs, results))
    ]
    trace["pairs"] = entries

    # Merge exactly the pairs whose FDR-adjusted p-value fails to reject;
    # failed pairs never merge (no evidence either way).
    merge_pairs = [
        tuple(e["cols"]) for e in entries
        if e["failure"] is None and e["p_fdr"] >= alpha
    ]
    if not merge_pairs:
        trace["conclusion"] = "unstructured"
        return trace
    grouping = _merge_groups(c, merge_pairs)
    trace["grouping"] = grouping.to_dict()
    trace["final"] = mean_matrix_test(stack, grouping, alpha=alpha).to_dict()
    trace["conclusion"] = "grouped columns"
    return trace
