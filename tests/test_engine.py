import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from matmean.baselines import chen_qin_two_sample, pairwise_cq_procedure
from matmean.core import DataStack, GroupPartition, build_projection
from matmean.engine import (
    MIN_SUBJECTS,
    compute_gram,
    deviation_estimate,
    discover_structure,
    mean_matrix_test,
    screen_row_sets,
    trace_cov_sq_fast,
    trace_cov_sq_naive,
)
from matmean.engine import TestResult as Result
from matmean.engine import test_known_difference as known_difference_test
from matmean.engine import test_known_matrix as known_matrix_test


def _random_stack(rng, n, r, c, mean=None):
    vals = rng.standard_normal((n, r, c))
    if mean is not None:
        vals = vals + mean
    return DataStack(vals)


def _brute_trace_cov_sq(g):
    """Ordered-tuple U-statistic, written as bare loops."""
    n = g.shape[0]
    s2 = s3 = s4 = 0.0
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            s2 += g[i, j] ** 2
            for k in range(n):
                if k in (i, j):
                    continue
                s3 += g[i, k] * g[j, k]
                for l in range(n):
                    if l in (i, j, k):
                        continue
                    s4 += g[i, j] * g[k, l]
    n2 = n * (n - 1)
    return s2 / n2 - 2.0 * s3 / (n2 * (n - 2)) + s4 / (n2 * (n - 2) * (n - 3))


def test_gram_matches_definition():
    rng = np.random.default_rng(31)
    for n, r, labels in [(5, 4, (1, 1, 1, 2, 2)), (12, 300, (1, 2, 1, 3, 2, 3, 1)),
                         (7, 1, (1, 1))]:
        proj = build_projection(GroupPartition(labels))
        stack = _random_stack(rng, n, r, len(labels))
        g = compute_gram(stack, proj)
        expected = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                expected[i, j] = np.trace(stack.values[i].T @ stack.values[j] @ proj.values)
        assert np.allclose(g, expected, rtol=1e-10)
        assert np.array_equal(g, g.T), "gram must be exactly symmetric"


def test_deviation_estimate_hand_oracle():
    g = np.array([[9.0, 1.0, 2.0], [1.0, 9.0, 3.0], [2.0, 3.0, 9.0]])
    # off-diagonal sum 12, divided by 3*2
    assert deviation_estimate(g) == pytest.approx(2.0, rel=1e-14)
    batch = np.stack([[g, 2.0 * g], [-g, 0.5 * g]])
    assert np.array_equal(deviation_estimate(batch), [[2.0, 4.0], [-2.0, 1.0]])


def test_trace_cov_sq_naive_matches_brute_force():
    rng = np.random.default_rng(32)
    for n in (4, 5, 6):
        a = rng.standard_normal((n, n))
        g = (a + a.T) / 2
        assert trace_cov_sq_naive(g) == pytest.approx(_brute_trace_cov_sq(g), rel=1e-12)


def test_trace_cov_sq_fast_matches_naive():
    rng = np.random.default_rng(33)
    for n in (4, 6, 9, 13):
        a = rng.standard_normal((n, n))
        g = (a + a.T) / 2
        fast = trace_cov_sq_fast(g)
        naive = trace_cov_sq_naive(g)
        assert fast == pytest.approx(naive, rel=1e-11)
    # a batch of shape (..., N, N) gives each slice's own value, exactly
    a = rng.standard_normal((2, 3, 7, 7))
    batch = (a + a.swapaxes(-1, -2)) / 2
    fast = trace_cov_sq_fast(batch)
    assert fast.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        assert fast[idx] == trace_cov_sq_fast(batch[idx])


def _exact_estimates(x, assignment):
    """Both U-statistics of integer data, in exact rational arithmetic.

    Columns are centred within their groups, the gram G is formed, and
    the estimates are the mean of G_ij over ordered pairs i != j and
    the mean of the kernel 1/4 ((y_i - y_k)'(y_j - y_l))^2 over ordered
    tuples of four distinct subjects.
    """
    groups = {}
    for b, q in enumerate(assignment):
        groups.setdefault(q, []).append(b)
    flat = []
    for m in x.tolist():
        y = []
        for row in m:
            row = [Fraction(v) for v in row]
            for cols in groups.values():
                mean = sum((row[b] for b in cols), Fraction(0)) / len(cols)
                for b in cols:
                    row[b] -= mean
            y.extend(row)
        flat.append(y)
    g = [[sum((a * b for a, b in zip(yi, yj)), Fraction(0)) for yj in flat] for yi in flat]
    pairs = list(itertools.permutations(range(len(flat)), 2))
    quads = list(itertools.permutations(range(len(flat)), 4))
    dev = sum(g[i][j] for i, j in pairs) / len(pairs)
    tr = sum((g[i][j] - g[i][l] - g[k][j] + g[k][l]) ** 2
             for i, j, k, l in quads) / (4 * len(quads))
    return dev, tr, max(abs(v) for row in g for v in row)


def _exact_oracle_cases():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n, r, c = int(rng.integers(4, 7)), int(rng.integers(1, 4)), int(rng.integers(2, 6))
        labels = rng.integers(1, 3, size=c)
        labels[1] = labels[0]  # at least one group of two columns
        yield rng.integers(-5, 6, size=(n, r, c)), labels.tolist()
    # exact zeros: identical subjects give a zero trace estimate, and rows
    # constant within each group give zero for both
    same = np.random.default_rng(100).integers(-5, 6, size=(1, 3, 4))
    yield np.repeat(same, 5, axis=0), [1, 1, 2, 2]
    yield np.repeat(np.repeat(same[:, :, :2], 2, axis=2), 5, axis=0), [1, 2, 1, 2]


def test_estimators_match_exact_rational_u_statistics():
    # C7 compares two floating-point versions; this checks both estimators
    # against the U-statistics evaluated without rounding
    for x, labels in _exact_oracle_cases():
        part = GroupPartition.from_labels(labels)
        g = compute_gram(DataStack(x.astype(float)), build_projection(part))
        dev, tr, scale = _exact_estimates(x, part.assignment)
        for got, want, unit in ((deviation_estimate(g), dev, scale),
                                (trace_cov_sq_fast(g), tr, scale * scale)):
            if want == 0:
                assert abs(got) <= 1e-12 * (1 + unit)
            else:
                assert abs(Fraction(got) - want) <= 1e-12 * abs(want)


def test_trace_cov_sq_requires_four_subjects():
    g = np.eye(3)
    with pytest.raises(ValueError):
        trace_cov_sq_fast(g)
    with pytest.raises(ValueError):
        trace_cov_sq_naive(g)


def test_statistic_pipeline_consistency():
    rng = np.random.default_rng(34)
    part = GroupPartition.from_sizes((4, 2))
    stack = _random_stack(rng, 12, 15, 6)
    res = mean_matrix_test(stack, part, alpha=0.05)
    assert res.ok
    n = 12
    g = compute_gram(stack, build_projection(part))
    dev = deviation_estimate(g)
    tsq = trace_cov_sq_fast(g)
    expected_stat = dev / np.sqrt(2.0 * tsq / (n * (n - 1)))
    assert res.statistic == pytest.approx(expected_stat, rel=1e-12)
    assert res.p_value == pytest.approx(stats.norm.sf(res.statistic), rel=1e-12)
    assert res.reject == (res.p_value < 0.05)
    assert res.deviation_est == pytest.approx(dev, rel=1e-12)
    assert res.trace_cov_sq == pytest.approx(tsq, rel=1e-12)


def test_tiny_alpha_rejects_when_the_p_value_is_below_it():
    # 1 - alpha rounds to 1 below about 1.1e-16, where a cutoff at the normal
    # quantile of 1 - alpha would be inf and never reject
    rng = np.random.default_rng(40)
    part = GroupPartition.from_sizes((3, 3))
    for shift in (1.0, 3.0):  # p about 1.9e-63, then p underflowing to 0
        mean = np.zeros((20, 6))
        mean[:, 5] = shift
        res = mean_matrix_test(_random_stack(rng, 15, 20, 6, mean=mean), part, alpha=1e-17)
        assert res.ok and res.p_value < 1e-17
        assert res.reject
    for alpha in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\), got"):
            mean_matrix_test(_random_stack(rng, 6, 4, 6), part, alpha=alpha)


def test_every_test_path_rejects_exactly_when_p_is_below_alpha():
    rng = np.random.default_rng(44)
    results = []
    for shift in (0.0, 0.2, 0.4, 0.8):
        for alpha in (0.01, 0.05, 0.3):
            mean = np.zeros((8, 6))
            mean[:4, 5] = shift
            stack = _random_stack(rng, 10, 8, 6, mean=mean)
            part = GroupPartition.from_sizes((3, 3))
            results.append(mean_matrix_test(stack, part, alpha=alpha))
            results.append(mean_matrix_test(stack, GroupPartition.from_sizes((4, 4)),
                                            alpha=alpha, orientation="rows"))
            results.append(known_matrix_test(stack, np.zeros((8, 6)), alpha=alpha))
            results.append(known_difference_test(
                stack.take_columns([4, 5]), 0.0, col_a=0, col_b=1, alpha=alpha))
            results.extend(screen_row_sets(stack, part, [[0, 1, 2], [3, 4, 5, 6, 7]],
                                           alpha=alpha))
            results.append(chen_qin_two_sample(stack.values[:, :, 4], stack.values[:, :, 5],
                                               alpha=alpha))
    assert all(res.ok for res in results)
    assert any(res.reject for res in results) and not all(res.reject for res in results)
    for res in results:
        assert res.reject == (res.p_value < res.alpha)


def test_rejects_under_strong_group_violation():
    rng = np.random.default_rng(35)
    mean = np.zeros((20, 6))
    mean[:, 5] = 2.0  # last column breaks away inside the second group
    stack = _random_stack(rng, 15, 20, 6, mean=mean)
    res = mean_matrix_test(stack, GroupPartition.from_sizes((3, 3)))
    assert res.reject and res.p_value < 1e-4


def test_group_constant_mean_cancels_exactly():
    # a mean that is constant within groups leaves the statistic untouched
    rng = np.random.default_rng(36)
    noise = rng.standard_normal((15, 20, 6))
    mean = np.zeros((20, 6))
    mean[:, 3:] = 1.7
    part = GroupPartition.from_sizes((3, 3))
    with_mean = mean_matrix_test(DataStack(noise + mean), part).statistic
    pure = mean_matrix_test(DataStack(noise), part).statistic
    assert with_mean == pytest.approx(pure, rel=1e-12)


def test_singleton_columns_are_dropped_and_recorded():
    rng = np.random.default_rng(37)
    stack = _random_stack(rng, 8, 10, 5)
    part = GroupPartition.from_labels(["a", "z", "a", "b", "b"])
    res = mean_matrix_test(stack, part)
    assert res.dropped_columns == (1,)
    assert res.c_used == 4
    # identical to testing the reduced stack directly
    direct = mean_matrix_test(stack.take_columns([0, 2, 3, 4]),
                              GroupPartition.from_sizes((2, 2)))
    assert res.statistic == pytest.approx(direct.statistic, rel=1e-12)


def test_result_json_form_is_pinned():
    result = Result(
        statistic=1.5, p_value=0.0668, deviation_est=2.0, trace_cov_sq=4.0,
        n_used=10, r_used=3, c_used=4, orientation="columns", alpha=0.05,
        reject=False, failure=None, dropped_columns=(2, 5),
    )
    assert json.dumps(result.to_dict()) == (
        '{"statistic": 1.5, "p_value": 0.0668, "deviation_est": 2.0, "trace_cov_sq": 4.0, '
        '"n_used": 10, "r_used": 3, "c_used": 4, "orientation": "columns", "alpha": 0.05, '
        '"reject": false, "failure": null, "dropped_columns": [2, 5]}'
    )


def test_orientation_rows_equals_transposed_columns():
    rng = np.random.default_rng(38)
    stack = _random_stack(rng, 6, 5, 4)
    part = GroupPartition.from_sizes((3, 2))  # partitions the 5 rows
    by_rows = mean_matrix_test(stack, part, orientation="rows")
    by_cols = mean_matrix_test(stack.transposed(), part, orientation="columns")
    assert by_rows.statistic == pytest.approx(by_cols.statistic, rel=1e-12)
    assert by_rows.orientation == "rows"


def test_minimum_subjects_enforced():
    rng = np.random.default_rng(39)
    stack = _random_stack(rng, MIN_SUBJECTS - 1, 6, 4)
    with pytest.raises(ValueError, match="subjects"):
        mean_matrix_test(stack, GroupPartition.from_sizes((2, 2)))


def test_partition_must_cover_columns():
    rng = np.random.default_rng(40)
    stack = _random_stack(rng, 6, 6, 4)
    with pytest.raises(ValueError):
        mean_matrix_test(stack, GroupPartition.from_sizes((3, 2)))


_STACK = DataStack(np.random.default_rng(41).standard_normal((6, 4, 3)))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: deviation_estimate(np.ones((3, 4))),
                 "gram matrix must be square, got shape (3, 4)", id="gram-not-square"),
    pytest.param(lambda: mean_matrix_test(_STACK, GroupPartition.from_sizes((3,)),
                                          orientation="diagonal"),
                 "orientation must be 'columns' or 'rows', got 'diagonal'", id="orientation"),
    pytest.param(lambda: known_matrix_test(_STACK, np.zeros((3, 3))),
                 "m0 has shape (3, 3), expected (4, 3)", id="m0-shape"),
    pytest.param(lambda: known_matrix_test(_STACK, np.full((4, 3), np.nan)),
                 "m0 contains non-finite values", id="m0-finite"),
    pytest.param(lambda: known_difference_test(_STACK, np.zeros(3), 0, 1),
                 "mu0 must be a scalar or length-4 vector", id="mu0-length"),
    pytest.param(lambda: known_difference_test(_STACK, np.zeros((4, 1)), 0, 1),
                 "mu0 must be a scalar or length-4 vector", id="mu0-ndim"),
    pytest.param(lambda: known_difference_test(_STACK, np.inf, 0, 1),
                 "mu0 contains non-finite values", id="mu0-finite"),
])
def test_invalid_test_input_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_degenerate_data_reports_failure():
    identical = DataStack(np.stack([np.arange(12.0).reshape(3, 4)] * 4))
    huge = DataStack(np.random.default_rng(49).standard_normal((8, 6, 4)) * 1e100)
    part = GroupPartition.from_sizes((2, 2))
    for res, message in [
        # identical subjects: every gram entry alike, zero variance
        (mean_matrix_test(identical, part), "unstable variance"),
        # squared gram entries overflow: no NaN statistic may pass as a result
        (mean_matrix_test(huge, part), "non-finite"),
        (known_matrix_test(huge, np.zeros((6, 4))), "non-finite"),
    ]:
        assert not res.ok
        assert res.failure is not None and message in res.failure
        assert np.isnan(res.statistic) and np.isnan(res.p_value)
        assert res.reject is None


def test_known_matrix_shift_invariance():
    rng = np.random.default_rng(41)
    m0 = rng.standard_normal((5, 4))
    stack = _random_stack(rng, 8, 5, 4, mean=m0)
    shift = rng.standard_normal((5, 4))
    base = known_matrix_test(stack, m0)
    shifted = known_matrix_test(DataStack(stack.values + shift), m0 + shift)
    assert base.statistic == pytest.approx(shifted.statistic, rel=1e-12)
    assert not base.reject  # true mean: no evidence against it


def test_known_matrix_detects_wrong_mean():
    rng = np.random.default_rng(42)
    m0 = np.zeros((10, 4))
    stack = _random_stack(rng, 10, 10, 4, mean=0.8)
    res = known_matrix_test(stack, m0)
    assert res.reject


def test_known_difference_equals_embedded_pair():
    rng = np.random.default_rng(43)
    stack = _random_stack(rng, 8, 12, 5)
    mu0 = rng.standard_normal(12)
    direct = known_difference_test(stack, mu0, col_a=1, col_b=3)
    # embed: shift column 1 by -mu0, then test {1,3} as the only real group
    shifted = stack.values.copy()
    shifted[:, :, 1] -= mu0
    part = GroupPartition.from_labels(["s0", "pair", "s2", "pair", "s4"])
    embedded = mean_matrix_test(DataStack(shifted), part)
    assert direct.statistic == pytest.approx(embedded.statistic, rel=1e-9)


def test_known_difference_scalar_and_recovery():
    rng = np.random.default_rng(44)
    vals = rng.standard_normal((10, 15, 2))
    vals[:, :, 0] += 1.3
    stack = DataStack(vals)
    held = known_difference_test(stack, 1.3, col_a=0, col_b=1)
    assert not held.reject
    broken = known_difference_test(stack, 0.0, col_a=0, col_b=1)
    assert broken.reject
    with pytest.raises(ValueError):
        known_difference_test(stack, np.zeros(7), col_a=0, col_b=1)
    with pytest.raises(ValueError):
        known_difference_test(stack, 0.0, col_a=1, col_b=1)


@pytest.mark.parametrize("shift", [0.0, 1e4])
def test_discover_pairs_equal_pair_partition_tests(shift):
    # each pair test of the search is the test of that pair as one group,
    # and a common shift, which every pair hypothesis allows, moves none
    rng = np.random.default_rng(48)
    v = rng.standard_normal((10, 30, 5))
    v[:, :, 3:] += 0.6
    trace = discover_structure(DataStack(v + shift))
    assert len(trace["pairs"]) == 10
    for entry in trace["pairs"]:
        i, j = entry["cols"]
        labels = list(range(5))
        labels[j] = i
        direct = mean_matrix_test(DataStack(v), GroupPartition.from_labels(labels))
        assert entry["p_value"] == pytest.approx(
            direct.p_value, rel=1e-12 if shift == 0.0 else 1e-9
        )


# ---------------------------------------------------------------------------
# invariances: relabelling subjects, rows or columns leaves the test alone


def _relabel_case(seed):
    """A (12, 8, 6) stack with a mean off the null, its partition and an m0."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((12, 8, 6)) + 0.5 * rng.standard_normal((8, 6))
    part = GroupPartition.from_labels(rng.permutation([1, 1, 1, 2, 2, 2]))
    m0 = rng.standard_normal((8, 6))
    perms = [rng.permutation(k) for k in x.shape]
    return x, part, m0, perms


def test_z_is_invariant_to_permuting_subjects_rows_and_columns():
    for seed in range(200):
        x, part, m0, (s, a, b) = _relabel_case(seed)
        base = mean_matrix_test(DataStack(x), part).statistic
        known = known_matrix_test(DataStack(x), m0).statistic
        cases = [
            (x[s], part, m0),
            (x[:, a], part, m0[a]),
            (x[:, :, b], GroupPartition.from_labels(np.take(part.assignment, b)), m0[:, b]),
        ]
        for y, relabelled, m0_y in cases:
            assert mean_matrix_test(DataStack(y), relabelled).statistic == pytest.approx(
                base, rel=1e-12)
            assert known_matrix_test(DataStack(y), m0_y).statistic == pytest.approx(
                known, rel=1e-12)


def test_known_difference_z_is_invariant_to_permuting_subjects_and_rows():
    for seed in range(200):
        x, _, m0, (s, a, _) = _relabel_case(seed)
        mu0 = m0[:, 0]
        base = known_difference_test(DataStack(x), mu0, col_a=1, col_b=3).statistic
        for y, mu0_y in [(x[s], mu0), (x[:, a], mu0[a])]:
            assert known_difference_test(DataStack(y), mu0_y, col_a=1, col_b=3).statistic == (
                pytest.approx(base, rel=1e-12))


def test_chen_qin_z_is_invariant_to_permuting_vectors_and_coordinates():
    for seed in range(200):
        x, _, _, (s, a, b) = _relabel_case(seed)
        v = x.reshape(12, -1)
        first, second = v[:6], v[6:]
        base = chen_qin_two_sample(first, second).statistic
        # each group's vectors reordered among themselves, and one coordinate order for both
        within = (first[np.argsort(s[:6])], second[np.argsort(s[6:])])
        coords = np.arange(v.shape[1]).reshape(8, 6)[a][:, b].ravel()
        for g1, g2 in [within, (first[:, coords], second[:, coords])]:
            assert chen_qin_two_sample(g1, g2).statistic == pytest.approx(base, rel=1e-12)


def test_pairwise_cq_p_values_are_invariant_to_permuting_subjects_and_rows():
    # the scan exposes no z, and its tails amplify rounding, hence 1e-11
    for seed in range(200):
        x, _, _, (s, a, _) = _relabel_case(seed)
        base = pairwise_cq_procedure(DataStack(x)).p_values
        for y in (x[s], x[:, a]):
            assert pairwise_cq_procedure(DataStack(y)).p_values == pytest.approx(base, rel=1e-11)


def test_screen_row_sets_is_invariant_to_permuting_subjects():
    row_sets = [[0, 1, 2, 3], [2, 5, 7], list(range(8)), [6, 1]]
    for seed in range(200):
        x, part, _, (s, _, _) = _relabel_case(seed)
        base = screen_row_sets(DataStack(x), part, row_sets)
        permuted = screen_row_sets(DataStack(x[s]), part, row_sets)
        for got, want in zip(permuted, base):
            assert got.statistic == pytest.approx(want.statistic, rel=1e-12)


def _pair_p_values(trace, relabel=range(6)):
    """{(col, col): p_value} of the pair step, columns renamed by ``relabel``."""
    return {tuple(sorted(relabel[k] for k in e["cols"])): e["p_value"]
            for e in trace["pairs"] or ()}


def test_discover_structure_is_invariant_to_permuting_subjects_rows_and_columns():
    # the pair step's p-values are tails like the pairwise scan's, hence 1e-11
    conclusions = set()
    for seed in range(200):
        x, _, _, (s, a, b) = _relabel_case(seed)
        base = discover_structure(DataStack(x))
        conclusions.add(base["conclusion"])
        for y in (x[s], x[:, a]):
            got = discover_structure(DataStack(y))
            assert got["conclusion"] == base["conclusion"]
            assert got["grouping"] == base["grouping"]
            assert got["overall"]["p_value"] == pytest.approx(base["overall"]["p_value"],
                                                              rel=1e-11)
            assert _pair_p_values(got) == pytest.approx(_pair_p_values(base), rel=1e-11)
        # column k of x[:, :, b] is column b[k] of x
        got = discover_structure(DataStack(x[:, :, b]))
        assert got["conclusion"] == base["conclusion"]
        assert _pair_p_values(got, relabel=b) == pytest.approx(_pair_p_values(base), rel=1e-11)
    assert len(conclusions) > 1


def test_rows_orientation_is_the_columns_test_of_the_transpose_bit_for_bit():
    for seed in range(200):
        x, part, _, _ = _relabel_case(seed)
        by_rows = mean_matrix_test(DataStack(x.transpose(0, 2, 1)), part, orientation="rows")
        by_cols = mean_matrix_test(DataStack(x), part)
        assert by_rows.orientation == "rows"
        assert {**by_rows.to_dict(), "orientation": "columns"} == by_cols.to_dict()


# ---------------------------------------------------------------------------
# cancellation in the estimators
#
# The statistic is scale-free, and the trace estimate does not see a
# shift of every subject.  In floating point both break, because each
# gram is formed from uncentred data.  These cases reproduce the known
# defects; each is a strict expected failure until the grams are formed
# from data centred across subjects, and then only its mark goes.

_cancellation = pytest.mark.xfail(
    strict=True, reason="grams are formed from uncentred data, so digits cancel")

_UNIT = np.random.default_rng(3).standard_normal((12, 8, 6))


@_cancellation
@pytest.mark.parametrize("scale", [2.0 ** -300, 1e-100, 1e100, 2.0 ** 300],
                         ids=["2^-300", "1e-100", "1e100", "2^300"])
def test_z_does_not_depend_on_the_scale_of_the_data(scale):
    part = GroupPartition.from_sizes((3, 3))
    base = mean_matrix_test(DataStack(_UNIT), part)
    scaled = mean_matrix_test(DataStack(_UNIT * scale), part)
    assert scaled.failure is None
    assert scaled.statistic == pytest.approx(base.statistic, rel=1e-9)


@_cancellation
def test_known_matrix_trace_does_not_see_a_far_m0():
    m0 = np.zeros((8, 6))
    base = known_matrix_test(DataStack(_UNIT), m0)
    far = known_matrix_test(DataStack(_UNIT + 1e4), m0)
    assert far.trace_cov_sq == pytest.approx(base.trace_cov_sq, rel=1e-9)


@_cancellation
def test_partition_trace_does_not_see_a_column_effect():
    part = GroupPartition.from_sizes((6,))
    base = mean_matrix_test(DataStack(_UNIT), part)
    effect = mean_matrix_test(DataStack(_UNIT + 1e4 * np.arange(6)), part)
    assert effect.trace_cov_sq == pytest.approx(base.trace_cov_sq, rel=1e-9)


@_cancellation
def test_chen_qin_z_does_not_see_a_common_shift():
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((10, 50)), rng.standard_normal((10, 50))
    base = chen_qin_two_sample(x, y)
    shifted = chen_qin_two_sample(x + 1e4, y + 1e4)
    assert shifted.statistic == pytest.approx(base.statistic, rel=1e-9)


@_cancellation
def test_identical_subjects_fail_for_every_seed():
    # no variance at all: the trace estimate is exactly 0 in exact arithmetic
    part = GroupPartition.from_sizes((2, 2))
    reported = []
    for seed in range(200):
        m = np.random.default_rng(seed).standard_normal((5, 4))
        res = mean_matrix_test(DataStack(np.stack([m] * 6)), part)
        if res.failure is None:
            reported.append(seed)
    assert reported == []
