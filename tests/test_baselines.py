import numpy as np
import pytest
from scipy import stats

from matmean.baselines import (
    _KW_BLOCK_VALUES,
    adjust_pvalues,
    anova_rowwise,
    chen_qin_two_sample,
    kruskal_rowwise,
    pairwise_cq_procedure,
)
from matmean.core import DataStack, GroupPartition
from matmean.engine import mean_matrix_test


def _group_samples(stack, partition, row):
    """Pooled per-group samples for one row: all subjects x group columns."""
    out = []
    for q in range(1, partition.n_groups + 1):
        cols = [b for b, gid in enumerate(partition.assignment) if gid == q]
        out.append(stack.values[:, row, cols].ravel())
    return out


def test_anova_matches_scipy_rowwise():
    rng = np.random.default_rng(51)
    stack = DataStack(rng.standard_normal((7, 9, 6)))
    part = GroupPartition.from_sizes((2, 2, 2))
    got = anova_rowwise(stack, part)
    assert got.shape == (9,)
    for row in range(9):
        _, p = stats.f_oneway(*_group_samples(stack, part, row))
        assert got[row] == pytest.approx(p, rel=1e-10)


def test_anova_flags_constant_row():
    rng = np.random.default_rng(52)
    vals = rng.standard_normal((5, 4, 6))
    vals[:, 2, :] = 3.25  # no within-group variance anywhere in row 2
    got = anova_rowwise(DataStack(vals), GroupPartition.from_sizes((3, 3)))
    assert got[2] == 1.0


def test_anova_zero_within_variance_beats_between_variance():
    # each group internally constant but groups differ: still flagged, p = 1
    rng = np.random.default_rng(53)
    vals = rng.standard_normal((5, 3, 4))
    vals[:, 1, :2] = 1.0
    vals[:, 1, 2:] = 5.0
    got = anova_rowwise(DataStack(vals), GroupPartition.from_sizes((2, 2)))
    assert got[1] == 1.0


def _anova_effect_case(seed):
    """(10, 50, 10) unit normal data with an effect of 0.8 on 25 rows x 5 columns."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((10, 50, 10))
    x[:, :25, 5:] += 0.8
    return x, GroupPartition(tuple(range(1, 11))), rng


def test_anova_p_is_invariant_to_shifting_rows():
    # the shifted data are rounded to the shift's precision: x + 1e6 keeps
    # about 10 of x's 16 digits, hence 1e-9
    for seed in range(20):
        x, part, rng = _anova_effect_case(seed)
        base = anova_rowwise(DataStack(x), part)
        assert base.max() < 1.0
        per_row = rng.uniform(-1.0, 1.0, size=(1, 50, 1))
        for shift in (1e4, 1e6):
            for y in (x + shift, x + shift * per_row):
                assert anova_rowwise(DataStack(y), part) == pytest.approx(base, rel=1e-9)


def test_anova_p_is_invariant_to_scaling():
    for seed in range(20):
        x, part, _ = _anova_effect_case(seed)
        base = anova_rowwise(DataStack(x), part)
        for scale in (1e-6, 1e-100, 1e100):
            assert anova_rowwise(DataStack(x * scale), part) == pytest.approx(base, rel=1e-12)


def test_anova_degenerate_floor_is_relative():
    # a constant row and a row of constant groups are degenerate at any scale
    vals = np.random.default_rng(57).standard_normal((5, 3, 4))
    vals[:, 1] = 0.1
    vals[:, 2, :2], vals[:, 2, 2:] = 1.0, 5.0
    part = GroupPartition.from_sizes((2, 2))
    base = anova_rowwise(DataStack(vals), part)
    assert base[0] < 1.0 and (base[1:] == 1.0).all()
    for scale in (1e-12, 1e12):
        got = anova_rowwise(DataStack(vals * scale), part)
        assert got[0] == pytest.approx(base[0], rel=1e-12) and (got[1:] == 1.0).all()


def test_kruskal_matches_scipy_rowwise():
    rng = np.random.default_rng(54)
    stack = DataStack(rng.standard_normal((6, 8, 6)))
    part = GroupPartition.from_sizes((3, 3))
    got = kruskal_rowwise(stack, part)
    for row in range(8):
        _, p = stats.kruskal(*_group_samples(stack, part, row))
        assert got[row] == pytest.approx(p, rel=1e-9)


def test_kruskal_matches_scipy_with_ties():
    rng = np.random.default_rng(55)
    vals = np.round(rng.standard_normal((6, 8, 6)) * 2) / 2  # heavy ties
    stack = DataStack(vals)
    part = GroupPartition.from_sizes((2, 2, 2))
    got = kruskal_rowwise(stack, part)
    for row in range(8):
        samples = _group_samples(stack, part, row)
        if all(np.ptp(np.concatenate(samples)) == 0 for _ in [0]):
            continue
        _, p = stats.kruskal(*samples)
        assert got[row] == pytest.approx(p, rel=1e-9), f"row {row}"


def test_kruskal_flags_all_tied_row():
    rng = np.random.default_rng(56)
    vals = rng.standard_normal((5, 3, 4))
    vals[:, 0, :] = 7.0
    got = kruskal_rowwise(DataStack(vals), GroupPartition.from_sizes((2, 2)))
    assert got[0] == 1.0


def _rowwise_layout(stack, partition):
    n, r, c = stack.values.shape
    indicator = np.zeros((c, partition.n_groups))
    indicator[np.arange(c), np.asarray(partition.assignment) - 1] = 1.0
    return n, r, c, indicator, n * np.asarray(partition.sizes, dtype=float)


def _anova_reference(stack, partition):
    """Row-wise F test with the scipy.stats tail, term by term as anova_rowwise."""
    n, r, c, indicator, counts = _rowwise_layout(stack, partition)
    vals, g, n_tot = stack.values, partition.n_groups, n * c
    resid = vals - vals.mean(axis=(0, 2), keepdims=True)
    ss_total = np.einsum("irc,irc->r", resid, resid)
    group_sum = resid.sum(axis=0) @ indicator
    ss_between = (group_sum * group_sum / counts).sum(axis=1)
    ss_within = ss_total - ss_between
    degenerate = ss_within <= 1e-10 * ss_total
    live = ~degenerate
    f = (ss_between[live] / (g - 1)) / (ss_within[live] / (n_tot - g))
    p = np.ones(r)
    p[live] = stats.f.sf(f, g - 1, n_tot - g)
    return p, tuple(np.flatnonzero(degenerate).tolist())


def _kruskal_reference(stack, partition):
    """Row-wise Kruskal-Wallis from stats.rankdata, np.unique and stats.chi2."""
    n, r, c, indicator, counts = _rowwise_layout(stack, partition)
    n_tot = n * c
    flat = stack.values.transpose(1, 0, 2).reshape(r, n_tot)
    rank_sum = stats.rankdata(flat, axis=1) @ np.tile(indicator, (n, 1))
    h = 12.0 / (n_tot * (n_tot + 1)) * (rank_sum * rank_sum / counts).sum(
        axis=1
    ) - 3.0 * (n_tot + 1)
    p = np.ones(r)
    all_tied = []
    for b in range(r):
        _, t = np.unique(flat[b], return_counts=True)
        if t.size == 1:
            all_tied.append(b)
            continue
        correction = 1.0 - float((t.astype(float) ** 3 - t).sum()) / (n_tot**3 - n_tot)
        p[b] = stats.chi2.sf(max(h[b] / correction, 0.0), partition.n_groups - 1)
    return p, tuple(all_tied)


def test_rowwise_baselines_equal_scipy_stats_exactly():
    rng = np.random.default_rng(65)
    vals = rng.standard_normal((5, 6, 6))
    vals[:, 1] = np.round(vals[:, 1] * 2) / 2  # tie-heavy
    vals[:, 2] = -1.75  # all tied
    vals[:, 3] = np.where(rng.uniform(size=(5, 6)) < 0.5, 0.0, -0.0)
    vals[:, 3, :2] = rng.standard_normal((5, 2))  # 0.0 and -0.0 tie
    vals[:, 5] = np.round(vals[:, 5])
    stack = DataStack(vals)
    big = DataStack(np.round(rng.standard_normal((10, 300, 10)) * 4))
    # two full Kruskal-Wallis row blocks and a remainder, with a
    # tie-heavy, an all-tied and a 0.0/-0.0 row in different blocks
    step = _KW_BLOCK_VALUES // 100
    blocks_rng = np.random.default_rng(66)
    multi = blocks_rng.standard_normal((10, 2 * step + step // 2 + 1, 10))
    multi[:, 0] = np.round(multi[:, 0] * 2) / 2
    multi[:, step] = 0.5
    multi[:, 2 * step] = np.where(blocks_rng.uniform(size=(10, 10)) < 0.5, 0.0, -0.0)
    multi[:, 2 * step, :2] = blocks_rng.standard_normal((10, 2))
    for st, part in (
        (stack, GroupPartition.from_sizes((2, 2, 2))),
        (stack, GroupPartition((1, 2, 1, 3, 2, 3))),
        (big, GroupPartition(tuple(range(1, 11)))),
        (DataStack(big.values + rng.standard_normal((10, 300, 10))),
         GroupPartition.from_sizes((5, 5))),
        # one row: reshaping its pooled values gives a view of the stack
        (DataStack(big.values[:, :1]), GroupPartition.from_sizes((4, 6))),
        (DataStack(multi), GroupPartition((1, 2, 3, 1, 2, 3, 1, 2, 3, 3))),
    ):
        for fn, reference in ((anova_rowwise, _anova_reference),
                              (kruskal_rowwise, _kruskal_reference)):
            got = fn(st, part)
            p, degenerate = reference(st, part)
            assert got.tobytes() == p.tobytes(), fn.__name__
            assert (got[list(degenerate)] == 1.0).all(), fn.__name__
    assert kruskal_rowwise(stack, GroupPartition.from_sizes((2, 2, 2)))[2] == 1.0


def test_pvalue_vector_validation():
    with pytest.raises(ValueError, match=r"in \[0, 1\]"):
        adjust_pvalues(np.array([0.5, 1.2]), "fdr")
    for bad in (-0.1, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            adjust_pvalues(np.array([0.5, bad]), "bonferroni")
    with pytest.raises(ValueError, match="1-d"):
        adjust_pvalues(np.array([[0.5]]), "fdr")
    # the input is not written to
    p = np.array([0.7, 0.1])
    adjust_pvalues(p, "fdr")
    assert p.tolist() == [0.7, 0.1]


def test_adjust_requires_raw_input():
    # the input is always raw p-values: the method names an adjustment,
    # and "raw" is not one
    with pytest.raises(ValueError, match="'fdr' or 'bonferroni'"):
        adjust_pvalues(np.array([0.5]), "hochberg")
    with pytest.raises(ValueError, match="'fdr' or 'bonferroni'"):
        adjust_pvalues(np.array([0.5]), "raw")


def test_bonferroni_hand_values():
    adj = adjust_pvalues(np.array([0.01, 0.4, 0.9]), "bonferroni")
    assert np.allclose(adj, [0.03, 1.0, 1.0])


def test_bh_hand_values():
    # worked example: sorted p * m / rank, then running min from the right
    raw = np.array([0.04, 0.005, 0.02, 0.011, 0.05])
    adj = adjust_pvalues(raw, "fdr")
    expected = {
        0.005: 0.025,       # 0.005 * 5/1
        0.011: 0.0275,      # 0.011 * 5/2
        0.02: 0.03333333333333333,  # 0.02 * 5/3
        0.04: 0.05,         # 0.04 * 5/4 = 0.05, min with rank-5 value 0.05
        0.05: 0.05,
    }
    for p, e in expected.items():
        k = int(np.where(raw == p)[0][0])
        assert adj[k] == pytest.approx(e, rel=1e-12)


def test_bh_never_exceeds_bonferroni_and_preserves_order():
    rng = np.random.default_rng(57)
    p = rng.uniform(size=40)
    bh = adjust_pvalues(p, "fdr")
    bon = adjust_pvalues(p, "bonferroni")
    assert (bh <= bon + 1e-15).all()
    order = np.argsort(p)
    assert (np.diff(bh[order]) >= -1e-15).all(), "BH must be monotone in p"


def test_adjust_pvalues_leaves_failed_tests_out_of_the_family():
    rng = np.random.default_rng(67)
    live = rng.uniform(size=12) * 0.1
    p = np.full(17, np.nan)
    at = np.sort(rng.choice(17, size=12, replace=False))
    p[at] = live
    for method in ("fdr", "bonferroni"):
        adj = adjust_pvalues(p, method)
        assert np.isnan(np.delete(adj, at)).all(), method
        # the same bits as adjusting only the tests that ran
        assert adj[at].tobytes() == adjust_pvalues(live, method).tobytes(), method
    # nothing ran: nothing to adjust
    assert np.isnan(adjust_pvalues(np.full(3, np.nan), "fdr")).all()
    assert adjust_pvalues(np.array([]), "bonferroni").shape == (0,)


def test_adjust_pvalues_family_sets_the_count():
    p = np.array([0.01, np.nan, 0.02, np.nan])
    # Bonferroni over every attempted test, failed ones included
    bon = adjust_pvalues(p, "bonferroni", family=4)
    assert bon[[0, 2]].tolist() == [0.04, 0.08] and np.isnan(bon[[1, 3]]).all()
    assert adjust_pvalues(p, "bonferroni")[[0, 2]].tolist() == [0.02, 0.04]
    assert adjust_pvalues(np.array([0.25, 0.5]), "bonferroni", family=3).tolist() == [0.75, 1.0]
    # BH: rank k of the tests that ran, scaled by family / k
    assert adjust_pvalues(p, "fdr", family=4)[[0, 2]].tolist() == [0.04, 0.04]


def _brute_cross_trace(c):
    """Quadruple-loop version of the cross-product trace estimator."""
    n1, n2 = c.shape
    t1 = t2a = t2b = t3 = 0.0
    for i in range(n1):
        for j in range(n2):
            t1 += c[i, j] ** 2
            for k in range(n1):
                if k != i:
                    t2a += c[i, j] * c[k, j]
            for l in range(n2):
                if l != j:
                    t2b += c[i, j] * c[i, l]
            for k in range(n1):
                for l in range(n2):
                    if k != i and l != j:
                        t3 += c[i, j] * c[k, l]
    return (t1 / (n1 * n2)
            - t2a / (n1 * (n1 - 1) * n2)
            - t2b / (n1 * n2 * (n2 - 1))
            + t3 / (n1 * (n1 - 1) * n2 * (n2 - 1)))


def test_chen_qin_matches_loop_oracle():
    rng = np.random.default_rng(58)
    x = rng.standard_normal((5, 7))
    y = rng.standard_normal((6, 7)) + 0.3
    res = chen_qin_two_sample(x, y)
    n1, n2 = 5, 6
    gx, gy, c = x @ x.T, y @ y.T, x @ y.T
    off = lambda g: (g.sum() - np.trace(g)) / (g.shape[0] * (g.shape[0] - 1))
    loc = off(gx) + off(gy) - 2.0 * c.mean()
    assert res.deviation_est == pytest.approx(loc, rel=1e-10)

    from matmean.engine import trace_cov_sq_fast
    tr_x = trace_cov_sq_fast(gx)
    tr_y = trace_cov_sq_fast(gy)
    tr_xy = _brute_cross_trace(c)
    var = (2.0 / (n1 * (n1 - 1)) * tr_x
           + 2.0 / (n2 * (n2 - 1)) * tr_y
           + 4.0 / (n1 * n2) * tr_xy)
    assert res.trace_cov_sq == pytest.approx(var, rel=1e-10)
    assert res.statistic == pytest.approx(loc / np.sqrt(var), rel=1e-10)
    assert res.p_value == pytest.approx(stats.norm.sf(res.statistic), rel=1e-10)


def test_chen_qin_detects_mean_shift():
    rng = np.random.default_rng(59)
    x = rng.standard_normal((12, 40))
    y = rng.standard_normal((12, 40)) + 0.9
    assert chen_qin_two_sample(x, y).reject
    x2 = rng.standard_normal((12, 40))
    y2 = rng.standard_normal((12, 40))
    res = chen_qin_two_sample(x2, y2)
    assert res.ok  # usable result on null data


def test_chen_qin_overflow_reports_failure():
    # squared cross-gram entries overflow: a failure, never a NaN result
    rng = np.random.default_rng(64)
    res = chen_qin_two_sample(rng.standard_normal((6, 5)) * 1e160,
                              rng.standard_normal((6, 5)) * 1e160)
    assert not res.ok and "non-finite" in res.failure
    assert np.isnan(res.statistic) and res.reject is None
    summary = pairwise_cq_procedure(DataStack(rng.standard_normal((6, 5, 3)) * 1e160))
    assert summary.failed_pairs == (0, 1, 2) and summary.reject is None


@pytest.mark.filterwarnings("error")
def test_overflow_gives_failure_without_warnings():
    # the failure string is the one report of an overflow; numpy's
    # RuntimeWarnings would repeat it on stderr
    rng = np.random.default_rng(66)
    for scale in (1e100, 1e160):  # squared gram entries, then the gram itself
        huge = DataStack(rng.standard_normal((8, 6, 4)) * scale)
        res = mean_matrix_test(huge, GroupPartition.from_sizes((2, 2)))
        assert res.failure == "non-finite estimate (floating-point overflow)"
    res = chen_qin_two_sample(rng.standard_normal((6, 5)) * 1e160,
                              rng.standard_normal((6, 5)) * 1e160)
    assert res.failure == "non-finite estimate (floating-point overflow)"
    summary = pairwise_cq_procedure(DataStack(rng.standard_normal((6, 5, 3)) * 1e160))
    assert summary.failure == "every pair test failed"


def test_chen_qin_input_validation():
    rng = np.random.default_rng(60)
    with pytest.raises(ValueError):
        chen_qin_two_sample(rng.standard_normal((3, 5)), rng.standard_normal((6, 5)))
    with pytest.raises(ValueError):
        chen_qin_two_sample(rng.standard_normal((5, 5)), rng.standard_normal((6, 4)))


_STACK = DataStack(np.random.default_rng(64).standard_normal((6, 4, 4)))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: anova_rowwise(_STACK, GroupPartition.from_sizes((2, 2, 2))),
                 "partition covers 6 columns, stack has 4", id="partition-width"),
    pytest.param(lambda: kruskal_rowwise(_STACK, GroupPartition.from_sizes((4,))),
                 "row-wise tests need at least 2 column groups", id="one-group"),
    pytest.param(lambda: anova_rowwise(DataStack(_STACK.values[:1]),
                                       GroupPartition.from_sizes((2, 2))),
                 "pooling needs at least 2 subjects per column", id="one-subject"),
    pytest.param(lambda: chen_qin_two_sample(np.full((6, 5), np.nan), np.zeros((6, 5))),
                 "group data contain non-finite values", id="cq-finite"),
    pytest.param(lambda: chen_qin_two_sample(np.ones((3, 5)), np.ones((6, 5))),
                 "each group needs at least 4 vectors", id="cq-group-size"),
    pytest.param(lambda: pairwise_cq_procedure(DataStack(_STACK.values[:3])),
                 "pairwise scan needs at least 4 subjects", id="pairwise-subjects"),
])
def test_invalid_baseline_input_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_pairwise_cq_pairs_and_adjustment():
    rng = np.random.default_rng(61)
    stack = DataStack(rng.standard_normal((8, 20, 3)))
    summary = pairwise_cq_procedure(stack)
    assert summary.pairs == ((0, 1), (0, 2), (1, 2))
    # adjusted = raw times the number of pairs, clipped at 1
    for p_raw, p_adj in zip(summary.p_values, summary.adjusted):
        assert p_adj == pytest.approx(min(1.0, p_raw * 3), rel=1e-12)
    # each pair test equals the two-sample test on those column slices
    for (a, b), p_raw in zip(summary.pairs, summary.p_values):
        direct = chen_qin_two_sample(stack.values[:, :, a], stack.values[:, :, b])
        assert p_raw == pytest.approx(direct.p_value, rel=1e-10)
    assert summary.reject == any(a < summary.alpha for a in summary.adjusted)


def test_pairwise_cq_flags_column_shift():
    rng = np.random.default_rng(62)
    vals = rng.standard_normal((10, 30, 4))
    vals[:, :, 3] += 1.5
    summary = pairwise_cq_procedure(DataStack(vals))
    assert summary.reject and summary.ok


def test_pairwise_cq_validation():
    rng = np.random.default_rng(63)
    with pytest.raises(ValueError):
        pairwise_cq_procedure(DataStack(rng.standard_normal((3, 10, 4))))
    with pytest.raises(ValueError):
        pairwise_cq_procedure(DataStack(rng.standard_normal((8, 10, 1))))
