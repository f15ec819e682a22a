import dataclasses

import numpy as np
import pytest

import matmean.simulate as simulate
from matmean.core import DataStack, GroupPartition
from matmean.covariance import (
    Ar1Factor,
    BlockDiagonalCovariance,
    CompoundCovariance,
    CompoundFactor,
    DenseCovariance,
    DenseFactor,
    IdentityCovariance,
    KroneckerCovariance,
    covariance_from_dict,
    sqrt_factor,
)
from matmean.simulate import (
    MultiplicativeMean,
    NoiseScenario,
    RightBlockMean,
    SimConfig,
    SparseMean,
    ZeroMean,
    gen_noise,
    gen_stack,
    mean_from_dict,
    monte_carlo,
    replicate_rng,
)

# ---------------------------------------------------------------------------
# covariance builders


def test_ar1_root_multiplies_back():
    f = Ar1Factor(3, 0.5)
    target = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
    assert np.allclose(f.build(), target, atol=1e-12)
    # Identity column factor and identity input expose the row root itself.
    cov = KroneckerCovariance(f, DenseFactor(np.eye(3)))
    root = sqrt_factor(cov, 3, 3).apply(np.eye(3)[None, :, :])[0]
    assert np.allclose(root @ root, target, atol=1e-10)


def test_compound_factor_form():
    f = CompoundFactor(4)
    expected = 0.5 * (np.eye(4) + np.ones((4, 4)))
    assert np.allclose(f.build(), expected, atol=1e-12)
    cov = KroneckerCovariance(DenseFactor(np.eye(4)), f)
    root = sqrt_factor(cov, 4, 4).apply(np.eye(4)[None, :, :])[0]
    assert np.allclose(root @ root, expected, atol=1e-10)


def test_dense_factor_rejects_non_spd():
    singular = DenseFactor(np.ones((3, 3)))
    cov = KroneckerCovariance(singular, DenseFactor(np.eye(2)))
    with pytest.raises(ValueError, match="positive definite"):
        sqrt_factor(cov, 3, 2)
    asym = np.array([[1.0, 0.2], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        DenseFactor(asym)


def test_identity_covariance_is_a_noop():
    rng = np.random.default_rng(71)
    cov = IdentityCovariance()
    root = cov.root(5, 3)
    z = rng.standard_normal((4, 5, 3))
    assert np.array_equal(root.apply(z), z)


def test_compound_covariance_materialize_and_root_agree():
    rng = np.random.default_rng(72)
    cov = CompoundCovariance(rho=0.3)
    r, c = 4, 3
    dense = cov.materialize(r, c)
    assert np.allclose(dense, 0.7 * np.eye(12) + 0.3 * np.ones((12, 12)))
    # root.apply must equal multiplying vec(Z) by the symmetric square root
    evals, evecs = np.linalg.eigh(dense)
    dense_root = evecs @ np.diag(np.sqrt(evals)) @ evecs.T
    z = rng.standard_normal((6, r, c))
    fast = cov.root(r, c).apply(z)
    for i in range(6):
        direct = (dense_root @ z[i].ravel(order="F")).reshape((c, r)).T
        assert np.allclose(fast[i], direct, atol=1e-10)
    with pytest.raises(ValueError):
        CompoundCovariance(rho=1.0).check_dims(4, 3)


def test_block_diagonal_root_matches_dense_root():
    rng = np.random.default_rng(73)
    r, c = 4, 3
    cov = BlockDiagonalCovariance((Ar1Factor(r, 0.5), Ar1Factor(r, 0.4), CompoundFactor(r)))
    dense = cov.materialize(r, c)
    evals, evecs = np.linalg.eigh(dense)
    dense_root = evecs @ np.diag(np.sqrt(evals)) @ evecs.T
    z = rng.standard_normal((5, r, c))
    fast = cov.root(r, c).apply(z)
    for i in range(5):
        direct = (dense_root @ z[i].ravel(order="F")).reshape((c, r)).T
        assert np.allclose(fast[i], direct, atol=1e-10)
    with pytest.raises(ValueError):
        cov.check_dims(r, 4)  # needs one block per column


def test_kronecker_sample_covariance_monte_carlo():
    # empirical covariance of vec(X) within 4 SE of the Kronecker product
    rng = np.random.default_rng(74)
    r, c, reps = 4, 3, 5000
    cov = KroneckerCovariance(Ar1Factor(r, 0.6), CompoundFactor(c))
    target = np.kron(CompoundFactor(c).build(), Ar1Factor(r, 0.6).build())
    root = cov.root(r, c)
    z = rng.standard_normal((reps, r, c))
    x = root.apply(z)
    flat = x.reshape(reps, -1, order="F") if False else np.array(
        [x[i].ravel(order="F") for i in range(reps)]
    )
    emp = np.cov(flat.T, bias=False)
    # SE of a covariance entry is roughly sqrt((s_ii s_jj + s_ij^2) / n)
    d = np.diag(target)
    se = np.sqrt((np.outer(d, d) + target ** 2) / reps)
    assert (np.abs(emp - target) <= 4.0 * se).all()


def test_kronecker_identity_agreement():
    # AR with rho 0 is the identity; the kronecker path must then be a no-op
    rng = np.random.default_rng(75)
    cov = KroneckerCovariance(Ar1Factor(4, 0.0), CompoundFactor(3))
    ident_col = KroneckerCovariance(Ar1Factor(4, 0.0), DenseFactor(np.eye(3)))
    z = rng.standard_normal((2, 4, 3))
    assert np.allclose(ident_col.root(4, 3).apply(z), z, atol=1e-10)
    assert cov.materialize(4, 3) == pytest.approx(
        np.kron(0.5 * (np.eye(3) + np.ones((3, 3))), np.eye(4)), abs=1e-10
    )


def test_covariance_dict_round_trips():
    specs = [
        IdentityCovariance(),
        CompoundCovariance(rho=0.25),
        KroneckerCovariance(Ar1Factor(5, 0.85), CompoundFactor(3)),
        BlockDiagonalCovariance((Ar1Factor(2, 0.5), Ar1Factor(2, 0.4))),
        DenseCovariance(np.eye(6) * 2.0),
    ]
    for spec in specs:
        back = covariance_from_dict(spec.to_dict())
        if isinstance(spec, DenseCovariance):
            assert np.allclose(back.values, spec.values)
        else:
            assert back == spec
    with pytest.raises(ValueError):
        covariance_from_dict({"kind": "mystery"})


# ---------------------------------------------------------------------------
# noise scenarios


def test_scenario_tags():
    assert NoiseScenario.from_tag("gamma").tag == "gamma"
    with pytest.raises(ValueError):
        NoiseScenario("uniform")


@pytest.mark.parametrize("tag", ["normal", "gamma", "mixture"])
def test_scenario_moments_standardized(tag):
    rng = np.random.default_rng(76)
    draws = gen_noise(NoiseScenario(tag), 100, 10, rng)
    for _ in range(99):
        draws = np.concatenate(
            [draws.ravel(), gen_noise(NoiseScenario(tag), 100, 10, rng).ravel()]
        )
    z = draws.ravel()  # 1e5 entries
    n = z.size
    assert n == 100_000
    mean_se = z.std(ddof=1) / np.sqrt(n)
    assert abs(z.mean()) <= 4 * mean_se
    sq = z ** 2
    var_se = sq.std(ddof=1) / np.sqrt(n)
    assert abs(sq.mean() - 1.0) <= 4 * var_se


def test_gamma_scenario_skewness():
    # shape-4 gamma standardized: skewness 2/sqrt(4) = 1
    rng = np.random.default_rng(77)
    z = gen_noise(NoiseScenario("gamma"), 1000, 1000, rng).ravel()
    skew = ((z - z.mean()) ** 3).mean() / z.std() ** 3
    assert skew == pytest.approx(1.0, abs=0.02)
    assert z.min() >= -2.0  # support is bounded below at -mean/sd = -2


def test_normal_scenario_excess_kurtosis():
    rng = np.random.default_rng(78)
    z = gen_noise(NoiseScenario("normal"), 1000, 100, rng).ravel()
    kurt = ((z - z.mean()) ** 4).mean() / z.var() ** 2 - 3.0
    se = np.sqrt(24.0 / z.size)
    assert abs(kurt) <= 4 * se


def test_mixture_splits_rows_at_half():
    # odd row count: the first floor(r/2) rows are the symmetric part
    rng = np.random.default_rng(79)
    r = 101
    z = np.concatenate(
        [gen_noise(NoiseScenario("mixture"), r, 40, rng) for _ in range(60)], axis=1
    )
    top, bottom = z[: r // 2].ravel(), z[r // 2 :].ravel()
    skew = lambda v: ((v - v.mean()) ** 3).mean() / v.std() ** 3
    assert abs(skew(top)) < 0.05
    assert skew(bottom) == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("tag", ["normal", "gamma", "mixture"])
def test_noise_batch_matches_whole_array_draws(tag):
    # the fixed draw order: one (n, top, c) normal draw, then one
    # (n, r - top, c) gamma draw, standardized
    n, r, c = 3, 7, 5
    top = {"normal": r, "gamma": 0, "mixture": r // 2}[tag]
    ref = replicate_rng(4, 2)
    want = np.concatenate([
        ref.standard_normal((n, top, c)),
        (ref.gamma(4.0, 2.0, size=(n, r - top, c)) - 8.0) / 4.0,
    ], axis=1)
    rng = replicate_rng(4, 2)
    got = simulate._noise_batch(NoiseScenario(tag), n, r, c, rng)
    assert np.array_equal(got, want)
    assert rng.random() == ref.random()  # both streams end at the same place


def test_noise_is_deterministic_per_seed():
    a = gen_noise(NoiseScenario("mixture"), 30, 7, np.random.default_rng(80))
    b = gen_noise(NoiseScenario("mixture"), 30, 7, np.random.default_rng(80))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# mean specs and calibration


def _ratio(m, r, c):
    return float((m * m).sum()) / np.sqrt(r * (c - 1))


def test_right_block_hand_solved_scale():
    m = RightBlockMean(zero_cols=7, effect_cols=3, target=0.1).build(100, 10, None)
    assert m.shape == (100, 10)
    assert np.allclose(m[:, :7], 0.0)
    # closed form: t = sqrt(0.1 * sqrt(100 * 9) / 300) = 0.1
    assert np.allclose(m[:, 7:], 0.1, atol=1e-12)
    assert _ratio(m, 100, 10) == pytest.approx(0.1, abs=1e-9)


def test_zero_mean_builds_zero():
    m = ZeroMean().build(6, 4, None)
    assert m.shape == (6, 4) and not m.any()


@pytest.mark.parametrize(
    "fraction,r,expected",
    [(0.99, 1000, 10), (0.95, 1000, 50), (0.75, 100, 25),
     (0.5, 1000, 500), (0.25, 1000, 750), (0.0, 1000, 1000)],
)
def test_sparse_nonzero_counts(fraction, r, expected):
    spec = SparseMean(zero_fraction=fraction, allocation="equal", target=0.15)
    assert spec.nonzero_count(r) == expected


def test_sparse_equal_allocation_layout_and_ratio():
    spec = SparseMean(zero_fraction=0.75, allocation="equal", target=0.15)
    m = spec.build(100, 10, None)
    col = m[:, -1]
    assert np.allclose(m[:, :-1], 0.0), "effect lives in the last column"
    assert np.allclose(col[:75], 0.0)
    nz = col[75:]
    assert np.allclose(nz, nz[0]) and nz[0] > 0
    assert _ratio(m, 100, 10) == pytest.approx(0.15, abs=1e-9)


def test_sparse_linear_allocation_is_proportional_to_rank():
    spec = SparseMean(zero_fraction=0.5, allocation="linear", target=0.15)
    m = spec.build(10, 4, None)
    nz = m[5:, -1]
    # linearly increasing: entries proportional to 1..5
    assert np.allclose(nz / nz[0], np.arange(1, 6), atol=1e-9)
    assert _ratio(m, 10, 4) == pytest.approx(0.15, abs=1e-9)


def test_sparse_all_zero_with_positive_target_errors():
    with pytest.raises(ValueError, match="zero_fraction"):
        SparseMean(zero_fraction=1.0, allocation="equal", target=0.15)


def test_multiplicative_layout():
    m = MultiplicativeMean(1.15).build(50, 10, None)
    assert np.allclose(m[:, :9], 1.0)
    assert np.allclose(m[:, 9:], 1.15)
    m2 = MultiplicativeMean(1.15).build(20, 100, None)
    assert np.allclose(m2[:, :90], 1.0) and np.allclose(m2[:, 90:], 1.15)


def test_sigma_normalized_calibration():
    sigma = KroneckerCovariance(Ar1Factor(6, 0.85), CompoundFactor(4))
    spec = RightBlockMean(zero_cols=3, effect_cols=1, target=0.1, denominator="sigma")
    m = spec.build(6, 4, sigma)
    s1 = Ar1Factor(6, 0.85).build()
    s2 = CompoundFactor(4).build()
    denom = np.sqrt(np.trace(s1 @ s1) * np.trace(s2 @ s2))
    assert float((m * m).sum()) / denom == pytest.approx(0.1, abs=1e-9)
    with pytest.raises(ValueError):
        spec.build(6, 4, IdentityCovariance())  # needs the two-factor form


def test_calibrate_mean_dispatch_and_dict_round_trip():
    specs = [
        ZeroMean(),
        RightBlockMean(zero_cols=7, effect_cols=3, target=0.1),
        SparseMean(zero_fraction=0.5, allocation="linear", target=0.15),
        MultiplicativeMean(1.15),
    ]
    for spec in specs:
        m = spec.build(20, 10, None)
        assert m.shape == (20, 10)
        assert mean_from_dict(spec.to_dict()) == spec
    with pytest.raises(ValueError):
        mean_from_dict({"kind": "surprise"})


# ---------------------------------------------------------------------------
# stack generation


def _config(**kw):
    base = dict(
        n_subjects=8,
        n_rows=12,
        n_cols=4,
        scenario=NoiseScenario("normal"),
        covariance=IdentityCovariance(),
        mean=ZeroMean(),
        partition=GroupPartition.from_sizes((2, 2)),
        replicates=150,
        seed=5,
        methods=("proposed",),
    )
    base.update(kw)
    return SimConfig(**base)


def test_gen_stack_identity_equals_noise_plus_mean():
    cfg = _config(mean=RightBlockMean(zero_cols=2, effect_cols=2, target=0.2))
    m = cfg.mean.build(12, 4, cfg.covariance)
    stack = gen_stack(cfg, np.random.default_rng(81))
    rng = np.random.default_rng(81)
    z = np.stack([gen_noise(cfg.scenario, 12, 4, rng) for _ in range(8)])
    assert np.allclose(stack.values, z + m, atol=1e-12)


_ROOT_COVARIANCES = [
    IdentityCovariance(),
    KroneckerCovariance(Ar1Factor(6, 0.5), CompoundFactor(4)),
    BlockDiagonalCovariance(tuple(Ar1Factor(6, 0.3) for _ in range(4))),
    DenseCovariance(0.7 * np.eye(24) + 0.3 * np.ones((24, 24))),
    CompoundCovariance(rho=0.2),
]


@pytest.mark.parametrize("covariance", _ROOT_COVARIANCES, ids=lambda cov: cov.to_dict()["kind"])
def test_gen_stack_returns_read_only_c_ordered_stack(covariance):
    # block and compound roots work in the column-major vec layout; the
    # stack must still hold one C-ordered array with the values of root(z) + mean
    cfg = _config(n_rows=6, covariance=covariance,
                  mean=RightBlockMean(zero_cols=2, effect_cols=2, target=0.2))
    stack = gen_stack(cfg, np.random.default_rng(84))
    z = simulate._noise_batch(cfg.scenario, 8, 6, 4, np.random.default_rng(84))
    expected = sqrt_factor(covariance, 6, 4).apply(z) + cfg.mean.build(6, 4, covariance)
    assert stack.values.flags.c_contiguous and not stack.values.flags.writeable
    assert stack.values.tobytes() == np.ascontiguousarray(expected).tobytes()


@pytest.mark.parametrize("covariance", _ROOT_COVARIANCES, ids=lambda cov: cov.to_dict()["kind"])
def test_root_apply_into_out_and_scratch_equals_fresh_apply(covariance):
    root = sqrt_factor(covariance, 6, 4)
    z = np.random.default_rng(86).standard_normal((8, 6, 4))
    fresh = root.apply(z.copy())
    scratch = [np.full(z.size, np.nan) for _ in range(root.scratch_count)]
    into = np.full(z.shape, np.nan)
    assert root.apply(z.copy(), out=into, scratch=scratch) is into
    over = z.copy()
    assert root.apply(over, out=over, scratch=scratch) is over
    for got in (into, over):
        assert got.tobytes() == np.ascontiguousarray(fresh).tobytes()


@pytest.mark.parametrize("scenario", ["normal", "gamma", "mixture"])
@pytest.mark.parametrize("covariance", _ROOT_COVARIANCES, ids=lambda cov: cov.to_dict()["kind"])
def test_gen_stack_with_reused_buffers_equals_fresh_stacks(covariance, scenario):
    cfg = _config(n_rows=6, covariance=covariance, scenario=NoiseScenario(scenario),
                  mean=RightBlockMean(zero_cols=2, effect_cols=2, target=0.2))
    root = sqrt_factor(covariance, 6, 4)
    mean = cfg.mean.build(6, 4, covariance)
    buffers = simulate.stack_buffers(cfg, root)
    assert len(buffers) == 1 + root.scratch_count
    assert all(b.size == 8 * 6 * 4 for b in buffers)
    for k in range(4):
        reused = gen_stack(cfg, replicate_rng(3, k), root=root, mean=mean, buffers=buffers)
        fresh = gen_stack(cfg, replicate_rng(3, k))
        assert np.shares_memory(reused.values, buffers[0])
        assert not reused.values.flags.writeable and buffers[0].flags.writeable
        assert reused.values.tobytes() == fresh.values.tobytes()


@pytest.mark.parametrize("covariance", _ROOT_COVARIANCES, ids=lambda cov: cov.to_dict()["kind"])
def test_gen_stack_without_buffers_returns_stacks_of_their_own(covariance):
    cfg = _config(n_rows=6, covariance=covariance)
    root = sqrt_factor(covariance, 6, 4)
    a = gen_stack(cfg, np.random.default_rng(85), root=root)
    b = gen_stack(cfg, np.random.default_rng(85), root=root)
    assert not a.values.flags.writeable and not b.values.flags.writeable
    assert not np.shares_memory(a.values, b.values)
    assert a.values.tobytes() == b.values.tobytes()


def test_gen_stack_mean_recovery():
    mean_spec = RightBlockMean(zero_cols=2, effect_cols=2, target=1.0)
    cfg = _config(mean=mean_spec, covariance=CompoundCovariance(rho=0.2))
    m = mean_spec.build(12, 4, cfg.covariance)
    rng = np.random.default_rng(82)
    total = np.zeros((12, 4))
    reps = 400
    for _ in range(reps):
        total += gen_stack(cfg, rng).values.mean(axis=0)
    avg = total / reps
    se = 1.0 / np.sqrt(reps * cfg.n_subjects)  # unit-variance entries
    assert (np.abs(avg - m) <= 4 * se).all()


def test_gen_stack_blockwise_column_autocorrelation():
    r = 60
    cov = BlockDiagonalCovariance((Ar1Factor(r, 0.5), Ar1Factor(r, 0.4)))
    cfg = _config(
        n_rows=r, n_cols=2, covariance=cov,
        partition=GroupPartition.from_sizes((2,)),
    )
    rng = np.random.default_rng(83)
    acc = np.zeros(2)
    reps = 400
    for _ in range(reps):
        x = gen_stack(cfg, rng).values  # (8, r, 2)
        for b in range(2):
            col = x[:, :, b]
            num = (col[:, 1:] * col[:, :-1]).mean()
            den = (col * col).mean()
            acc[b] += num / den
    acc /= reps
    assert acc[0] == pytest.approx(0.5, abs=0.05)
    assert acc[1] == pytest.approx(0.4, abs=0.05)


# ---------------------------------------------------------------------------
# config and harness


def test_sim_config_validation():
    with pytest.raises(ValueError):
        _config(methods=("proposed", "proposed"))
    with pytest.raises(ValueError):
        _config(methods=("anova", "magic"))
    with pytest.raises(ValueError):
        _config(partition=GroupPartition.from_sizes((2, 3)))
    with pytest.raises(ValueError):
        _config(replicates=0)
    with pytest.raises(ValueError):
        _config(seed=-1)
    with pytest.raises(ValueError):
        _config(alpha=1.5)


def test_sim_config_outcome_names():
    cfg = _config(methods=("proposed", "anova", "kw", "cq"))
    assert cfg.outcome_names() == (
        "proposed", "anova_fdr", "anova_bon", "kw_fdr", "kw_bon", "cq_bon"
    )


def test_sim_config_dict_round_trip():
    cfg = _config(
        scenario=NoiseScenario("mixture"),
        covariance=KroneckerCovariance(Ar1Factor(12, 0.85), CompoundFactor(4)),
        mean=SparseMean(zero_fraction=0.5, allocation="linear", target=0.15),
        methods=("proposed", "anova"),
    )
    back = SimConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_replicate_rng_streams():
    a = replicate_rng(9, 4).standard_normal(5)
    b = replicate_rng(9, 4).standard_normal(5)
    c = replicate_rng(9, 5).standard_normal(5)
    d = replicate_rng(10, 4).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_monte_carlo_deterministic_across_worker_counts():
    cfg = _config(methods=("proposed", "anova"))
    rep1 = monte_carlo(cfg, workers=1)
    rep3 = monte_carlo(cfg, workers=3)
    for name in cfg.outcome_names():
        o1, o3 = rep1.outcome(name), rep3.outcome(name)
        assert (o1.rejections, o1.valid, o1.errors) == (o3.rejections, o3.valid, o3.errors)


def test_monte_carlo_minimum_replicates():
    with pytest.raises(ValueError, match="replicates"):
        monte_carlo(_config(replicates=99))


def test_monte_carlo_null_size_sane():
    cfg = _config(
        n_subjects=12, n_rows=15, n_cols=4, replicates=300, seed=17,
        methods=("proposed",),
    )
    rep = monte_carlo(cfg, workers=2)
    out = rep.outcome("proposed")
    assert out.errors == 0
    assert 0.01 <= out.proportion <= 0.11


def test_monte_carlo_failures_tallied_per_column(monkeypatch):
    cfg = _config(methods=("proposed", "anova"), replicates=200)
    clean = monte_carlo(cfg, workers=1)
    real = simulate.anova_rowwise
    calls = []

    def flaky(stack, partition):
        calls.append(None)
        if len(calls) == 37:  # one replicate of the serial run
            raise ValueError("injected failure")
        return real(stack, partition)

    monkeypatch.setattr(simulate, "anova_rowwise", flaky)
    rep = monte_carlo(cfg, workers=1)
    for name in ("anova_fdr", "anova_bon"):
        out = rep.outcome(name)
        assert (out.errors, out.valid) == (1, 199)
        assert out.rejections <= clean.outcome(name).rejections
    assert rep.outcome("proposed") == clean.outcome("proposed")

    def broken(stack, partition):
        raise ValueError("injected failure")

    monkeypatch.setattr(simulate, "anova_rowwise", broken)
    with pytest.raises(RuntimeError, match="'anova_fdr' failed on 200 of 200"):
        monte_carlo(cfg, workers=1)


def test_rejection_report_serialization():
    cfg = _config(methods=("proposed", "kw"))
    rep = monte_carlo(cfg, workers=2)
    d = rep.to_dict()
    assert d["replicates"] == 150
    assert "elapsed_seconds" in d
    csv = rep.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "method,rejections,valid,errors,proportion,std_error"
    assert lines[0].split(",") == list(rep.outcomes[0].to_dict())
    assert len(lines) == 1 + len(cfg.outcome_names())
    assert "elapsed" not in csv
    # float fields use repr, so the CSV round-trips exactly
    first = lines[1].split(",")
    assert float(first[4]) == rep.outcome(lines[1].split(",")[0]).proportion
    with pytest.raises(KeyError):
        rep.outcome("nope")
