import dataclasses
import json
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import matmean.simulate as simulate
from matmean.core import DataStack, GroupPartition, _spec_from_dict
from matmean.covariance import (
    Ar1Factor,
    BlockDiagonalCovariance,
    CompoundCovariance,
    CompoundFactor,
    DenseCovariance,
    DenseFactor,
    IdentityCovariance,
    KroneckerCovariance,
    _Covariance,
    _Factor,
    sqrt_factor,
)
from matmean.simulate import (
    MultiplicativeMean,
    NoiseScenario,
    RightBlockMean,
    SimConfig,
    SparseMean,
    ZeroMean,
    _Mean,
    gen_stack,
    monte_carlo,
    replicate_rng,
)

# ---------------------------------------------------------------------------
# covariance builders


def _applied(root, z):
    """``root`` applied to a copy of ``z``, in scratch arrays of its own."""
    return root.apply(z.copy(), [np.empty(z.size) for _ in range(root.scratch_count)])


def _noise(scenario, shape, rng):
    return simulate._noise_batch(scenario, rng, np.empty(shape))


def test_ar1_root_multiplies_back():
    f = Ar1Factor(3, 0.5)
    target = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
    assert np.allclose(f.build(), target, atol=1e-12)
    # Identity column factor and identity input expose the row root itself.
    cov = KroneckerCovariance(f, DenseFactor(np.eye(3)))
    root = _applied(sqrt_factor(cov, 3, 3), np.eye(3)[None, :, :])[0]
    assert np.allclose(root @ root, target, atol=1e-10)


def test_compound_factor_form():
    f = CompoundFactor(4)
    expected = 0.5 * (np.eye(4) + np.ones((4, 4)))
    assert np.allclose(f.build(), expected, atol=1e-12)
    cov = KroneckerCovariance(DenseFactor(np.eye(4)), f)
    root = _applied(sqrt_factor(cov, 4, 4), np.eye(4)[None, :, :])[0]
    assert np.allclose(root @ root, expected, atol=1e-10)


def test_dense_factor_rejects_non_spd():
    singular = DenseFactor(np.ones((3, 3)))
    cov = KroneckerCovariance(singular, DenseFactor(np.eye(2)))
    with pytest.raises(ValueError, match="positive definite"):
        sqrt_factor(cov, 3, 2)
    asym = np.array([[1.0, 0.2], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        DenseFactor(asym)


def test_factor_matrix_over_the_size_cap_is_refused_on_construction():
    # 10_001 ** 2 entries is just over MAX_STACK_VALUES = 10 ** 8; nothing
    # here builds a matrix
    for factor in (lambda dim: Ar1Factor(dim, 0.5), CompoundFactor):
        with pytest.raises(ValueError, match="factor of dimension 10001 has 100020001 entries"):
            factor(10_001)
        assert factor(10_000).dim == 10_000


def test_identity_covariance_is_a_noop():
    rng = np.random.default_rng(71)
    cov = IdentityCovariance()
    root = cov.root(5, 3)
    z = rng.standard_normal((4, 5, 3))
    assert np.array_equal(_applied(root, z), z)


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
    fast = _applied(cov.root(r, c), z)
    for i in range(6):
        direct = (dense_root @ z[i].ravel(order="F")).reshape((c, r)).T
        assert np.allclose(fast[i], direct, atol=1e-10)
    with pytest.raises(ValueError):
        CompoundCovariance(rho=1.0).check_dims(4, 3)


@pytest.mark.parametrize("rho", [0.3, -5.0])
def test_compound_covariance_of_one_entry_is_one(rho):
    # at r = c = 1 the matrix is [1] whatever rho is, so only rho < 1 is checked
    cov = CompoundCovariance(rho=rho)
    cov.check_dims(1, 1)
    assert np.allclose(cov.materialize(1, 1), [[1.0]])
    z = np.random.default_rng(74).standard_normal((5, 1, 1))
    assert np.allclose(_applied(cov.root(1, 1), z), z)
    bad = CompoundCovariance(rho=1.5)
    for call in (bad.check_dims, bad.materialize, bad.root):
        with pytest.raises(ValueError, match=r"\(-inf, 1\) for rc = 1, got 1.5"):
            call(1, 1)


def test_block_diagonal_root_matches_dense_root():
    rng = np.random.default_rng(73)
    r, c = 4, 3
    cov = BlockDiagonalCovariance((Ar1Factor(r, 0.5), Ar1Factor(r, 0.4), CompoundFactor(r)))
    dense = cov.materialize(r, c)
    evals, evecs = np.linalg.eigh(dense)
    dense_root = evecs @ np.diag(np.sqrt(evals)) @ evecs.T
    z = rng.standard_normal((5, r, c))
    fast = _applied(cov.root(r, c), z)
    for i in range(5):
        direct = (dense_root @ z[i].ravel(order="F")).reshape((c, r)).T
        assert np.allclose(fast[i], direct, atol=1e-10)
    with pytest.raises(ValueError):
        cov.check_dims(r, 4)  # needs one block per column


def test_block_diagonal_takes_one_root_per_distinct_factor(monkeypatch):
    import matmean.covariance as covariance

    real = covariance._spd_root
    labels = []
    monkeypatch.setattr(covariance, "_spd_root",
                        lambda mat, label: labels.append(label) or real(mat, label))
    r, c = 5, 4
    first, rest = Ar1Factor(r, 0.5), Ar1Factor(r, 0.4)
    shared = BlockDiagonalCovariance((first, first, rest, rest)).root(r, c)
    assert labels == ["block 1", "block 3"]
    # equal ar1 and compound factors that are distinct objects share a root too
    equal = BlockDiagonalCovariance(
        (Ar1Factor(r, 0.5), Ar1Factor(r, 0.5), Ar1Factor(r, 0.4), Ar1Factor(r, 0.4))).root(r, c)
    assert labels[2:] == ["block 1", "block 3"]
    z = np.random.default_rng(75).standard_normal((3, r, c))
    assert np.array_equal(_applied(shared, z), _applied(equal, z))
    BlockDiagonalCovariance((CompoundFactor(r), CompoundFactor(r, 0.5),
                             CompoundFactor(r, 0.3), Ar1Factor(r, 0.3))).root(r, c)
    assert labels[4:] == ["block 1", "block 3", "block 4"]
    # a dense factor holds an array and is shared only by the same object
    dense = DenseFactor(first.build())
    BlockDiagonalCovariance((dense, dense, DenseFactor(first.build()), rest)).root(r, c)
    assert labels[7:] == ["block 1", "block 3", "block 4"]


def test_block_diagonal_config_of_equal_blocks_takes_one_root(monkeypatch):
    # the config reader builds a factor object per entry; equal entries
    # still share one root, with the bits of a root of its own
    import matmean.covariance as covariance

    real = covariance._spd_root
    labels = []
    monkeypatch.setattr(covariance, "_spd_root",
                        lambda mat, label: labels.append(label) or real(mat, label))
    block = {"kind": "ar1", "dim": 100, "rho": 0.3}
    spec = _spec_from_dict(_Covariance, {"kind": "block_diagonal", "blocks": [block] * 100})
    root = spec.root(100, 100)
    assert labels == ["block 1"]
    own = real(Ar1Factor(100, 0.3).build(), "block 1")
    assert all(m is root.offsets_roots[0][1] for _, m in root.offsets_roots)
    assert root.offsets_roots[0][1].tobytes() == own.tobytes()
    assert [off for off, _ in root.offsets_roots] == list(range(0, 10000, 100))


def test_kronecker_sample_covariance_monte_carlo():
    # empirical covariance of vec(X) within 4 SE of the Kronecker product
    rng = np.random.default_rng(74)
    r, c, reps = 4, 3, 5000
    cov = KroneckerCovariance(Ar1Factor(r, 0.6), CompoundFactor(c))
    target = np.kron(CompoundFactor(c).build(), Ar1Factor(r, 0.6).build())
    root = cov.root(r, c)
    z = rng.standard_normal((reps, r, c))
    x = _applied(root, z)
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
    assert np.allclose(_applied(ident_col.root(4, 3), z), z, atol=1e-10)
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
        back = _spec_from_dict(_Covariance, spec.to_dict())
        if isinstance(spec, DenseCovariance):
            assert np.allclose(back.values, spec.values)
        else:
            assert back == spec
    with pytest.raises(ValueError):
        _spec_from_dict(_Covariance, {"kind": "mystery"})
    # every factor and covariance kind: the JSON text, byte for byte, and
    # the same text back after reading it
    dense = np.array([[2.0, 0.5], [0.5, 1.0]])
    pinned = [
        (_Factor, Ar1Factor(5, 0.85), '{"kind": "ar1", "dim": 5, "rho": 0.85}'),
        (_Factor, CompoundFactor(3), '{"kind": "compound", "dim": 3, "rho": 0.5}'),
        (_Factor, DenseFactor(dense),
         '{"kind": "dense", "values": [[2.0, 0.5], [0.5, 1.0]]}'),
        (_Covariance, IdentityCovariance(), '{"kind": "identity"}'),
        (_Covariance, CompoundCovariance(rho=0.25), '{"kind": "compound", "rho": 0.25}'),
        (_Covariance, KroneckerCovariance(Ar1Factor(5, 0.85), CompoundFactor(3)),
         '{"kind": "kronecker", "row": {"kind": "ar1", "dim": 5, "rho": 0.85}, '
         '"col": {"kind": "compound", "dim": 3, "rho": 0.5}}'),
        (_Covariance, BlockDiagonalCovariance((Ar1Factor(2, 0.5), DenseFactor(dense))),
         '{"kind": "block_diagonal", "blocks": [{"kind": "ar1", "dim": 2, "rho": 0.5}, '
         '{"kind": "dense", "values": [[2.0, 0.5], [0.5, 1.0]]}]}'),
        (_Covariance, DenseCovariance(np.eye(2) * 2.0),
         '{"kind": "dense", "values": [[2.0, 0.0], [0.0, 2.0]]}'),
    ]
    for family, spec, text in pinned:
        assert json.dumps(spec.to_dict()) == text
        assert json.dumps(_spec_from_dict(family, json.loads(text)).to_dict()) == text


@pytest.mark.parametrize("covariance", [
    IdentityCovariance(),
    KroneckerCovariance(Ar1Factor(3, 0.5), CompoundFactor(4)),
    BlockDiagonalCovariance((Ar1Factor(3, 0.3), CompoundFactor(3), Ar1Factor(3, 0.3),
                             Ar1Factor(3, -0.4))),
    DenseCovariance(KroneckerCovariance(Ar1Factor(3, 0.6), Ar1Factor(4, 0.2)).materialize(3, 4)),
    CompoundCovariance(rho=0.2),
], ids=lambda cov: cov.to_dict()["kind"])
def test_root_times_its_transpose_is_the_materialized_covariance(covariance):
    # subject k of the unit basis is unvec(e_k), so vec of subject k of
    # the output is column k of the root R
    r, c = 3, 4
    d = r * c
    basis = np.eye(d).reshape(d, c, r).transpose(0, 2, 1)
    out = _applied(sqrt_factor(covariance, r, c), basis)
    root = out.transpose(0, 2, 1).reshape(d, d).T
    assert np.allclose(root @ root.T, covariance.materialize(r, c), rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# noise scenarios


def test_scenario_tags():
    assert NoiseScenario.from_tag("gamma").tag == "gamma"
    with pytest.raises(ValueError):
        NoiseScenario("uniform")


@pytest.mark.parametrize("tag", ["normal", "gamma", "mixture"])
def test_scenario_moments_standardized(tag):
    rng = np.random.default_rng(76)
    scenario = NoiseScenario(tag)
    z = np.concatenate(
        [_noise(scenario, (1, 100, 10), rng)[0].ravel() for _ in range(100)]
    )  # 1e5 entries
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
    z = _noise(NoiseScenario("gamma"), (1, 1000, 1000), rng)[0].ravel()
    skew = ((z - z.mean()) ** 3).mean() / z.std() ** 3
    assert skew == pytest.approx(1.0, abs=0.02)
    assert z.min() >= -2.0  # support is bounded below at -mean/sd = -2


def test_normal_scenario_excess_kurtosis():
    rng = np.random.default_rng(78)
    z = _noise(NoiseScenario("normal"), (1, 1000, 100), rng)[0].ravel()
    kurt = ((z - z.mean()) ** 4).mean() / z.var() ** 2 - 3.0
    se = np.sqrt(24.0 / z.size)
    assert abs(kurt) <= 4 * se


def test_mixture_splits_rows_at_half():
    # odd row count: the first floor(r/2) rows are the symmetric part
    rng = np.random.default_rng(79)
    r = 101
    mixture = NoiseScenario("mixture")
    z = np.concatenate(
        [_noise(mixture, (1, r, 40), rng)[0] for _ in range(60)], axis=1
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
    got = _noise(NoiseScenario(tag), (n, r, c), rng)
    assert np.array_equal(got, want)
    assert rng.random() == ref.random()  # both streams end at the same place


def test_noise_is_deterministic_per_seed():
    mixture = NoiseScenario("mixture")
    a = _noise(mixture, (1, 30, 7), np.random.default_rng(80))[0]
    b = _noise(mixture, (1, 30, 7), np.random.default_rng(80))[0]
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
    # each spec with its JSON text, pinned byte for byte
    specs = {
        ZeroMean(): '{"kind": "zero"}',
        RightBlockMean(zero_cols=7, effect_cols=3, target=0.1):
            '{"kind": "right_block", "zero_cols": 7, "effect_cols": 3, "target": 0.1, '
            '"denominator": "dims"}',
        SparseMean(zero_fraction=0.5, allocation="linear", target=0.15):
            '{"kind": "sparse", "zero_fraction": 0.5, "allocation": "linear", "target": 0.15, '
            '"effect_cols": 1, "denominator": "dims"}',
        MultiplicativeMean(1.15): '{"kind": "multiplicative", "t": 1.15, "base": 1.0}',
    }
    for spec, text in specs.items():
        m = spec.build(20, 10, None)
        assert m.shape == (20, 10)
        assert _spec_from_dict(_Mean, spec.to_dict()) == spec
        assert json.dumps(spec.to_dict()) == text
        assert _spec_from_dict(_Mean, json.loads(text)) == spec
    with pytest.raises(ValueError):
        _spec_from_dict(_Mean, {"kind": "surprise"})


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
    z = np.stack([_noise(cfg.scenario, (1, 12, 4), rng)[0] for _ in range(8)])
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
    z = _noise(cfg.scenario, (8, 6, 4), np.random.default_rng(84))
    expected = _applied(sqrt_factor(covariance, 6, 4), z) + cfg.mean.build(6, 4, covariance)
    assert stack.values.flags.c_contiguous and not stack.values.flags.writeable
    assert stack.values.tobytes() == np.ascontiguousarray(expected).tobytes()


@pytest.mark.parametrize("covariance", _ROOT_COVARIANCES, ids=lambda cov: cov.to_dict()["kind"])
def test_root_apply_into_out_and_scratch_equals_fresh_apply(covariance):
    root = sqrt_factor(covariance, 6, 4)
    z = np.random.default_rng(86).standard_normal((8, 6, 4))
    fresh = _applied(root, z)
    scratch = [np.full(z.size, np.nan) for _ in range(root.scratch_count)]
    over = z.copy()
    assert root.apply(over, scratch) is over
    assert over.tobytes() == fresh.tobytes()


def _two_scratch_apply(root, z):
    """The Kronecker and block roots as two-scratch products: the same
    matmuls on the same operand layouts, each into a fresh array."""
    n, r, c = z.shape
    if hasattr(root, "row_root"):
        zb = np.ascontiguousarray(z.transpose(1, 0, 2)).reshape(r, n * c)
        w = np.matmul(root.row_root, zb, out=np.empty((r, n * c)))
        return np.matmul(w.reshape(r, n, c).transpose(1, 0, 2), root.col_root,
                         out=np.empty((n, r, c)))
    v = np.ascontiguousarray(z.transpose(0, 2, 1)).reshape(n, c * r)
    w = np.empty((n, c * r))
    for off, block in root.offsets_roots:
        d = block.shape[0]
        np.matmul(v[:, off : off + d], block, out=w[:, off : off + d])
    return np.ascontiguousarray(w.reshape(n, c, r).transpose(0, 2, 1))


@pytest.mark.parametrize("covariance", [
    KroneckerCovariance(Ar1Factor(7, 0.5), CompoundFactor(3)),
    BlockDiagonalCovariance((Ar1Factor(7, 0.3), CompoundFactor(7, 0.2), Ar1Factor(7, 0.3))),
    DenseCovariance(0.6 * np.eye(21) + 0.4 * np.ones((21, 21))),
], ids=lambda cov: cov.to_dict()["kind"])
def test_one_scratch_root_equals_two_scratch_products(covariance):
    root = sqrt_factor(covariance, 7, 3)
    assert root.scratch_count == 1
    z = np.random.default_rng(87).standard_normal((5, 7, 3))
    assert _applied(root, z).tobytes() == _two_scratch_apply(root, z).tobytes()


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


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: Ar1Factor(0, 0.5), "factor dimension must be positive",
                 id="factor-dim"),
    pytest.param(lambda: Ar1Factor(3, 1.0), "ar1 rho must lie in (-1, 1), got 1.0",
                 id="ar1-rho"),
    pytest.param(lambda: DenseFactor(np.ones((2, 3))),
                 "dense factor must be square, got shape (2, 3)", id="dense-factor-square"),
    pytest.param(lambda: KroneckerCovariance(Ar1Factor(3, 0.5), CompoundFactor(2)).root(4, 2),
                 "kronecker factors are 3 x 2, data is 4 x 2", id="kronecker-dims"),
    pytest.param(lambda: BlockDiagonalCovariance(()),
                 "block-diagonal covariance needs at least one block", id="no-blocks"),
    pytest.param(lambda: DenseCovariance(np.ones((2, 3))),
                 "dense covariance must be square, got (2, 3)", id="dense-square"),
    # a broadcast view: the check reads the shape and allocates nothing
    pytest.param(lambda: DenseCovariance(np.broadcast_to(0.0, (2049, 2049))),
                 "dense covariance of dimension 2049 exceeds the supported maximum 2048",
                 id="dense-too-large"),
    pytest.param(lambda: DenseCovariance(np.array([[1.0, 0.5], [0.0, 1.0]])),
                 "dense covariance must be symmetric", id="dense-asymmetric"),
    pytest.param(lambda: DenseCovariance(np.eye(4)).root(3, 2),
                 "dense covariance has dimension 4, expected r*c = 6", id="dense-dims"),
    pytest.param(lambda: IdentityCovariance().materialize(50, 50),
                 "refusing to materialize a 2500 x 2500 covariance (limit 2048); "
                 "use a structured spec instead", id="materialize-too-large"),
    pytest.param(lambda: RightBlockMean(zero_cols=-1, effect_cols=2, target=0.1),
                 "right-block mean needs effect_cols >= 1, zero_cols >= 0",
                 id="right-block-zero-cols"),
    pytest.param(lambda: RightBlockMean(zero_cols=2, effect_cols=0, target=0.1),
                 "right-block mean needs effect_cols >= 1, zero_cols >= 0",
                 id="right-block-effect-cols"),
    pytest.param(lambda: RightBlockMean(zero_cols=2, effect_cols=2, target=0.0),
                 "calibration target must be positive", id="right-block-target"),
    pytest.param(lambda: RightBlockMean(zero_cols=2, effect_cols=2, target=0.1).build(6, 5, None),
                 "right-block widths 2+2 != c = 5", id="right-block-widths"),
    pytest.param(lambda: RightBlockMean(2, 2, 0.1, denominator="trace").build(6, 4, None),
                 "denominator must be one of ('dims', 'sigma'), got 'trace'",
                 id="bad-denominator"),
    pytest.param(lambda: RightBlockMean(2, 2, 0.1, denominator="sigma").build(
                     6, 4, IdentityCovariance()),
                 "sigma-normalized calibration needs a kronecker covariance",
                 id="sigma-needs-kronecker"),
    pytest.param(lambda: SparseMean(zero_fraction=0.5, allocation="random", target=0.1),
                 "allocation must be 'equal' or 'linear', got 'random'", id="sparse-allocation"),
    pytest.param(lambda: SparseMean(zero_fraction=0.5, allocation="equal", target=-1.0),
                 "calibration target must be positive", id="sparse-target"),
    pytest.param(lambda: SparseMean(0.5, "equal", 0.1, effect_cols=0),
                 "sparse mean needs at least one effect column", id="sparse-effect-cols"),
    pytest.param(lambda: SparseMean(0.5, "equal", 0.1, effect_cols=4).build(6, 4, None),
                 "sparse mean needs effect_cols < c, got 4 >= 4", id="sparse-effect-width"),
    pytest.param(lambda: SparseMean(0.5, "equal", 0.1).build(0, 4, None),
                 "sparse mean has no nonzero entries to calibrate", id="sparse-no-rows"),
    pytest.param(lambda: MultiplicativeMean(1.15).build(5, 1, None),
                 "multiplicative split needs c >= 2, got c = 1", id="multiplicative-split"),
    pytest.param(lambda: _config(n_rows=0), "dimensions must be positive", id="config-dims"),
    pytest.param(lambda: _config(methods=()), "at least one method is required",
                 id="config-no-methods"),
    pytest.param(lambda: monte_carlo(_config(), workers=0),
                 "worker count must be positive, got 0", id="zero-workers"),
    pytest.param(lambda: monte_carlo(_config(n_cols=1, partition=GroupPartition((1,)),
                                             methods=("anova",))),
                 "column-wise baselines need at least 2 columns", id="mc-one-column"),
    pytest.param(lambda: monte_carlo(_config(n_subjects=3)),
                 "proposed and cq methods need at least 4 subjects", id="mc-three-subjects"),
])
def test_invalid_spec_or_run_is_refused_with_its_message(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


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
    assert json.dumps(cfg.to_dict()) == (
        '{"n_subjects": 8, "n_rows": 12, "n_cols": 4, "scenario": "mixture", '
        '"covariance": {"kind": "kronecker", "row": {"kind": "ar1", "dim": 12, "rho": 0.85}, '
        '"col": {"kind": "compound", "dim": 4, "rho": 0.5}}, '
        '"mean": {"kind": "sparse", "zero_fraction": 0.5, "allocation": "linear", '
        '"target": 0.15, "effect_cols": 1, "denominator": "dims"}, '
        '"partition": [1, 1, 2, 2], "alpha": 0.05, "replicates": 150, "seed": 5, '
        '"methods": ["proposed", "anova"]}'
    )


def test_documented_config_round_trips():
    # the example under "Simulation config JSON" in docs/formats.md
    text = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
    section = text.split("## Simulation config JSON", 1)[1]
    d = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    assert SimConfig.from_dict(d).to_dict() == d


def test_sim_config_omitted_fields_take_their_defaults():
    d = _config().to_dict()
    for name in ("alpha", "replicates", "seed", "methods"):
        del d[name]
    cfg = SimConfig.from_dict(d)
    assert (cfg.alpha, cfg.replicates, cfg.seed, cfg.methods) == (0.05, 1000, 0, ("proposed",))


@pytest.mark.parametrize("path, expected", [
    (("partition",), "missing field 'partition'"),
    (("covariance", "row", "rho"), "field 'covariance': field 'row': missing field 'rho'"),
], ids=["top-level", "nested"])
def test_sim_config_missing_field_is_a_value_error_naming_its_path(path, expected):
    d = _config(covariance=KroneckerCovariance(Ar1Factor(12, 0.5), CompoundFactor(4))).to_dict()
    spec = d
    for name in path[:-1]:
        spec = spec[name]
    del spec[path[-1]]
    with pytest.raises(ValueError) as info:
        SimConfig.from_dict(d)
    assert str(info.value) == expected


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
    csv = {workers: monte_carlo(cfg, workers=workers).to_csv() for workers in (1, 2, 3)}
    assert csv[1] == csv[2] == csv[3]


def _record_replicates(monkeypatch):
    """(index, thread id) of every replicate_rng call monte_carlo makes."""
    calls = []
    real = simulate.replicate_rng

    def recording(seed, index):
        calls.append((index, threading.get_ident()))
        return real(seed, index)

    monkeypatch.setattr(simulate, "replicate_rng", recording)
    return calls


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_monte_carlo_runs_every_replicate_once_and_replicate_0_in_the_caller(
        monkeypatch, workers):
    calls = _record_replicates(monkeypatch)
    # up to more workers than cores, with a thread switch every microsecond
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        monte_carlo(_config(), workers=workers)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(k for k, _ in calls) == list(range(150))
    # the calling thread runs replicate 0 before any helper starts
    assert calls[0] == (0, threading.get_ident())


def test_monte_carlo_with_one_worker_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("monte_carlo started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    assert monte_carlo(_config(), workers=1).outcome("proposed").valid == 150


def test_monte_carlo_starts_no_helper_that_could_never_claim_a_replicate(monkeypatch):
    # the caller runs replicate 0, so at most replicates - 1 helpers get one
    cfg = _config(replicates=100)
    serial = monte_carlo(cfg, workers=1).to_csv()
    buffer_sets, starts = [], []
    real_buffers, real_start = simulate.stack_buffers, threading.Thread.start
    monkeypatch.setattr(simulate, "stack_buffers",
                        lambda *a: buffer_sets.append(None) or real_buffers(*a))
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: starts.append(None) or real_start(thread))
    assert monte_carlo(cfg, workers=150).to_csv() == serial
    assert (len(buffer_sets), len(starts)) == (100, 99)


def test_monte_carlo_raises_what_a_helper_replicate_raises(monkeypatch):
    caller = threading.get_ident()
    raised = threading.Event()
    real = simulate.mean_matrix_test
    caller_calls = []

    def scorer(stack, partition, alpha, out=None):
        if threading.get_ident() != caller:
            raised.set()
            raise RuntimeError("injected on a helper")
        # after replicate 0, which runs before the helper starts, the caller
        # waits for a helper's replicate to fail, so one surely runs
        if caller_calls:
            raised.wait(timeout=30)
        caller_calls.append(None)
        return real(stack, partition, alpha=alpha, out=out)

    monkeypatch.setattr(simulate, "mean_matrix_test", scorer)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="injected on a helper"):
        monte_carlo(_config(), workers=2)
    assert raised.is_set()
    # the helpers are joined before the error leaves monte_carlo
    assert threading.active_count() == threads


def test_monte_carlo_worker_holds_the_stack_and_one_scratch_array():
    # each worker's stack and root scratch; the proposed test centres into
    # the scratch, so no third stack-sized array is live while it runs
    cfg = _config(n_subjects=10, n_rows=100, n_cols=100, replicates=100,
                  scenario=NoiseScenario("mixture"),
                  covariance=KroneckerCovariance(Ar1Factor(100, 0.5), CompoundFactor(100)),
                  partition=GroupPartition.from_sizes((70, 30)))
    monte_carlo(cfg)  # what the first replicate loads stays loaded
    for workers, bound in ((1, 3.0), (2, 5.5)):
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            before = tracemalloc.get_traced_memory()[0]
            monte_carlo(cfg, workers=workers)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * 10 * 100 * 100, (workers, peak / 8e5)


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
    # the ANOVA scorer computes its statistics through this module global
    cfg = _config(methods=("proposed", "anova"), replicates=200)
    clean = monte_carlo(cfg, workers=1)
    real = simulate._anova_statistic
    calls = []

    def flaky(stack, partition):
        calls.append(None)
        if len(calls) == 37:  # one replicate of the serial run
            raise ValueError("injected failure")
        return real(stack, partition)

    monkeypatch.setattr(simulate, "_anova_statistic", flaky)
    rep = monte_carlo(cfg, workers=1)
    for name in ("anova_fdr", "anova_bon"):
        out = rep.outcome(name)
        assert (out.errors, out.valid) == (1, 199)
        assert out.rejections <= clean.outcome(name).rejections
    assert rep.outcome("proposed") == clean.outcome("proposed")

    def broken(stack, partition):
        raise ValueError("injected failure")

    monkeypatch.setattr(simulate, "_anova_statistic", broken)
    with pytest.raises(RuntimeError, match="'anova_fdr' failed on 200 of 200"):
        monte_carlo(cfg, workers=1)


# ---------------------------------------------------------------------------
# row-wise verdicts from critical values


def _rowwise_stack(rng, n, r, c):
    """A stack with some rows shifted, some constant, some with constant but
    different groups, and some with heavy ties."""
    x = rng.standard_normal((n, r, c))
    shifted = rng.uniform(size=r) < 0.3
    x[:, shifted, : c // 2] += rng.uniform(0.0, 2.0) * rng.uniform(size=shifted.sum())[:, None]
    kind = rng.integers(0, 10, size=r)
    x[:, kind == 0] = 1.5
    x[:, kind == 1] = np.arange(c, dtype=float)
    x[:, kind == 2] = np.round(x[:, kind == 2])
    return DataStack(x)


def test_rowwise_verdicts_from_critical_values_equal_the_p_value_path():
    # BH and Bonferroni decided on the sorted statistics against t_k give the
    # verdicts of the adjusted scipy p-values, with no replicate in the band
    rng = np.random.default_rng(2024)
    fallbacks, seen = [], set()
    for _ in range(400):
        n, c = int(rng.choice([4, 10, 30])), int(rng.choice([3, 4, 10]))
        r = int(rng.choice([1, 7, 100, 1000], p=[0.2, 0.35, 0.35, 0.1]))
        alpha = float(rng.choice([0.01, 0.05, 0.1]))
        stack = _rowwise_stack(rng, n, r, c)
        per_column = GroupPartition(tuple(range(1, c + 1)))
        cfg = SimpleNamespace(alpha=alpha)
        for statistic, rowwise in ((simulate._anova_statistic, simulate.anova_rowwise),
                                   (simulate._kruskal_statistic, simulate.kruskal_rowwise)):
            def exact(*args, rowwise=rowwise):
                fallbacks.append(None)
                return rowwise(*args)

            got = simulate._score_rowwise(statistic, exact, stack, cfg, per_column)
            want = simulate._family_verdicts(rowwise(stack, per_column), alpha)
            assert got == want, (n, r, c, alpha)
            seen.add(want)
    assert fallbacks == []
    assert seen == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize("df", [(9, 90), (9, 290), (9, 490), (9, 990), (9,)])
@pytest.mark.parametrize("m", [100, 500, 1000])
def test_critical_values_of_the_preset_cells_are_scipy_tails_within_the_band(df, m):
    # table1, table2 and webtable2 test c = 10 columns of N = 10 to 100
    # subjects: F(9, 10 (N - 1)) and chi-square(9)
    from scipy.special import chdtrc, fdtrc

    def tail(t):
        return fdtrc(*df, t) if len(df) == 2 else chdtrc(*df, t)

    t = simulate._critical_values(df, m, 0.05)
    p = 0.05 * np.arange(1, m + 1) / m
    band = simulate._BAND / 10
    assert (np.diff(t) < 0).all()
    # a statistic outside the band is on the same side of t_k as of scipy's
    assert (tail(t * (1 + band)) < p).all() and (tail(t * (1 - band)) > p).all()


def test_native_tails_match_scipy():
    from scipy.special import chdtrc, fdtrc

    t = np.exp(np.random.default_rng(6).uniform(-4, 5, 500))
    for df in [(9, 90), (9, 990), (1, 2), (2, 3), (3, 6), (4, 9), (99, 990), (10, 990)]:
        q, _ = simulate._tail(df, t)
        assert np.abs(q - fdtrc(*df, t)).max() < 1e-13, df
    for nu in range(1, 60):
        q, _ = simulate._tail((nu,), t)
        assert np.abs(q - chdtrc(nu, t)).max() < 1e-14, nu


def test_native_tails_that_lose_a_term_are_nan():
    # e^-750 is subnormal, and 1/j! is below the smallest normal float from
    # j = 171 on, which chi-square(400) needs
    assert np.isnan(simulate._tail((2,), np.array([1500.0]))[0]).all()
    assert np.isnan(simulate._tail((400,), np.array([400.0]))[0]).all()
    assert np.isfinite(simulate._tail((300,), np.array([300.0]))[0]).all()


def test_critical_values_the_sums_cannot_place_are_not_used(monkeypatch):
    # 1 - P loses digits in the far tail of F with d1 odd; the positive sums do not
    assert simulate._critical_values((9, 990), 1, 1e-7) is None
    assert simulate._critical_values((10, 990), 1, 1e-7) is not None
    assert simulate._critical_values((9,), 1, 1e-7) is not None
    # so every replicate of such a run takes the p-value path: here F(3, 28)
    # at 1e-7 / 12
    cfg = _config(methods=("anova",), alpha=1e-7, replicates=100)
    assert simulate._critical_values((3, 28), 12, 1e-7) is None
    calls = []
    real = simulate.anova_rowwise
    monkeypatch.setattr(simulate, "anova_rowwise", lambda *a: calls.append(None) or real(*a))
    assert monte_carlo(cfg, workers=1).outcome("anova_bon").valid == 100
    assert len(calls) == 100


@pytest.mark.parametrize("df, refused", [
    ((400,), True), ((401,), True), ((300, 29700), True),
    ((299,), False), ((300,), False), ((301,), False),
])
def test_critical_values_at_large_df_are_refused_or_within_the_band(df, refused):
    # 1/j! and 1/(3 5 ... (nu - 2)) underflow near nu = 340 and 300, and
    # C(a + j - 1, j) overflows for F(300, 29700) (anova at c = 301, N = 100):
    # the lost terms are the largest ones at an upper-tail critical value
    from scipy.special import chdtrc, fdtrc

    def tail(t):
        return fdtrc(*df, t) if len(df) == 2 else chdtrc(*df, t)

    m, band = 1000, simulate._BAND / 10
    t = simulate._critical_values(df, m, 0.05)
    p = 0.05 * np.arange(1, m + 1) / m
    assert t is None or ((tail(t * (1 + band)) < p).all() and (tail(t * (1 - band)) > p).all())
    assert (t is None) == refused


def test_critical_values_the_search_does_not_settle_are_not_used(monkeypatch):
    # rounding in 1 - P keeps the last steps for F(19, 380) at 0.01 / 1000
    # near a relative 5e-13, far inside the band: those values are kept
    assert simulate._critical_values.__wrapped__((19, 380), 1000, 0.01) is not None
    real = simulate._tail
    # a derivative a million times too large makes every Newton step tiny
    monkeypatch.setattr(simulate, "_tail", lambda df, t: (real(df, t)[0], real(df, t)[1] * 1e6))
    assert simulate._critical_values.__wrapped__((9, 90), 10, 0.05) is None


def _patched_statistic(monkeypatch, edit):
    """Pass the ANOVA statistics through ``edit(f, df)``; returns a list that
    gets one entry per call of the p-value path."""
    real, real_rowwise, exact = simulate._anova_statistic, simulate.anova_rowwise, []

    def edited(stack, partition):
        f, *df = real(stack, partition)
        return (edit(f.copy(), tuple(df)), *df)

    monkeypatch.setattr(simulate, "_anova_statistic", edited)
    monkeypatch.setattr(simulate, "anova_rowwise",
                        lambda *a: exact.append(None) or real_rowwise(*a))
    return exact


def _on_t1(f, df):
    # s_1 exactly on t_1, inside the band, and every other statistic far below
    t1 = simulate._critical_values(df, f.size, 0.05)[0]
    f = np.minimum(f, t1 / 2)
    f[np.argmax(f)] = t1
    return f


@pytest.mark.parametrize("edit", [
    _on_t1,
    lambda f, df: np.where(f == f.min(), np.nan, f),
    lambda f, df: np.where(f == f.min(), np.inf, f),
], ids=["on-t1", "nan", "inf"])
def test_replicate_the_critical_values_cannot_decide_takes_the_p_value_path(monkeypatch, edit):
    stack = _rowwise_stack(np.random.default_rng(4), 10, 50, 10)
    per_column = GroupPartition(tuple(range(1, 11)))
    want = simulate._family_verdicts(simulate.anova_rowwise(stack, per_column), 0.05)
    exact = _patched_statistic(monkeypatch, edit)
    assert simulate._score_anova(stack, SimpleNamespace(alpha=0.05), per_column) == want
    assert len(exact) == 1


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


def test_rejection_report_json_and_csv_forms_are_pinned():
    # the report's keys in order, and an outcome without a valid replicate,
    # whose proportion and standard error are NaN
    cfg = _config(methods=("proposed", "cq"))
    rep = simulate.RejectionReport(
        config=cfg, replicates=150, elapsed_seconds=1.5,
        outcomes=(simulate.MethodOutcome("proposed", rejections=6, valid=150, errors=0),
                  simulate.MethodOutcome("cq_bon", rejections=0, valid=0, errors=150)),
    )
    d = rep.to_dict()
    assert list(d) == ["config", "replicates", "elapsed_seconds", "outcomes"]
    assert d["config"] == cfg.to_dict()
    assert json.dumps(d["outcomes"]) == (
        '[{"method": "proposed", "rejections": 6, "valid": 150, "errors": 0, '
        '"proportion": 0.04, "std_error": 0.016}, '
        '{"method": "cq_bon", "rejections": 0, "valid": 0, "errors": 150, '
        '"proportion": NaN, "std_error": NaN}]'
    )
    assert rep.to_csv() == (
        "method,rejections,valid,errors,proportion,std_error\n"
        "proposed,6,150,0,0.04,0.016\n"
        "cq_bon,0,0,150,nan,nan\n"
    )
