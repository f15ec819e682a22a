"""Acceptance suite: benchmark-grid reproduction plus estimator contracts.

Every Monte Carlo criterion runs a preset-derived configuration whose seed
is a pure function of the preset coordinates, so each reported number is
deterministic and the tolerance bands are meaningful.  The oracle criteria
(C7-C10) pin their own module-level seeds.  One verdict line per criterion
is emitted in the terminal summary; see tests/conftest.py.
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np
from scipy import stats as sps

from conftest import record_acceptance

from matmean.core import DataStack, GroupPartition, build_projection
from matmean.covariance import Ar1Factor, CompoundFactor, KroneckerCovariance
from matmean.engine import (
    compute_gram,
    deviation_estimate,
    mean_matrix_test,
    trace_cov_sq_fast,
    trace_cov_sq_naive,
)
from matmean.presets import build_preset
from matmean.simulate import monte_carlo

# Criterion 11 certifies that worker count cannot change any result, which
# is what entitles the heavy criteria here to run multi-threaded.
WORKERS = 4


def _check(tag, ok, detail):
    line = f"{tag} {'PASS' if ok else 'FAIL'}: {detail}"
    record_acceptance(line)
    assert ok, line


def _preset_runs(preset, reps, filters, methods=None):
    """Monte Carlo results for one preset cell, keyed by (kind, partition).

    Restricting ``methods`` never changes the generated data (the per-
    replicate streams depend only on the config seed), so it is a pure
    speed knob for criteria that examine a subset of the columns.
    """
    cells = [c for c in build_preset(preset, reps=reps) if c.matches(filters)]
    assert len(cells) == 1, f"filter {filters} matched {len(cells)} cells"
    out = {}
    for run in cells[0].runs:
        config = run.config
        if methods is not None:
            config = dataclasses.replace(config, methods=methods)
        out[(run.kind, run.partition_label)] = monte_carlo(config, workers=WORKERS)
    return out


def test_c1_independent_design_power_and_size():
    runs = _preset_runs("table1", 1000, {"r": "100", "N": "50"},
                        methods=("proposed",))
    power = runs[("power", "10")].outcome("proposed").proportion
    size = runs[("size", "10")].outcome("proposed").proportion
    ok = abs(power - 0.756) <= 0.04 and abs(size - 0.053) <= 0.03
    _check("C1", ok,
           f"r=100 N=50 power {power:.3f} (0.756 +/- 0.04), "
           f"size {size:.3f} (0.053 +/- 0.03)")


def test_c2_sparse_signal_robustness():
    targets = {"0.0": (0.944, 0.094), "0.5": (0.943, 0.117), "0.99": (0.949, 1.000)}
    ok = True
    parts = []
    for zeros, (t_prop, t_anova) in targets.items():
        runs = _preset_runs("table2", 500, {"N": "50", "zeros": zeros},
                            methods=("proposed", "anova"))
        rep = runs[("power", "10")]
        prop = rep.outcome("proposed").proportion
        anova = rep.outcome("anova_fdr").proportion
        ok = ok and abs(prop - t_prop) <= 0.05 and abs(anova - t_anova) <= 0.05
        parts.append(f"zeros={zeros}: proposed {prop:.3f}/{t_prop}, "
                     f"anova-fdr {anova:.3f}/{t_anova}")
    _check("C2", ok, "power within +/- 0.05 of targets; " + "; ".join(parts))


def test_c3_block_dependence_size_contrast():
    runs = _preset_runs("table3", 1000,
                        {"scenario": "normal", "r": "100", "N": "50"})
    rep = runs[("size", "10")]
    size = rep.outcome("proposed").proportion
    cq = rep.outcome("cq_bon").proportion
    ok = abs(size - 0.057) <= 0.03 and cq >= 0.10
    _check("C3", ok,
           f"proposed size {size:.3f} (0.057 +/- 0.03), "
           f"pairwise-cq size {cq:.3f} (>= 0.10 required)")


def test_c4_kronecker_dependence_sizes():
    runs = _preset_runs("table4", 1000, {"r": "100", "c": "10", "N": "50"})
    targets = {"10": 0.058, "7-3": 0.059, "5-2-3": 0.064}
    ok = True
    parts = []
    for label, target in targets.items():
        size = runs[("size", label)].outcome("proposed").proportion
        ok = ok and abs(size - target) <= 0.03
        parts.append(f"H[{label}] {size:.3f}/{target}")
    _check("C4", ok, "sizes within +/- 0.03; " + ", ".join(parts))


def test_c5_multiplicative_power_cell():
    runs = _preset_runs("table5", 500,
                        {"scenario": "normal", "r": "500", "c": "10", "N": "30"})
    power = runs[("power", "10")].outcome("proposed").proportion
    ok = abs(power - 0.809) <= 0.05
    _check("C5", ok, f"power {power:.3f} (0.809 +/- 0.05)")


def test_c6_familywise_baselines_collapse_under_dependence():
    runs = _preset_runs("webtable2", 500, {"r": "100", "N": "50"})
    rep = runs[("size", "10")]
    anova = rep.outcome("anova_bon").proportion
    kw = rep.outcome("kw_bon").proportion
    ok = anova <= 0.01 and kw <= 0.01
    _check("C6", ok,
           f"family-wise sizes anova {anova:.4f}, kw {kw:.4f} (both <= 0.01)")


def test_c7_fast_variance_estimator_matches_bruteforce():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 9))
        r = int(rng.integers(3, 9))
        c = int(rng.integers(2, 7))
        stack = DataStack(rng.standard_normal((n, r, c)))
        projection = build_projection(GroupPartition.from_sizes((c,)))
        gram = compute_gram(stack, projection)
        naive = trace_cov_sq_naive(gram)
        fast = trace_cov_sq_fast(gram)
        worst = max(worst, abs(fast - naive) / max(abs(naive), 1e-300))
    ok = worst <= 1e-10
    _check("C7", ok,
           f"worst relative gap {worst:.2e} over 200 grams, N in 4..8 "
           f"(<= 1e-10 required)")


def test_c8_statistic_invariance_under_null_preserving_maps():
    rng = np.random.default_rng(1008)
    n, r, c = 10, 20, 6
    partition = GroupPartition.from_sizes((4, 2))
    proj = build_projection(partition).values
    base = rng.standard_normal((n, r, c))
    base[:, :, 4:] += 0.7  # keep the statistic away from zero
    ref = mean_matrix_test(DataStack(base), partition).statistic
    worst = 0.0
    for _ in range(100):
        scale = float(rng.uniform(0.5, 2.0))
        ortho, _ = np.linalg.qr(rng.standard_normal((r, r)))
        shift = rng.standard_normal((r, c))
        shift = shift - shift @ proj  # exactly annihilated by the projection
        moved = scale * np.einsum("ab,nbc->nac", ortho, base) + shift
        stat = mean_matrix_test(DataStack(moved), partition).statistic
        worst = max(worst, abs(stat - ref) / abs(ref))
    ok = worst <= 1e-9
    _check("C8", ok,
           f"worst relative drift {worst:.2e} over 100 transformations "
           f"(<= 1e-9 required)")


def test_c9_estimators_are_unbiased():
    rng = np.random.default_rng(1009)
    n, r, c, reps = 6, 5, 4, 2000
    partition = GroupPartition.from_sizes((2, 2))
    proj = build_projection(partition).values
    cov = KroneckerCovariance(Ar1Factor(r, 0.6), CompoundFactor(c, 0.3))
    root = cov.root(r, c)
    sigma = cov.materialize(r, c)
    mean = 0.5 * np.arange(r * c, dtype=float).reshape(r, c) / (r * c)

    target_dev = float(np.trace(mean.T @ mean @ proj))
    big = np.kron(proj, np.eye(r))
    omega = big @ sigma @ big
    target_trace = float(np.trace(omega @ omega))

    dev = np.empty(reps)
    trc = np.empty(reps)
    scratch = [np.empty(n * r * c) for _ in range(root.scratch_count)]
    for k in range(reps):
        x = root.apply(rng.standard_normal((n, r, c)), scratch) + mean
        gram = compute_gram(DataStack(x), build_projection(partition))
        dev[k] = deviation_estimate(gram)
        trc[k] = trace_cov_sq_fast(gram)

    se_dev = dev.std(ddof=1) / np.sqrt(reps)
    se_trc = trc.std(ddof=1) / np.sqrt(reps)
    gap_dev = abs(dev.mean() - target_dev) / se_dev
    gap_trc = abs(trc.mean() - target_trace) / se_trc
    ok = gap_dev <= 3.0 and gap_trc <= 3.0
    _check("C9", ok,
           f"deviation estimator off by {gap_dev:.2f} SE, variance-scale "
           f"estimator off by {gap_trc:.2f} SE (both <= 3 SE required)")


def test_c10_null_statistic_is_standard_normal():
    rng = np.random.default_rng(1010)
    n, r, c, reps = 50, 100, 10, 2000
    partition = GroupPartition.from_sizes((c,))
    values = np.empty(reps)
    for k in range(reps):
        stack = DataStack(rng.standard_normal((n, r, c)))
        values[k] = mean_matrix_test(stack, partition).statistic
    p = float(sps.kstest(values, "norm").pvalue)
    ok = p >= 0.01
    _check("C10", ok,
           f"KS p-value {p:.4f} for 2000 null statistics vs N(0,1) "
           f"(>= 0.01 required)")


def test_c11_csv_bytes_identical_across_thread_counts(tmp_path):
    blobs = []
    for workers in ("1", "3"):
        out = tmp_path / f"workers_{workers}.csv"
        env = dict(os.environ, MATMEAN_WORKERS=workers)
        cmd = [sys.executable, "-m", "matmean.cli", "simulate",
               "--preset", "table1", "--cell", "r=100,N=50",
               "--reps", "200", "--seed", "17", "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    _check("C11", ok,
           f"{len(blobs[0])}-byte preset CSVs identical under 1 vs 3 "
           f"worker threads")
