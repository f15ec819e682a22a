"""Generative model and Monte Carlo harness for size/power studies.

A simulated subject is X = M + W, where W carries the configured
covariance on vec(X) and the raw noise entries come from one of three
standardized distributions: normal, centralized gamma (skewness 1), or
a half-and-half mixture by rows.  Mean matrices are calibrated so a
fixed signal-size ratio is met exactly, which makes power comparable
across dimensions.

Replicate k of a run draws from its own counter-based RNG stream, so
results are identical no matter how replicates are scheduled across
threads.  The calling thread is worker 0: it runs replicate 0 alone,
filling the cache of row-wise critical values, then ``workers - 1``
helpers take the remaining replicates alongside it.  Each worker builds
its stacks in one set of buffers that lives for the whole run: N*r*c
floats for the stack, plus the same again for the one scratch array that
every covariance root but the identity needs; the proposed test centres
the data into that array once the stack is built.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from dataclasses import dataclass

import numpy as np

from .baselines import (_anova_statistic, _kruskal_statistic, adjust_pvalues, anova_rowwise,
                        kruskal_rowwise, pairwise_cq_procedure)
from .core import (
    MAX_STACK_VALUES,
    DataStack,
    GroupPartition,
    RunAborted,
    _Record,
    _read_fields,
    _read_value,
)
from .covariance import _Covariance, sqrt_factor
from .engine import MIN_SUBJECTS, mean_matrix_test

__all__ = [
    "NoiseScenario",
    "ZeroMean",
    "RightBlockMean",
    "SparseMean",
    "MultiplicativeMean",
    "SimConfig",
    "MethodOutcome",
    "RejectionReport",
    "sqrt_factor",
    "gen_stack",
    "stack_buffers",
    "replicate_rng",
    "monte_carlo",
]

_SCENARIO_TAGS = ("normal", "gamma", "mixture")

# gamma noise: shape 4, rate 1/2, standardized as (z - 8) / 4; with
# z = 2 s for s = standard_gamma(4) that is (s - 4) / 2, and scaling by a
# power of two commutes with rounding, so the two forms agree bit for bit
_GAMMA_SHAPE = 4.0

_CALIBRATION_TOL = 1e-9


@dataclass(frozen=True)
class NoiseScenario:
    """Distribution of the raw noise entries; all have mean 0, variance 1."""

    tag: str

    def __post_init__(self):
        if self.tag not in _SCENARIO_TAGS:
            raise ValueError(f"scenario tag must be one of {_SCENARIO_TAGS}, got {self.tag!r}")

    @classmethod
    def from_tag(cls, tag: str) -> "NoiseScenario":
        return cls(_read_value(str, tag).strip().lower())


def _noise_batch(scenario: NoiseScenario, rng, z: np.ndarray) -> np.ndarray:
    """Fill the (n, r, c) array ``z`` with standardized noise and return it."""
    # draw order is part of the determinism contract: the normal rows of
    # every subject, then the gamma rows of every subject.  Drawing each
    # subject's rows in turn into place uses the stream exactly as one
    # (n, rows, c) draw would, and a zero-size draw leaves it untouched.
    r = z.shape[1]
    top = {"normal": r, "gamma": 0, "mixture": r // 2}[scenario.tag]
    for rows in z[:, :top]:
        rng.standard_normal(out=rows)
    for rows in z[:, top:]:
        rng.standard_gamma(_GAMMA_SHAPE, out=rows)
    tail = z[:, top:]
    tail -= _GAMMA_SHAPE
    tail /= 2.0
    return z


# ---------------------------------------------------------------------------
# mean configurations

_DENOMINATORS = ("dims", "sigma")


def _calibration_denominator(denominator: str, r: int, c: int, sigma) -> float:
    if denominator == "dims":
        return math.sqrt(r * (c - 1))
    if denominator == "sigma":
        row = getattr(sigma, "row", None)
        col = getattr(sigma, "col", None)
        if row is None or col is None:
            raise ValueError(
                "sigma-normalized calibration needs a kronecker covariance"
            )
        row_mat = row.build()
        col_mat = col.build()
        return math.sqrt(
            float((row_mat * row_mat).sum()) * float((col_mat * col_mat).sum())
        )
    raise ValueError(f"denominator must be one of {_DENOMINATORS}, got {denominator!r}")


def _calibrated(spec, profile: np.ndarray, c: int, sigma) -> np.ndarray:
    """The r x c mean whose last ``spec.effect_cols`` columns are the row
    ``profile`` times one scale, and whose other columns are zero.

    The scale makes the squared mean norm over the calibration
    denominator equal ``spec.target``; the realized ratio is checked.
    """
    r = len(profile)
    denom = _calibration_denominator(spec.denominator, r, c, sigma)
    scale = math.sqrt(spec.target * denom / (spec.effect_cols * float(profile @ profile)))
    m = np.zeros((r, c))
    m[:, c - spec.effect_cols :] = (scale * profile)[:, None]
    realized = float((m * m).sum()) / denom
    if abs(realized - spec.target) > _CALIBRATION_TOL * max(1.0, abs(spec.target)):
        raise ValueError(
            f"calibration failed: realized ratio {realized!r} vs target {spec.target!r}"
        )
    return m


@dataclass(frozen=True)
class ZeroMean(_Record, kind="zero"):
    """Null mean matrix."""

    def build(self, r: int, c: int, sigma) -> np.ndarray:
        return np.zeros((r, c))


@dataclass(frozen=True)
class RightBlockMean(_Record, kind="right_block"):
    """M = [0 | t J] with the constant t solved from the signal ratio.

    The first ``zero_cols`` columns are zero and the remaining
    ``effect_cols`` share the constant t chosen so that the squared
    mean norm over the calibration denominator equals ``target``.
    """

    zero_cols: int
    effect_cols: int
    target: float
    denominator: str = "dims"

    def __post_init__(self):
        if self.zero_cols < 0 or self.effect_cols < 1:
            raise ValueError("right-block mean needs effect_cols >= 1, zero_cols >= 0")
        if self.target <= 0.0:
            raise ValueError("calibration target must be positive")

    def build(self, r: int, c: int, sigma) -> np.ndarray:
        if self.zero_cols + self.effect_cols != c:
            raise ValueError(
                f"right-block widths {self.zero_cols}+{self.effect_cols} != c = {c}"
            )
        return _calibrated(self, np.ones(r), c, sigma)


@dataclass(frozen=True)
class SparseMean(_Record, kind="sparse"):
    """Columns [0 | u 1'] where the vector u is mostly zero.

    ``zero_fraction`` of the r entries of u are zero (leading
    positions); the ceil((1-zero_fraction) r) trailing entries are
    nonzero with equal or linearly increasing magnitudes, rescaled so
    the signal ratio hits ``target`` exactly.
    """

    zero_fraction: float
    allocation: str
    target: float
    effect_cols: int = 1
    denominator: str = "dims"

    def __post_init__(self):
        if not 0.0 <= self.zero_fraction < 1.0:
            raise ValueError("zero_fraction must lie in [0, 1)")
        if self.allocation not in ("equal", "linear"):
            raise ValueError(f"allocation must be 'equal' or 'linear', got {self.allocation!r}")
        if self.target <= 0.0:
            raise ValueError("calibration target must be positive")
        if self.effect_cols < 1:
            raise ValueError("sparse mean needs at least one effect column")

    def nonzero_count(self, r: int) -> int:
        # the fraction is a decimal by intent; going through its repr
        # avoids binary-float residue like ceil(0.01 * 1000) == 11.  Only a
        # sparse mean needs exact arithmetic, so only it loads fractions
        from fractions import Fraction

        return int(math.ceil((1 - Fraction(str(self.zero_fraction))) * r))

    def build(self, r: int, c: int, sigma) -> np.ndarray:
        if self.effect_cols >= c:
            raise ValueError(
                f"sparse mean needs effect_cols < c, got {self.effect_cols} >= {c}"
            )
        m_nonzero = self.nonzero_count(r)
        if m_nonzero < 1:
            raise ValueError("sparse mean has no nonzero entries to calibrate")
        profile = np.zeros(r)
        profile[r - m_nonzero :] = (1.0 if self.allocation == "equal"
                                    else np.arange(1, m_nonzero + 1))
        return _calibrated(self, profile, c, sigma)


@dataclass(frozen=True)
class MultiplicativeMean(_Record, kind="multiplicative"):
    """M = [base J | t J] with a fixed multiplier, no calibration.

    The base block spans floor(0.9 c) columns and the boosted block
    the rest, so the widths always cover c (for c a multiple of 10
    this is the exact 0.9/0.1 split).
    """

    t: float
    base: float = 1.0

    def build(self, r: int, c: int, sigma) -> np.ndarray:
        base_cols = (9 * c) // 10
        if base_cols == 0 or base_cols == c:
            raise ValueError(f"multiplicative split needs c >= 2, got c = {c}")
        m = np.full((r, c), self.base)
        m[:, base_cols:] = self.t
        return m


_Mean = ZeroMean | RightBlockMean | SparseMean | MultiplicativeMean


# ---------------------------------------------------------------------------
# methods scored on every replicate
#
# A scorer takes (stack, config, per-column partition, spare) and gives one
# verdict per outcome column of its method: True (reject), False (accept)
# or None (failed).  ``spare`` is a flat array of N*r*c floats that the
# scorer may overwrite, or None when the worker has none to lend.  Scorers
# name the tests in their bodies, so the tests are looked up as module
# globals at call time and a wrapper installed on this module sees every
# call.


def _family_verdicts(raw, alpha: float) -> tuple:
    """FDR then Bonferroni: reject iff the smallest adjusted p is below alpha."""
    return tuple(
        bool(adjust_pvalues(raw, how).min() < alpha) for how in ("fdr", "bonferroni")
    )


def _score_proposed(stack, cfg, per_column, spare=None) -> tuple:
    return (mean_matrix_test(stack, cfg.partition, alpha=cfg.alpha, out=spare).reject,)


# The row-wise baselines are decided on their statistics, without p-values.
# With the statistics sorted s_1 >= ... >= s_m and t_k the point where the
# upper tail equals k alpha / m, Benjamini-Hochberg rejects iff some
# s_k > t_k and Bonferroni iff s_1 > t_1.  A replicate with a statistic
# within _BAND of its t_k, or a NaN or +inf one (whose p leaves the family),
# is decided by the p-value path instead.
_BAND = 1e-7
_TINY = np.finfo(float).tiny


def _series(factor: np.ndarray, ratios: np.ndarray, z: np.ndarray) -> np.ndarray:
    """factor times the sum of c_j z^j, c_0 = 1 and c_j = c_(j-1) ratios[j-1];
    NaN where the factor or a c_j underflows the normal floats (a lost term)."""
    coef = np.cumprod(np.r_[1.0, ratios])
    s = np.full_like(z, coef[-1])
    for c in coef[-2::-1].tolist():
        s *= z
        s += c
    kept = (factor >= _TINY) & (coef >= _TINY).all()
    return np.where(kept, factor * s, np.nan)


def _tail(df: tuple, t: np.ndarray) -> tuple:
    """Upper tail at t of the F law (df = (d1, d2), one of them even) or the
    chi-square law (df = (d,)) by finite sums, and -t times its derivative."""
    if len(df) == 1:
        nu, z = df[0], t / 2
        d = np.exp(nu / 2 * np.log(z) - z - math.lgamma(nu / 2))
        if nu % 2 == 0:
            return _series(np.exp(-z), 1 / np.arange(1, nu // 2), z), d
        q = np.vectorize(math.erfc)(np.sqrt(z))
        if nu > 1:
            q += _series(np.sqrt(2 * t / math.pi) * np.exp(-z), 1 / np.arange(3, nu - 1, 2), t)
        return q, d
    (d1, d2), a, b = df, df[1] / 2, df[0] / 2
    x, y = d2 / (d2 + d1 * t), d1 * t / (d2 + d1 * t)
    d = np.exp(a * np.log(x) + b * np.log(y) + math.lgamma(a + b) - math.lgamma(a)
               - math.lgamma(b))
    j = np.arange(1, (d1 if d1 % 2 == 0 else d2) // 2)
    if d1 % 2 == 0:
        return _series(x**a, (a + j - 1) / j, y), d
    return 1.0 - _series(y**b, (b + j - 1) / j, x), d


@functools.cache
def _critical_values(df: tuple, m: int, alpha: float):
    """t_1 > ... > t_m, or None if they cannot be placed within _BAND / 10."""
    p = alpha * np.arange(1, m + 1) / m
    with np.errstate(all="ignore"):
        hi = float(df[0]) if len(df) == 1 else 1.0
        while _tail(df, np.array([hi]))[0][0] > p[0]:
            hi *= 2
        # Newton on log q against log t from the right of every root: log q
        # is concave in log t, so the steps fall towards the root and stay
        # right of it; a step that leaves the bracket (on rounding) bisects it
        t, lo, hi = np.full(m, hi), np.zeros(m), np.full(m, hi)
        for _ in range(100):
            q, d = _tail(df, t)
            hi, lo = np.where(q < p, t, hi), np.where(q < p, lo, t)
            step = t * np.exp((np.log(q) - np.log(p)) * q / d)
            t, last = np.where((step >= lo) & (step <= hi), step, (lo + hi) / 2), t
            if (np.abs(t - last) <= 1e-13 * last).all():
                break
        # the last step bounds the error of a search that has settled; the
        # sums have positive terms, except that the F tail with d1 odd is
        # 1 - P, which is good to about (d2 + 10) eps absolute
        placed = (np.abs(t - last) <= _BAND / 1000 * t).all() and np.isfinite(q).all() and (
            len(df) == 1 or df[0] % 2 == 0 or ((df[1] + 10) * 2.0**-52 / d).max() <= _BAND / 10)
    t.flags.writeable = False  # one array serves every replicate of every run
    return t if placed else None


def _score_rowwise(statistic, rowwise, stack, cfg, per_column) -> tuple:
    stat, *df = statistic(stack, per_column)
    s = np.sort(stat)[::-1]
    t = _critical_values(tuple(df), s.size, cfg.alpha)
    if t is None or not s[0] < np.inf or (np.abs(s - t) <= _BAND * t).any():
        return _family_verdicts(rowwise(stack, per_column), cfg.alpha)
    return bool((s > t).any()), bool(s[0] > t[0])


def _score_anova(stack, cfg, per_column, spare=None) -> tuple:
    return _score_rowwise(_anova_statistic, anova_rowwise, stack, cfg, per_column)


def _score_kw(stack, cfg, per_column, spare=None) -> tuple:
    return _score_rowwise(_kruskal_statistic, kruskal_rowwise, stack, cfg, per_column)


def _score_cq(stack, cfg, per_column, spare=None) -> tuple:
    return (pairwise_cq_procedure(stack, alpha=cfg.alpha).reject,)


# each method: the outcome columns it reports and its scorer
_METHODS = {
    "proposed": (("proposed",), _score_proposed),
    "anova": (("anova_fdr", "anova_bon"), _score_anova),
    "kw": (("kw_fdr", "kw_bon"), _score_kw),
    "cq": (("cq_bon",), _score_cq),
}


# ---------------------------------------------------------------------------
# configs and reports


@dataclass(frozen=True)
class SimConfig(_Record):
    """Complete description of one simulation run."""

    n_subjects: int
    n_rows: int
    n_cols: int
    scenario: NoiseScenario
    covariance: _Covariance
    mean: _Mean
    partition: GroupPartition
    alpha: float = 0.05
    replicates: int = 1000
    seed: int = 0
    methods: tuple[str, ...] = ("proposed",)

    def __post_init__(self):
        if min(self.n_subjects, self.n_rows, self.n_cols) < 1:
            raise ValueError("dimensions must be positive")
        if (size := self.n_subjects * self.n_rows * self.n_cols) > MAX_STACK_VALUES:
            raise ValueError(f"n_subjects * n_rows * n_cols = {size} exceeds the cap of "
                             f"{MAX_STACK_VALUES} values per stack")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.replicates < 1:
            raise ValueError("replicates must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        methods = tuple(self.methods)
        if not methods:
            raise ValueError("at least one method is required")
        unknown = [m for m in methods if m not in _METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; valid: {tuple(_METHODS)}")
        if len(set(methods)) != len(methods):
            raise ValueError("duplicate method names")
        object.__setattr__(self, "methods", methods)
        if self.partition.n_cols != self.n_cols:
            raise ValueError(
                f"partition covers {self.partition.n_cols} columns, config has {self.n_cols}"
            )
        self.covariance.check_dims(self.n_rows, self.n_cols)

    def outcome_names(self) -> tuple[str, ...]:
        return tuple(name for m in self.methods for name in _METHODS[m][0])

    def to_dict(self) -> dict:
        # the scenario and the partition are written as the values they wrap
        return {**super().to_dict(), "scenario": self.scenario.tag,
                "partition": list(self.partition.assignment)}

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        """A missing or malformed field raises a ValueError naming its path."""
        return cls(**_read_fields(
            cls, d, scenario=NoiseScenario.from_tag,
            partition=lambda v: GroupPartition(_read_value(tuple[int, ...], v)),
        ))


@dataclass(frozen=True)
class MethodOutcome(_Record):
    """Rejection tally for one reported method column."""

    method: str
    rejections: int
    valid: int
    errors: int

    @property
    def proportion(self) -> float:
        return self.rejections / self.valid if self.valid else float("nan")

    @property
    def std_error(self) -> float:
        if not self.valid:
            return float("nan")
        p = self.proportion
        return math.sqrt(p * (1.0 - p) / self.valid)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "proportion": self.proportion,
                "std_error": self.std_error}


@dataclass(frozen=True)
class RejectionReport(_Record):
    """Monte Carlo outcome: one rejection proportion per method column.

    The CSV form deliberately excludes elapsed time so identical runs
    produce identical bytes.
    """

    config: SimConfig
    replicates: int
    elapsed_seconds: float
    outcomes: tuple[MethodOutcome, ...]

    CSV_HEADER = "method,rejections,valid,errors,proportion,std_error"

    def outcome(self, method: str) -> MethodOutcome:
        for out in self.outcomes:
            if out.method == method:
                return out
        raise KeyError(f"no outcome for method {method!r}")

    def csv_rows(self, *lead: str) -> list[str]:
        """One line per outcome under ``CSV_HEADER``, led by the ``lead`` fields."""
        # the columns are the outcome's JSON values; str of a float is its repr
        return [",".join((*lead, *map(str, out.to_dict().values()))) for out in self.outcomes]

    def to_csv(self) -> str:
        return "\n".join([self.CSV_HEADER, *self.csv_rows()]) + "\n"


# ---------------------------------------------------------------------------
# the harness


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for one replicate.

    Streams are defined by (seed, index) alone, so any execution order
    or thread assignment reproduces the same draws.
    """
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(seq))


def stack_buffers(config: SimConfig, root) -> tuple[np.ndarray, ...]:
    """One set of float buffers for ``gen_stack``: the stack, then the root's scratch.

    Each holds N*r*c floats, so a set takes 1 + ``root.scratch_count``
    times the size of one stack.
    """
    size = config.n_subjects * config.n_rows * config.n_cols
    return tuple(np.empty(size) for _ in range(1 + root.scratch_count))


def gen_stack(config: SimConfig, rng, *, root=None, mean=None, buffers=None) -> DataStack:
    """One stack of N subjects from the configured generative model.

    ``root`` and ``mean`` allow a caller that loops over replicates to
    reuse the covariance factorization and calibrated mean, and
    ``buffers`` (from ``stack_buffers`` for that root) to reuse the
    arrays the stack is built in.  With buffers the stack is a read-only
    view of the first one, valid until the next call with the same set;
    without, every call returns a stack of its own.
    """
    n, r, c = config.n_subjects, config.n_rows, config.n_cols
    if root is None:
        root = sqrt_factor(config.covariance, r, c)
    if mean is None:
        mean = config.mean.build(r, c, config.covariance)
    if buffers is None:
        buffers = stack_buffers(config, root)
    # the noise is drawn into the stack buffer and the root writes its
    # output over it, so the mean goes in place and the stack takes a
    # view without a copy
    x = root.apply(_noise_batch(config.scenario, rng, buffers[0].reshape(n, r, c)), buffers[1:])
    x += mean
    return DataStack._owning(x)


def monte_carlo(config: SimConfig, workers: int = 1) -> RejectionReport:
    """Rejection proportions over independent replicates.

    Every configured method is run on the same stack within a
    replicate, mirroring how competing tests are compared on common
    draws.  ANOVA and Kruskal-Wallis treat each column as its own treatment
    (the no-column-effect family) with the rule "reject iff the smallest
    adjusted p-value is below alpha", on critical values (``_score_rowwise``).

    Per-replicate failures (flagged results or errors) are excluded
    from the denominators and reported per method; the run aborts with
    ``RunAborted`` if any method fails on more than 1% of replicates.
    """
    if config.replicates < 100:
        raise ValueError("monte_carlo needs at least 100 replicates")
    n, r, c = config.n_subjects, config.n_rows, config.n_cols
    needs_columns = set(config.methods) & {"anova", "kw", "cq"}
    if needs_columns and c < 2:
        raise ValueError("column-wise baselines need at least 2 columns")
    if "proposed" in config.methods or "cq" in config.methods:
        if n < MIN_SUBJECTS:
            raise ValueError(f"proposed and cq methods need at least {MIN_SUBJECTS} subjects")

    root = sqrt_factor(config.covariance, r, c)
    mean = config.mean.build(r, c, config.covariance)
    per_column = GroupPartition(tuple(range(1, c + 1)))
    # verdicts[k]: one verdict per outcome column on replicate k
    verdicts: list = [None] * config.replicates

    def run_one(k: int, buffers) -> None:
        rng = replicate_rng(config.seed, k)
        stack = gen_stack(config, rng, root=root, mean=mean, buffers=buffers)
        # the root's scratch is free until the next stack is drawn
        spare = buffers[1] if len(buffers) > 1 else None
        row = []
        for method in config.methods:
            columns, score = _METHODS[method]
            try:
                row.extend(score(stack, config, per_column, spare))
            except (ValueError, FloatingPointError, np.linalg.LinAlgError):
                row.extend((None,) * len(columns))
        verdicts[k] = row

    # each worker claims the next index left until none is; the first error
    # stops them all and is raised once every helper has returned
    pending = iter(range(1, config.replicates))
    claim = threading.Lock()
    failures: list[BaseException] = []

    def work(buffers) -> None:
        try:
            while not failures:
                with claim:
                    k = next(pending, None)
                if k is None:
                    return
                run_one(k, buffers)
        except BaseException as exc:
            failures.append(exc)

    started = time.perf_counter()
    if workers < 1:
        raise ValueError(f"worker count must be positive, got {workers}")
    # the calling thread is worker 0 and runs replicate 0 alone, so what a
    # method loads on first use is loaded once, here; each worker builds
    # its stacks in one set of buffers, and no helper is started that could
    # never claim one of the other replicates
    buffers = stack_buffers(config, root)
    run_one(0, buffers)
    helpers = [threading.Thread(target=work, args=(stack_buffers(config, root),))
               for _ in range(min(workers, config.replicates) - 1)]
    for helper in helpers:
        helper.start()
    work(buffers)
    for helper in helpers:
        helper.join()
    if failures:
        raise failures[0]
    elapsed = time.perf_counter() - started

    outcomes = []
    for name, column in zip(config.outcome_names(), zip(*verdicts)):
        errors = column.count(None)
        if errors > 0.01 * config.replicates:
            raise RunAborted(
                f"method {name!r} failed on {errors} of {config.replicates} "
                f"replicates; aborting the run"
            )
        outcomes.append(
            MethodOutcome(
                method=name,
                rejections=column.count(True),
                valid=config.replicates - errors,
                errors=errors,
            )
        )
    return RejectionReport(
        config=config,
        replicates=config.replicates,
        elapsed_seconds=elapsed,
        outcomes=tuple(outcomes),
    )
