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
then ``workers - 1`` helper threads take the remaining replicates
alongside it.  Each worker builds its stacks in one set of buffers
that lives for the whole run: N*r*c floats for the stack, plus the
same again for each scratch array the covariance root needs (none for
the identity, one for compound symmetry, two otherwise).
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .baselines import adjust_pvalues, anova_rowwise, kruskal_rowwise, pairwise_cq_procedure
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
    "WORKERS_ENV_VAR",
]

WORKERS_ENV_VAR = "MATMEAN_WORKERS"

_SCENARIO_TAGS = ("normal", "gamma", "mixture")

# gamma noise: shape 4, rate 1/2, standardized as (z - 8) / 4
_GAMMA_SHAPE = 4.0
_GAMMA_SCALE = 2.0
_GAMMA_MEAN = 8.0
_GAMMA_SD = 4.0

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
        # gamma(shape, scale) is scale * standard_gamma(shape)
        rng.standard_gamma(_GAMMA_SHAPE, out=rows)
    tail = z[:, top:]
    tail *= _GAMMA_SCALE
    tail -= _GAMMA_MEAN
    tail /= _GAMMA_SD
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


def _check_ratio(m: np.ndarray, target: float, denom: float) -> None:
    realized = float((m * m).sum()) / denom
    if abs(realized - target) > _CALIBRATION_TOL * max(1.0, abs(target)):
        raise ValueError(
            f"calibration failed: realized ratio {realized!r} vs target {target!r}"
        )


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
        denom = _calibration_denominator(self.denominator, r, c, sigma)
        t = math.sqrt(self.target * denom / (r * self.effect_cols))
        m = np.zeros((r, c))
        m[:, self.zero_cols :] = t
        _check_ratio(m, self.target, denom)
        return m


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
        # avoids binary-float residue like ceil(0.01 * 1000) == 11
        return int(math.ceil((1 - Fraction(str(self.zero_fraction))) * r))

    def build(self, r: int, c: int, sigma) -> np.ndarray:
        if self.effect_cols >= c:
            raise ValueError(
                f"sparse mean needs effect_cols < c, got {self.effect_cols} >= {c}"
            )
        m_nonzero = self.nonzero_count(r)
        if m_nonzero < 1:
            raise ValueError("sparse mean has no nonzero entries to calibrate")
        denom = _calibration_denominator(self.denominator, r, c, sigma)
        if self.allocation == "equal":
            shape = np.ones(m_nonzero)
        else:
            shape = np.arange(1, m_nonzero + 1, dtype=float)
        scale = math.sqrt(
            self.target * denom / (self.effect_cols * float(shape @ shape))
        )
        u = np.zeros(r)
        u[r - m_nonzero :] = scale * shape
        m = np.zeros((r, c))
        m[:, c - self.effect_cols :] = u[:, None]
        _check_ratio(m, self.target, denom)
        return m


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
# A scorer takes (stack, config, per-column partition) and gives one
# verdict per outcome column of its method: True (reject), False (accept)
# or None (failed).  Scorers name the tests in their bodies, so the tests
# are looked up as module globals at call time and a wrapper installed on
# this module sees every call.


def _family_verdicts(raw, alpha: float) -> tuple:
    """FDR then Bonferroni: reject iff the smallest adjusted p is below alpha."""
    return tuple(
        bool(adjust_pvalues(raw, how).min() < alpha) for how in ("fdr", "bonferroni")
    )


def _score_proposed(stack, cfg, per_column) -> tuple:
    return (mean_matrix_test(stack, cfg.partition, alpha=cfg.alpha).reject,)


def _score_anova(stack, cfg, per_column) -> tuple:
    return _family_verdicts(anova_rowwise(stack, per_column), cfg.alpha)


def _score_kw(stack, cfg, per_column) -> tuple:
    return _family_verdicts(kruskal_rowwise(stack, per_column), cfg.alpha)


def _score_cq(stack, cfg, per_column) -> tuple:
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


def _worker_count(workers: int | None) -> int:
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV_VAR, "1"))
    if workers < 1:
        raise ValueError(f"worker count must be positive, got {workers}")
    return workers


def monte_carlo(config: SimConfig, workers: int | None = None) -> RejectionReport:
    """Rejection proportions over independent replicates.

    Every configured method is run on the same stack within a
    replicate, mirroring how competing tests are compared on common
    draws.  ANOVA and Kruskal-Wallis treat each column as its own
    treatment (the no-column-effect family) with the family-wise rule
    "reject iff the smallest adjusted p-value is below alpha".

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
        row = []
        for method in config.methods:
            columns, score = _METHODS[method]
            try:
                row.extend(score(stack, config, per_column))
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
    n_workers = _worker_count(workers)
    # the calling thread is worker 0 and runs replicate 0 alone, so what a
    # method loads on first use is loaded once, here; each worker builds
    # its stacks in one set of buffers
    buffers = stack_buffers(config, root)
    run_one(0, buffers)
    helpers = [threading.Thread(target=work, args=(stack_buffers(config, root),))
               for _ in range(n_workers - 1)]
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
