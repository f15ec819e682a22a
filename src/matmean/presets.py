"""Canned Monte Carlo study designs.

Six named presets cover the package's benchmark grid: size and power of the
projection test against row-wise ANOVA / Kruskal-Wallis under independence
(table1, table2), size against pairwise Chen-Qin under block dependence
(table3), size and power under Kronecker dependence (table4, table5), and
the family-wise baseline collapse under dependence (webtable2).  Each preset
expands to a list of cells; every cell carries fully built ``SimConfig``
objects with seeds derived from the preset coordinates, so a cell's result
is reproducible in isolation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from . import DEFAULT_REPLICATES, PRESET_NAMES
from .core import GroupPartition
from .covariance import (
    Ar1Factor,
    BlockDiagonalCovariance,
    CompoundFactor,
    IdentityCovariance,
    KroneckerCovariance,
)
from .simulate import (
    MultiplicativeMean,
    NoiseScenario,
    RightBlockMean,
    SimConfig,
    SparseMean,
    ZeroMean,
)

__all__ = [
    "DEFAULT_REPLICATES",
    "PRESET_NAMES",
    "PresetCell",
    "PresetRun",
    "build_preset",
    "parse_cell_filter",
]

# Shared across table4/table5/webtable2: AR(1) rows, equicorrelated columns.
_AR_RHO = 0.85
_BLOCK_RHO_FIRST = 0.5
_BLOCK_RHO_REST = 0.4


@dataclass(frozen=True)
class PresetRun:
    """One Monte Carlo run inside a cell: a kind tag, a partition label, a config."""

    kind: str  # "power" or "size"
    partition_label: str
    config: SimConfig


@dataclass(frozen=True)
class PresetCell:
    preset: str
    params: tuple[tuple[str, str], ...]
    runs: tuple[PresetRun, ...]

    def matches(self, filters: dict[str, str]) -> bool:
        table = dict(self.params)
        return all(table.get(k) == v for k, v in filters.items())


def parse_cell_filter(text: str) -> dict[str, str]:
    """Parse a ``key=value,key=value`` cell filter string."""
    filters: dict[str, str] = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ValueError(f"bad cell filter token {token!r}, expected key=value")
        key, _, value = token.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ValueError(f"bad cell filter token {token!r}, expected key=value")
        if key in filters:
            raise ValueError(f"duplicate cell filter key {key!r}")
        filters[key] = value
    if not filters:
        raise ValueError("empty cell filter")
    return filters


def _run_seed(preset: str, param_string: str, kind: str, label: str, base_seed: int) -> int:
    key = "|".join([preset, param_string, kind, label, str(base_seed)])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _partition_label(sizes: tuple[int, ...]) -> str:
    # Dashes, not commas: cell filters split on commas.
    return "-".join(str(s) for s in sizes)


def _cell(preset, params, specs, reps, base_seed):
    """Build one PresetCell from (kind, sizes, scenario, covariance, mean, methods) tuples."""
    param_string = ",".join(f"{k}={v}" for k, v in params)
    runs = []
    for kind, sizes, scenario, covariance, mean, methods, n, r, c in specs:
        label = _partition_label(sizes)
        runs.append(
            PresetRun(
                kind=kind,
                partition_label=label,
                config=SimConfig(
                    n_subjects=n,
                    n_rows=r,
                    n_cols=c,
                    scenario=NoiseScenario(scenario),
                    covariance=covariance,
                    mean=mean,
                    partition=GroupPartition.from_sizes(sizes),
                    replicates=reps,
                    seed=_run_seed(preset, param_string, kind, label, base_seed),
                    methods=methods,
                ),
            )
        )
    return PresetCell(preset=preset, params=tuple(params), runs=tuple(runs))


def _build_table1(reps, seed):
    cells = []
    methods = ("proposed", "anova", "kw")
    for r in (100, 500):
        for n in (10, 30, 50, 100):
            params = [("r", str(r)), ("N", str(n))]
            power_mean = RightBlockMean(zero_cols=7, effect_cols=3, target=0.1)
            specs = [
                ("power", (10,), "mixture", IdentityCovariance(), power_mean, methods, n, r, 10),
                ("size", (10,), "mixture", IdentityCovariance(), ZeroMean(), methods, n, r, 10),
            ]
            cells.append(_cell("table1", params, specs, reps, seed))
    return cells


def _build_table2(reps, seed):
    # The published grid for this design reproduces only at calibration
    # target 0.1 even though the design prose says 0.15; see the sparse-mean
    # notes in the project decision log.  The preset ships the value the
    # published numbers were generated with.
    cells = []
    methods = ("proposed", "anova", "kw")
    r = 1000
    for n in (10, 30, 50, 100):
        for zeros in ("0.0", "0.25", "0.5", "0.75", "0.95", "0.99"):
            params = [("N", str(n)), ("zeros", zeros)]
            mean = SparseMean(zero_fraction=float(zeros), allocation="linear", target=0.1)
            specs = [
                ("power", (10,), "mixture", IdentityCovariance(), mean, methods, n, r, 10),
            ]
            cells.append(_cell("table2", params, specs, reps, seed))
    return cells


def _block_covariance(r: int) -> BlockDiagonalCovariance:
    # one factor object per group of equal blocks, so its root is taken once
    return BlockDiagonalCovariance(
        (Ar1Factor(r, _BLOCK_RHO_FIRST),) * 5 + (Ar1Factor(r, _BLOCK_RHO_REST),) * 5)


def _build_table3(reps, seed):
    cells = []
    for scenario in ("normal", "gamma", "mixture"):
        for r in (100, 500, 1000):
            for n in (10, 20, 30, 50):
                params = [("scenario", scenario), ("r", str(r)), ("N", str(n))]
                specs = [
                    ("size", (10,), scenario, _block_covariance(r), ZeroMean(),
                     ("proposed", "cq"), n, r, 10),
                ]
                cells.append(_cell("table3", params, specs, reps, seed))
    return cells


def _kronecker(r: int, c: int) -> KroneckerCovariance:
    return KroneckerCovariance(Ar1Factor(r, _AR_RHO), CompoundFactor(c))


def _grouped_sizes(c: int) -> tuple[tuple[int, ...], ...]:
    two = ((7 * c) // 10, (3 * c) // 10)
    three = ((5 * c) // 10, (2 * c) // 10, (3 * c) // 10)
    return ((c,), two, three)


_TABLE4_DIMS = (
    (100, 10), (500, 10), (1000, 10),
    (100, 100), (500, 100), (1000, 100),
    (10, 100), (10, 500),
)

_TABLE5_DIMS = ((100, 10), (500, 10), (1000, 10), (100, 100), (500, 100), (1000, 100))


def _build_table4(reps, seed):
    cells = []
    for r, c in _TABLE4_DIMS:
        for n in (10, 30, 50, 100):
            params = [("r", str(r)), ("c", str(c)), ("N", str(n))]
            cov = _kronecker(r, c)
            specs = [
                ("size", sizes, "mixture", cov, ZeroMean(), ("proposed",), n, r, c)
                for sizes in _grouped_sizes(c)
            ]
            cells.append(_cell("table4", params, specs, reps, seed))
    return cells


def _build_table5(reps, seed):
    cells = []
    for scenario in ("normal", "gamma", "mixture"):
        for r, c in _TABLE5_DIMS:
            for n in (10, 30, 50):
                params = [("scenario", scenario), ("r", str(r)), ("c", str(c)), ("N", str(n))]
                specs = [
                    ("power", (c,), scenario, _kronecker(r, c), MultiplicativeMean(1.15),
                     ("proposed",), n, r, c),
                ]
                cells.append(_cell("table5", params, specs, reps, seed))
    return cells


def _build_webtable2(reps, seed):
    cells = []
    for r in (100, 500):
        for n in (10, 30, 50, 100):
            params = [("r", str(r)), ("N", str(n))]
            specs = [
                ("size", (10,), "mixture", _kronecker(r, 10), ZeroMean(),
                 ("anova", "kw"), n, r, 10),
            ]
            cells.append(_cell("webtable2", params, specs, reps, seed))
    return cells


_BUILDERS = {
    "table1": _build_table1,
    "table2": _build_table2,
    "table3": _build_table3,
    "table4": _build_table4,
    "table5": _build_table5,
    "webtable2": _build_webtable2,
}


def build_preset(name: str, reps: int | None = None, seed: int = 0) -> tuple[PresetCell, ...]:
    """Expand a preset name into its cells.

    ``reps`` defaults to the benchmark scale (1000).  ``seed`` offsets every
    derived per-run seed, so two calls with different seeds are independent
    studies while the same seed replays exactly.
    """
    if name not in _BUILDERS:
        raise ValueError(f"unknown preset {name!r}; choose one of {', '.join(PRESET_NAMES)}")
    if reps is None:
        reps = DEFAULT_REPLICATES
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    return tuple(_BUILDERS[name](int(reps), int(seed)))
