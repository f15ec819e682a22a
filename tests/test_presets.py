"""Preset grids: shapes, seeds, filters, and golden CSV bytes."""

from pathlib import Path

import numpy as np
import pytest

from matmean.cli import main

from matmean.core import MAX_STACK_VALUES
from matmean.covariance import (
    BlockDiagonalCovariance,
    IdentityCovariance,
    KroneckerCovariance,
)
from matmean.presets import (
    DEFAULT_REPLICATES,
    PRESET_NAMES,
    build_preset,
    parse_cell_filter,
)
from matmean.simulate import SparseMean


EXPECTED_CELLS = {
    "table1": 8,
    "table2": 24,
    "table3": 36,
    "table4": 32,
    "table5": 54,
    "webtable2": 8,
}

RUNS_PER_CELL = {
    "table1": 2,
    "table2": 1,
    "table3": 1,
    "table4": 3,
    "table5": 1,
    "webtable2": 1,
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_cell_and_run_counts(name):
    cells = build_preset(name, reps=10)
    assert len(cells) == EXPECTED_CELLS[name]
    for cell in cells:
        assert cell.preset == name
        assert len(cell.runs) == RUNS_PER_CELL[name]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_preset_stack_is_under_the_config_cap(name):
    for cell in build_preset(name, reps=10):
        for run in cell.runs:
            cfg = run.config
            assert cfg.n_subjects * cfg.n_rows * cfg.n_cols <= MAX_STACK_VALUES


def test_param_strings_and_dims():
    cells = build_preset("table1", reps=10)
    assert cells[0].params == (("r", "100"), ("N", "10"))
    assert cells[-1].params == (("r", "500"), ("N", "100"))
    for cell in cells:
        params = dict(cell.params)
        for run in cell.runs:
            assert run.config.n_rows == int(params["r"])
            assert run.config.n_subjects == int(params["N"])
            assert run.config.n_cols == 10


def test_table1_run_kinds_and_methods():
    cells = build_preset("table1", reps=10)
    for cell in cells:
        kinds = [run.kind for run in cell.runs]
        assert kinds == ["power", "size"]
        for run in cell.runs:
            assert run.config.methods == ("proposed", "anova", "kw")
            assert isinstance(run.config.covariance, IdentityCovariance)


def test_table2_sparse_means_match_params():
    cells = build_preset("table2", reps=10)
    seen = set()
    for cell in cells:
        params = dict(cell.params)
        seen.add((params["N"], params["zeros"]))
        (run,) = cell.runs
        assert run.kind == "power"
        mean = run.config.mean
        assert isinstance(mean, SparseMean)
        assert mean.zero_fraction == float(params["zeros"])
        assert mean.allocation == "linear"
        assert mean.target == 0.1
        assert run.config.n_rows == 1000
    assert len(seen) == 24


def test_table3_block_dependence_against_cq():
    cells = build_preset("table3", reps=10)
    scenarios = {dict(c.params)["scenario"] for c in cells}
    assert scenarios == {"normal", "gamma", "mixture"}
    for cell in cells:
        (run,) = cell.runs
        assert run.kind == "size"
        assert run.config.methods == ("proposed", "cq")
        assert isinstance(run.config.covariance, BlockDiagonalCovariance)
        # one factor object per group of equal blocks, so two roots per cell
        assert len({id(b) for b in run.config.covariance.blocks}) == 2
        assert run.config.scenario.tag == dict(cell.params)["scenario"]


def test_table4_partition_labels():
    cells = build_preset("table4", reps=10)
    by_c = {}
    for cell in cells:
        c = dict(cell.params)["c"]
        by_c.setdefault(c, set()).update(run.partition_label for run in cell.runs)
    assert by_c["10"] == {"10", "7-3", "5-2-3"}
    assert by_c["100"] == {"100", "70-30", "50-20-30"}
    assert by_c["500"] == {"500", "350-150", "250-100-150"}
    for cell in cells:
        for run in cell.runs:
            sizes = tuple(int(s) for s in run.partition_label.split("-"))
            assert sum(sizes) == run.config.n_cols
            assert run.config.partition.sizes == sizes
            assert isinstance(run.config.covariance, KroneckerCovariance)


def test_table5_single_partition_power():
    cells = build_preset("table5", reps=10)
    for cell in cells:
        (run,) = cell.runs
        assert run.kind == "power"
        assert run.partition_label == dict(cell.params)["c"]
        assert run.config.methods == ("proposed",)
    dims = {(dict(c.params)["r"], dict(c.params)["c"]) for c in cells}
    assert ("10", "100") not in dims
    assert ("10", "500") not in dims


def test_webtable2_baselines_only():
    cells = build_preset("webtable2", reps=10)
    for cell in cells:
        (run,) = cell.runs
        assert run.kind == "size"
        assert run.config.methods == ("anova", "kw")
        assert isinstance(run.config.covariance, KroneckerCovariance)


def test_seeds_stable_under_reps_and_distinct_per_run():
    a = build_preset("table1", reps=10)
    b = build_preset("table1", reps=500)
    seeds_a = [run.config.seed for cell in a for run in cell.runs]
    seeds_b = [run.config.seed for cell in b for run in cell.runs]
    assert seeds_a == seeds_b
    assert len(set(seeds_a)) == len(seeds_a)


def test_base_seed_changes_every_run_seed():
    a = build_preset("table1", reps=10, seed=0)
    b = build_preset("table1", reps=10, seed=1)
    for cell_a, cell_b in zip(a, b):
        for run_a, run_b in zip(cell_a.runs, cell_b.runs):
            assert run_a.config.seed != run_b.config.seed


def test_default_replicates():
    cells = build_preset("table1")
    assert all(run.config.replicates == DEFAULT_REPLICATES
               for cell in cells for run in cell.runs)


def test_build_preset_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown preset"):
        build_preset("table9")
    with pytest.raises(ValueError, match="seed"):
        build_preset("table1", seed=-1)


def test_parse_cell_filter():
    assert parse_cell_filter("r=100,N=10") == {"r": "100", "N": "10"}
    assert parse_cell_filter(" r = 100 , N = 10 ") == {"r": "100", "N": "10"}
    with pytest.raises(ValueError, match="duplicate"):
        parse_cell_filter("r=100,r=500")
    with pytest.raises(ValueError, match="empty"):
        parse_cell_filter(" , ")
    with pytest.raises(ValueError, match="key=value"):
        parse_cell_filter("r100")
    with pytest.raises(ValueError, match="key=value"):
        parse_cell_filter("r=")


def test_cell_filter_matching():
    cells = build_preset("table4", reps=10)
    hit = [c for c in cells if c.matches({"r": "10"})]
    assert len(hit) == 8
    assert {dict(c.params)["c"] for c in hit} == {"100", "500"}
    one = [c for c in cells if c.matches({"r": "100", "c": "10", "N": "30"})]
    assert len(one) == 1
    assert not any(c.matches({"rows": "100"}) for c in cells)
    assert not any(c.matches({"r": "777"}) for c in cells)


def test_mixture_scenario_everywhere_in_table1():
    cells = build_preset("table1", reps=10)
    tags = {run.config.scenario.tag for cell in cells for run in cell.runs}
    assert tags == {"mixture"}


def test_seed_values_are_large_nonnegative_ints():
    cells = build_preset("webtable2", reps=10)
    for cell in cells:
        for run in cell.runs:
            assert isinstance(run.config.seed, int)
            assert 0 <= run.config.seed < 2**64
            rng = np.random.default_rng(run.config.seed)
            rng.standard_normal(3)


# preset CSVs written at --reps 100 --seed 0 before the row-wise baselines,
# stack generation and centering were rewritten for speed; together they
# cover the proposed, ANOVA, Kruskal-Wallis and pairwise Chen-Qin methods,
# the block and Kronecker roots, partitions of one, two and three groups,
# and the normal, gamma and mixture noise draws
GOLDEN_CSVS = (
    ("table1", "r=100,N=10", "preset_table1_r100_N10.csv"),
    ("table3", "scenario=gamma,r=100,N=10", "preset_table3_gamma_r100_N10.csv"),
    ("table4", "r=10,c=100,N=10", "preset_table4_r10_c100_N10.csv"),
    ("table5", "scenario=normal,r=100,c=10,N=10", "preset_table5_normal_r100_c10_N10.csv"),
)


@pytest.mark.parametrize("preset,cell,golden", GOLDEN_CSVS, ids=[g[0] for g in GOLDEN_CSVS])
def test_preset_csv_bytes_match_golden_file(preset, cell, golden, tmp_path, capsys):
    out = tmp_path / "out.csv"
    code = main(["simulate", "--preset", preset, "--cell", cell, "--reps", "100",
                 "--seed", "0", "--workers", "1", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    expected = (Path(__file__).parent / "data" / golden).read_bytes()
    assert out.read_bytes() == expected
