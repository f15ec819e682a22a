"""Command-line behavior, end to end and in process."""

import importlib.resources as resources
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from matmean import discover_structure, mean_matrix_test
from matmean.cli import main, parse_partition_spec, CliError
from matmean.core import DataStack
from matmean.covariance import IdentityCovariance
from matmean.io import load_stack, write_stack_file
from matmean.simulate import NoiseScenario, SimConfig, ZeroMean
from matmean.core import GroupPartition


with resources.files("matmean").joinpath("report.schema.json").open("r") as _fh:
    _SCHEMA = json.load(_fh)


def _run(argv, capsys):
    """Invoke the CLI in process; parse and schema-check its report."""
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    if report is not None:
        jsonschema.validate(report, _SCHEMA)
    return code, report, captured.err


def _effect_file(path, seed=42, n=12, r=30, c=6, shift=1.2, shifted=(4, 5)):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, r, c))
    for b in shifted:
        v[:, :, b] += shift
    write_stack_file(str(path), DataStack(v))
    return v


def _null_file(path, seed=99, n=12, r=30, c=6):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, r, c))
    write_stack_file(str(path), DataStack(v))
    return v


def _write_long(path, values, subj, rows, cols):
    n, r, c = values.shape
    with open(path, "w") as fh:
        fh.write("subject_id\trow_id\tcol_id\tvalue\n")
        for i in range(n):
            for a in range(r):
                for b in range(c):
                    fh.write(f"{subj[i]}\t{rows[a]}\t{cols[b]}\t"
                             f"{float(values[i, a, b])!r}\n")


# ---------------------------------------------------------------------------
# test subcommand


def test_partition_mode_detects_block_shift(tmp_path, capsys):
    data = tmp_path / "effect.tsv"
    _effect_file(data)
    # Group {3,4,5} mixes unshifted and shifted columns, so H0 is false.
    code, report, err = _run(["test", str(data), "--partition", "sizes=3,3"], capsys)
    assert code == 0
    assert err == ""
    assert report["schema_version"] == 1
    assert report["command"] == "test"
    assert report["data"]["format"] == "stack"
    assert report["hypothesis"]["mode"] == "partition"
    assert report["hypothesis"]["partition"]["sizes"] == [3, 3]
    assert report["result"]["reject"] is True
    assert report["result"]["p_value"] < 0.01


def test_partition_respecting_groups_is_calm(tmp_path, capsys):
    data = tmp_path / "effect.tsv"
    _effect_file(data)
    # Both shifted columns share a group, so the group means agree.
    code, report, _ = _run(["test", str(data), "--partition", "sizes=4,2"], capsys)
    assert code == 0
    assert report["result"]["reject"] is False


def test_exactly_one_hypothesis_mode_required(tmp_path, capsys):
    data = tmp_path / "d.tsv"
    _null_file(data)
    code, report, err = _run(["test", str(data)], capsys)
    assert code == 1 and report is None
    assert "exactly one hypothesis mode" in err
    code, _, err = _run(
        ["test", str(data), "--partition", "sizes=6", "--known-difference", "0"],
        capsys,
    )
    assert code == 1
    assert "exactly one hypothesis mode" in err


def test_partition_spec_errors(tmp_path, capsys):
    data = tmp_path / "d.tsv"
    _null_file(data)
    code, _, err = _run(["test", str(data), "--partition", "sizes=4,4"], capsys)
    assert code == 1 and "sum to 8" in err and "6 columns" in err
    code, _, err = _run(["test", str(data), "--partition", "blocks=3,3"], capsys)
    assert code == 1 and "bad partition spec" in err
    code, _, err = _run(["test", str(data), "--partition", "groups=1:a"], capsys)
    assert code == 1 and "must cover every column" in err
    code, _, err = _run(
        ["test", str(data), "--partition", "groups=zz:a"], capsys)
    assert code == 1 and "unknown columns" in err


def test_parse_partition_spec_unit():
    ids = ("w", "x", "y", "z")
    p = parse_partition_spec("groups=w:a, x:a, y:b, z:b", ids)
    assert p.assignment == (1, 1, 2, 2)
    p = parse_partition_spec("sizes=3,1", ids)
    assert p.sizes == (3, 1)
    with pytest.raises(CliError, match="assigned twice"):
        parse_partition_spec("groups=w:a,w:b,x:a,y:a,z:a", ids)
    with pytest.raises(CliError, match="colid:groupid"):
        parse_partition_spec("groups=w-a", ids)
    with pytest.raises(CliError, match="must be integers"):
        parse_partition_spec("sizes=2,two", ids)


@pytest.mark.parametrize("spec, message", [
    ("sizes=", "partition spec 'sizes=' names no groups"),
    ("sizes=0,3", "partition group sizes must be positive"),
    ("groups=a:", "bad group token 'a:', expected colid:groupid"),
    # empty tokens are skipped, so the spec leaves columns out
    ("groups=", "partition must cover every column; missing: w, x, y, z"),
    ("groups=w:a,,x:a", "partition must cover every column; missing: y, z"),
])
def test_bad_partition_spec_is_refused_with_its_message(spec, message):
    with pytest.raises(CliError) as info:
        parse_partition_spec(spec, ("w", "x", "y", "z"))
    assert str(info.value) == message


def test_rows_orientation_matches_manual_transpose(tmp_path, capsys):
    rng = np.random.default_rng(7)
    v = rng.standard_normal((8, 5, 12))
    v[:, 4, :] += 0.9  # one ROW of the second row-group carries the shift
    by_rows = tmp_path / "by_rows.tsv"
    write_stack_file(str(by_rows), DataStack(v))
    pre_t = tmp_path / "pre_t.tsv"
    write_stack_file(str(pre_t), DataStack(v.transpose(0, 2, 1).copy()))

    code_a, rep_a, _ = _run(
        ["test", str(by_rows), "--orientation", "rows", "--partition", "sizes=3,2"],
        capsys,
    )
    code_b, rep_b, _ = _run(
        ["test", str(pre_t), "--partition", "sizes=3,2"], capsys)
    assert code_a == code_b == 0
    assert rep_a["result"]["statistic"] == pytest.approx(
        rep_b["result"]["statistic"], rel=1e-12)
    assert rep_a["result"]["reject"] is True
    assert rep_a["data"]["orientation"] == "rows"
    assert rep_a["result"]["orientation"] == "rows"


def test_rows_orientation_of_known_mean_tests_is_reported(tmp_path, capsys):
    # the known-mean tests run on the transposed stack; the result must
    # still say which orientation was tested, as the data block does
    rng = np.random.default_rng(9)
    v = rng.standard_normal((8, 2, 6))
    by_rows = tmp_path / "by_rows.tsv"
    write_stack_file(str(by_rows), DataStack(v))
    pre_t = tmp_path / "pre_t.tsv"
    write_stack_file(str(pre_t), DataStack(v.transpose(0, 2, 1).copy()))
    m0 = tmp_path / "m0.txt"
    m0.write_text("0 0\n" * 6)
    for mode in (["--m0", str(m0)], ["--known-difference", "0"]):
        code, rep, _ = _run(["test", str(by_rows), "--orientation", "rows", *mode], capsys)
        assert code == 0
        assert rep["data"]["orientation"] == rep["result"]["orientation"] == "rows"
        code, direct, _ = _run(["test", str(pre_t), *mode], capsys)
        assert code == 0
        assert direct["result"]["orientation"] == "columns"
        assert rep["result"]["statistic"] == direct["result"]["statistic"]


def test_known_matrix_mode(tmp_path, capsys):
    rng = np.random.default_rng(21)
    m0 = rng.standard_normal((8, 4))
    v = rng.standard_normal((10, 8, 4)) + m0
    data = tmp_path / "d.tsv"
    write_stack_file(str(data), DataStack(v))
    m0_path = tmp_path / "m0.txt"
    with open(m0_path, "w") as fh:
        for row in m0:
            fh.write("\t".join(repr(float(x)) for x in row) + "\n")

    code, report, _ = _run(["test", str(data), "--m0", str(m0_path)], capsys)
    assert code == 0
    assert report["hypothesis"]["mode"] == "known_matrix"
    assert report["result"]["reject"] is False

    wrong = tmp_path / "wrong.txt"
    with open(wrong, "w") as fh:
        for row in m0 + 0.8:
            fh.write("\t".join(repr(float(x)) for x in row) + "\n")
    code, report, _ = _run(["test", str(data), "--m0", str(wrong)], capsys)
    assert code == 0
    assert report["result"]["reject"] is True


def test_known_difference_modes(tmp_path, capsys):
    rng = np.random.default_rng(33)
    v = rng.standard_normal((12, 30, 2))
    v[:, :, 0] += 0.8  # hypothesis convention: first column minus second
    data = tmp_path / "pair.tsv"
    write_stack_file(str(data), DataStack(v))

    code, rep_true, _ = _run(
        ["test", str(data), "--known-difference", "0.8"], capsys)
    assert code == 0
    assert rep_true["hypothesis"] == {"mode": "known_difference", "mu0": 0.8}
    assert rep_true["result"]["reject"] is False

    vec = tmp_path / "mu0.txt"
    vec.write_text("".join("0.8\n" for _ in range(30)))
    code, rep_file, _ = _run(
        ["test", str(data), "--known-difference", f"@{vec}"], capsys)
    assert code == 0
    assert rep_file["result"]["statistic"] == rep_true["result"]["statistic"]

    code, rep_zero, _ = _run(
        ["test", str(data), "--known-difference", "0.0"], capsys)
    assert code == 0
    assert rep_zero["result"]["reject"] is True


def test_known_difference_input_errors(tmp_path, capsys):
    data3 = tmp_path / "three.tsv"
    _null_file(data3, c=3)
    code, _, err = _run(["test", str(data3), "--known-difference", "0"], capsys)
    assert code == 1 and "exactly 2 columns" in err
    data2 = tmp_path / "two.tsv"
    _null_file(data2, c=2)
    code, _, err = _run(["test", str(data2), "--known-difference", "abc"], capsys)
    assert code == 1 and "expected a number or @file" in err


def test_csv_sidecar(tmp_path, capsys):
    data = tmp_path / "effect.tsv"
    _effect_file(data)
    out = tmp_path / "result.csv"
    code, report, _ = _run(
        ["test", str(data), "--partition", "sizes=3,3", "--csv", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "statistic,p_value,reject,alpha,n_used,r_used,c_used,failure"
    cells = lines[1].split(",")
    assert float(cells[0]) == report["result"]["statistic"]
    assert cells[2] == "true"
    assert cells[7] == ""


def test_long_format_ids_and_dropped_columns(tmp_path, capsys):
    rng = np.random.default_rng(5)
    v = rng.standard_normal((8, 12, 4))
    v[:, :, 1] += 1.5
    data = tmp_path / "long.tsv"
    _write_long(str(data), v, [f"s{i}" for i in range(8)],
                [f"g{a}" for a in range(12)], ["w", "x", "y", "z"])
    code, report, _ = _run(
        ["test", str(data), "--partition", "groups=w:a,x:a,y:b,z:c"], capsys)
    assert code == 0
    assert report["data"]["ids"]["cols"] == ["w", "x", "y", "z"]
    # Singleton groups y and z are dropped; the shifted column x remains.
    assert report["result"]["dropped_columns"] == ["y", "z"]
    assert report["result"]["c_used"] == 2
    assert any("dropped" in w for w in report["warnings"])
    assert report["result"]["reject"] is True


def test_degenerate_data_reports_failure_and_exits_nonzero(tmp_path, capsys):
    one = np.arange(12.0).reshape(3, 4)
    v = np.stack([one] * 4)
    data = tmp_path / "degenerate.tsv"
    write_stack_file(str(data), DataStack(v))
    code, report, err = _run(["test", str(data), "--partition", "sizes=2,2"], capsys)
    assert code == 1
    assert "unstable variance" in err
    assert report["result"]["failure"] is not None
    assert report["result"]["statistic"] is None
    assert report["result"]["reject"] is None


def test_missing_file_is_operational_error(capsys):
    code, report, err = _run(["test", "/nonexistent/x.tsv",
                              "--partition", "sizes=2"], capsys)
    assert code == 1 and report is None
    assert "error:" in err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["test"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# screen subcommand


def _screen_fixture(tmp_path):
    rng = np.random.default_rng(61)
    v = rng.standard_normal((12, 30, 6))
    v[:, :20, 4:] += 1.2  # effect lives in the first twenty rows only
    data = tmp_path / "screen.tsv"
    write_stack_file(str(data), DataStack(v))
    sets = tmp_path / "sets.txt"
    sets.write_text(
        "# named row subsets\n"
        "big\t" + "\t".join(str(k) for k in range(1, 21)) + "\n"
        "quiet\t" + "\t".join(str(k) for k in range(21, 31)) + "\n"
        "tiny\t1\t2\t3\n"
    )
    return data, sets


def test_screen_adjusts_and_skips(tmp_path, capsys):
    data, sets = _screen_fixture(tmp_path)
    out = tmp_path / "screen.csv"
    code, report, _ = _run(
        ["screen", str(data), "--sets", str(sets), "--partition", "sizes=3,3",
         "--csv", str(out)],
        capsys,
    )
    assert code == 0
    assert report["command"] == "screen"
    assert report["correction"] == "fdr"
    by_name = {e["name"]: e for e in report["sets"]}
    assert set(by_name) == {"big", "quiet"}
    assert by_name["big"]["reject"] is True
    assert by_name["big"]["p_adjusted"] >= by_name["big"]["p_value"]
    assert report["skipped"] == [
        {"name": "tiny", "n_rows": 3, "reason": "fewer than 8 rows"}
    ]
    assert any("skipped" in w for w in report["warnings"])
    assert report["n_rejected"] >= 1
    lines = out.read_text().splitlines()
    assert lines[0] == "set,n_rows,statistic,p_value,p_adjusted,reject"
    assert len(lines) == 3


def test_screen_bonferroni_dominates_fdr(tmp_path, capsys):
    data, sets = _screen_fixture(tmp_path)
    code, rep_fdr, _ = _run(
        ["screen", str(data), "--sets", str(sets), "--partition", "sizes=3,3"],
        capsys,
    )
    code2, rep_bon, _ = _run(
        ["screen", str(data), "--sets", str(sets), "--partition", "sizes=3,3",
         "--correction", "bonferroni"],
        capsys,
    )
    assert code == code2 == 0
    for e_f, e_b in zip(rep_fdr["sets"], rep_bon["sets"]):
        assert e_b["p_adjusted"] >= e_f["p_adjusted"] - 1e-15


def _bh_reference(ps):
    """Benjamini-Hochberg adjusted values, rank by rank in plain Python."""
    order = sorted(range(len(ps)), key=lambda k: ps[k])
    out, running = [0.0] * len(ps), 1.0
    for rank in range(len(ps), 0, -1):
        k = order[rank - 1]
        running = min(running, ps[k] * len(ps) / rank)
        out[k] = running
    return out


@pytest.mark.parametrize("correction", ["fdr", "bonferroni"])
def test_screen_leaves_a_failed_set_out_of_the_family(tmp_path, capsys, correction):
    data, sets = _screen_fixture(tmp_path)
    v = load_stack(str(data)).stack.values.copy()
    v[:, 20:, :] = 0.0  # the rows of "quiet" centre to zero: its test fails
    write_stack_file(str(data), DataStack(v))
    with open(sets, "a") as fh:
        fh.write("second\t" + "\t".join(str(k) for k in range(1, 11)) + "\n")
    out = tmp_path / "screen.csv"
    code, report, _ = _run(
        ["screen", str(data), "--sets", str(sets), "--partition", "sizes=3,3",
         "--correction", correction, "--csv", str(out)],
        capsys,
    )
    assert code == 0
    by_name = {e["name"]: e for e in report["sets"]}
    dead = by_name["quiet"]
    assert dead["failure"] is not None
    assert dead["p_value"] is None and dead["p_adjusted"] is None and dead["reject"] is None
    assert "1 set(s) failed and were excluded from adjustment" in report["warnings"]
    # the two sets that ran form the family
    raw = [by_name[name]["p_value"] for name in ("big", "second")]
    if correction == "fdr":
        expected = _bh_reference(raw)
    else:
        expected = [min(1.0, p * 2) for p in raw]
    for name, e in zip(("big", "second"), expected):
        assert by_name[name]["p_adjusted"] == pytest.approx(e, rel=1e-12)
        assert by_name[name]["reject"] == (by_name[name]["p_adjusted"] < 0.05)
    rows = {line.split(",")[0]: line for line in out.read_text().splitlines()[1:]}
    assert rows["quiet"] == "quiet,10,,,,"


def test_screen_exits_one_when_every_set_fails(tmp_path, capsys):
    data, sets = _screen_fixture(tmp_path)
    write_stack_file(str(data), DataStack(np.ones((12, 30, 6))))  # constant data
    code, report, err = _run(
        ["screen", str(data), "--sets", str(sets), "--partition", "sizes=3,3"], capsys)
    assert code == 1
    assert err == "error: no row set produced a usable test result\n"
    assert [e["name"] for e in report["sets"]] == ["big", "quiet"]
    assert all(e["failure"] is not None and e["reject"] is None for e in report["sets"])
    assert report["n_rejected"] == 0


def test_screen_unknown_row_id_is_fatal(tmp_path, capsys):
    data, _ = _screen_fixture(tmp_path)
    sets = tmp_path / "bad_sets.txt"
    sets.write_text("odd\t1\t2\t3\t4\t5\t6\t7\tbogus\n")
    code, report, err = _run(
        ["screen", str(data), "--sets", str(sets), "--partition", "sizes=3,3"],
        capsys,
    )
    assert code == 1 and report is None
    assert "unknown row ids" in err and "bogus" in err


def test_screen_min_set_size_override(tmp_path, capsys):
    data, sets = _screen_fixture(tmp_path)
    code, report, _ = _run(
        ["screen", str(data), "--sets", str(sets), "--partition", "sizes=3,3",
         "--min-set-size", "3"],
        capsys,
    )
    assert code == 0
    assert {e["name"] for e in report["sets"]} == {"big", "quiet", "tiny"}
    assert report["skipped"] == []
    # each set's statistic is the test on that set's rows alone
    stack = load_stack(str(data)).stack
    rows = {"big": range(20), "quiet": range(20, 30), "tiny": range(3)}
    for e in report["sets"]:
        direct = mean_matrix_test(stack.take_rows(rows[e["name"]]),
                                  GroupPartition.from_sizes((3, 3)))
        assert e["statistic"] == pytest.approx(direct.statistic, rel=1e-12)


# ---------------------------------------------------------------------------
# discover subcommand


def test_discover_recovers_two_block_grouping(tmp_path, capsys):
    data = tmp_path / "effect.tsv"
    _effect_file(data, seed=42)
    code, report, _ = _run(["discover", str(data)], capsys)
    assert code == 0
    assert report["conclusion"] == "grouped columns"
    steps = report["steps"]
    assert steps["overall"]["reject"] is True
    assert len(steps["pairs"]) == 15
    assert sorted(steps["grouping"]["sizes"]) == [2, 4]
    a = steps["grouping"]["assignment"]
    assert a[0] == a[1] == a[2] == a[3] and a[4] == a[5] and a[0] != a[4]
    assert steps["final"]["reject"] is False


def test_discover_null_stops_at_step_one(tmp_path, capsys):
    data = tmp_path / "null.tsv"
    _null_file(data, seed=99)
    code, report, _ = _run(["discover", str(data)], capsys)
    assert code == 0
    assert report["conclusion"] == "column-independent mean"
    assert report["steps"]["pairs"] is None
    assert report["steps"]["final"] is None


def test_discover_all_columns_distinct(tmp_path, capsys):
    rng = np.random.default_rng(8)
    v = rng.standard_normal((10, 30, 3))
    v[:, :, 1] += 5.0
    v[:, :, 2] += 10.0
    data = tmp_path / "distinct.tsv"
    write_stack_file(str(data), DataStack(v))
    code, report, _ = _run(["discover", str(data)], capsys)
    assert code == 0
    assert report["conclusion"] == "unstructured"
    assert report["steps"]["grouping"] is None


def test_discover_exits_one_when_the_overall_test_fails(tmp_path, capsys):
    data = tmp_path / "constant.tsv"
    write_stack_file(str(data), DataStack(np.ones((8, 10, 4))))
    code, report, err = _run(["discover", str(data)], capsys)
    assert code == 1
    failure = report["steps"]["overall"]["failure"]
    assert failure is not None and err == f"error: {failure}\n"
    assert report["conclusion"] is None
    assert report["steps"]["pairs"] is None and report["steps"]["final"] is None


def test_discover_recovery_rate_under_strong_effect():
    rng = np.random.default_rng(2026)
    reps, hits = 200, 0
    for _ in range(reps):
        v = rng.standard_normal((20, 40, 3))
        v[:, :, 2] += 1.0
        trace = discover_structure(DataStack(v), alpha=0.05)
        if trace["conclusion"] == "grouped columns":
            a = trace["grouping"]["assignment"]
            if a[0] == a[1] != a[2]:
                hits += 1
    assert hits / reps >= 0.90


def test_discover_null_stop_rate_matches_level():
    rng = np.random.default_rng(515)
    reps, stops = 200, 0
    for _ in range(reps):
        v = rng.standard_normal((15, 25, 4))
        if discover_structure(DataStack(v))["conclusion"] == "column-independent mean":
            stops += 1
    assert stops / reps >= 0.90


def test_discover_failed_pair_counts_in_the_bonferroni_family(tmp_path, capsys):
    v = _effect_file(tmp_path / "unused.tsv", seed=42)
    v[:, :, 1] = v[:, :, 0]  # the pair (0, 1) has a zero difference: its test fails
    data = tmp_path / "twin.tsv"
    write_stack_file(str(data), DataStack(v))
    code, report, _ = _run(["discover", str(data)], capsys)
    assert code == 0
    pairs = report["steps"]["pairs"]
    assert len(pairs) == 15
    failed = [e for e in pairs if e["failure"] is not None]
    assert [e["cols"] for e in failed] == [[0, 1]]
    assert failed[0]["p_fdr"] is None and failed[0]["p_bonferroni"] is None
    ran = [e for e in pairs if e["failure"] is None]
    # Bonferroni counts all 15 attempted pairs; FDR only the 14 that ran
    for e, fdr in zip(ran, _bh_reference([e["p_value"] for e in ran])):
        assert e["p_bonferroni"] == min(1.0, e["p_value"] * 15)
        assert e["p_fdr"] == pytest.approx(fdr, rel=1e-12)


# ---------------------------------------------------------------------------
# simulate subcommand


def test_simulate_mode_flags(tmp_path, capsys):
    code, _, err = _run(["simulate"], capsys)
    assert code == 1 and "exactly one of --preset or --config" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    code, _, err = _run(
        ["simulate", "--preset", "table1", "--config", str(cfg)], capsys)
    assert code == 1 and "exactly one" in err
    code, _, err = _run(
        ["simulate", "--config", str(cfg), "--cell", "r=100"], capsys)
    assert code == 1 and "--cell only applies" in err


def test_simulate_preset_cell(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code, report, _ = _run(
        ["simulate", "--preset", "table1", "--cell", "r=100,N=10",
         "--reps", "100", "--seed", "3", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert report["mode"] == "preset"
    assert report["preset"] == "table1"
    assert report["replicates"] == 100
    assert len(report["cells"]) == 1
    cell = report["cells"][0]
    assert cell["params"] == {"r": "100", "N": "10"}
    kinds = [run["kind"] for run in cell["runs"]]
    assert kinds == ["power", "size"]
    for run in cell["runs"]:
        # Row-wise baselines report one column per multiplicity correction.
        assert {o["method"] for o in run["outcomes"]} == {
            "proposed", "anova_bon", "anova_fdr", "kw_bon", "kw_fdr"}
        for o in run["outcomes"]:
            assert o["valid"] + o["errors"] == 100

    lines = out.read_text().splitlines()
    assert lines[0].startswith("preset,scenario,r,c,N,zeros,kind,partition,method")
    assert len(lines) == 1 + 2 * 5
    first = lines[1].split(",")
    assert first[0] == "table1" and first[1] == "mixture"
    assert first[2] == "100" and first[4] == "10"
    assert first[5] == ""  # zeros column only applies to the sparse design


def test_simulate_cell_without_match(capsys):
    code, _, err = _run(
        ["simulate", "--preset", "table1", "--cell", "r=7", "--reps", "5"], capsys)
    assert code == 1
    assert "no table1 cell matches" in err


def test_simulate_config_mode(tmp_path, capsys):
    cfg = SimConfig(
        n_subjects=10, n_rows=20, n_cols=5,
        scenario=NoiseScenario("normal"),
        covariance=IdentityCovariance(),
        mean=ZeroMean(),
        partition=GroupPartition.from_sizes((5,)),
        replicates=120, seed=9, methods=("proposed",),
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    out = tmp_path / "run.csv"
    code, report, _ = _run(
        ["simulate", "--config", str(path), "--out", str(out)], capsys)
    assert code == 0
    assert report["mode"] == "config"
    assert report["report"]["replicates"] == 120
    (outcome,) = report["report"]["outcomes"]
    assert outcome["method"] == "proposed"
    assert 0.0 <= outcome["proportion"] <= 0.2
    assert out.read_text().splitlines()[0].startswith("method,")

    code, report, _ = _run(
        ["simulate", "--config", str(path), "--reps", "150"], capsys)
    assert code == 0
    assert report["report"]["replicates"] == 150


def test_simulate_seed_flag_overrides_the_config_seed(tmp_path, capsys):
    # --seed 0 must choose seed 0, not fall back to the file's seed
    methods = ("proposed", "cq")
    seven = _method_config(tmp_path / "seven.json", methods, seed=7)
    zero = _method_config(tmp_path / "zero.json", methods, seed=0)

    def csv(config, *flags):
        out = tmp_path / "out.csv"
        assert _run(["simulate", "--config", str(config), "--out", str(out), *flags],
                    capsys)[0] == 0
        return out.read_text()

    assert csv(seven) != csv(zero)
    assert csv(seven, "--seed", "0") == csv(zero)
    assert csv(zero, "--seed", "7") == csv(seven)
    # an omitted --seed keeps the file's seed
    assert csv(seven) == csv(seven, "--seed", "7")


def test_simulate_bad_config_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = _run(["simulate", "--config", str(path)], capsys)
    assert code == 1 and "invalid JSON" in err


@pytest.mark.parametrize("case", ["factor without rho", "no partition", "array"])
def test_simulate_malformed_config_names_the_problem(tmp_path, capsys, case):
    raw = json.loads(_method_config(tmp_path / "good.json", ("proposed",)).read_text())
    if case == "factor without rho":
        raw["covariance"] = {"kind": "kronecker", "row": {"kind": "ar1", "dim": 5},
                             "col": {"kind": "ar1", "dim": 4, "rho": 0.3}}
        expected = "field 'covariance': field 'row': missing field 'rho'"
    elif case == "no partition":
        del raw["partition"]
        expected = "missing field 'partition'"
    else:
        raw = [raw]
        expected = "does not hold a JSON object"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    code, report, err = _run(["simulate", "--config", str(path)], capsys)
    assert code == 1 and report is None
    assert err == f"error: {path}: {expected}\n"


_KRONECKER_ROW_DIM_6_5 = {"kind": "kronecker", "row": {"kind": "ar1", "dim": 6.5, "rho": 0.3},
                          "col": {"kind": "ar1", "dim": 4, "rho": 0.3}}
_TARGET_STRING = {"kind": "right_block", "zero_cols": 2, "effect_cols": 2, "target": "0.1"}


@pytest.mark.parametrize("field, value", [
    ("partition", 5), ("covariance", []), ("mean", "zero"), ("n_rows", None),
    ("methods", "proposed"), ("methods", ["proposed", 3]), ("alpha", "high"),
    ("n_rows", 6.7), ("n_rows", "6"), ("n_rows", True), ("seed", 1.5), ("partition", "1122"),
    ("covariance", _KRONECKER_ROW_DIM_6_5), ("mean", _TARGET_STRING),
], ids=["partition=5", "covariance=[]", "mean=zero", "n_rows=null", "methods=string",
        "methods=mixed", "alpha=string", "n_rows=6.7", "n_rows=string", "n_rows=true",
        "seed=1.5", "partition=string", "covariance.row.dim=6.5", "mean.target=string"])
def test_simulate_config_field_of_the_wrong_type_is_named(tmp_path, capsys, field, value):
    raw = json.loads(_method_config(tmp_path / "good.json", ("proposed",)).read_text())
    raw[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    code, report, err = _run(["simulate", "--config", str(path)], capsys)
    assert code == 1 and report is None
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert repr(field) in err or f"{field} " in err


_DENSE_4 = [[1, 0.5, 0, 0], [0.5, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
_TWO_BY_TWO = {"n_rows": 2, "n_cols": 2, "partition": [1, 1]}


@pytest.mark.parametrize("changes, expected", [
    ({"seeeed": 5}, "unknown key 'seeeed'"),
    ({"covariance": {"kind": "kronecker", "row": {"kind": "compound", "dim": 5, "rh0": 0.9},
                     "col": {"kind": "ar1", "dim": 4, "rho": 0.3}}},
     "field 'covariance': field 'row': unknown key 'rh0'"),
    ({"mean": {"kind": "zero", "target": 0.1}}, "field 'mean': unknown key 'target'"),
    ({**_TWO_BY_TWO, "covariance": {"kind": "dense", "values": [[1, "0.5", 0, 0], *_DENSE_4[1:]]}},
     "field 'covariance': field 'values': entry 0: entry 1: expected a number, got '0.5'"),
    ({**_TWO_BY_TWO, "covariance": {"kind": "dense", "values": [*_DENSE_4[:3], [0, 0, 0, True]]}},
     "field 'covariance': field 'values': entry 3: entry 3: expected a number, got True"),
    ({"covariance": {"kind": "block_diagonal",
                     "blocks": [{"kind": "ar1", "dim": 10, "rho": 0.3}, {}]}},
     "field 'covariance': field 'blocks': entry 1: unknown kind None; "
     "expected one of ['ar1', 'compound', 'dense']"),
    ({"n_rows": 100000000000000},
     "n_subjects * n_rows * n_cols = 2400000000000000 exceeds the cap of "
     "100000000 values per stack"),
    # 8e5 stack values, but a 1e5 x 1e5 row factor: refused before it is built
    ({"n_subjects": 4, "n_rows": 100000, "n_cols": 2, "partition": [1, 1],
      "covariance": {"kind": "kronecker", "row": {"kind": "ar1", "dim": 100000, "rho": 0.5},
                     "col": {"kind": "ar1", "dim": 2, "rho": 0.3}}},
     "field 'covariance': field 'row': a factor of dimension 100000 has 10000000000 "
     "entries, over the cap of 100000000 values"),
], ids=["top-level", "nested", "spec-without-fields", "dense-string", "dense-bool",
        "empty-block", "stack-size", "factor-size"])
def test_simulate_config_error_names_its_path(tmp_path, capsys, changes, expected):
    raw = json.loads(_method_config(tmp_path / "good.json", ("proposed",)).read_text())
    raw.update(changes)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    code, report, err = _run(["simulate", "--config", str(path)], capsys)
    assert code == 1 and report is None
    assert err == f"error: {path}: {expected}\n"


def test_simulate_outcome_without_a_valid_replicate_is_null_and_nan(
        tmp_path, monkeypatch, capsys):
    # the harness aborts before a method fails on every replicate, so the
    # report is made by hand and returned in place of a run
    import matmean.cli as cli
    from matmean.simulate import MethodOutcome, RejectionReport

    def no_valid_replicate(config, workers=None):
        return RejectionReport(
            config=config, replicates=config.replicates, elapsed_seconds=0.0,
            outcomes=(MethodOutcome("proposed", rejections=0, valid=0,
                                    errors=config.replicates),))

    monkeypatch.setattr(cli, "monte_carlo", no_valid_replicate)
    config = _method_config(tmp_path / "config.json", ("proposed",))
    out = tmp_path / "run.csv"
    code, report, _ = _run(["simulate", "--config", str(config), "--out", str(out)], capsys)
    assert code == 0
    (outcome,) = report["report"]["outcomes"]
    assert outcome["proportion"] is None and outcome["std_error"] is None
    assert out.read_text().splitlines()[1] == "proposed,0,0,100,nan,nan"


def test_simulate_run_aborted_by_failures_is_one_error_line(tmp_path, capsys):
    # one column in one group leaves nothing to test, so every replicate fails
    raw = json.loads(_method_config(tmp_path / "good.json", ("proposed",)).read_text())
    raw.update(n_cols=1, partition=[1])
    path = tmp_path / "one_column.json"
    path.write_text(json.dumps(raw))
    code, report, err = _run(["simulate", "--config", str(path)], capsys)
    assert code == 1 and report is None
    assert err == "error: method 'proposed' failed on 100 of 100 replicates; aborting the run\n"


def test_simulate_csv_identical_across_worker_counts(tmp_path, capsys):
    texts = []
    for k, workers in enumerate(("1", "3")):
        out = tmp_path / f"w{k}.csv"
        code, _, _ = _run(
            ["simulate", "--preset", "table4", "--cell", "r=10,c=100,N=10",
             "--reps", "100", "--seed", "5", "--workers", workers,
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    assert len(texts[0].splitlines()) == 4  # header plus three partition runs


def test_simulate_anova_counts_do_not_move_under_a_common_shift(tmp_path, capsys):
    # a multiplicative mean [base J | (base + 1) J]: raising base moves every
    # value by one shift, which leaves each row's ANOVA unchanged
    def csv(base):
        config = tmp_path / "shift.json"
        config.write_text(json.dumps({
            "n_subjects": 10, "n_rows": 50, "n_cols": 10, "scenario": "normal",
            "covariance": {"kind": "identity"},
            "mean": {"kind": "multiplicative", "t": base + 1.0, "base": base},
            "partition": [1] * 10, "replicates": 100, "seed": 4, "methods": ["anova"],
        }))
        out = tmp_path / "out.csv"
        assert _run(["simulate", "--config", str(config), "--out", str(out)], capsys)[0] == 0
        return out.read_text()

    at_one = csv(1.0)
    assert "anova_fdr,100,100,0," in at_one
    assert csv(1e6) == at_one


# ---------------------------------------------------------------------------
# output contract: main prints the report, then writes the CSV, then the error


def _contract_argv(tmp_path, kind):
    """The command line of one output mode, and its CSV flag (None without one)."""
    data = tmp_path / "effect.tsv"
    _effect_file(data)
    if kind == "test":
        return ["test", str(data), "--partition", "sizes=3,3"], "--csv"
    if kind == "screen":
        data, sets = _screen_fixture(tmp_path)
        return ["screen", str(data), "--sets", str(sets), "--partition", "sizes=3,3"], "--csv"
    if kind == "discover":
        return ["discover", str(data)], None
    if kind == "simulate-preset":
        return ["simulate", "--preset", "table1", "--cell", "r=100,N=10",
                "--reps", "100"], "--out"
    config = _method_config(tmp_path / "cfg.json", ("proposed", "anova"))
    return ["simulate", "--config", str(config)], "--out"


def _without_run_facts(report):
    """The report without its CSV path and with every elapsed time masked."""
    text = json.dumps({k: v for k, v in report.items() if k != "csv_path"})
    return re.sub(r'"elapsed_seconds": [^,}]+', '"elapsed_seconds": 0', text)


@pytest.mark.parametrize(
    "kind", ["test", "screen", "discover", "simulate-preset", "simulate-config"])
def test_report_comes_first_and_an_unwritable_csv_is_one_error_line(tmp_path, capsys, kind):
    argv, flag = _contract_argv(tmp_path, kind)
    csv = tmp_path / "out.csv"
    code, report, err = _run(argv + ([flag, str(csv)] if flag else []), capsys)
    assert code == 0 and err == ""
    assert list(report)[:4] == ["schema_version", "command", "alpha", "warnings"]
    assert report["command"] == argv[0]
    assert csv.exists() == (flag is not None)
    if kind in ("discover", "simulate-preset"):
        return
    code, partial, err = _run(argv + [flag, str(tmp_path / "missing" / "out.csv")], capsys)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and "missing" in err
    assert _without_run_facts(partial) == _without_run_facts(report)


def _run_fresh(script):
    """Run ``script`` in a fresh interpreter on this checkout; it must exit 0."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _assert_no_scipy_stats(argv, absent="scipy.stats"):
    """Run ``main(argv)`` in a fresh interpreter; it must not import ``absent``."""
    _run_fresh(
        "import sys\n"
        "from matmean.cli import main\n"
        f"code = main({argv!r})\n"
        "assert code == 0, code\n"
        f"assert {absent!r} not in sys.modules, '{absent} was imported'\n"
    )


def test_test_command_does_not_import_scipy_stats(tmp_path):
    # scipy.stats is slow to import and the package needs none of it: the
    # normal tail and the F and chi-square tails come from scipy.special
    data = tmp_path / "tiny.txt"
    write_stack_file(str(data), DataStack(np.random.default_rng(5).standard_normal((4, 3, 4))))
    _assert_no_scipy_stats(["test", str(data), "--partition", "sizes=2,2"])


def test_simulate_with_every_method_does_not_import_scipy_stats(tmp_path):
    config = tmp_path / "all_methods.json"
    config.write_text(json.dumps(SimConfig(
        n_subjects=6, n_rows=5, n_cols=3,
        scenario=NoiseScenario("normal"),
        covariance=IdentityCovariance(),
        mean=ZeroMean(),
        partition=GroupPartition.from_sizes((3,)),
        replicates=100, seed=2, methods=("proposed", "anova", "kw", "cq"),
    ).to_dict()))
    _assert_no_scipy_stats(["simulate", "--config", str(config),
                            "--out", str(tmp_path / "out.csv")])


def _method_config(path, methods, seed=2):
    path.write_text(json.dumps(SimConfig(
        n_subjects=6, n_rows=5, n_cols=4,
        scenario=NoiseScenario("normal"),
        covariance=IdentityCovariance(),
        mean=ZeroMean(),
        partition=GroupPartition.from_sizes((2, 2)),
        replicates=100, seed=seed, methods=methods,
    ).to_dict()))
    return path


def _no_scipy_argv(tmp_path, kind):
    rng = np.random.default_rng(8)
    data = tmp_path / "d.txt"
    write_stack_file(str(data), DataStack(rng.standard_normal((6, 16, 4))))
    if kind == "test":
        return ["test", str(data), "--partition", "sizes=2,2"]
    if kind == "m0":
        m0 = tmp_path / "m0.txt"
        m0.write_text("0 0 0 0\n" * 16)
        return ["test", str(data), "--m0", str(m0)]
    if kind == "known-difference":
        pair = tmp_path / "pair.txt"
        write_stack_file(str(pair), DataStack(rng.standard_normal((6, 16, 2))))
        return ["test", str(pair), "--known-difference", "0.5"]
    if kind == "screen":
        sets = tmp_path / "sets.txt"
        sets.write_text("a," + ",".join(map(str, range(1, 9))) + "\n"
                        "b," + ",".join(map(str, range(9, 17))) + "\n")
        return ["screen", str(data), "--sets", str(sets), "--partition", "sizes=2,2"]
    if kind == "discover":
        return ["discover", str(data)]
    config = _method_config(tmp_path / "config.json", ("proposed", "cq"))
    return ["simulate", "--config", str(config), "--out", str(tmp_path / "out.csv")]


@pytest.mark.parametrize(
    "kind", ["test", "m0", "known-difference", "screen", "discover", "simulate"])
def test_commands_without_rowwise_baselines_do_not_import_scipy(tmp_path, kind):
    # the normal tail and quantile are matmean.normal; only the row-wise
    # ANOVA and Kruskal-Wallis baselines load scipy, for their F and
    # chi-square tails
    _assert_no_scipy_stats(_no_scipy_argv(tmp_path, kind), absent="scipy")


def test_rowwise_baselines_import_scipy_when_run(tmp_path):
    # scipy.special is imported inside anova_rowwise and kruskal_rowwise;
    # the CSV bytes are those written when it was imported at module top
    config = _method_config(tmp_path / "config.json", ("proposed", "anova", "kw"))
    out = tmp_path / "out.csv"
    argv = ["simulate", "--config", str(config), "--out", str(out)]
    _run_fresh(
        "import sys\n"
        "from matmean.cli import main\n"
        "assert 'scipy' not in sys.modules\n"
        f"assert main({argv!r}) == 0\n"
        "assert 'scipy.special' in sys.modules\n"
    )
    assert out.read_text() == (
        "method,rejections,valid,errors,proportion,std_error\n"
        "proposed,12,100,0,0.12,0.03249615361854384\n"
        "anova_fdr,9,100,0,0.09,0.02861817604250837\n"
        "anova_bon,9,100,0,0.09,0.02861817604250837\n"
        "kw_fdr,5,100,0,0.05,0.021794494717703367\n"
        "kw_bon,5,100,0,0.05,0.021794494717703367\n"
    )


_MONTE_CARLO_MODULES = ("matmean.simulate", "matmean.presets", "matmean.covariance",
                        "concurrent.futures")


@pytest.mark.parametrize("kind", ["test", "screen", "discover"])
def test_commands_that_do_not_simulate_do_not_load_the_monte_carlo_modules(tmp_path, kind):
    argv = _no_scipy_argv(tmp_path, kind)
    _run_fresh(
        "import sys\n"
        "from matmean.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        f"loaded = [m for m in {_MONTE_CARLO_MODULES!r} if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )


def test_package_names_load_their_modules_on_first_use():
    _run_fresh(
        "import sys\n"
        "import matmean\n"
        "from matmean import monte_carlo, sqrt_factor, PRESET_NAMES\n"
        "assert 'matmean.presets' not in sys.modules\n"
        "missing = [name for name in matmean.__all__ if getattr(matmean, name, None) is None]\n"
        "assert not missing, missing\n"
        "from matmean import covariance, presets, simulate\n"
        "assert (monte_carlo, sqrt_factor) == (simulate.monte_carlo, covariance.sqrt_factor)\n"
        "assert matmean.build_preset is presets.build_preset\n"
        "assert PRESET_NAMES is presets.PRESET_NAMES\n"
        "assert not hasattr(matmean, 'no_such_name')\n"
    )


def test_every_module_star_import_resolves():
    # a name left in some __all__ after its definition is gone fails here,
    # not at a user's `import *`
    import pkgutil

    import matmean

    names = ["matmean"] + [f"matmean.{m.name}" for m in pkgutil.iter_modules(matmean.__path__)]
    assert "matmean.engine" in names and "matmean.core" in names
    offered = {}
    for name in names:
        namespace = {}
        exec(f"from {name} import *", namespace)
        offered[name] = namespace
    gone = {"analytic_power", "trace_ratio_diagnostic", "deviation", "z_quantile", "ndtri",
            "PValueVector", "factor_from_dict", "covariance_from_dict", "mean_from_dict",
            "gen_noise", "rank", "param_string"}
    assert {"matmean.covariance", "matmean.simulate"} <= offered.keys()
    for name, namespace in offered.items():
        assert not gone & namespace.keys(), name
    from matmean.core import ProjectionMatrix
    from matmean.presets import PresetCell

    assert not hasattr(ProjectionMatrix, "rank") and not hasattr(PresetCell, "param_string")


def test_simulate_calls_the_entry_points_set_on_the_cli_module(tmp_path, monkeypatch, capsys):
    # the benchmark tracer wraps cli.build_preset and cli.monte_carlo with
    # setattr; the wrappers must be what the simulate command calls
    import matmean.cli as cli

    calls = []
    for name in ("build_preset", "monte_carlo"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, real=getattr(cli, name), **k:
                            calls.append(name) or real(*a, **k))
    code, report, _ = _run(["simulate", "--preset", "table4", "--cell", "r=10,c=100,N=10",
                            "--reps", "100", "--workers", "1"], capsys)
    assert code == 0
    assert report["seed"] == 0  # an omitted --seed is reported as 0
    assert calls == ["build_preset"] + ["monte_carlo"] * 3
    config = _method_config(tmp_path / "config.json", ("proposed",))
    assert _run(["simulate", "--config", str(config)], capsys)[0] == 0
    assert calls[4:] == ["monte_carlo"]


# ---------------------------------------------------------------------------
# benchmark tracer


def test_perfbench_tracer_runs_a_command(tmp_path):
    # the tracer wraps package functions by name; a renamed or removed one
    # must fail here rather than in every traced benchmark command
    root = Path(__file__).resolve().parents[1]
    data = tmp_path / "tiny.txt"
    write_stack_file(str(data), DataStack(np.random.default_rng(3).standard_normal((4, 3, 4))))
    config = tmp_path / "all_methods.json"
    config.write_text(json.dumps(SimConfig(
        n_subjects=8, n_rows=6, n_cols=3,
        scenario=NoiseScenario("normal"),
        covariance=IdentityCovariance(),
        mean=ZeroMean(),
        partition=GroupPartition.from_sizes((3,)),
        replicates=100, seed=1, methods=("proposed", "anova", "kw", "cq"),
    ).to_dict()))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    commands = (
        (["test", str(data), "--partition", "sizes=2,2"], set()),
        # every layer span of a Monte Carlo run must still fire: a function
        # the harness captured before the tracer wrapped it would not show
        (["simulate", "--config", str(config)],
         {"engine.mean_matrix_test", "baselines.anova_rowwise",
          "baselines.kruskal_rowwise", "baselines.pairwise_cq",
          "covariance.root_apply"}),
    )
    for k, (args, expected) in enumerate(commands):
        spans = tmp_path / f"spans{k}.json"
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "tracer.py"), str(spans), "--",
             *args],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        names = {span[2] for span in json.loads(spans.read_text())["spans"]}
        assert names
        assert expected <= names, expected - names
