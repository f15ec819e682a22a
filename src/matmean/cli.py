"""Command-line front end.

Four subcommands: ``test`` runs one mean-structure test on a data file,
``screen`` runs the test per named row subset and adjusts the p-values,
``simulate`` drives the Monte Carlo harness (canned presets or a config
file), and ``discover`` applies the sequential strategy for finding a
column grouping.  Every command prints a schema-versioned JSON report to
stdout; a rejected hypothesis is an ordinary result, so the exit status is
0 for any completed run and nonzero only for operational failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import DEFAULT_REPLICATES, PRESET_NAMES
from .baselines import adjust_pvalues
from .core import GroupPartition, RunAborted
from .engine import (
    discover_structure,
    mean_matrix_test,
    screen_row_sets,
    test_known_difference,
    test_known_matrix,
)
from .io import LoadedStack, load_stack, read_matrix_file, read_vector_file, read_row_sets

SCHEMA_VERSION = 1


class CliError(ValueError):
    """Operational failure: bad input, bad file, or an unusable result."""


# ---------------------------------------------------------------------------
# report plumbing


def _jsonable(obj):
    """Convert to plain JSON types; non-finite floats become null."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else None
    return obj


def _print_report(report: dict) -> None:
    payload = _jsonable(report)
    sys.stdout.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _envelope(command: str, alpha: float, warnings: list[str]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "alpha": alpha,
        "warnings": warnings,
    }


def _data_block(loaded: LoadedStack, path: str, orientation: str) -> dict:
    block = {
        "path": path,
        "format": loaded.source_format,
        "n_subjects": loaded.stack.n_subjects,
        "n_rows": loaded.stack.n_rows,
        "n_cols": loaded.stack.n_cols,
        "orientation": orientation,
    }
    if loaded.source_format == "long":
        # First-appearance id mapping; positions are the internal indices.
        block["ids"] = {
            "subjects": list(loaded.subject_ids),
            "rows": list(loaded.row_ids),
            "cols": list(loaded.col_ids),
        }
    return block


def _result_block(result, unit_ids=None) -> dict:
    d = result.to_dict()
    if unit_ids is not None:
        d["dropped_columns"] = [unit_ids[k] for k in result.dropped_columns]
    return d


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# partition specs


def parse_partition_spec(text: str, unit_ids: tuple[str, ...]) -> GroupPartition:
    """Parse ``sizes=7,3`` or ``groups=colid:groupid,...`` against known ids."""
    text = text.strip()
    if text.startswith("sizes="):
        body = text[len("sizes="):]
        try:
            sizes = tuple(int(tok) for tok in body.split(",") if tok.strip())
        except ValueError:
            raise CliError(f"bad partition sizes {body!r}: entries must be integers")
        if not sizes:
            raise CliError("partition spec 'sizes=' names no groups")
        if any(s < 1 for s in sizes):
            raise CliError("partition group sizes must be positive")
        if sum(sizes) != len(unit_ids):
            raise CliError(
                f"partition sizes sum to {sum(sizes)} but the data has "
                f"{len(unit_ids)} columns"
            )
        return GroupPartition.from_sizes(sizes)
    if text.startswith("groups="):
        body = text[len("groups="):]
        assigned: dict[str, str] = {}
        for token in body.split(","):
            token = token.strip()
            if not token:
                continue
            if ":" not in token:
                raise CliError(f"bad group token {token!r}, expected colid:groupid")
            col, _, group = token.partition(":")
            col, group = col.strip(), group.strip()
            if not col or not group:
                raise CliError(f"bad group token {token!r}, expected colid:groupid")
            if col in assigned:
                raise CliError(f"column {col!r} assigned twice in partition spec")
            assigned[col] = group
        known = set(unit_ids)
        unknown = sorted(set(assigned) - known)
        if unknown:
            raise CliError(f"partition names unknown columns: {', '.join(unknown)}")
        missing = [u for u in unit_ids if u not in assigned]
        if missing:
            raise CliError(f"partition must cover every column; missing: {', '.join(missing)}")
        return GroupPartition.from_labels([assigned[u] for u in unit_ids])
    raise CliError(
        f"bad partition spec {text!r}: expected 'sizes=c1,c2,...' or "
        f"'groups=colid:groupid,...'"
    )


# ---------------------------------------------------------------------------
# test


def cmd_test(args) -> int:
    modes = [args.partition is not None, args.m0 is not None,
             args.known_difference is not None]
    if sum(modes) != 1:
        raise CliError(
            "choose exactly one hypothesis mode: --partition, --m0, "
            "or --known-difference"
        )
    loaded = load_stack(args.data)
    rows = args.orientation == "rows"
    # ids of the columns in testing orientation
    unit_ids = loaded.row_ids if rows else loaded.col_ids
    # every mode tests the columns of the stack in testing orientation
    stack = loaded.stack.transposed() if rows else loaded.stack
    warnings: list[str] = []
    report = _envelope("test", args.alpha, warnings)
    report["data"] = _data_block(loaded, args.data, args.orientation)

    if args.partition is not None:
        partition = parse_partition_spec(args.partition, unit_ids)
        result = mean_matrix_test(stack, partition, alpha=args.alpha)
        report["hypothesis"] = {"mode": "partition", "partition": partition.to_dict()}
        if result.dropped_columns:
            warnings.append(
                "singleton-group columns were dropped before testing: "
                + ", ".join(unit_ids[k] for k in result.dropped_columns)
            )
    elif args.m0 is not None:
        m0 = read_matrix_file(args.m0, stack.n_rows, stack.n_cols)
        result = test_known_matrix(stack, m0, alpha=args.alpha)
        report["hypothesis"] = {"mode": "known_matrix", "m0_path": args.m0}
    else:
        if stack.n_cols != 2:
            raise CliError(
                f"--known-difference needs exactly 2 columns in testing "
                f"orientation, data has {stack.n_cols}"
            )
        spec = args.known_difference
        if spec.startswith("@"):
            mu0 = read_vector_file(spec[1:], stack.n_rows)
            mu0_echo = spec
        else:
            try:
                mu0 = float(spec)
            except ValueError:
                raise CliError(
                    f"bad --known-difference {spec!r}: expected a number or @file"
                )
            mu0_echo = mu0
        result = test_known_difference(stack, mu0, col_a=0, col_b=1, alpha=args.alpha)
        report["hypothesis"] = {"mode": "known_difference", "mu0": mu0_echo}
    result = dataclasses.replace(result, orientation=args.orientation)

    report["result"] = _result_block(result, unit_ids)
    _print_report(report)
    if args.csv:
        keys = ("statistic", "p_value", "reject", "alpha", "n_used", "r_used",
                "c_used", "failure")
        row = _result_block(result, unit_ids)
        lines = [",".join(keys),
                 ",".join(_csv_cell(_jsonable(row[k])) for k in keys)]
        _write_text(args.csv, "\n".join(lines) + "\n")
    if result.failure:
        sys.stderr.write(f"error: {result.failure}\n")
        return 1
    return 0


# ---------------------------------------------------------------------------
# screen


def cmd_screen(args) -> int:
    loaded = load_stack(args.data)
    stack = loaded.stack
    partition = parse_partition_spec(args.partition, loaded.col_ids)
    sets = read_row_sets(args.sets)
    row_index = {rid: k for k, rid in enumerate(loaded.row_ids)}

    tested = []  # (name, indices)
    skipped = []
    for name, ids in sets.items():
        unknown = [rid for rid in ids if rid not in row_index]
        if unknown:
            raise CliError(
                f"row set {name!r} names unknown row ids: {', '.join(unknown[:5])}"
            )
        if len(ids) < args.min_set_size:
            skipped.append({
                "name": name,
                "n_rows": len(ids),
                "reason": f"fewer than {args.min_set_size} rows",
            })
        else:
            tested.append((name, [row_index[rid] for rid in ids]))

    # with every set skipped nothing is tested, so nothing can raise
    results = screen_row_sets(
        stack, partition, [rows for _, rows in tested], alpha=args.alpha
    ) if tested else []
    # the family is the sets that ran; a failed set's p-values are NaN
    p = np.array([result.p_value for result in results])
    adjusted = adjust_pvalues(p, args.correction).tolist()
    entries = [
        {
            "name": name,
            "n_rows": len(indices),
            "statistic": result.statistic,
            "p_value": result.p_value,
            "p_adjusted": adjusted[k],
            "reject": adjusted[k] < args.alpha if result.ok else None,
            "failure": result.failure,
        }
        for k, ((name, indices), result) in enumerate(zip(tested, results))
    ]
    warnings: list[str] = []
    n_failed = sum(1 for result in results if not result.ok)
    if n_failed:
        warnings.append(f"{n_failed} set(s) failed and were excluded from adjustment")
    if skipped:
        warnings.append(f"{len(skipped)} set(s) below the minimum size were skipped")

    report = _envelope("screen", args.alpha, warnings)
    report["data"] = _data_block(loaded, args.data, "columns")
    report["partition"] = partition.to_dict()
    report["correction"] = args.correction
    report["min_set_size"] = args.min_set_size
    report["sets"] = entries
    report["skipped"] = skipped
    report["n_rejected"] = sum(1 for e in entries if e["reject"])
    _print_report(report)

    if args.csv:
        keys = ("name", "n_rows", "statistic", "p_value", "p_adjusted", "reject")
        lines = ["set," + ",".join(keys[1:])]
        for e in entries:
            lines.append(",".join(_csv_cell(_jsonable(e[k])) for k in keys))
        _write_text(args.csv, "\n".join(lines) + "\n")

    if n_failed == len(results):
        sys.stderr.write("error: no row set produced a usable test result\n")
        return 1
    return 0


# ---------------------------------------------------------------------------
# discover


def cmd_discover(args) -> int:
    loaded = load_stack(args.data)
    trace = discover_structure(loaded.stack, alpha=args.alpha)
    report = _envelope("discover", args.alpha, [])
    report["data"] = _data_block(loaded, args.data, "columns")
    report["steps"] = {k: trace[k] for k in ("overall", "pairs", "grouping", "final")}
    report["conclusion"] = trace["conclusion"]
    _print_report(report)
    failure = trace["overall"].get("failure") or (
        trace["final"].get("failure") if trace["final"] else None
    )
    if failure:
        sys.stderr.write(f"error: {failure}\n")
        return 1
    return 0


# ---------------------------------------------------------------------------
# simulate


def __getattr__(name):
    # PEP 562: the Monte Carlo entry points import their modules on first
    # use, so only the simulate command loads them
    if name == "build_preset":
        from .presets import build_preset
        return build_preset
    if name == "monte_carlo":
        from .simulate import monte_carlo
        return monte_carlo
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _preset_coordinates(cell, run) -> tuple[str, ...]:
    """The eight leading columns of a preset CSV row."""
    cfg = run.config
    return (
        cell.preset,
        cfg.scenario.tag,
        str(cfg.n_rows),
        str(cfg.n_cols),
        str(cfg.n_subjects),
        dict(cell.params).get("zeros", ""),
        run.kind,
        run.partition_label,
    )


def cmd_simulate(args) -> int:
    if (args.preset is None) == (args.config is None):
        raise CliError("choose exactly one of --preset or --config")
    if args.cell and args.preset is None:
        raise CliError("--cell only applies to --preset runs")
    from .presets import parse_cell_filter
    from .simulate import RejectionReport, SimConfig

    # looked up on the module, so that a wrapper set on it from outside is
    # the one called
    cli = sys.modules[__name__]
    if args.preset is not None:
        seed = 0 if args.seed is None else args.seed
        cells = cli.build_preset(args.preset, reps=args.reps, seed=seed)
        if args.cell:
            filters = parse_cell_filter(args.cell)
            cells = tuple(c for c in cells if c.matches(filters))
            if not cells:
                raise CliError(f"no {args.preset} cell matches {args.cell!r}")
        csv_lines = ["preset,scenario,r,c,N,zeros,kind,partition,"
                     + RejectionReport.CSV_HEADER]
        cell_reports = []
        for cell in cells:
            runs = []
            for run in cell.runs:
                rep = cli.monte_carlo(run.config, workers=args.workers)
                csv_lines.extend(rep.csv_rows(*_preset_coordinates(cell, run)))
                runs.append({
                    "kind": run.kind,
                    "partition": run.partition_label,
                    "seed": run.config.seed,
                    "replicates": rep.replicates,
                    "elapsed_seconds": rep.elapsed_seconds,
                    "outcomes": [o.to_dict() for o in rep.outcomes],
                })
            cell_reports.append({
                "preset": cell.preset,
                "params": dict(cell.params),
                "runs": runs,
            })
        report = _envelope("simulate", 0.05, [])
        report["mode"] = "preset"
        report["preset"] = args.preset
        report["cell_filter"] = args.cell
        report["replicates"] = args.reps if args.reps else DEFAULT_REPLICATES
        report["seed"] = seed
        report["csv_path"] = args.out
        report["cells"] = cell_reports
        if args.out:
            _write_text(args.out, "\n".join(csv_lines) + "\n")
        _print_report(report)
        return 0

    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise CliError(f"{args.config}: invalid JSON ({e})")
    if not isinstance(raw, dict):
        raise CliError(f"{args.config}: does not hold a JSON object")
    try:
        config = SimConfig.from_dict(raw)
    except ValueError as e:
        raise CliError(f"{args.config}: {e}")
    if args.reps is not None:
        config = dataclasses.replace(config, replicates=args.reps)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    rep = cli.monte_carlo(config, workers=args.workers)
    report = _envelope("simulate", config.alpha, [])
    report["mode"] = "config"
    report["config_path"] = args.config
    report["csv_path"] = args.out
    report["report"] = rep.to_dict()
    if args.out:
        _write_text(args.out, rep.to_csv())
    _print_report(report)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matmean",
        description="Tests for structured means of matrix-valued data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="test one grouped-mean hypothesis")
    p_test.add_argument("data", help="data file (long or stack format)")
    p_test.add_argument("--partition", help="'sizes=c1,c2,...' or 'groups=col:grp,...'")
    p_test.add_argument("--m0", help="file with the fully known mean matrix to test")
    p_test.add_argument(
        "--known-difference", metavar="MU0",
        help="two-column mode: scalar or @file with the known column difference",
    )
    p_test.add_argument("--orientation", choices=("columns", "rows"), default="columns",
                        help="test groups of columns (default) or of rows")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--csv", help="also write the result as CSV to this path")
    p_test.set_defaults(func=cmd_test)

    p_screen = sub.add_parser("screen", help="test many row subsets and adjust p-values")
    p_screen.add_argument("data")
    p_screen.add_argument("--sets", required=True, help="row-set file (name then row ids)")
    p_screen.add_argument("--partition", required=True)
    p_screen.add_argument("--correction", choices=("fdr", "bonferroni"), default="fdr")
    p_screen.add_argument("--min-set-size", type=int, default=8,
                          help="skip sets with fewer rows (default 8)")
    p_screen.add_argument("--alpha", type=float, default=0.05)
    p_screen.add_argument("--csv")
    p_screen.set_defaults(func=cmd_screen)

    p_sim = sub.add_parser("simulate", help="Monte Carlo size/power studies")
    p_sim.add_argument("--preset", choices=PRESET_NAMES)
    p_sim.add_argument("--cell", help="filter preset cells, e.g. 'r=100,N=50'")
    p_sim.add_argument("--reps", type=int, help=f"replicates (default {DEFAULT_REPLICATES})")
    p_sim.add_argument("--seed", type=int,
                       help="base seed (default: the config's seed, or 0 for presets)")
    p_sim.add_argument("--config", help="JSON config file for a single custom run")
    p_sim.add_argument("--out", help="CSV output path")
    p_sim.add_argument("--workers", type=int,
                       help="thread count (default: MATMEAN_WORKERS or 1)")
    p_sim.set_defaults(func=cmd_simulate)

    p_disc = sub.add_parser("discover", help="search for a column grouping")
    p_disc.add_argument("data")
    p_disc.add_argument("--alpha", type=float, default=0.05)
    p_disc.set_defaults(func=cmd_discover)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError, RunAborted) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
