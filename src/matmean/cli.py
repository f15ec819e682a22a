"""Command-line front end.

Four subcommands: ``test`` runs one mean-structure test on a data file,
``screen`` runs the test per named row subset and adjusts the p-values,
``simulate`` drives the Monte Carlo harness (canned presets or a config
file), and ``discover`` applies the sequential strategy for finding a
column grouping.  Each ``cmd_*`` returns its report, its CSV text (None
if it has none) and its failure (None if it has none); ``main`` alone
writes them.  It prints the schema-versioned JSON report to stdout, then
writes the CSV if a path was given, then, on a failure or an operational
error, one ``error:`` line to stderr.  A rejected hypothesis is an
ordinary result, so the exit status is 0 for any completed run and 1 only
for operational failures.

Each command loads only what it runs: ``test`` the modules ``io``, ``core``
and ``engine``, ``screen`` and ``discover`` also ``baselines``, and
``simulate`` no ``io`` but ``simulate``, ``presets``, ``covariance`` and
``baselines``; the entry points load through ``__getattr__`` on first use.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import DEFAULT_REPLICATES, PRESET_NAMES
from . import __getattr__ as _exported
from .core import GroupPartition, RunAborted
from .engine import (
    discover_structure,
    mean_matrix_test,
    screen_row_sets,
    test_known_difference,
    test_known_matrix,
)

SCHEMA_VERSION = 1

# this module: the commands look up their entry points on it when they run,
# so that a wrapper set on it from outside is the one called
_cli = sys.modules[__name__]


def __getattr__(name):
    # PEP 562: a name not defined here resolves through the package's export
    # table, so the entry points the commands call load their modules on
    # first use, and only the commands that call them load them
    return _exported(name, __name__)


class CliError(ValueError):
    """Operational failure: bad input, bad file, or an unusable result."""


# ---------------------------------------------------------------------------
# report plumbing


def _jsonable(obj):
    """``obj`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _data_block(loaded, path: str, orientation: str) -> dict:
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


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv(header, rows) -> str:
    """CSV text: the header line, then one line per row; a non-finite value is empty."""
    return "".join(",".join(_csv_cell(_jsonable(v)) for v in line) + "\n"
                   for line in (header, *rows))


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


def cmd_test(args) -> tuple[dict, str | None, str | None]:
    modes = [args.partition is not None, args.m0 is not None,
             args.known_difference is not None]
    if sum(modes) != 1:
        raise CliError(
            "choose exactly one hypothesis mode: --partition, --m0, "
            "or --known-difference"
        )
    from .io import read_matrix_file, read_vector_file

    loaded = _cli.load_stack(args.data)
    rows = args.orientation == "rows"
    # ids of the columns in testing orientation
    unit_ids = loaded.row_ids if rows else loaded.col_ids
    # every mode tests the columns of the stack in testing orientation
    stack = loaded.stack.transposed() if rows else loaded.stack
    warnings: list[str] = []
    report = {"alpha": args.alpha, "warnings": warnings,
              "data": _data_block(loaded, args.data, args.orientation)}

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

    row = result.to_dict()
    row["dropped_columns"] = [unit_ids[k] for k in result.dropped_columns]
    report["result"] = row
    keys = ("statistic", "p_value", "reject", "alpha", "n_used", "r_used", "c_used",
            "failure")
    return report, _csv(keys, [[row[k] for k in keys]]), result.failure


# ---------------------------------------------------------------------------
# screen


def cmd_screen(args) -> tuple[dict, str | None, str | None]:
    # the engine checks alpha only when a set runs; a report must not carry a bad one
    if not 0.0 < args.alpha < 1.0:
        raise CliError(f"alpha must be in (0, 1), got {args.alpha}")
    loaded = _cli.load_stack(args.data)
    stack = loaded.stack
    partition = parse_partition_spec(args.partition, loaded.col_ids)
    sets = _cli.read_row_sets(args.sets)
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
    adjusted = _cli.adjust_pvalues(p, args.correction).tolist()
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

    report = {"alpha": args.alpha, "warnings": warnings,
              "data": _data_block(loaded, args.data, "columns"),
              "partition": partition.to_dict(), "correction": args.correction,
              "min_set_size": args.min_set_size, "sets": entries, "skipped": skipped,
              "n_rejected": sum(1 for e in entries if e["reject"])}
    keys = ("name", "n_rows", "statistic", "p_value", "p_adjusted", "reject")
    csv_text = _csv(("set",) + keys[1:], [[e[k] for k in keys] for e in entries])
    failure = ("no row set produced a usable test result"
               if n_failed == len(results) else None)
    return report, csv_text, failure


# ---------------------------------------------------------------------------
# discover


def cmd_discover(args) -> tuple[dict, str | None, str | None]:
    loaded = _cli.load_stack(args.data)
    trace = discover_structure(loaded.stack, alpha=args.alpha)
    report = {"alpha": args.alpha, "warnings": [],
              "data": _data_block(loaded, args.data, "columns"),
              "steps": {k: trace[k] for k in ("overall", "pairs", "grouping", "final")},
              "conclusion": trace["conclusion"]}
    failure = trace["overall"]["failure"] or (
        trace["final"]["failure"] if trace["final"] else None
    )
    return report, None, failure


# ---------------------------------------------------------------------------
# simulate


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


def cmd_simulate(args) -> tuple[dict, str | None, str | None]:
    if (args.preset is None) == (args.config is None):
        raise CliError("choose exactly one of --preset or --config")
    if args.cell and args.preset is None:
        raise CliError("--cell only applies to --preset runs")
    from .presets import parse_cell_filter
    from .simulate import RejectionReport, SimConfig

    if args.preset is not None:
        seed = 0 if args.seed is None else args.seed
        cells = _cli.build_preset(args.preset, reps=args.reps, seed=seed)
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
                rep = _cli.monte_carlo(run.config, workers=args.workers)
                csv_lines.extend(rep.csv_rows(*_preset_coordinates(cell, run)))
                runs.append({"kind": run.kind, "partition": run.partition_label,
                             "seed": run.config.seed, **rep.to_dict()})
                del runs[-1]["config"]
            cell_reports.append({
                "preset": cell.preset,
                "params": dict(cell.params),
                "runs": runs,
            })
        (alpha,) = {run.config.alpha for cell in cells for run in cell.runs}
        report = {"alpha": alpha, "warnings": [], "mode": "preset", "preset": args.preset,
                  "cell_filter": args.cell,
                  "replicates": args.reps if args.reps else DEFAULT_REPLICATES,
                  "seed": seed, "csv_path": args.csv_path, "cells": cell_reports}
        return report, "\n".join(csv_lines) + "\n", None

    # read as the data files are: one leading byte-order mark is dropped
    with open(args.config, encoding="utf-8-sig") as fh:
        try:
            raw = json.load(fh)
        except UnicodeDecodeError:
            raise CliError(f"{args.config}: not UTF-8 text") from None
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
    rep = _cli.monte_carlo(config, workers=args.workers)
    report = {"alpha": config.alpha, "warnings": [], "mode": "config",
              "config_path": args.config, "csv_path": args.csv_path, "report": rep.to_dict()}
    return report, rep.to_csv(), None


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
    p_test.add_argument("--csv", dest="csv_path",
                        help="also write the result as CSV to this path")
    p_test.set_defaults(func=cmd_test)

    p_screen = sub.add_parser("screen", help="test many row subsets and adjust p-values")
    p_screen.add_argument("data")
    p_screen.add_argument("--sets", required=True, help="row-set file (name then row ids)")
    p_screen.add_argument("--partition", required=True)
    p_screen.add_argument("--correction", choices=("fdr", "bonferroni"), default="fdr")
    p_screen.add_argument("--min-set-size", type=int, default=8,
                          help="skip sets with fewer rows (default 8)")
    p_screen.add_argument("--alpha", type=float, default=0.05)
    p_screen.add_argument("--csv", dest="csv_path")
    p_screen.set_defaults(func=cmd_screen)

    p_sim = sub.add_parser("simulate", help="Monte Carlo size/power studies")
    p_sim.add_argument("--preset", choices=PRESET_NAMES)
    p_sim.add_argument("--cell", help="filter preset cells, e.g. 'r=100,N=50'")
    p_sim.add_argument("--reps", type=int, help=f"replicates (default {DEFAULT_REPLICATES})")
    p_sim.add_argument("--seed", type=int,
                       help="base seed (default: the config's seed, or 0 for presets)")
    p_sim.add_argument("--config", help="JSON config file for a single custom run")
    p_sim.add_argument("--out", dest="csv_path", help="CSV output path")
    p_sim.add_argument("--workers", type=int, default=1,
                       help="thread count (default 1); the results do not depend on it")
    p_sim.set_defaults(func=cmd_simulate)

    p_disc = sub.add_parser("discover", help="search for a column grouping")
    p_disc.add_argument("data")
    p_disc.add_argument("--alpha", type=float, default=0.05)
    p_disc.set_defaults(func=cmd_discover, csv_path=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, csv_text, failure = args.func(args)
        report = {"schema_version": SCHEMA_VERSION, "command": args.command, **report}
        sys.stdout.write(json.dumps(_jsonable(report), indent=2, allow_nan=False) + "\n")
        if args.csv_path:
            with open(args.csv_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(csv_text)
    except (CliError, ValueError, OSError, RunAborted) as e:
        failure = e
    if failure:
        sys.stderr.write(f"error: {failure}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
