"""Seeded inputs, command lists and output checks for each workload.

A workload is a fixed list of ``matmean`` commands (one round); the runner
repeats it for the measured time.  Every input file is generated here
from the benchmark seed, and every command's output is checked here: test,
discover and screen reports against the numpy oracle, simulate CSVs for
zero errors and for the same bytes on every run of a cell, whatever the
worker count.

There are two workloads, so that each run can be long enough to be
steady on a small shared machine: ``files`` reads input files and uses no
Monte Carlo code, ``mc`` simulates and reads no files.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracle

ALPHA = 0.05

# Monte Carlo cells: one per preset layer mix, 100 replicates each (the
# harness floor).  table2 is dominated by the row-wise Kruskal-Wallis
# baseline, table3 by pairwise Chen-Qin and the block covariance root,
# table4 by the Kronecker root and the c = 100 projection.
MC_CELLS = (
    ("table2", "N=10,zeros=0.5"),
    ("table3", "scenario=mixture,r=100,N=20"),
    ("table4", "r=100,c=100,N=10"),
)
MC_REPS = 100
SCREEN_SETS = 2000


@dataclass
class Command:
    """One CLI invocation: ``matmean <args>`` plus how to check its output."""

    label: str
    args: list[str]
    check: Callable[[dict, "Command"], list[str]]  # report -> mismatch messages
    values: int = 0  # input values the command reads, N*r*c per file
    csv_path: str | None = None
    env: dict[str, str] = field(default_factory=dict)  # set in the child only


SCALE = 10_000  # values carry four decimals, as instruments report them


def _noise(rng, shape) -> np.ndarray:
    """Standard normal draws on the 1/SCALE grid, as integer grid units."""
    return np.rint(rng.standard_normal(shape) * SCALE).astype(np.int64)


def _tokens(units: np.ndarray) -> list[str]:
    """The text of every value, in storage order; repr round-trips exactly."""
    uniq, inverse = np.unique(units, return_inverse=True)
    table = list(map(repr, (uniq / SCALE).tolist()))
    return [table[k] for k in inverse.ravel().tolist()]


def write_stack(path: str, units: np.ndarray) -> np.ndarray:
    """Write stack format; returns the values exactly as written."""
    n, r, c = units.shape
    tokens = _tokens(units)
    lines = [f"{n} {r} {c}"]
    lines.extend("\t".join(tokens[k:k + c]) for k in range(0, len(tokens), c))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return units / SCALE


def write_long(path: str, units: np.ndarray) -> np.ndarray:
    """Long format, records in storage order so ids map to the same indices."""
    n, r, c = units.shape
    tokens = iter(_tokens(units))
    keys = [f"\tg{a + 1:06d}\tt{b}\t" for a in range(r) for b in range(c)]
    lines = ["subject_id\trow_id\tcol_id\tvalue"]
    for i in range(n):
        subject = f"s{i + 1:03d}"
        lines.extend(subject + key + token for key, token in zip(keys, tokens))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return units / SCALE


def _cached(fn):
    """Compute an oracle expectation on first use only."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def _test_check(expect):
    def check(report, cmd):
        return oracle.check_test(report, expect())

    return check


# ---------------------------------------------------------------------------
# workloads


def ingest_commands(rng, root: str) -> list[Command]:
    """About a million values, once in long format and once in stack format.

    Parsing takes nearly all of these commands' time past the import; the
    test itself takes milliseconds.
    """
    units = _noise(rng, (10, 10_000, 10))
    long_path = os.path.join(root, "ingest_long.tsv")
    stack_path = os.path.join(root, "ingest_stack.txt")
    write_long(long_path, units)
    x = write_stack(stack_path, units)
    expect = _cached(lambda: oracle.expect_test(x, (7, 3), ALPHA))
    seen: dict[str, dict] = {}

    def check(report, cmd):
        errs = oracle.check_test(report, expect())
        seen[cmd.label] = report["result"]
        other = seen.get("test-long" if cmd.label == "test-stack" else "test-stack")
        if other is not None and other != report["result"]:
            errs.append("long and stack formats gave different results")
        return errs

    args = ["--partition", "sizes=7,3"]
    return [
        Command("test-long", ["test", long_path, *args], check, x.size),
        Command("test-stack", ["test", stack_path, *args], check, x.size),
    ]


def analyze_commands(rng, root: str) -> list[Command]:
    """Small files where the statistics, not parsing, take the time."""
    commands = []

    path = os.path.join(root, "wide.txt")
    wide = write_stack(path, _noise(rng, (10, 10, 2000)))
    expect = _cached(lambda: oracle.expect_test(wide, (1000, 1000), ALPHA))
    commands.append(Command(
        "test-c2000", ["test", path, "--partition", "sizes=1000,1000"],
        _test_check(expect), wide.size))

    path = os.path.join(root, "tall.txt")
    tall = write_stack(path, _noise(rng, (10, 2000, 10)))
    expect_rows = _cached(lambda: oracle.expect_test(tall, (1000, 1000), ALPHA, "rows"))
    commands.append(Command(
        "test-rows-r2000",
        ["test", path, "--orientation", "rows", "--partition", "sizes=1000,1000"],
        _test_check(expect_rows), tall.size))

    # three column groups with distinct means, so the overall test rejects
    # and every one of the 1770 pairs is tested
    units = _noise(rng, (10, 100, 60)) + _noise(rng, (1, 100, 1))  # plus row effects
    units[:, :, 20:40] += SCALE // 2
    units[:, :, 40:] += SCALE
    path = os.path.join(root, "discover.txt")
    disc = write_stack(path, units)
    expect_disc = _cached(lambda: oracle.expect_discover(disc, ALPHA))
    commands.append(Command(
        "discover-c60", ["discover", path],
        lambda report, cmd: oracle.check_discover(report, expect_disc()), disc.size))

    units = _noise(rng, (10, 1000, 10))
    units[:, :50, 7:] += SCALE // 2  # rows 1..50 carry a group difference
    path = os.path.join(root, "screen.txt")
    scr = write_stack(path, units)
    sets = [np.sort(rng.choice(1000, size=int(k), replace=False)).tolist()
            for k in rng.integers(8, 31, size=SCREEN_SETS)]
    sets_path = os.path.join(root, "sets.txt")
    with open(sets_path, "w", encoding="utf-8") as fh:
        for k, rows in enumerate(sets):
            fh.write(f"set{k:05d}\t" + "\t".join(str(a + 1) for a in rows) + "\n")
    expect_scr = _cached(lambda: oracle.expect_screen(scr, sets, (7, 3), ALPHA))
    csv_path = os.path.join(root, "hits.csv")
    commands.append(Command(
        f"screen-{SCREEN_SETS}",
        ["screen", path, "--sets", sets_path, "--partition", "sizes=7,3", "--csv", csv_path],
        lambda report, cmd: oracle.check_screen(report, expect_scr()), scr.size,
        csv_path))
    return commands


def check_mc_csv(data: bytes) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    if not rows:
        return ["simulate CSV has no rows"]
    bad = [r["method"] for r in rows if r["errors"] != "0"]
    return [f"simulate CSV reports errors for {', '.join(bad)}"] if bad else []


def mc_work(data: bytes) -> tuple[int, int]:
    """Replicates and simulated values (replicates * N * r * c) in a CSV."""
    runs = {}
    for r in csv.DictReader(io.StringIO(data.decode("utf-8"))):
        key = (r["scenario"], r["r"], r["c"], r["N"], r["kind"], r["partition"])
        reps = int(r["valid"]) + int(r["errors"])
        runs[key] = (reps, reps * int(r["N"]) * int(r["r"]) * int(r["c"]))
    return sum(v[0] for v in runs.values()), sum(v[1] for v in runs.values())


def build_files(seed: int, root: str) -> list[Command]:
    """Every command that reads input files: ingest, then analysis."""
    rng = np.random.default_rng(seed)
    return ingest_commands(rng, root) + analyze_commands(rng, root)


def build_mc(seed: int, root: str) -> list[Command]:
    """Each cell with one worker, then with two.

    The two-worker runs are the only ones on the thread-pool path.  They
    get one BLAS thread per process, so that threads never exceed two
    cores; with the default BLAS threads two workers ran slower than one
    on a 2-core machine.  Every run of a cell, with either worker count,
    must write the same CSV bytes.
    """
    first_csv: dict[str, bytes] = {}

    def check(report, cmd):
        with open(cmd.csv_path, "rb") as fh:
            data = fh.read()
        errs = check_mc_csv(data)
        cell = cmd.label.rsplit("-", 1)[0]
        if first_csv.setdefault(cell, data) != data:
            errs.append("CSV bytes differ from the first run of this cell")
        return errs

    commands = []
    for preset, cell in MC_CELLS:
        for workers, env in ((1, {}), (2, {"OPENBLAS_NUM_THREADS": "1"})):
            label = f"{preset}-w{workers}"
            out = os.path.join(root, f"{label}.csv")
            commands.append(Command(
                label,
                ["simulate", "--preset", preset, "--cell", cell, "--reps", str(MC_REPS),
                 "--seed", str(seed), "--workers", str(workers), "--out", out],
                check=check, csv_path=out, env=env))
    return commands


WORKLOADS = {
    "files": build_files,
    "mc": build_mc,
}
