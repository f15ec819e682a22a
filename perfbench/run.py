"""End-to-end and per-layer benchmark of the matmean command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it runs ``python -m matmean.cli``
on ``src/``.  Set-up writes the seeded input files under
``.perfbench_tmp/`` and imports the package once in a child (the warm-up);
it is done three times and ``setup_s`` is the median.  Then the workload's
commands run in rounds, one child at a time (a closed loop with one
client), until S seconds have passed.  Every command's output is checked
(see workloads.py and oracle.py).

With ``--trace 0`` the commands are plain CLI processes and the end-to-end
metrics are reported.  reference.py runs after every command, and
``cmd_rel`` is the mean command time over the mean reference time: the
ratio cancels the drift in machine speed that makes seconds from runs
minutes apart disagree.  Command times are means, not medians: on a
shared machine one command's wall time varies by up to a factor of two
from one run to the next, and over a run of tens of seconds the mean of
such samples moves less than their median does.

With ``--trace 1`` each command runs twice in a row, once plain and once
through tracer.py, and the per-layer metrics are means per command over
the traced runs' spans; the mean difference between the two is reported
as the tracing overhead.

In both, the first round always completes, and after it no command starts
once S seconds have passed.  Every value is averaged per command first
and then over the workload's commands, so a partial last round does not
change the mix.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric by name and unit, and the environment.  Metric names and units are
those declared in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

import layers
from workloads import WORKLOADS, mc_work

SETUP_REPEATS = 3
RUN_LIMIT_S = 170  # children still running this long after start are killed
HERE = os.path.dirname(os.path.abspath(__file__))
_ELAPSED = re.compile(rb'"elapsed_seconds": [-+0-9.eE]+')


class Runner:
    """Runs CLI children from the checkout and records what each cost."""

    def __init__(self, root: str, tmp: str, deadline: float):
        self.root = root
        self.tmp = tmp
        self.deadline = deadline
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.count = 0

    def spawn(self, argv: list[str], extra_env: dict[str, str] | None = None) -> dict:
        """One child: wall time from spawn to reap, exit code, peak RSS."""
        self.count += 1
        out_path = os.path.join(self.tmp, f"out{self.count}.json")
        err_path = os.path.join(self.tmp, f"err{self.count}.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=self.root,
                                    env={**self.env, **(extra_env or {})})
            timer = threading.Timer(max(self.deadline - started, 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read().decode("utf-8", "replace")
        os.remove(out_path)
        os.remove(err_path)
        return {"wall": wall, "rc": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": stdout, "stderr": stderr}

    def cli(self, cmd) -> dict:
        return self.spawn([sys.executable, "-m", "matmean.cli", *cmd.args], cmd.env)

    def reference(self) -> float:
        """Wall time of one run of reference.py."""
        res = self.spawn([sys.executable, os.path.join(HERE, "reference.py")])
        if res["rc"] != 0:
            raise RuntimeError(f"reference task failed: {res['stderr'].strip()[-300:]}")
        return res["wall"]

    def traced(self, cmd) -> tuple[dict, dict | None]:
        spans_path = os.path.join(self.tmp, "spans.json")
        res = self.spawn([sys.executable, os.path.join(HERE, "tracer.py"), spans_path, "--",
                          *cmd.args], cmd.env)
        dump = None
        if os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                dump = json.load(fh)
            os.remove(spans_path)
        return res, dump


def check_output(cmd, res: dict) -> tuple[list[str], dict]:
    """Exit code and output checks; returns errors and the output sizes."""
    sizes = {"cli.report_bytes": len(_ELAPSED.sub(b'"elapsed_seconds": 0', res["stdout"])),
             "cli.csv_bytes": 0}
    if res["rc"] != 0:
        return [f"{cmd.label}: exit code {res['rc']}: {res['stderr'].strip()[-300:]}"], sizes
    try:
        report = json.loads(res["stdout"])
    except ValueError as e:
        return [f"{cmd.label}: report is not JSON ({e})"], sizes
    if cmd.csv_path:
        sizes["cli.csv_bytes"] = os.path.getsize(cmd.csv_path)
    try:
        errs = cmd.check(report, cmd)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as e:
        errs = [f"report does not have the expected shape ({type(e).__name__}: {e})"]
    return [f"{cmd.label}: {e}" for e in errs], sizes


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least 10 samples above it.

    With 10 samples or fewer no percentile qualifies and the maximum
    (percentile 100) is reported.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment(commands, root: str) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    default = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {c.label: c.env.get("OPENBLAS_NUM_THREADS", default) for c in commands},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(root),
    }


def _commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                ref = fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def setup(build, seed: int, runner: Runner):
    """Generate inputs and warm up, several times; returns the last commands."""
    times = []
    commands = None
    for k in range(SETUP_REPEATS):
        started = time.perf_counter()
        data_dir = os.path.join(runner.tmp, f"inputs{k}")
        os.mkdir(data_dir)
        commands = build(seed, data_dir)
        warm = runner.spawn([sys.executable, "-c", "import matmean.cli"])
        times.append(time.perf_counter() - started)
        if warm["rc"] != 0:
            raise RuntimeError(f"warm-up import failed: {warm['stderr'].strip()[-300:]}")
        if k < SETUP_REPEATS - 1:
            shutil.rmtree(data_dir)
    return commands, times


class Tally:
    """Attempts, failures and the per-command exact values across rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.exact: dict[str, dict] = {}

    def record(self, label: str, errs: list[str], exact: dict) -> None:
        first = self.exact.setdefault(label, exact)
        if first != exact:
            errs = errs + [f"{label}: counts {exact} differ from the first run {first}"]
        self.attempted += 1
        if errs:
            self.failed += 1
            self.errors.extend(errs)


def run(args) -> int:
    deadline = time.perf_counter() + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "matmean", "cli.py")):
        sys.stderr.write("error: run from a matmean checkout (src/matmean/cli.py not found)\n")
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    build = WORKLOADS[args.workload]
    os.makedirs(os.path.join(root, ".perfbench_tmp"), exist_ok=True)
    base = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, ".perfbench_tmp"))
    try:
        runner = Runner(root, base, deadline)
        commands, setup_times = setup(build, args.seed, runner)
        tally = Tally()
        if args.trace:
            metrics, notes = traced_loop(runner, commands, args.seconds, tally)
            declared = spec["per_layer"]
        else:
            metrics, notes = plain_loop(runner, commands, args.seconds, tally)
            metrics["setup_s"] = statistics.median(setup_times)
            notes.append(f"setup_s samples: {', '.join(f'{t:.3f}' for t in setup_times)}")
            declared = spec["end_to_end"]
        env_record = environment(commands, root)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    names = [m["name"] for m in declared]
    missing = set(names) ^ set(metrics)
    if missing:
        raise RuntimeError(f"computed metrics do not match BENCHMARK.json: {sorted(missing)}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "environment": env_record}))
    for note in notes:
        print(note)
    for err in tally.errors[:20]:
        print(f"check failed: {err}")
    for m in declared:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


def schedule(commands, seconds: float):
    """The commands in rounds: the first round whole, then until ``seconds`` pass."""
    deadline = time.perf_counter() + seconds
    yield from commands
    while True:
        for cmd in commands:
            if time.perf_counter() >= deadline:
                return
            yield cmd


def plain_loop(runner: Runner, commands, seconds: float, tally: Tally):
    walls = {cmd.label: [] for cmd in commands}
    work = {}  # label -> (values, replicates) one successful command processes
    rss, ref = [], []
    for cmd in schedule(commands, seconds):
        res = runner.cli(cmd)
        errs, exact = check_output(cmd, res)
        tally.record(cmd.label, errs, exact)
        walls[cmd.label].append(res["wall"])
        rss.append(res["rss_mb"])
        if cmd.label not in work and not errs:
            work[cmd.label] = command_work(cmd)
        ref.append(runner.reference())
    means = {label: statistics.mean(w) for label, w in walls.items()}
    round_s = sum(means.values())
    cmd_s = round_s / len(means)
    ref_s = statistics.mean(ref)
    samples = [w for ws in walls.values() for w in ws]
    tail_value, tail_pct = tail(samples)
    metrics = {
        "cmd_rel": cmd_s / ref_s,
        "peak_rss_mb": max(rss),
    }
    notes = [
        f"commands: {len(samples)}, in rounds of {', '.join(walls)}",
        "wall per command, mean / median / samples: " + ", ".join(
            f"{label} {means[label]:.3f} / {statistics.median(w):.3f} s / {len(w)}"
            for label, w in walls.items()),
        f"cmd_s_mean = {cmd_s:.6g} s; reference task {ref_s:.6g} s (mean of {len(ref)} runs, "
        f"one after each command)",
        f"values_per_s = {sum(v for v, _ in work.values()) / round_s:.6g} 1/s",
        f"cmd_s_p50 = {statistics.median(samples):.6g} s (median of all {len(samples)} samples)",
        f"cmd_s_tail = {tail_value:.6g} s (percentile {tail_pct:.1f} of {len(samples)} samples)",
        f"failed_frac = {tally.failed / max(tally.attempted, 1):.6g} ratio "
        f"({tally.failed} of {tally.attempted} commands)",
    ]
    replicates = sum(r for _, r in work.values())
    if replicates:
        notes.append(f"replicates_per_s = {replicates / round_s:.6g} 1/s "
                     f"({replicates} replicates per round)")
    return metrics, notes


def command_work(cmd) -> tuple[int, int]:
    """Values and Monte Carlo replicates one successful run of ``cmd`` processes.

    For a simulate command the values are replicates * N * r * c of the
    simulated stacks, read off its CSV; otherwise N * r * c of every file read.
    """
    if cmd.args[0] != "simulate":
        return cmd.values, 0
    with open(cmd.csv_path, "rb") as fh:
        replicates, values = mc_work(fh.read())
    return values, replicates


def traced_loop(runner: Runner, commands, seconds: float, tally: Tally):
    totals = {cmd.label: [] for cmd in commands}
    overhead = {cmd.label: [] for cmd in commands}
    plain_walls = {cmd.label: [] for cmd in commands}
    for cmd in schedule(commands, seconds):
        plain = runner.cli(cmd)
        errs, exact = check_output(cmd, plain)
        tally.record(cmd.label, errs, exact)
        res, dump = runner.traced(cmd)
        errs, exact_traced = check_output(cmd, res)
        if dump is None:
            errs.append(f"{cmd.label}: traced run wrote no spans")
        else:
            t = layers.command_totals(dump)
            t.update(exact_traced)
            totals[cmd.label].append(t)
            exact_traced.update({k: t[k] for k in layers.EXACT_COUNTS})
        tally.record(cmd.label + " (traced)", errs, exact_traced)
        overhead[cmd.label].append(res["wall"] - plain["wall"])
        plain_walls[cmd.label].append(plain["wall"])
    if not all(totals.values()):
        raise RuntimeError("a command produced no spans in any traced run")
    agg = layers.aggregate(totals)
    metrics = {k: v for k, v in agg.items() if not k.startswith("_")}
    metrics["trace.overhead_s"] = statistics.mean(map(statistics.mean, overhead.values()))
    notes = [
        f"traced commands: {sum(map(len, totals.values()))}",
        "layer self time per command: " + ", ".join(
            f"{layer} {agg['_layer.' + layer]:.4f} s" for layer in layers.LAYERS),
        "per command, plain wall / cli.import_s / io.load_stack.s (traced), means: " + ", ".join(
            f"{label} {statistics.mean(plain_walls[label]):.3f} / "
            f"{statistics.mean(t['cli.import_s'] for t in runs):.3f} / "
            f"{statistics.mean(t['io.load_stack.s'] for t in runs):.3f} s"
            for label, runs in totals.items()),
        f"tracing overhead: {metrics['trace.overhead_s']:.4f} s per command "
        f"(traced minus plain wall, over {sum(map(len, overhead.values()))} pairs); the wrappers "
        f"alone cost {agg['_wrapper_s']:.4f} s per command (spans x cost of one wrapper call)",
    ]
    if agg["simulate.monte_carlo.s"]:
        inner = sum(agg["_layer." + layer] for layer in layers.LAYERS
                    if layer not in ("cli", "presets")) - agg["simulate.monte_carlo.self_s"]
        notes.append(
            f"simulate.monte_carlo.s {agg['simulate.monte_carlo.s']:.4f} s: layer self times "
            f"inside it {inner:.4f} s, unattributed {agg['simulate.monte_carlo.self_s']:.4f} s")
    return metrics, notes


def main() -> int:
    # on SIGTERM, unwind normally: the running child is killed and reaped,
    # and the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
