"""Run one matmean command in-process, with a span around each layer call.

    python3 perfbench/tracer.py SPANS_JSON -- ARG...

is ``matmean ARG...`` with tracing.  The package is not changed: after
importing it, the public functions of each module are wrapped from outside
by replacing the names their callers look up (``matmean.cli.load_stack``,
``matmean.engine.build_projection``, ``matmean.simulate.sqrt_factor`` and
so on), then ``matmean.cli.main`` runs on the arguments.  Each span records
its id, parent id, name, start, end and thread, plus counts read off the
call's arguments and result.  Spans stay in memory and are written to
SPANS_JSON when the command ends, with the import time and the measured
cost of one wrapper call.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn, after=None):
        """``fn`` with a span; ``after(args, kwargs, result)`` may return counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # a worker thread's first span belongs to the span that
                # the main thread has open (the Monte Carlo loop)
                try:
                    parent = self._main_stack[-1]
                except IndexError:
                    parent = 0
            sid = next(self._ids)
            record = [sid, parent, name, 0.0, 0.0, threading.get_ident(), None]
            stack.append(sid)
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                stack.pop()
                self.spans.append(record)
            if after is not None:
                record[6] = after(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, name, after=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))


def _file_counts(args, kwargs, result):
    counts = {"bytes": os.path.getsize(args[0])}
    if hasattr(result, "stack"):
        counts["values"] = int(result.stack.values.size)
    return counts


def _test_counts(args, kwargs, result):
    n, r, c = result.n_used, result.r_used, result.c_used
    return {
        "failed": int(result.failure is not None),
        # projection matmul plus gram, from the shapes actually tested
        "flops": 2 * n * r * c * c + 2 * n * n * r * c,
    }


def _mc_counts(args, kwargs, result):
    workers = kwargs.get("workers")
    if workers is None:
        workers = int(os.environ.get("MATMEAN_WORKERS", "1"))
    return {
        "replicates": result.replicates,
        "errors": sum(o.errors for o in result.outcomes),
        "workers": workers,
    }


def install(tracer: Tracer) -> None:
    import matmean.baselines as baselines
    import matmean.cli as cli
    import matmean.core as core
    import matmean.engine as engine
    import matmean.simulate as simulate

    tracer.patch(cli, "load_stack", "io.load_stack", _file_counts)
    tracer.patch(cli, "read_row_sets", "io.read_row_sets", _file_counts)

    tracer.patch(engine, "build_projection", "core.build_projection")
    # construction, validation and copy of every stack, whoever builds it
    tracer.patch(core.DataStack, "__post_init__", "core.datastack")
    tracer.patch(core.DataStack, "take_rows", "core.take_rows")
    tracer.patch(core.DataStack, "take_columns", "core.take_columns")
    tracer.patch(core.DataStack, "transposed", "core.transposed")

    for module in (cli, simulate):
        tracer.patch(module, "mean_matrix_test", "engine.mean_matrix_test", _test_counts)
        tracer.patch(module, "adjust_pvalues", "baselines.adjust_pvalues")
    for module in (engine, baselines):
        tracer.patch(module, "trace_cov_sq_fast", "engine.trace_cov_sq_fast")

    tracer.patch(simulate, "anova_rowwise", "baselines.anova_rowwise")
    tracer.patch(simulate, "kruskal_rowwise", "baselines.kruskal_rowwise")
    tracer.patch(simulate, "pairwise_cq_procedure", "baselines.pairwise_cq",
                 lambda a, k, res: {"pairs": len(res.pairs)})

    def wrap_root(args, kwargs, root):
        root.apply = tracer.wrap("covariance.root_apply", root.apply)

    tracer.patch(simulate, "sqrt_factor", "covariance.sqrt_factor", wrap_root)
    tracer.patch(simulate, "gen_stack", "simulate.gen_stack")
    tracer.patch(cli, "monte_carlo", "simulate.monte_carlo", _mc_counts)
    tracer.patch(cli, "build_preset", "presets.build_preset")


def span_cost(calls: int = 20_000) -> float:
    """Seconds a wrapper adds to one call, timed on a function that does nothing."""

    def noop():
        return None

    traced = Tracer().wrap("probe", noop)
    started = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(calls):
        traced()
    return (time.perf_counter() - started - plain) / calls


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        sys.stderr.write(__doc__)
        return 2
    out_path, args = argv[0], argv[2:]
    started = time.perf_counter()
    import matmean.cli

    import_s = time.perf_counter() - started
    tracer = Tracer()
    install(tracer)
    rc = 1
    try:
        rc = tracer.wrap("cli.main", matmean.cli.main)(args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "span_cost_s": span_cost(),
                       "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
