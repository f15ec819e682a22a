"""Per-layer metrics from the spans of traced commands.

A span's self time is its duration minus the part of its interval that its
child spans cover.  Worker-thread spans are children of the Monte Carlo
span open in the main thread, so ``simulate.monte_carlo`` self time is the
loop time no layer span accounts for.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("io", "core", "engine", "baselines", "covariance", "simulate", "presets", "cli")

# metric name -> (span name, field) summed over spans
_SPAN_FIELDS = {
    "io.load_stack.s": ("io.load_stack", "s"),
    "io.load_stack.calls": ("io.load_stack", "calls"),
    "io.values_parsed": ("io.load_stack", "values"),
    "io.read_row_sets.s": ("io.read_row_sets", "s"),
    "core.build_projection.s": ("core.build_projection", "s"),
    "core.build_projection.calls": ("core.build_projection", "calls"),
    "core.datastack.s": ("core.datastack", "s"),
    "core.datastack.calls": ("core.datastack", "calls"),
    "core.take_rows.s": ("core.take_rows", "s"),
    "core.take_columns.s": ("core.take_columns", "s"),
    "core.transposed.s": ("core.transposed", "s"),
    "engine.mean_matrix_test.self_s": ("engine.mean_matrix_test", "self_s"),
    "engine.mean_matrix_test.calls": ("engine.mean_matrix_test", "calls"),
    "engine.trace_cov_sq_fast.s": ("engine.trace_cov_sq_fast", "s"),
    "engine.results_failed": ("engine.mean_matrix_test", "failed"),
    "engine.flops_computed": ("engine.mean_matrix_test", "flops"),
    "baselines.kruskal_rowwise.s": ("baselines.kruskal_rowwise", "s"),
    "baselines.anova_rowwise.s": ("baselines.anova_rowwise", "s"),
    "baselines.adjust_pvalues.s": ("baselines.adjust_pvalues", "s"),
    "baselines.adjust_pvalues.calls": ("baselines.adjust_pvalues", "calls"),
    "baselines.pairwise_cq.s": ("baselines.pairwise_cq", "s"),
    "baselines.cq_pairs": ("baselines.pairwise_cq", "pairs"),
    "covariance.sqrt_factor.s": ("covariance.sqrt_factor", "s"),
    "covariance.root_apply.s": ("covariance.root_apply", "s"),
    "covariance.root_apply.calls": ("covariance.root_apply", "calls"),
    "simulate.monte_carlo.s": ("simulate.monte_carlo", "s"),
    "simulate.monte_carlo.self_s": ("simulate.monte_carlo", "self_s"),
    "simulate.noise_self_s": ("simulate.gen_stack", "self_s"),
    "simulate.replicates": ("simulate.monte_carlo", "replicates"),
    "simulate.replicate_errors": ("simulate.monte_carlo", "errors"),
    "presets.build_preset.s": ("presets.build_preset", "s"),
    "cli.self_s": ("cli.main", "self_s"),
}

# counts that must repeat exactly for the same seed and command
EXACT_COUNTS = (
    "io.values_parsed",
    "io.bytes_read",
    "engine.flops_computed",
    "baselines.cq_pairs",
    "simulate.replicates",
)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def command_totals(dump: dict) -> dict[str, float]:
    """Sums over one traced command: per span name, and the layer metrics."""
    spans = dump["spans"]
    children = defaultdict(list)
    for sid, parent, name, start, end, thread, counts in spans:
        children[parent].append((start, end))
    acc = defaultdict(float)
    busy = workers_wall = 0.0
    for sid, parent, name, start, end, thread, counts in spans:
        dur = end - start
        self_s = dur - _covered(children.get(sid, []), start, end)
        acc[(name, "s")] += dur
        acc[(name, "self_s")] += self_s
        acc[(name, "calls")] += 1
        acc[("layer", name.split(".")[0])] += self_s
        for key, value in (counts or {}).items():
            acc[(name, key)] += value
        workers = (counts or {}).get("workers", 1)
        if name == "simulate.monte_carlo" and workers > 1:
            busy += sum(e - s for s, e in children.get(sid, []))
            workers_wall += workers * dur
    out = {metric: acc[key] for metric, key in _SPAN_FIELDS.items()}
    out["io.bytes_read"] = acc[("io.load_stack", "bytes")] + acc[("io.read_row_sets", "bytes")]
    out["cli.import_s"] = dump["import_s"]
    out["_wrapper_s"] = len(spans) * dump["span_cost_s"]
    out["_busy"] = busy
    out["_workers_wall"] = workers_wall
    for layer in LAYERS:
        out[f"_layer.{layer}"] = acc[("layer", layer)]
    return out


def aggregate(totals: dict[str, list[dict[str, float]]]) -> dict[str, float]:
    """Means per command: over each command's traced runs, then over commands.

    busy_frac is a ratio of those means, and counts only Monte Carlo runs
    with more than one worker: a serial run has no idle workers, and would
    dilute the ratio.
    """
    per_cmd = [{k: sum(t[k] for t in runs) / len(runs) for k in runs[0]}
               for runs in totals.values()]
    out = {k: sum(c[k] for c in per_cmd) / len(per_cmd) for k in per_cmd[0]}
    wall = out["_workers_wall"]
    out["simulate.busy_frac"] = out["_busy"] / wall if wall else 0.0
    return out
