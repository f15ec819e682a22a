"""Reference statistics computed with numpy alone, and report comparisons.

Nothing here imports ``matmean``: the expected results are rebuilt from the
arrays the benchmark generated, by centering each subject's columns within
their groups, forming the N x N gram of the centered data, and evaluating
the two U-statistics on it.  The comparisons turn a CLI JSON report into a
list of mismatch messages (empty when the report agrees).
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

STAT_RTOL = 1e-9  # statistic: relative, floored at 1 on the z scale
P_RTOL = 1e-7  # adjusted p-values


def center_within_groups(x: np.ndarray, labels) -> np.ndarray:
    """(N, r, c) data -> (N, r * c') data centered within column groups.

    Columns whose group has a single member are dropped, as they carry no
    within-group contrast.
    """
    labels = list(labels)
    blocks = []
    for g in dict.fromkeys(labels):
        cols = [k for k, lab in enumerate(labels) if lab == g]
        if len(cols) < 2:
            continue
        part = x[:, :, cols]
        blocks.append(part - part.mean(axis=2, keepdims=True))
    y = np.concatenate(blocks, axis=2)
    return y.reshape(y.shape[0], -1)


def u_statistics(gram: np.ndarray) -> tuple[float, float]:
    """Deviation estimate and variance-trace estimate from a gram matrix.

    The deviation estimate averages the off-diagonal entries.  The trace
    estimate combines the averages of G_ij^2, G_ij G_ik and G_ij G_kl over
    tuples of distinct indices, each tuple sum written through row sums.
    """
    n = gram.shape[0]
    off = gram - np.diag(np.diag(gram))
    total = float(off.sum())
    dev = total / (n * (n - 1))
    pairs_sq = float((off * off).sum())
    rows = off.sum(axis=1)
    triples = float(rows @ rows) - pairs_sq
    quads = total * total - 2.0 * pairs_sq - 4.0 * triples
    d2 = n * (n - 1)
    d3 = d2 * (n - 2)
    d4 = d3 * (n - 3)
    tsq = pairs_sq / d2 - 2.0 * triples / d3 + quads / d4
    return dev, tsq


def upper_p(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def grouped_test(x: np.ndarray, labels, alpha: float) -> dict:
    """Expected statistic, p-value and decision of one grouped-mean test."""
    y = center_within_groups(x, labels)
    dev, tsq = u_statistics(y @ y.T)
    n = x.shape[0]
    if not tsq > 0.0:
        return {"statistic": None, "p_value": None, "reject": None, "failure": True}
    z = dev / math.sqrt(2.0 * tsq / (n * (n - 1)))
    return {
        "statistic": z,
        "p_value": upper_p(z),
        "reject": z >= NormalDist().inv_cdf(1.0 - alpha),
        "failure": False,
    }


def bh_adjust(p: np.ndarray) -> np.ndarray:
    m = p.size
    order = np.argsort(p, kind="stable")
    scaled = p[order] * m / np.arange(1, m + 1)
    out = np.empty(m)
    out[order] = np.minimum(np.minimum.accumulate(scaled[::-1])[::-1], 1.0)
    return out


def _sizes_labels(sizes) -> list[int]:
    return [g for g, s in enumerate(sizes) for _ in range(s)]


# ---------------------------------------------------------------------------
# comparisons


def _close_stat(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= STAT_RTOL * max(abs(got), abs(want), 1.0)


def _close_p(got, want, z) -> bool:
    if got is None or want is None:
        return got is None and want is None
    density = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return abs(got - want) <= 10 * STAT_RTOL * max(abs(z), 1.0) * density + 1e-300


def _close_adj(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= P_RTOL * max(abs(want), 1e-12)


def compare_result(where: str, got: dict, want: dict) -> list[str]:
    errs = []
    if bool(got.get("failure")) != want["failure"]:
        errs.append(f"{where}: failure {got.get('failure')!r}, oracle failure={want['failure']}")
        return errs
    if not _close_stat(got.get("statistic"), want["statistic"]):
        errs.append(f"{where}: statistic {got.get('statistic')!r} vs oracle {want['statistic']!r}")
    if got.get("reject") != want["reject"]:
        errs.append(f"{where}: reject {got.get('reject')!r} vs oracle {want['reject']!r}")
    return errs


def expect_test(x: np.ndarray, sizes, alpha: float, orientation: str = "columns") -> dict:
    work = x.transpose(0, 2, 1) if orientation == "rows" else x
    return grouped_test(work, _sizes_labels(sizes), alpha)


def check_test(report: dict, want: dict) -> list[str]:
    return compare_result("test", report["result"], want)


def expect_discover(x: np.ndarray, alpha: float) -> dict:
    """The sequential search: overall test, all pairs under BH, merged grouping."""
    c = x.shape[2]
    overall = grouped_test(x, [0] * c, alpha)
    out = {"overall": overall, "pairs": None, "grouping": None, "final": None}
    if overall["failure"] or not overall["reject"]:
        return out
    pairs = []
    for i in range(c):
        for j in range(i + 1, c):
            # a pair test keeps only the two columns: the rest are singletons
            pairs.append(((i, j), grouped_test(x[:, :, [i, j]], [0, 0], alpha)))
    ok = [k for k, (_, res) in enumerate(pairs) if not res["failure"]]
    fdr = bh_adjust(np.array([pairs[k][1]["p_value"] for k in ok]))
    p_fdr = {k: float(v) for k, v in zip(ok, fdr)}
    out["pairs"] = [(cols, res, p_fdr.get(k)) for k, (cols, res) in enumerate(pairs)]
    merge = [cols for k, (cols, _) in enumerate(pairs) if k in p_fdr and p_fdr[k] >= alpha]
    if not merge:
        return out
    parent = list(range(c))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i, j in merge:
        parent[find(i)] = find(j)
    roots = [find(k) for k in range(c)]
    first = {}
    assignment = [first.setdefault(root, len(first) + 1) for root in roots]
    out["grouping"] = assignment
    out["final"] = grouped_test(x, assignment, alpha)
    return out


def check_discover(report: dict, want: dict) -> list[str]:
    steps = report["steps"]
    errs = compare_result("discover overall", steps["overall"], want["overall"])
    if want["pairs"] is None:
        if steps["pairs"] is not None:
            errs.append("discover: pairs reported, oracle expects none")
        return errs
    got_pairs = steps["pairs"] or []
    if len(got_pairs) != len(want["pairs"]):
        return errs + [f"discover: {len(got_pairs)} pairs, oracle {len(want['pairs'])}"]
    for entry, (cols, res, p_fdr) in zip(got_pairs, want["pairs"]):
        where = f"discover pair {cols}"
        if tuple(entry["cols"]) != cols:
            errs.append(f"{where}: reported as {entry['cols']}")
        elif bool(entry.get("failure")) != res["failure"]:
            errs.append(f"{where}: failure {entry.get('failure')!r}")
        elif not _close_p(entry["p_value"], res["p_value"], res["statistic"] or 0.0):
            errs.append(f"{where}: p {entry['p_value']!r} vs oracle {res['p_value']!r}")
        elif not _close_adj(entry["p_fdr"], p_fdr):
            errs.append(f"{where}: p_fdr {entry['p_fdr']!r} vs oracle {p_fdr!r}")
        if len(errs) > 5:
            return errs
    got_grouping = steps["grouping"]["assignment"] if steps["grouping"] else None
    if got_grouping != want["grouping"]:
        errs.append(f"discover: grouping {got_grouping} vs oracle {want['grouping']}")
    elif want["final"] is not None:
        errs += compare_result("discover final", steps["final"], want["final"])
    return errs


def expect_screen(x: np.ndarray, sets: list[list[int]], sizes, alpha: float) -> dict:
    labels = _sizes_labels(sizes)
    results = [grouped_test(x[:, rows, :], labels, alpha) for rows in sets]
    ok = [k for k, res in enumerate(results) if not res["failure"]]
    adj = bh_adjust(np.array([results[k]["p_value"] for k in ok]))
    adjusted = {k: float(v) for k, v in zip(ok, adj)}
    return {"results": results, "adjusted": adjusted, "alpha": alpha}


def check_screen(report: dict, want: dict) -> list[str]:
    entries = report["sets"]
    if len(entries) != len(want["results"]):
        return [f"screen: {len(entries)} sets, oracle {len(want['results'])}"]
    errs = []
    for k, (entry, res) in enumerate(zip(entries, want["results"])):
        where = f"screen set {entry['name']}"
        if bool(entry.get("failure")) != res["failure"]:
            errs.append(f"{where}: failure {entry.get('failure')!r}")
            continue
        if not _close_stat(entry["statistic"], res["statistic"]):
            errs.append(f"{where}: statistic {entry['statistic']!r} vs oracle {res['statistic']!r}")
        adj = want["adjusted"].get(k)
        if not _close_adj(entry["p_adjusted"], adj):
            errs.append(f"{where}: p_adjusted {entry['p_adjusted']!r} vs oracle {adj!r}")
        expected_reject = None if adj is None else adj < want["alpha"]
        if entry["reject"] != expected_reject:
            errs.append(f"{where}: reject {entry['reject']!r} vs oracle {expected_reject!r}")
        if len(errs) > 5:
            break
    return errs
