"""A fixed task that the benchmark times next to every matmean command.

    python3 perfbench/reference.py

On a shared machine the speed available to one process drifts by tens of
percent over minutes, so command times in seconds from runs made minutes
apart differ by more than any bound worth setting.  The drift slows this
task as much as it slows the commands, so a command's time divided by
this task's time, both measured in the same run, stays put.

The task does what a matmean command does, without matmean and in about
the same shares: start an interpreter and import numpy and scipy.stats
(about half of its time), format and parse half a million numbers as text
in Python, then run matrix products with a 200 MB result and a rank test.
It reads and writes no files.  Nothing in it depends on the benchmark
seed, and it must not change between two commits that are compared.
"""

import numpy as np
import scipy.stats


def main() -> None:
    rng = np.random.default_rng(0)
    grid = rng.standard_normal((50_000, 10)).round(4)
    text = "\n".join("\t".join(map(repr, row)) for row in grid.tolist())
    rows = {f"g{k:06d}": [float(t) for t in line.split("\t")]
            for k, line in enumerate(text.split("\n"))}
    x = np.array(list(rows.values())).reshape(100, 5000)
    for _ in range(2):
        (x.T @ x).sum()
    scipy.stats.kruskal(*x[:10])


if __name__ == "__main__":
    main()
