"""Core structures for matrix-valued samples with grouped columns.

A dataset is a stack of N matrices, each r x c, one per subject.  A
grouping of the c columns expresses the hypothesis that within every
group the column mean vectors coincide.  The projection built here
centers each column within its group, so a mean matrix satisfies the
hypothesis exactly when the projected mean is zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "GroupPartition",
    "ProjectionMatrix",
    "DataStack",
    "build_projection",
    "drop_singletons",
]


@dataclass(frozen=True)
class GroupPartition:
    """Assignment of columns to groups, as 1-based group ids.

    Ids must be exactly 1..g with every group nonempty.  Singleton
    groups are allowed here; operations that need a group with at
    least two columns enforce that themselves.
    """

    assignment: tuple[int, ...]

    def __post_init__(self):
        if len(self.assignment) == 0:
            raise ValueError("partition must cover at least one column")
        ids = set(self.assignment)
        g = max(ids)
        if min(ids) < 1 or ids != set(range(1, g + 1)):
            raise ValueError(
                f"group ids must be exactly 1..{g} with no gaps, got {sorted(ids)}"
            )

    @classmethod
    def from_sizes(cls, sizes: Sequence[int]) -> "GroupPartition":
        """Build from consecutive group sizes, e.g. [7, 3] for ten columns."""
        if any(s < 1 for s in sizes):
            raise ValueError("group sizes must be positive")
        assignment = []
        for q, s in enumerate(sizes, start=1):
            assignment.extend([q] * s)
        return cls(tuple(assignment))

    @classmethod
    def from_labels(cls, labels: Iterable) -> "GroupPartition":
        """Build from arbitrary labels, numbering groups by first appearance."""
        seen: dict = {}
        assignment = []
        for lab in labels:
            if lab not in seen:
                seen[lab] = len(seen) + 1
            assignment.append(seen[lab])
        return cls(tuple(assignment))

    @property
    def n_cols(self) -> int:
        return len(self.assignment)

    @property
    def n_groups(self) -> int:
        return max(self.assignment)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        counts = [0] * self.n_groups
        for q in self.assignment:
            counts[q - 1] += 1
        return tuple(counts)

    @property
    def max_group_size(self) -> int:
        return max(self.sizes)

    def group_columns(self, q: int) -> tuple[int, ...]:
        """0-based column indices of group q (1-based)."""
        return tuple(b for b, gid in enumerate(self.assignment) if gid == q)

    def singleton_columns(self) -> tuple[int, ...]:
        """0-based indices of columns that sit alone in their group."""
        sizes = self.sizes
        return tuple(
            b for b, gid in enumerate(self.assignment) if sizes[gid - 1] == 1
        )


@dataclass(frozen=True)
class ProjectionMatrix:
    """Centering of columns within groups: P = I minus group averaging.

    P is symmetric and idempotent.  ``apply`` multiplies by it without
    forming it.  ``values`` is the explicit c x c matrix, built on first
    use; no test path needs it, only the C9 acceptance check (its exact
    targets) and the tests (a dense reference) read it.
    """

    partition: GroupPartition

    @property
    def n_cols(self) -> int:
        return self.partition.n_cols

    @property
    def rank(self) -> int:
        """c minus the number of groups (trace of an exact projection)."""
        return self.partition.n_cols - self.partition.n_groups

    @cached_property
    def values(self) -> np.ndarray:
        """Entry (a, b) is delta_ab minus 1/c_k when a and b share group k."""
        p = self.apply(np.eye(self.n_cols))
        p.setflags(write=False)
        return p

    @cached_property
    def _labels(self) -> np.ndarray:
        return np.asarray(self.partition.assignment) - 1

    @cached_property
    def _sizes(self) -> np.ndarray:
        return np.asarray(self.partition.sizes)

    @cached_property
    def _starts(self) -> np.ndarray:
        """Position of each group's first column once columns are sorted by group."""
        return np.cumsum(self._sizes) - self._sizes

    @cached_property
    def _contiguous(self) -> bool:
        """True when every group is one run of adjacent columns, in group order."""
        return bool((np.diff(self._labels) >= 0).all())

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``x @ values`` for x of shape (..., c), at O(x.size) cost.

        Subtracts from every column the mean of its group's columns,
        along the last axis.  When each group is a run of adjacent
        columns, the group sums are taken on ``x`` itself and each mean
        is subtracted from its run, so one array is allocated.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n_cols:
            raise ValueError(
                f"last axis has length {x.shape[-1]}, projection expects {self.n_cols}"
            )
        if not self._contiguous:
            order = np.argsort(self._labels, kind="stable")
            means = np.add.reduceat(x[..., order], self._starts, axis=-1) / self._sizes
            return x - means[..., self._labels]
        means = np.add.reduceat(x, self._starts, axis=-1) / self._sizes
        out = np.empty(x.shape)
        lo = 0
        for q, size in enumerate(self.partition.sizes):
            run = slice(lo, lo + size)
            np.subtract(x[..., run], means[..., q : q + 1], out=out[..., run])
            lo += size
        return out


def build_projection(partition: GroupPartition) -> ProjectionMatrix:
    """Projection onto within-group column contrasts.

    Requires at least one group of size >= 2, since an all-singleton
    grouping leaves nothing to test.
    """
    if partition.max_group_size < 2:
        raise ValueError(
            "partition needs at least one group of size >= 2; "
            "all groups are singletons"
        )
    return ProjectionMatrix(partition)


@dataclass(frozen=True)
class DataStack:
    """N subject matrices of common shape r x c, stored as one (N, r, c) array."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        self._own(v.copy() if v is self.values else v)

    @classmethod
    def _owning(cls, values: np.ndarray) -> "DataStack":
        """Wrap a float array without copying it.

        For arrays the package has just computed, or views of a stack's
        own read-only values: nothing may write to the array afterwards.
        A strided array is made C-ordered (one copy); the checks are
        those of the public constructor.
        """
        stack = object.__new__(cls)
        stack._own(values)
        return stack

    def _own(self, v: np.ndarray) -> None:
        if v.ndim != 3:
            raise ValueError(f"expected a (N, r, c) array, got shape {v.shape}")
        if min(v.shape) < 1:
            raise ValueError(f"empty dimension in shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("data stack contains non-finite values")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_matrices(cls, matrices: Sequence[np.ndarray]) -> "DataStack":
        mats = [np.asarray(m, dtype=float) for m in matrices]
        shapes = {m.shape for m in mats}
        if len(shapes) != 1:
            raise ValueError(f"matrices must share one shape, got {sorted(shapes)}")
        return cls(np.stack(mats, axis=0))

    @property
    def n_subjects(self) -> int:
        return self.values.shape[0]

    @property
    def n_rows(self) -> int:
        return self.values.shape[1]

    @property
    def n_cols(self) -> int:
        return self.values.shape[2]

    def transposed(self) -> "DataStack":
        """Swap rows and columns of every subject matrix."""
        return DataStack._owning(self.values.transpose(0, 2, 1))

    def take_columns(self, cols: Sequence[int]) -> "DataStack":
        return DataStack._owning(np.take(self.values, list(cols), axis=2))

    def take_rows(self, rows: Sequence[int]) -> "DataStack":
        return DataStack._owning(np.take(self.values, list(rows), axis=1))


def drop_singletons(
    stack: DataStack, partition: GroupPartition
) -> tuple[DataStack, GroupPartition]:
    """Remove columns in singleton groups; they never affect the test.

    Returns the inputs unchanged (same objects) when every group has
    size >= 2.  Remaining groups are renumbered in order of first
    appearance.
    """
    if stack.n_cols != partition.n_cols:
        raise ValueError(
            f"stack has {stack.n_cols} columns but partition covers "
            f"{partition.n_cols}"
        )
    drop = set(partition.singleton_columns())
    if not drop:
        return stack, partition
    keep = [b for b in range(partition.n_cols) if b not in drop]
    if not keep:
        raise ValueError("all groups are singletons; nothing left to test")
    reduced = GroupPartition.from_labels(partition.assignment[b] for b in keep)
    return stack.take_columns(keep), reduced
