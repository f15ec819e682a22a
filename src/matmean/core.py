"""Core structures for matrix-valued samples with grouped columns.

A dataset is a stack of N matrices, each r x c, one per subject.  A
grouping of the c columns expresses the hypothesis that within every
group the column mean vectors coincide.  The projection built here
centers each column within its group, so a mean matrix satisfies the
hypothesis exactly when the projected mean is zero.  The JSON form of
the result, simulation-config and report records is written and read
here too.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property, partial
from types import UnionType
from typing import Iterable, Sequence, get_args, get_origin, get_type_hints

import numpy as np

__all__ = [
    "GroupPartition",
    "ProjectionMatrix",
    "DataStack",
    "build_projection",
    "drop_singletons",
    "RunAborted",
    "MAX_STACK_VALUES",
]

# Largest number of values one array built from a simulation config may
# hold: the N*r*c stack, or the dim x dim matrix of a covariance factor.
# Checked when the config is read, so an impossible size is refused before
# anything is allocated.  A fixed cap, not the machine's free memory: 10^8
# values (800 MB of floats) is ten times the largest preset stack.
MAX_STACK_VALUES = 10**8


class RunAborted(RuntimeError):
    """A Monte Carlo run stopped because a method failed on too many replicates."""


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

    def to_dict(self) -> dict:
        return {
            "assignment": list(self.assignment),
            "sizes": list(self.sizes),
            "n_groups": self.n_groups,
        }

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

    @cached_property
    def values(self) -> np.ndarray:
        """Entry (a, b) is delta_ab minus 1/c_k when a and b share group k."""
        p = self.apply(np.eye(self.n_cols))
        p.setflags(write=False)
        return p

    def apply(self, x: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
        """``x @ values`` for x of shape (..., c), at O(x.size) cost.

        Subtracts from every column the mean of its group's columns,
        along the last axis.  The sums are taken on ``x`` itself when each
        group is a run of adjacent columns, else on a copy of one group's
        columns at a time, and the result is the one full array.  ``out``,
        a flat float array of at least x.size entries that does not
        overlap ``x``, receives the result in place of that array; the
        values are the same either way.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n_cols:
            raise ValueError(
                f"last axis has length {x.shape[-1]}, projection expects {self.n_cols}"
            )
        labels = np.asarray(self.partition.assignment) - 1
        sizes = np.asarray(self.partition.sizes)
        # position of each group's first column once columns are sorted by group
        starts = np.cumsum(sizes) - sizes
        out = out if out is None else out[: x.size].reshape(x.shape)
        if (np.diff(labels) < 0).any():
            # one group at a time: its columns are gathered once, summed as
            # a segment of the columns sorted by group, centred in place and
            # scattered into the result
            out = np.empty(x.shape) if out is None else out
            order = np.argsort(labels, kind="stable")
            for cols, size in zip(np.split(order, starts[1:]), sizes.tolist()):
                group = np.take(x, cols, axis=-1)
                group -= np.add.reduceat(group, [0], axis=-1) / size
                out[..., cols] = group
                del group  # before the next group is gathered
            return out
        means = np.add.reduceat(x, starts, axis=-1) / sizes
        # the result is allocated after the small means: allocated before
        # them it raised the peak RSS of a two-worker table2 run by 0.3 MB
        out = np.empty(x.shape) if out is None else out
        lo = 0
        for q, size in enumerate(self.partition.sizes):
            run = slice(lo, lo + size)
            np.subtract(x[..., run], means[..., q : q + 1], out=out[..., run])
            lo += size
        return out


_ALL_SINGLETONS = ("partition needs at least one group of size >= 2; "
                   "all groups are singletons")


def build_projection(partition: GroupPartition) -> ProjectionMatrix:
    """Projection onto within-group column contrasts.

    Requires at least one group of size >= 2, since an all-singleton
    grouping leaves nothing to test.
    """
    if partition.max_group_size < 2:
        raise ValueError(_ALL_SINGLETONS)
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
) -> tuple[DataStack, GroupPartition, tuple[int, ...]]:
    """Remove columns in singleton groups; they never affect the test.

    The one check of a partition test's inputs: the partition must
    cover the stack's columns and have a group of size >= 2.  Returns
    the stack and partition without the singleton columns, and their
    0-based indices; the inputs themselves (same objects) when every
    group has size >= 2.  Remaining groups are renumbered in order of
    first appearance.
    """
    if stack.n_cols != partition.n_cols:
        raise ValueError(
            f"stack has {stack.n_cols} columns but partition covers "
            f"{partition.n_cols}"
        )
    dropped = partition.singleton_columns()
    if not dropped:
        return stack, partition, dropped
    if len(dropped) == partition.n_cols:
        raise ValueError(_ALL_SINGLETONS)
    drop = set(dropped)
    keep = [b for b in range(partition.n_cols) if b not in drop]
    reduced = GroupPartition.from_labels(partition.assignment[b] for b in keep)
    return stack.take_columns(keep), reduced, dropped


# ---------------------------------------------------------------------------
# JSON form of records and specs
#
# A spec is a record whose ``kind`` names it in its family (the factors,
# the covariances, the means).  Each field's annotation says which JSON
# type it is read from.


class _Record:
    """Base of a dataclass whose ``to_dict`` is its JSON form.

    A spec gives its kind as a class keyword, as in
    ``class Ar1Factor(_Record, kind="ar1")``.
    """

    def __init_subclass__(cls, kind: str | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        if kind is not None:
            cls.kind = kind

    def to_dict(self) -> dict:
        """``{"kind": kind, field: value, ...}``, the fields in declared order.

        Only a spec has the "kind" key.  Nested records become objects,
        tuples lists and arrays nested lists.
        """
        out = {"kind": self.kind} if hasattr(self, "kind") else {}
        for f in fields(self):
            out[f.name] = _json_value(getattr(self, f.name))
        return out


def _json_value(value):
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value.to_dict() if isinstance(value, _Record) else value


_JSON_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
                    list: "a list", dict: "an object"}


def _json_typed(value, json_type: type):
    """``value`` if it has the JSON type, else a ValueError.

    A bool is neither an integer nor a number; a number is an int or a float.
    """
    accepted = (int, float) if json_type is float else json_type
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"expected {_JSON_TYPE_NAMES[json_type]}, got {value!r}")
    return value


def _read_value(hint, value):
    """A JSON value read as the declared type ``hint``.

    ``tuple[X, ...]`` reads a list of X, naming a bad entry by its index,
    a union of spec classes an object whose "kind" picks the class, an
    array a list of lists of numbers, and int, float and str their own.
    """
    if hint is np.ndarray:
        # a dense matrix may hold millions of entries: check their types in
        # bulk, and read them one by one only to name a bad one
        if type(value) is list and {*map(type, value)} == {list} and (
                {t for v in value for t in map(type, v)} <= {int, float}):
            return value
        hint = tuple[tuple[float, ...], ...]
    if get_origin(hint) is tuple:
        read = partial(_read_value, get_args(hint)[0])
        return tuple(_read_named(f"entry {i}", read, v)
                     for i, v in enumerate(_json_typed(value, list)))
    if isinstance(hint, UnionType):
        return _spec_from_dict(hint, value)
    return hint(_json_typed(value, hint))


def _read_named(name: str, read, value):
    try:
        return read(value)
    except (TypeError, ValueError) as e:
        raise ValueError(f"{name}: {e}") from None


def _read_fields(cls, d: dict, **readers) -> dict:
    """Keyword arguments for the dataclass ``cls`` from the JSON object ``d``.

    A field is read by its entry in ``readers``, else as its declared
    type.  A missing field takes its default; one without a default, a
    malformed one or a key that is no field raises a ValueError naming it.
    """
    hints = get_type_hints(cls)
    unknown = [key for key in d if key not in {f.name for f in fields(cls)}]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")
    kwargs = {}
    for f in fields(cls):
        if f.name in d:
            read = readers.get(f.name, partial(_read_value, hints[f.name]))
            kwargs[f.name] = _read_named(f"field {f.name!r}", read, d[f.name])
        elif f.default is MISSING:
            raise ValueError(f"missing field {f.name!r}")
    return kwargs


def _spec_from_dict(family: UnionType, d):
    """The spec of the class in ``family`` (a union) whose ``kind`` is d's "kind"."""
    kind = _json_typed(d, dict).get("kind")
    classes = get_args(family)
    for cls in classes:
        if cls.kind == kind:
            return cls(**_read_fields(cls, {k: v for k, v in d.items() if k != "kind"}))
    raise ValueError(f"unknown kind {kind!r}; expected one of {[c.kind for c in classes]}")
