"""Reading and writing matrix-stack data files.

Two on-disk layouts are supported (formats are documented byte-exactly in
docs/formats.md):

* long format: delimited text with a header line naming the four required
  columns ``subject_id``, ``row_id``, ``col_id``, ``value``.  Ids are
  arbitrary strings mapped to contiguous indices in first-appearance order;
  the grid must be complete (every (subject, row, col) triple exactly once).
* stack format: a header line ``N r c`` followed by N blocks of r lines with
  c values each, row-major.  Ids are implicit ("1".."N" and so on).

The delimiter (tab or comma) is detected from the header line; stack-format
value lines additionally accept runs of spaces.  Values are written with
``repr`` so a write/read round trip is bit-exact.

Data files and ``--m0`` matrices are read by a fast path first.  It takes
the nonblank lines in blocks of about 64k values and splits each block
into strings only: the block's lines are joined with a NUL field between
them and split once, on the delimiter (long format) or on commas and
whitespace (stack values).  A line with the wrong field count moves the
NUL fields out of their stride, so one list count checks every line.
Values go through the same ``float()`` as the line parser, so the bits
are identical.  The nonblank line count is compared with the stack
header before anything is allocated; finiteness, duplicates and holes
are checked with numpy, and long-format ids are numbered in
first-appearance order through dicts.  The block size is fixed on
purpose: a list per line leaves millions of objects to the cyclic
garbage collector, and one split of the whole file holds every field
string at once.

The fast path returns None on any irregularity, and the line parser then
reads the same lines one at a time.  It accepts what the fast path only
declines (ids padded with spaces) and raises the exact
``path:line: message`` for everything else.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import DataStack

__all__ = [
    "LoadedStack",
    "load_stack",
    "write_stack_file",
    "read_matrix_file",
    "read_vector_file",
    "read_row_sets",
]

_LONG_HEADER = ("subject_id", "row_id", "col_id", "value")
_BLOCK_VALUES = 1 << 16  # values per fast-path block; see the module docstring


@dataclass(frozen=True)
class LoadedStack:
    """A parsed data file: the stack plus the id mappings that built it."""

    stack: DataStack
    subject_ids: tuple[str, ...]
    row_ids: tuple[str, ...]
    col_ids: tuple[str, ...]
    source_format: str  # "long" or "stack"


def _fail(path, line_no, message):
    raise ValueError(f"{path}:{line_no}: {message}")


def _detect_delimiter(header: str) -> str:
    # Tab wins when present: comma-free TSV headers and tabbed CSV exports
    # both resolve correctly, and mixing the two in one file is rejected
    # later by the field-count check.
    return "\t" if "\t" in header else ","


def _read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def _parse_value(token: str, path, line_no) -> float:
    try:
        value = float(token)
    except ValueError:
        _fail(path, line_no, f"bad numeric value {token!r}")
    if not np.isfinite(value):
        _fail(path, line_no, f"non-finite value {token!r}")
    return value


def _nonblank(lines: list[str], start: int = 0) -> list[str]:
    # decided on the raw line, so a stack line ",," is a value line
    return list(filter(str.strip, itertools.islice(lines, start, None)))


def _stack_header(path, line: str) -> tuple[int, int, int]:
    n, r, c = (int(t) for t in line.replace(",", " ").replace("\t", " ").split())
    if min(n, r, c) < 1:
        _fail(path, 1, f"header dimensions must be positive, got {n} {r} {c}")
    return n, r, c


def _stacked(values: np.ndarray, n: int, r: int, c: int) -> LoadedStack:
    return LoadedStack(
        stack=DataStack(values.reshape(n, r, c)),
        subject_ids=tuple(str(i) for i in range(1, n + 1)),
        row_ids=tuple(str(i) for i in range(1, r + 1)),
        col_ids=tuple(str(i) for i in range(1, c + 1)),
        source_format="stack",
    )


def _long_header(path, line: str) -> tuple[str, dict[str, int], int]:
    """Delimiter, column position of each required name, and field count."""
    delim = _detect_delimiter(line)
    header = [t.strip() for t in line.split(delim)]
    missing = [name for name in _LONG_HEADER if name not in header]
    if missing:
        _fail(path, 1, f"long-format header must name {', '.join(_LONG_HEADER)}; "
                       f"missing {', '.join(missing)}")
    return delim, {name: header.index(name) for name in _LONG_HEADER}, len(header)


def load_stack(path: str) -> LoadedStack:
    """Load a data file in either supported format, detected from line 1."""
    lines = _read_lines(path)
    if not lines or not lines[0].strip():
        raise ValueError(f"{path}:1: empty file")
    head_tokens = lines[0].replace(",", " ").replace("\t", " ").split()
    if len(head_tokens) == 3 and all(t.isdigit() for t in head_tokens):
        fast, by_line = _fast_stack_format, _load_stack_format
    else:
        fast, by_line = _fast_long_format, _load_long_format
    loaded = fast(path, lines)
    return by_line(path, lines) if loaded is None else loaded


# ---------------------------------------------------------------------------
# fast path: None on any irregularity past the header line


def _block_fields(block: list[str], width: int, delim: str | None) -> list[str] | None:
    """The fields of ``block``'s lines in one flat list, with one NUL field
    between lines; None unless every line has exactly ``width`` fields.

    ``delim=None`` splits like a stack value line (commas and whitespace).
    """
    joined = (" \0 " if delim is None else f"{delim}\0{delim}").join(block)
    if joined.count("\0") != len(block) - 1:
        return None  # a line holds a NUL of its own
    fields = joined.replace(",", " ").split() if delim is None else joined.split(delim)
    # the NULs are then the only NUL fields, and they fill the slots of a
    # width + 1 stride exactly when every line has width fields
    stride = width + 1
    if len(fields) != len(block) * stride - 1:
        return None
    if fields[width::stride].count("\0") != len(block) - 1:
        return None
    return fields


def _floats(tokens: list[str]) -> np.ndarray | None:
    # the float() of _parse_value, so the bits are the line parser's
    try:
        values = np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _parse_rows(body: list[str], n_cols: int) -> np.ndarray | None:
    """Nonblank value lines as a (len(body), n_cols) array."""
    step = max(1, _BLOCK_VALUES // n_cols)
    parts = []
    for k in range(0, len(body), step):
        fields = _block_fields(body[k:k + step], n_cols, None)
        if fields is None:
            return None
        del fields[n_cols::n_cols + 1]
        values = _floats(fields)
        if values is None:
            return None
        parts.append(values)
    return np.concatenate(parts or [np.empty(0)]).reshape(len(body), n_cols)


def _fast_stack_format(path, lines) -> LoadedStack | None:
    n, r, c = _stack_header(path, lines[0])
    body = _nonblank(lines, 1)
    if len(body) != n * r:  # checked before anything of size n*r*c exists
        return None
    values = _parse_rows(body, c)
    return None if values is None else _stacked(values, n, r, c)


class _FirstSeen(dict):
    """Id -> index, numbered in order of first lookup."""

    def __missing__(self, key: str) -> int:
        self[key] = code = len(self)
        return code


def _fast_long_format(path, lines) -> LoadedStack | None:
    delim, pos, width = _long_header(path, lines[0])
    body = _nonblank(lines, 1)
    stride = width + 1
    indexes = (_FirstSeen(), _FirstSeen(), _FirstSeen())
    codes: tuple[list[np.ndarray], ...] = ([], [], [])
    parts = []
    for k in range(0, len(body), _BLOCK_VALUES):
        fields = _block_fields(body[k:k + _BLOCK_VALUES], width, delim)
        if fields is None:
            return None
        values = _floats(fields[pos["value"]::stride])
        if values is None:
            return None
        parts.append(values)
        for name, index, out in zip(_LONG_HEADER[:3], indexes, codes):
            keys = fields[pos[name]::stride]
            out.append(np.fromiter(map(index.__getitem__, keys), np.int32, len(keys)))
    n, r, c = map(len, indexes)
    # the line parser strips ids; holes and duplicates are its to name
    if not body or len(body) != n * r * c or any(
        key != key.strip() for index in indexes for key in index
    ):
        return None
    flat = np.concatenate(codes[0]).astype(np.intp)
    for size, out in ((r, codes[1]), (c, codes[2])):
        flat *= size
        flat += np.concatenate(out)
    values = np.full(n * r * c, np.nan)
    values[flat] = np.concatenate(parts)
    if np.isnan(values).any():  # a duplicate, so also a hole
        return None
    return LoadedStack(
        stack=DataStack(values.reshape(n, r, c)),
        subject_ids=tuple(indexes[0]),
        row_ids=tuple(indexes[1]),
        col_ids=tuple(indexes[2]),
        source_format="long",
    )


# ---------------------------------------------------------------------------
# line parser: reads what the fast path declines, or names the bad line


def _rows_by_line(path, lines, start: int, n_rows: int, n_cols: int) -> np.ndarray:
    """The n_rows nonblank value lines of ``lines[start:]``, one at a time."""
    out = None
    k = 0
    for line_no, raw in enumerate(lines[start:], start=start + 1):
        if not raw.strip():
            continue
        tokens = raw.replace(",", " ").replace("\t", " ").split()
        if len(tokens) != n_cols:
            _fail(path, line_no, f"expected {n_cols} values, found {len(tokens)}")
        if out is None:  # a mistyped header fails here, not in np.empty
            out = np.empty((n_rows, n_cols), dtype=float)
        for j, tok in enumerate(tokens):
            out[k, j] = _parse_value(tok, path, line_no)
        k += 1
    return out


def _load_stack_format(path, lines) -> LoadedStack:
    n, r, c = _stack_header(path, lines[0])
    n_body = len(_nonblank(lines, 1))
    if n_body != n * r:
        raise ValueError(
            f"{path}: expected {n * r} value lines for header '{n} {r} {c}', "
            f"found {n_body}"
        )
    return _stacked(_rows_by_line(path, lines, 1, n * r, c), n, r, c)


def _load_long_format(path, lines) -> LoadedStack:
    delim, pos, n_fields = _long_header(path, lines[0])

    subj_index: dict[str, int] = {}
    row_index: dict[str, int] = {}
    col_index: dict[str, int] = {}
    records = []
    for line_no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        fields = [t.strip() for t in raw.split(delim)]
        if len(fields) != n_fields:
            _fail(path, line_no, f"expected {n_fields} fields, found {len(fields)}")
        sid = fields[pos["subject_id"]]
        rid = fields[pos["row_id"]]
        cid = fields[pos["col_id"]]
        value = _parse_value(fields[pos["value"]], path, line_no)
        for key, index in ((sid, subj_index), (rid, row_index), (cid, col_index)):
            if key not in index:
                index[key] = len(index)
        records.append((line_no, subj_index[sid], row_index[rid], col_index[cid], value))

    n, r, c = len(subj_index), len(row_index), len(col_index)
    if not records:
        raise ValueError(f"{path}: no data records after the header")
    values = np.full((n, r, c), np.nan)
    for line_no, i, a, b, value in records:
        if not np.isnan(values[i, a, b]):
            _fail(path, line_no, "duplicate (subject_id, row_id, col_id) triple")
        values[i, a, b] = value
    holes = int(np.isnan(values).sum())
    if holes:
        raise ValueError(
            f"{path}: incomplete grid: {holes} of {n * r * c} "
            f"(subject, row, col) cells missing"
        )
    return LoadedStack(
        stack=DataStack(values),
        subject_ids=tuple(subj_index),
        row_ids=tuple(row_index),
        col_ids=tuple(col_index),
        source_format="long",
    )


def write_stack_file(path: str, stack: DataStack) -> None:
    """Write stack format with round-trip-exact (repr) values."""
    v = stack.values
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{stack.n_subjects} {stack.n_rows} {stack.n_cols}\n")
        for i in range(stack.n_subjects):
            for a in range(stack.n_rows):
                fh.write("\t".join(repr(float(x)) for x in v[i, a]) + "\n")


def read_matrix_file(path: str, n_rows: int, n_cols: int) -> np.ndarray:
    """Read a bare r x c matrix (no header), delimited like stack values."""
    lines = _read_lines(path)
    body = _nonblank(lines)
    if len(body) != n_rows:
        raise ValueError(f"{path}: expected {n_rows} lines, found {len(body)}")
    values = _parse_rows(body, n_cols)
    return _rows_by_line(path, lines, 0, n_rows, n_cols) if values is None else values


def read_vector_file(path: str, length: int) -> np.ndarray:
    """Read a vector, one value per line."""
    lines = [(k, raw) for k, raw in enumerate(_read_lines(path), start=1) if raw.strip()]
    if len(lines) != length:
        raise ValueError(f"{path}: expected {length} lines, found {len(lines)}")
    out = np.empty(length, dtype=float)
    for k, (line_no, raw) in enumerate(lines):
        tokens = raw.split()
        if len(tokens) != 1:
            _fail(path, line_no, f"expected one value per line, found {len(tokens)}")
        out[k] = _parse_value(tokens[0], path, line_no)
    return out


def read_row_sets(path: str) -> dict[str, tuple[str, ...]]:
    """Read named row-id sets, one set per line.

    Line layout: the set name, then its row ids, separated by tabs or commas.
    Blank lines and lines starting with ``#`` are skipped.
    """
    sets: dict[str, tuple[str, ...]] = {}
    for line_no, raw in enumerate(_read_lines(path), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = [t.strip() for t in raw.replace(",", "\t").split("\t") if t.strip()]
        if len(tokens) < 2:
            _fail(path, line_no, "a set line needs a name and at least one row id")
        name, ids = tokens[0], tokens[1:]
        if name in sets:
            _fail(path, line_no, f"duplicate set name {name!r}")
        if len(set(ids)) != len(ids):
            _fail(path, line_no, f"duplicate row ids in set {name!r}")
        sets[name] = tuple(ids)
    if not sets:
        raise ValueError(f"{path}: no row sets found")
    return sets
