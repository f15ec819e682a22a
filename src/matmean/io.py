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

Data files and ``--m0`` matrices are read by one block parser per format.
It takes the nonblank lines in blocks of about 64k values and splits each
block into strings only: the block's lines are joined with a separator
field between them (a newline for long format, a NUL for stack values)
and split once, on the delimiter (long format) or on commas and
whitespace (stack values).  A line with the wrong field count moves the
separator fields out of their stride, so one list count checks every
line.  Values go through the ``float()`` of ``_parse_value``, so the bits
are those of a line-by-line read.  The block size is fixed on purpose: a
list per line leaves millions of objects to the cyclic garbage
collector, and one split of the whole file holds every field string at
once.

A declined block means some line is bad, and the body is scanned again
from its first line to raise the exact ``path:line: message`` of the
first bad one.  The nonblank line count is compared with the stack
header, and the long-format record count with the grid size, before
anything of the grid's size is allocated.  Long-format ids are numbered
in first-appearance order through dicts, by their spelling stripped of
surrounding whitespace, so padded spellings name one id; duplicates and
holes are found with numpy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NoReturn

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
_BLOCK_VALUES = 1 << 16  # values per block; see the module docstring


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
        return _parse_stack_format(path, lines)
    return _parse_long_format(path, lines)


def _split(text: str, delim: str | None) -> list[str]:
    # delim=None splits like a stack value line: on commas and whitespace
    return text.replace(",", " ").split() if delim is None else text.split(delim)


def _block_fields(block: list[str], width: int, delim: str | None) -> list[str] | None:
    """The fields of ``block``'s lines in one flat list, with one separator
    field between lines; None unless every line has exactly ``width`` fields.

    Long-format lines are separated by a newline field, which no line can
    hold.  Stack values are separated by a NUL field: a NUL of the file's
    own is then a bad value wherever it lands, so the block is declined.
    """
    sep = "\0" if delim is None else "\n"
    pad = " " if delim is None else delim
    fields = _split(f"{pad}{sep}{pad}".join(block), delim)
    # the separators fill the slots of a width + 1 stride exactly when
    # every line has width fields
    stride = width + 1
    if len(fields) != len(block) * stride - 1:
        return None
    if fields[width::stride].count(sep) != len(block) - 1:
        return None
    return fields


def _floats(tokens: list[str]) -> np.ndarray | None:
    # the float() of _parse_value, so a declined block fails the same way
    try:
        values = np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _first_bad_line(path, lines, start: int, width: int, delim: str | None,
                    value_of: slice = slice(None)) -> NoReturn:
    """Raise the error of the first bad nonblank line of ``lines[start:]``.

    Called when a block is declined.  Each line is checked for its field
    count, then each field in ``value_of`` for a finite number.
    """
    noun = "values" if delim is None else "fields"
    for line_no, raw in enumerate(itertools.islice(lines, start, None), start=start + 1):
        if not raw.strip():
            continue
        tokens = _split(raw, delim)
        if len(tokens) != width:
            _fail(path, line_no, f"expected {width} {noun}, found {len(tokens)}")
        for token in tokens[value_of]:
            _parse_value(token.strip(), path, line_no)
    raise AssertionError(f"{path}: a block was declined but no line is bad")


def _parse_rows(path, lines, start: int, body: list[str], n_cols: int) -> np.ndarray:
    """``body``, the nonblank lines of ``lines[start:]``, as a
    (len(body), n_cols) array of values."""
    step = max(1, _BLOCK_VALUES // n_cols)
    parts = []
    for k in range(0, len(body), step):
        fields = _block_fields(body[k:k + step], n_cols, None)
        values = None
        if fields is not None:
            del fields[n_cols::n_cols + 1]
            values = _floats(fields)
        if values is None:
            _first_bad_line(path, lines, start, n_cols, None)
        parts.append(values)
    return np.concatenate(parts or [np.empty(0)]).reshape(len(body), n_cols)


def _parse_stack_format(path, lines) -> LoadedStack:
    n, r, c = _stack_header(path, lines[0])
    body = _nonblank(lines, 1)
    if len(body) != n * r:  # checked before anything of size n*r*c exists
        raise ValueError(
            f"{path}: expected {n * r} value lines for header '{n} {r} {c}', "
            f"found {len(body)}"
        )
    return LoadedStack(
        stack=DataStack(_parse_rows(path, lines, 1, body, c).reshape(n, r, c)),
        subject_ids=tuple(str(i) for i in range(1, n + 1)),
        row_ids=tuple(str(i) for i in range(1, r + 1)),
        col_ids=tuple(str(i) for i in range(1, c + 1)),
        source_format="stack",
    )


class _Ids(dict):
    """Raw id -> index of the id stripped of surrounding whitespace, so
    padded spellings of one id share its index.  ``names`` holds the
    stripped ids, numbered in order of first lookup."""

    def __init__(self):
        super().__init__()
        self.names: dict[str, int] = {}

    def __missing__(self, key: str) -> int:
        self[key] = code = self.names.setdefault(key.strip(), len(self.names))
        return code


def _first_duplicate(cells: list[np.ndarray]) -> int | None:
    """Index of the first record whose (subject, row, col) cell an earlier
    record already holds, or None."""
    order = np.lexsort(cells[::-1])  # stable, so equal cells keep record order
    repeat = np.ones(len(order) - 1, dtype=bool)
    for codes in cells:
        ordered = codes[order]
        repeat &= ordered[1:] == ordered[:-1]
    return int(order[1:][repeat].min()) if repeat.any() else None


def _parse_long_format(path, lines) -> LoadedStack:
    delim, pos, width = _long_header(path, lines[0])
    body = _nonblank(lines, 1)
    if not body:
        raise ValueError(f"{path}: no data records after the header")
    stride = width + 1
    value_col = pos["value"]
    indexes = (_Ids(), _Ids(), _Ids())
    codes: tuple[list[np.ndarray], ...] = ([], [], [])
    parts = []
    for k in range(0, len(body), _BLOCK_VALUES):
        fields = _block_fields(body[k:k + _BLOCK_VALUES], width, delim)
        values = None if fields is None else _floats(fields[value_col::stride])
        if values is None:
            _first_bad_line(path, lines, 1, width, delim, slice(value_col, value_col + 1))
        parts.append(values)
        for name, index, out in zip(_LONG_HEADER[:3], indexes, codes):
            keys = fields[pos[name]::stride]
            out.append(np.fromiter(map(index.__getitem__, keys), np.int32, len(keys)))
    n, r, c = (len(index.names) for index in indexes)
    n_cells = n * r * c
    if len(body) == n_cells:  # else the grid is not allocated: it cannot be complete
        flat = np.concatenate(codes[0]).astype(np.intp)
        for size, out in ((r, codes[1]), (c, codes[2])):
            flat *= size
            flat += np.concatenate(out)
        values = np.full(n_cells, np.nan)
        values[flat] = np.concatenate(parts)
        if not np.isnan(values).any():
            return LoadedStack(
                stack=DataStack(values.reshape(n, r, c)),
                subject_ids=tuple(indexes[0].names),
                row_ids=tuple(indexes[1].names),
                col_ids=tuple(indexes[2].names),
                source_format="long",
            )
    dup = _first_duplicate([np.concatenate(out) for out in codes])
    if dup is not None:
        nonblank = (no for no, raw in enumerate(itertools.islice(lines, 1, None), start=2)
                    if raw.strip())
        _fail(path, next(itertools.islice(nonblank, dup, None)),
              "duplicate (subject_id, row_id, col_id) triple")
    raise ValueError(
        f"{path}: incomplete grid: {n_cells - len(body)} of {n_cells} "
        f"(subject, row, col) cells missing"
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
    return _parse_rows(path, lines, 0, body, n_cols)


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
