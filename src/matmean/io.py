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

Every reader takes its lines from one source, ``_chunks``.  It reads the
text in chunks of ``_CHUNK_CHARS`` characters, splits each chunk at the
line breaks of ``str.splitlines`` and carries the chunk's unfinished last
line into the next one, so no data, matrix or row-set reader holds a
whole file's lines; ``read_vector_file`` holds its nonblank lines.  A
leading UTF-8 byte-order mark is dropped.  A block is one chunk's
complete lines; data files and ``--m0`` matrices take its nonblank
lines with the line number of each (``_blocks``).  A block's lines are
joined with a separator field between them (a newline for long format,
a NUL for stack values) and split once, on the delimiter or on commas
and whitespace.  A line with the wrong field count moves the
separators out of their stride, so one list count checks every line.
Values go through the ``float()`` of ``_parse_value``, so the bits are
those of a line-by-line read.  A block is sized in characters so that its
field strings are still in cache when ``float()`` and the id lookups
reach them; a block of 64k long-format lines splits into some 15 MB of
strings, far more than a core's cache holds.

Every input is read once, so a pipe works like a file.  A declined block
holds the first bad line, whose exact ``path:line: message`` is raised
from the block's own lines; for stack files and ``--m0`` matrices the
nonblank lines not yet read are counted first, so a wrong line count is
raised before a bad line.  The parsed values grow with the lines read,
so nothing is sized by a stack header.  A long-format block is kept as
its line numbers (to name a duplicate), a (3, k) array of id codes and
its k values; the grid is allocated only when the record count equals
its size, then filled block by block.  A parsed array becomes the stack
without a copy.  Long-format ids are numbered in first-appearance order
through dicts, by their spelling stripped of surrounding whitespace, so
padded spellings name one id; duplicates and holes are found with numpy.
"""

from __future__ import annotations

from itertools import chain
from dataclasses import dataclass
from typing import Iterable, Iterator, NoReturn, Sequence

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
_Blocks = Iterator[tuple[Sequence[int], list[str]]]  # (line numbers, lines) per block
_CHUNK_CHARS = 1 << 16  # characters per read; see the module docstring
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # those of str.splitlines


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


def _chunks(path) -> Iterator[list[str]]:
    """The lines of ``path`` as ``str.splitlines`` gives them, read in
    chunks: one list for each chunk, of the lines that chunk completes."""
    # utf-8-sig drops one leading byte-order mark, as spreadsheet exports write
    with open(path, encoding="utf-8-sig") as fh:
        carry: list[str] = []  # the pieces of the unfinished line, joined once it ends
        try:
            while chunk := fh.read(_CHUNK_CHARS):
                lines = chunk.splitlines()
                tail = "" if chunk[-1] in _LINE_BREAKS else lines.pop()
                if lines:
                    lines[0] = "".join(carry) + lines[0]
                    carry = []
                    yield lines
                carry.append(tail)
        except UnicodeDecodeError:
            raise ValueError(f"{path}: not UTF-8 text") from None
    if last := "".join(carry):
        yield [last]


def _blocks(chunks: Iterable[list[str]], first: int) -> _Blocks:
    """The nonblank lines of each of ``chunks``, numbered from ``first``:
    the line numbers of a block's lines, and its lines."""
    for raw in chunks:
        # decided on the raw line, so a stack line ",," is a value line
        block = list(filter(str.strip, raw))
        numbers: Sequence[int] = range(first, first + len(raw))
        if len(block) < len(raw):
            numbers = np.array([no for no, line in zip(numbers, raw) if line.strip()])
        first += len(raw)
        if block:
            yield numbers, block


def _parse_value(token: str, path, line_no) -> float:
    try:
        value = float(token)
    except ValueError:
        _fail(path, line_no, f"bad numeric value {token!r}")
    if not np.isfinite(value):
        _fail(path, line_no, f"non-finite value {token!r}")
    return value


def _stack_header(path, line: str) -> tuple[int, int, int]:
    n, r, c = (int(t) for t in _split(line, None))
    if min(n, r, c) < 1:
        _fail(path, 1, f"header dimensions must be positive, got {n} {r} {c}")
    return n, r, c


def _detect_delimiter(header: str) -> str:
    # Tab wins when present: comma-free TSV headers and tabbed CSV exports
    # both resolve correctly, and mixing the two in one file is rejected
    # later by the field-count check.
    return "\t" if "\t" in header else ","


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
    chunks = _chunks(path)
    head, *lines = next(chunks, [""])
    if not head.strip():
        raise ValueError(f"{path}:1: empty file")
    blocks = _blocks(chain([lines], chunks), 2)
    head_tokens = _split(head, None)
    if len(head_tokens) == 3 and all(t.isdecimal() for t in head_tokens):
        return _parse_stack_format(path, head, blocks)
    return _parse_long_format(path, head, blocks)


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


def _first_bad_line(path, numbered: Iterable[tuple[int, str]], width: int,
                    delim: str | None, value_of: slice = slice(None)) -> NoReturn:
    """Raise the error of the first bad line of ``numbered``, the (line
    number, line) pairs of a declined block: a wrong field count, else a
    field in ``value_of`` that is not a finite number."""
    noun = "values" if delim is None else "fields"
    for line_no, raw in numbered:
        tokens = _split(raw, delim)
        if len(tokens) != width:
            _fail(path, line_no, f"expected {width} {noun}, found {len(tokens)}")
        for token in tokens[value_of]:
            _parse_value(token.strip(), path, line_no)
    raise AssertionError(f"{path}: a block was declined but no line is bad")


def _check_count(path, found: int, expected: int, message: str) -> None:
    if found != expected:
        raise ValueError(f"{path}: {message}, found {found}")


def _parse_rows(path, blocks: _Blocks, n_rows: int, n_cols: int, message: str) -> np.ndarray:
    """The lines of ``blocks``, read from ``path``, as an (n_rows, n_cols)
    array of values; ``message`` names a wrong line count."""
    parts = []
    for numbers, block in blocks:
        fields = _block_fields(block, n_cols, None)
        values = None
        if fields is not None:
            del fields[n_cols::n_cols + 1]
            values = _floats(fields)
        if values is None:  # a wrong line count is raised before a bad line
            found = sum(map(len, parts)) // n_cols + len(block)
            found += sum(len(rest) for _, rest in blocks)  # the lines not read yet
            _check_count(path, found, n_rows, message)
            _first_bad_line(path, zip(numbers, block), n_cols, None)
        parts.append(values)
        del block, fields  # before the next block is read
    # the parts grow with the lines read, so a wrong header allocates nothing
    _check_count(path, sum(map(len, parts)) // n_cols, n_rows, message)
    return np.concatenate(parts or [np.empty(0)]).reshape(n_rows, n_cols)


def _parse_stack_format(path, head: str, blocks: _Blocks) -> LoadedStack:
    n, r, c = _stack_header(path, head)
    values = _parse_rows(path, blocks, n * r, c,
                         f"expected {n * r} value lines for header '{n} {r} {c}'")
    return LoadedStack(
        stack=DataStack._owning(values.reshape(n, r, c)),
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


def _first_duplicate(cells: np.ndarray) -> int | None:
    """Index of the first record whose (subject, row, col) cell, a column
    of the (3, n) codes ``cells``, an earlier record already holds, or None."""
    order = np.lexsort(cells[::-1])  # stable, so equal cells keep record order
    ordered = cells[:, order]
    repeat = (ordered[:, 1:] == ordered[:, :-1]).all(axis=0)
    return int(order[1:][repeat].min()) if repeat.any() else None


def _parse_long_format(path, head: str, blocks: _Blocks) -> LoadedStack:
    delim, pos, width = _long_header(path, head)
    stride = width + 1
    value_col = pos["value"]
    indexes = (_Ids(), _Ids(), _Ids())
    records = []  # per block: line numbers, (3, k) subject/row/col codes, k values
    for numbers, block in blocks:
        fields = _block_fields(block, width, delim)
        values = None if fields is None else _floats(fields[value_col::stride])
        if values is None:
            _first_bad_line(path, zip(numbers, block), width, delim,
                            slice(value_col, value_col + 1))
        codes = np.array([np.fromiter(map(index.__getitem__, fields[pos[name]::stride]),
                                      np.int32, len(values))
                          for name, index in zip(_LONG_HEADER[:3], indexes)])
        records.append((numbers, codes, values))
        del block, fields  # before the next block is read
    n_records = sum(len(values) for _, _, values in records)
    if not n_records:
        raise ValueError(f"{path}: no data records after the header")
    n, r, c = (len(index.names) for index in indexes)
    n_cells = n * r * c
    if n_records == n_cells:  # else the grid is not allocated: it cannot be complete
        grid = np.full(n_cells, np.nan)
        for _, (s, i, j), values in records:
            grid[(s.astype(np.intp) * r + i) * c + j] = values
        if not np.isnan(grid).any():
            return LoadedStack(
                stack=DataStack._owning(grid.reshape(n, r, c)),
                subject_ids=tuple(indexes[0].names),
                row_ids=tuple(indexes[1].names),
                col_ids=tuple(indexes[2].names),
                source_format="long",
            )
    line_numbers, codes, _ = zip(*records)
    dup = _first_duplicate(np.concatenate(codes, axis=1))
    if dup is not None:
        _fail(path, np.concatenate(line_numbers)[dup],
              "duplicate (subject_id, row_id, col_id) triple")
    raise ValueError(
        f"{path}: incomplete grid: {n_cells - n_records} of {n_cells} "
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
    return _parse_rows(path, _blocks(_chunks(path), 1), n_rows, n_cols,
                       f"expected {n_rows} lines")


def read_vector_file(path: str, length: int) -> np.ndarray:
    """Read a vector, one value per line."""
    lines = [line for block in _blocks(_chunks(path), 1) for line in zip(*block)]
    _check_count(path, len(lines), length, f"expected {length} lines")
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
    for line_no, raw in enumerate(chain.from_iterable(_chunks(path)), start=1):
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
