"""File formats: long records, stack blocks, side inputs."""

import contextlib
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from matmean import io
from matmean.cli import main
from matmean.core import DataStack
from matmean.io import (
    load_stack,
    read_matrix_file,
    read_row_sets,
    read_vector_file,
    write_stack_file,
)


def _random_stack(rng, n, r, c):
    return DataStack(rng.standard_normal((n, r, c)))


def _write_long(path, values, subj_ids, row_ids, col_ids, delim="\t", order=None):
    n, r, c = values.shape
    triples = [(i, a, b) for i in range(n) for a in range(r) for b in range(c)]
    if order is not None:
        triples = [triples[k] for k in order]
    with open(path, "w") as fh:
        fh.write(delim.join(["subject_id", "row_id", "col_id", "value"]) + "\n")
        for i, a, b in triples:
            fh.write(delim.join(
                [subj_ids[i], row_ids[a], col_ids[b], repr(float(values[i, a, b]))]
            ) + "\n")


def test_stack_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    stack = _random_stack(rng, 5, 11, 4)
    path = tmp_path / "data.tsv"
    write_stack_file(str(path), stack)
    loaded = load_stack(str(path))
    assert loaded.source_format == "stack"
    assert np.array_equal(loaded.stack.values, stack.values)
    assert loaded.subject_ids == ("1", "2", "3", "4", "5")
    assert loaded.row_ids == tuple(str(i) for i in range(1, 12))
    assert loaded.col_ids == ("1", "2", "3", "4")


def test_stack_format_accepts_mixed_delimiters(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_text("2,2 2\n1.0\t2.0\n3.0 4.0\n5.0,6.0\n7.0\t8.0\n")
    loaded = load_stack(str(path))
    expected = np.array([[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]])
    assert np.array_equal(loaded.stack.values, expected)


def test_stack_format_line_count_mismatch(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("2 2 2\n1 2\n3 4\n5 6\n")
    with pytest.raises(ValueError, match="expected 4 value lines"):
        load_stack(str(path))


def test_stack_format_bad_field_count_reports_line(tmp_path):
    path = tmp_path / "ragged.txt"
    path.write_text("1 2 3\n1 2 3\n4 5\n")
    with pytest.raises(ValueError, match=r"ragged\.txt:3: expected 3 values"):
        load_stack(str(path))


def test_stack_format_rejects_non_finite(tmp_path):
    path = tmp_path / "inf.txt"
    path.write_text("1 1 2\ninf 0.0\n")
    with pytest.raises(ValueError, match=":2: non-finite"):
        load_stack(str(path))


def test_long_format_first_appearance_order(tmp_path):
    rng = np.random.default_rng(11)
    values = rng.standard_normal((2, 3, 2))
    path = tmp_path / "long.tsv"
    _write_long(str(path), values,
                ["mouse-b", "mouse-a"], ["gene3", "gene1", "gene2"], ["t0", "t1"])
    loaded = load_stack(str(path))
    assert loaded.source_format == "long"
    assert loaded.subject_ids == ("mouse-b", "mouse-a")
    assert loaded.row_ids == ("gene3", "gene1", "gene2")
    assert loaded.col_ids == ("t0", "t1")
    assert np.array_equal(loaded.stack.values, values)


def test_long_format_shuffled_records(tmp_path):
    rng = np.random.default_rng(13)
    values = rng.standard_normal((3, 4, 3))
    order = rng.permutation(3 * 4 * 3)
    path = tmp_path / "shuffled.csv"
    _write_long(str(path), values,
                ["s1", "s2", "s3"], ["r1", "r2", "r3", "r4"], ["a", "b", "c"],
                delim=",", order=list(order))
    loaded = load_stack(str(path))
    # Shuffling permutes the id order but every value lands in its cell.
    sub = {s: k for k, s in enumerate(loaded.subject_ids)}
    row = {s: k for k, s in enumerate(loaded.row_ids)}
    col = {s: k for k, s in enumerate(loaded.col_ids)}
    for i, sid in enumerate(["s1", "s2", "s3"]):
        for a, rid in enumerate(["r1", "r2", "r3", "r4"]):
            for b, cid in enumerate(["a", "b", "c"]):
                assert loaded.stack.values[sub[sid], row[rid], col[cid]] == values[i, a, b]


def test_long_format_extra_columns_ignored(tmp_path):
    path = tmp_path / "extra.csv"
    path.write_text(
        "batch,subject_id,row_id,col_id,value,note\n"
        "x,s1,r1,c1,1.5,keep\n"
        "x,s1,r1,c2,2.5,keep\n"
    )
    loaded = load_stack(str(path))
    assert loaded.stack.values.shape == (1, 1, 2)
    assert loaded.stack.values[0, 0, 1] == 2.5


def test_long_to_stack_to_long_is_lossless(tmp_path):
    rng = np.random.default_rng(17)
    values = rng.standard_normal((4, 5, 3))
    long_path = tmp_path / "orig.tsv"
    _write_long(str(long_path), values,
                [f"s{i}" for i in range(4)], [f"r{a}" for a in range(5)],
                [f"c{b}" for b in range(3)])
    first = load_stack(str(long_path))
    stack_path = tmp_path / "converted.tsv"
    write_stack_file(str(stack_path), first.stack)
    second = load_stack(str(stack_path))
    assert np.array_equal(second.stack.values, values)


def test_long_format_duplicate_triple_reports_line(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        "subject_id,row_id,col_id,value\n"
        "s1,r1,c1,1.0\n"
        "s1,r1,c1,2.0\n"
    )
    with pytest.raises(ValueError, match=r"dup\.csv:3: duplicate"):
        load_stack(str(path))


def test_long_format_names_the_first_duplicate(tmp_path):
    # record 3 repeats cell B before record 4 or 5 repeats cell A; equal.csv
    # has as many records as grid cells, the other two have more
    head = "subject_id,row_id,col_id,value\n"
    a, b, c, d = "s1,r1,c1", "s1,r2,c1", "s2,r1,c1", "s2,r2,c1"
    for name, cells in (("equal.csv", [a, b, c, b]), ("more.csv", [a, b, c, b, a]),
                        ("full.csv", [a, b, c, b, d, a])):
        path = tmp_path / name
        path.write_text(head + "".join(f"{cell},1.0\n" for cell in cells))
        with pytest.raises(ValueError) as exc:
            load_stack(str(path))
        assert str(exc.value) == f"{path}:5: duplicate (subject_id, row_id, col_id) triple"


def test_long_format_incomplete_grid_counts_holes(tmp_path):
    path = tmp_path / "holes.csv"
    path.write_text(
        "subject_id,row_id,col_id,value\n"
        "s1,r1,c1,1.0\n"
        "s1,r1,c2,2.0\n"
        "s2,r1,c1,3.0\n"
    )
    with pytest.raises(ValueError, match="incomplete grid: 1 of 4"):
        load_stack(str(path))


def test_long_format_missing_header_names(tmp_path):
    path = tmp_path / "bad_head.csv"
    path.write_text("subject_id,row,col_id,value\ns1,r1,c1,1.0\n")
    with pytest.raises(ValueError, match="missing row_id"):
        load_stack(str(path))


def test_long_format_bad_value_reports_line(tmp_path):
    path = tmp_path / "badval.csv"
    path.write_text(
        "subject_id,row_id,col_id,value\n"
        "s1,r1,c1,1.0\n"
        "s1,r1,c2,oops\n"
    )
    with pytest.raises(ValueError, match=r"badval\.csv:3: bad numeric value 'oops'"):
        load_stack(str(path))


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(ValueError, match="empty file"):
        load_stack(str(path))


def test_read_matrix_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1.0\t2.0\n3.0,4.0\n5.0 6.0\n")
    m = read_matrix_file(str(path), 3, 2)
    assert np.array_equal(m, np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    with pytest.raises(ValueError, match="expected 2 lines"):
        read_matrix_file(str(path), 2, 2)
    with pytest.raises(ValueError, match="expected 3 values"):
        read_matrix_file(str(path), 3, 3)


def test_read_vector_file(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("1.5\n\n-2.5\n0.0\n")
    v = read_vector_file(str(path), 3)
    assert np.array_equal(v, np.array([1.5, -2.5, 0.0]))
    with pytest.raises(ValueError, match="expected 4 lines"):
        read_vector_file(str(path), 4)
    two = tmp_path / "two.txt"
    two.write_text("1.0 2.0\n")
    with pytest.raises(ValueError, match="one value per line"):
        read_vector_file(str(two), 1)


def test_read_row_sets(tmp_path):
    path = tmp_path / "sets.txt"
    path.write_text(
        "# pathway sets\n"
        "big\tg1\tg2\tg3\n"
        "\n"
        "small,g4,g5\n"
    )
    sets = read_row_sets(str(path))
    assert sets == {"big": ("g1", "g2", "g3"), "small": ("g4", "g5")}


def test_read_row_sets_errors(tmp_path):
    dup = tmp_path / "dup.txt"
    dup.write_text("a\tg1\na\tg2\n")
    with pytest.raises(ValueError, match="duplicate set name"):
        read_row_sets(str(dup))
    dup_id = tmp_path / "dupid.txt"
    dup_id.write_text("a\tg1\tg1\n")
    with pytest.raises(ValueError, match="duplicate row ids"):
        read_row_sets(str(dup_id))
    bare = tmp_path / "bare.txt"
    bare.write_text("lonely\n")
    with pytest.raises(ValueError, match="needs a name and at least one"):
        read_row_sets(str(bare))
    none = tmp_path / "none.txt"
    none.write_text("# only comments\n")
    with pytest.raises(ValueError, match="no row sets"):
        read_row_sets(str(none))


def test_numeric_looking_long_header_still_long(tmp_path):
    # A long file whose first data line is numeric must not be mistaken
    # for stack format; detection looks at the header line only.
    path = tmp_path / "numeric_ids.csv"
    path.write_text(
        "subject_id,row_id,col_id,value\n"
        "1,1,1,0.5\n"
        "1,1,2,1.5\n"
    )
    loaded = load_stack(str(path))
    assert loaded.source_format == "long"
    assert loaded.col_ids == ("1", "2")


# ---------------------------------------------------------------------------
# error messages, byte for byte

_LONG_HEAD = "subject_id,row_id,col_id,value\n"


def _long_records(n_rows, n_cols, dup=None, ragged=None):
    """Records s,r<a>,c<b>,1.0 for a < n_rows, b < n_cols, in row-major
    order.  ``dup=(k, j)`` gives record k the cell of record j, and
    ``ragged=k`` gives record k an extra field."""
    cells = [(a, b) for a in range(n_rows) for b in range(n_cols)]
    if dup is not None:
        cells[dup[0]] = cells[dup[1]]
    lines = [f"s,r{a},c{b},1.0" for a, b in cells]
    if ragged is not None:
        lines[ragged] += ",x"
    return _LONG_HEAD + "\n".join(lines) + "\n"


def _stack_rows(n_rows, ragged):
    lines = ["1.0 2.0"] * n_rows
    lines[ragged] = "1.0 2.0 3.0"
    return f"1 {n_rows} 2\n" + "\n".join(lines) + "\n"


_ERRORS = [
    ("", "{path}:1: empty file"),
    ("  \n1 1 1\n1.0\n", "{path}:1: empty file"),
    ("2 0 3\n1 2 3\n", "{path}:1: header dimensions must be positive, got 2 0 3"),
    ("2 2 2\n1 2\n3 4\n5 6\n",
     "{path}: expected 4 value lines for header '2 2 2', found 3"),
    (_LONG_HEAD + "\n  \n", "{path}: no data records after the header"),
    ("subject_id,row,col_id,value\ns1,r1,c1,1.0\n",
     "{path}:1: long-format header must name subject_id, row_id, col_id, value; "
     "missing row_id"),
    # line numbers count blank lines and CRLF, \v and \x85 line breaks
    ("1 3 2\r\n\r\n1 2\r\n\r\n\r\n3 x\r\n5 6\r\n", "{path}:6: bad numeric value 'x'"),
    ("subject_id,row_id,col_id,value\r\n\r\ns,r,c1,1\r\n\n\ns,r,c2,1,2\r\n",
     "{path}:6: expected 4 fields, found 5"),
    ("1 2 2\v1 2\x853 y\n", "{path}:3: bad numeric value 'y'"),
    ("1 1 2\ninf 0.0\n", "{path}:2: non-finite value 'inf'"),
    (_LONG_HEAD + "s,r,c,1.0\ns,r,d,-nan\n", "{path}:3: non-finite value '-nan'"),
    (_LONG_HEAD + "s,r,c, oops \n", "{path}:2: bad numeric value 'oops'"),
    ("1 1 2\n1 \0\n", "{path}:2: bad numeric value '\\x00'"),
    (_LONG_HEAD + "s1,r1,c1,1.0\ns1,r1,c1,2.0\n",
     "{path}:3: duplicate (subject_id, row_id, col_id) triple"),
    (_LONG_HEAD + "s1,r1,c1,1.0\ns1,r1,c2,2.0\ns2,r1,c1,3.0\n",
     "{path}: incomplete grid: 1 of 4 (subject, row, col) cells missing"),
    # many blocks in: record 68000 repeats record 5's cell, and a ragged
    # line sits past the first block of each format
    (_long_records(700, 100, dup=(68000, 5)),
     "{path}:68002: duplicate (subject_id, row_id, col_id) triple"),
    (_long_records(700, 100, ragged=66000), "{path}:66002: expected 4 fields, found 5"),
    (_stack_rows(40000, ragged=35000), "{path}:35002: expected 2 values, found 3"),
    # a superscript digit is no decimal digit, so this is no stack header
    ("1 \u00b2 1\n1\n", "{path}:1: long-format header must name subject_id, row_id, "
     "col_id, value; missing subject_id, row_id, col_id, value"),
    # a byte that is not UTF-8, written through surrogateescape
    ("1 1 2\n1.0 \udcff\n", "{path}: not UTF-8 text"),
]


@pytest.mark.parametrize("text, message", _ERRORS)
def test_load_errors_are_pinned_byte_for_byte(tmp_path, text, message):
    path = tmp_path / "data.txt"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(ValueError) as exc:
        load_stack(str(path))
    assert str(exc.value) == message.format(path=path)


@pytest.mark.parametrize("text, shape, message", [
    ("1 2\n\n3 x\n", (2, 2), "{path}:3: bad numeric value 'x'"),
    ("1 2\n3\n", (2, 2), "{path}:2: expected 2 values, found 1"),
    ("1 2\n", (2, 2), "{path}: expected 2 lines, found 1"),
])
def test_matrix_errors_are_pinned_byte_for_byte(tmp_path, text, shape, message):
    path = tmp_path / "m0.txt"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ValueError) as exc:
        read_matrix_file(str(path), *shape)
    assert str(exc.value) == message.format(path=path)


def test_non_utf8_input_is_an_error_that_names_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(_LONG_HEAD.encode() + b"s1,caf\xe9,c1,1.0\ns2,caf\xe9,c1,2.0\n")
    assert main(["test", str(path), "--partition", "sizes=1"]) == 1
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text\n"
    for read in (lambda: read_matrix_file(str(path), 3, 4),
                 lambda: read_vector_file(str(path), 3), lambda: read_row_sets(str(path))):
        with pytest.raises(ValueError) as exc:
            read()
        assert str(exc.value) == f"{path}: not UTF-8 text"
    # past the first chunk of the line source, within the first block
    path.write_bytes((_LONG_HEAD + "s,r,c,1.0\n" * 20000).encode() + b"s,\xffr,c,1.0\n")
    with pytest.raises(ValueError) as exc:
        load_stack(str(path))
    assert str(exc.value) == f"{path}: not UTF-8 text"


def _read_lines(path):
    """The lines of ``path`` as the chunked line source gives them."""
    return [line for lines in io._chunks(str(path)) for line in lines]


# every line break of str.splitlines, a CRLF, characters of two to four
# UTF-8 bytes, a line many chunks long, blank lines and a line of spaces
_BREAKS = ("head\nb\rc\r\nd\ve\ff\x1cg\x1dh\x1ei\x85j\u2028k\u2029"
           "caf\u00e9 \u20ac \U0001d11e\r\n" + "w" * 40 + "\r\n\r\n   \n\n")


@pytest.mark.parametrize("chunk", range(1, 9))
def test_line_source_splits_like_splitlines_at_every_chunk_size(tmp_path, monkeypatch,
                                                                 chunk):
    monkeypatch.setattr(io, "_CHUNK_CHARS", chunk)
    path = tmp_path / "lines.txt"
    # a blank last line, a last line without a break, and short files
    for text in (_BREAKS + "\n", _BREAKS + "tail", _BREAKS, "", "\n", "\r\n", "x", "\r"):
        path.write_bytes(text.encode("utf-8"))
        assert _read_lines(path) == text.splitlines(), text
    if chunk != 3:
        return
    for k, (text, message) in enumerate(_ERRORS):
        path = tmp_path / f"error{k}.txt"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(ValueError) as exc:
            load_stack(str(path))
        assert str(exc.value) == message.format(path=path)


def test_a_line_many_chunks_long_is_read_in_linear_time(tmp_path, monkeypatch):
    # the unfinished line is joined once it ends, not rescanned per chunk:
    # rescanning makes a 600k-character line cost seconds at 64-character
    # chunks, against milliseconds for the same characters in short lines
    monkeypatch.setattr(io, "_CHUNK_CHARS", 64)
    short, wide = tmp_path / "short.txt", tmp_path / "wide.txt"
    short.write_text(("x" * 63 + "\n") * 9375)
    wide.write_text("x" * 600_000)

    def seconds(path):
        start = time.perf_counter()
        lines = _read_lines(path)
        return time.perf_counter() - start, lines

    short_s, _ = seconds(short)
    wide_s, lines = seconds(wide)
    assert lines == ["x" * 600_000]
    assert wide_s < 10 * short_s + 0.5, (wide_s, short_s)


_PAD = " " * 70_000  # makes a line longer than a chunk at every size tested


def _write_crlf(path, lines):
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 64, 4096, io._CHUNK_CHARS])
def test_every_chunk_size_gives_the_same_results_and_errors(tmp_path, monkeypatch, chunk):
    # a block is one chunk's lines, so its edges move with the chunk size:
    # blank and whitespace-only lines, CRLF breaks, padded ids and a line
    # longer than the chunk must read the same wherever the edges fall
    monkeypatch.setattr(io, "_CHUNK_CHARS", chunk)
    values = np.arange(24.0).reshape(2, 3, 4) / 7 - 1
    long_lines = ["subject_id,row_id,col_id,value"]
    for (i, a, b), value in np.ndenumerate(values):
        subject = _PAD + f"s{i}" if (i, a, b) == (0, 1, 2) else f"s{i}"
        row = f" r{a} " if b % 2 else f"r{a}"
        long_lines.append(f"{subject},{row},c{b},{float(value)!r}")
        long_lines += {1: [""], 2: [" \t "]}.get(b, [])
    rows = ["\t".join(map(repr, row)) for row in values.reshape(6, 4).tolist()]
    rows[2] = rows[2].replace("\t", _PAD)
    rows[4:4] = ["", "   "]
    long, stack, m0 = tmp_path / "long.csv", tmp_path / "stack.txt", tmp_path / "m0.txt"
    _write_crlf(long, long_lines)
    _write_crlf(stack, ["2 3 4"] + rows)
    _write_crlf(m0, rows)
    loaded = load_stack(str(long))
    assert (loaded.subject_ids, loaded.row_ids, loaded.col_ids, loaded.source_format) == (
        ("s0", "s1"), ("r0", "r1", "r2"), ("c0", "c1", "c2", "c3"), "long")
    assert loaded.stack.values.tobytes() == values.tobytes()
    loaded = load_stack(str(stack))
    assert (loaded.subject_ids, loaded.row_ids, loaded.col_ids, loaded.source_format) == (
        ("1", "2"), ("1", "2", "3"), ("1", "2", "3", "4"), "stack")
    assert loaded.stack.values.tobytes() == values.tobytes()
    assert read_matrix_file(str(m0), 6, 4).tobytes() == values.reshape(6, 4).tobytes()
    big = tuple(f"g{k}" for k in range(12_000))
    sets = tmp_path / "sets.txt"
    _write_crlf(sets, ["# sets", "small\tr1,r2", "", "  ", "big," + ",".join(big)])
    assert read_row_sets(str(sets)) == {"small": ("r1", "r2"), "big": big}
    for k, (text, message) in enumerate(e for e in _ERRORS if len(e[0]) < 4096):
        path = tmp_path / f"error{k}.txt"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(ValueError) as exc:
            load_stack(str(path))
        assert str(exc.value) == message.format(path=path)


@contextlib.contextmanager
def _pipe(path, data: bytes):
    """A named pipe at ``path`` that gives ``data`` to its first reader;
    a reader that opens it again finds it empty."""
    os.mkfifo(path)
    done = threading.Event()

    def write():
        with open(path, "wb") as fh:
            fh.write(data)
        while not done.is_set():  # end a second read at once, not in a hang
            try:
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # no reader waiting
                pass
            done.wait(0.01)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        yield str(path)
    finally:
        done.set()
        writer.join(timeout=10)
    assert not writer.is_alive(), "the pipe was never opened for reading"


# errors in a later block (read in three-character chunks, a block is a
# line or two), where a second read of the input would find nothing: a
# stack count that takes in the lines after the declined block, a bad
# stack line, and a duplicate named across blank lines
_PIPE_ERRORS = [
    ("1 3 2\n1 2\n3 4\n5 x\n7 8\n9 10\n",
     "{path}: expected 3 value lines for header '1 3 2', found 5"),
    ("1 3 2\n1 2\n3 4\n5 x\n", "{path}:4: bad numeric value 'x'"),
    (_LONG_HEAD + "\ns,r,c1,1\n\ns,r,c2,1\ns,r,c3,1\ns,r,c4,1\ns,r,c5,1\n\ns,r,c2,2\n",
     "{path}:10: duplicate (subject_id, row_id, col_id) triple"),
]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_inputs_are_read_once_so_pipes_work(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(io, "_CHUNK_CHARS", 3)  # a line or two per block
    small = [(text, message) for text, message in _ERRORS if len(text) < 4096]
    for k, (text, message) in enumerate(small + _PIPE_ERRORS):
        with _pipe(tmp_path / f"data{k}", text.encode("utf-8", "surrogateescape")) as path:
            with pytest.raises(ValueError) as exc:
                load_stack(path)
        assert str(exc.value) == message.format(path=path)
    with _pipe(tmp_path / "m0", b"1 2\n\n3 4\n5 6\n") as path:
        assert read_matrix_file(path, 3, 2).tolist() == [[1, 2], [3, 4], [5, 6]]
    with _pipe(tmp_path / "mu0", b"1.5\n\n-2.5\n0.0\n") as path:
        assert read_vector_file(path, 3).tolist() == [1.5, -2.5, 0.0]
    with _pipe(tmp_path / "short_mu0", b"1.5\n") as path:
        with pytest.raises(ValueError) as exc:
            read_vector_file(path, 3)
    assert str(exc.value) == f"{path}: expected 3 lines, found 1"
    # end to end: a --known-difference vector from a pipe reads as from a file
    data, vec = tmp_path / "pair.tsv", tmp_path / "mu0.txt"
    write_stack_file(str(data), DataStack(np.arange(24.0).reshape(4, 3, 2) ** 1.5))
    vec.write_text("0.5\n-1.0\n2.0\n")
    assert main(["test", str(data), "--known-difference", f"@{vec}"]) == 0
    from_file = capsys.readouterr().out.replace(str(vec), "VECTOR")
    with _pipe(tmp_path / "mu0_pipe", vec.read_bytes()) as path:
        assert main(["test", str(data), "--known-difference", f"@{path}"]) == 0
    assert capsys.readouterr().out.replace(path, "VECTOR") == from_file


def test_nul_in_a_long_id_is_part_of_the_id(tmp_path):
    path = tmp_path / "nul_id.csv"
    path.write_bytes(b"subject_id,row_id,col_id,value\ns\0,r,c,1.5\ns\0,r,d\0,2.5\n")
    loaded = load_stack(str(path))
    assert (loaded.subject_ids, loaded.row_ids, loaded.col_ids) == (
        ("s\0",), ("r",), ("c", "d\0"))
    assert loaded.stack.values.ravel().tolist() == [1.5, 2.5]


# ---------------------------------------------------------------------------
# the block parser


def test_stack_blank_line_is_decided_on_the_raw_line(tmp_path):
    # ",," holds no value but is not blank, so it counts as a value line
    path = tmp_path / "commas.txt"
    path.write_text("1 2 2\n1 2\n,,\n3 4\n")
    with pytest.raises(ValueError, match=r"expected 2 value lines for header '1 2 2', found 3"):
        load_stack(str(path))


def test_stack_counts_are_checked_before_allocating(tmp_path):
    # a mistyped header must give its error, not an 80 GB np.empty
    path = tmp_path / "huge_header.txt"
    path.write_text("100000 100000 100000\n1 2\n")
    with pytest.raises(ValueError, match="expected 10000000000 value lines"):
        load_stack(str(path))
    path = tmp_path / "wide_header.txt"
    path.write_text("1 1 10000000000\n1 2\n")
    with pytest.raises(ValueError, match=r"wide_header\.txt:2: expected 10000000000 values, found 2"):
        load_stack(str(path))


def test_long_file_is_read_without_holding_its_lines(tmp_path):
    # 500k records, about 43 MB of line strings; streamed, the load's peak
    # is one chunk, one block of fields and the output arrays
    path = tmp_path / "big.tsv"
    with open(path, "w") as fh:
        fh.write("subject_id\trow_id\tcol_id\tvalue\n")
        fh.writelines(f"subject-{i:02d}\tgene-{a:05d}\tt{b}\t{(i + a + b) % 97 / 8}\n"
                      for i in range(10) for a in range(5000) for b in range(10))
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines_size = tracemalloc.get_traced_memory()[0]
        del lines
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        loaded = load_stack(str(path))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert loaded.stack.values.shape == (10, 5000, 10)
    assert peak < lines_size, (peak, lines_size)


def _distinct_id_records(path, n_records):
    with open(path, "w") as fh:
        fh.write("subject_id,row_id,col_id,value\n")
        fh.writelines(f"s{k},r{k},c{k},1.0\n" for k in range(n_records))


def test_long_grid_is_checked_before_allocating(tmp_path, capsys):
    # 30000 distinct ids per column would make a grid of 2.16e14 bytes;
    # the record count shows it incomplete without allocating it
    path = tmp_path / "distinct.csv"
    _distinct_id_records(path, 30000)
    with pytest.raises(ValueError) as exc:
        load_stack(str(path))
    assert str(exc.value) == (f"{path}: incomplete grid: 26999999970000 of 27000000000000 "
                              "(subject, row, col) cells missing")
    assert main(["test", str(path), "--partition", "sizes=30000"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {exc.value}\n"


def test_field_counts_are_checked_per_line(tmp_path):
    # a long line and a short line add up to the right total
    stack = tmp_path / "ragged.txt"
    stack.write_text("1 2 2\n1 2 3\n4\n")
    with pytest.raises(ValueError, match=r"ragged\.txt:2: expected 2 values, found 3"):
        load_stack(str(stack))
    # the second line's extra field lands in the first line's ignored column
    long = tmp_path / "ragged.csv"
    long.write_text("subject_id,row_id,col_id,value,note\ns1,r1,c1,1.0\nx,s1,r1,c2,2.0,y\n")
    with pytest.raises(ValueError, match=r"ragged\.csv:2: expected 5 fields, found 4"):
        load_stack(str(long))


def test_nul_in_a_line_is_not_taken_for_a_line_break(tmp_path):
    # the block parser puts a NUL field between stack lines; a NUL field of
    # the file's own, even one in a separator's slot, must not pass for one
    path = tmp_path / "nul.txt"
    path.write_text("1 2 2\n1 2 \0\n4\n")
    with pytest.raises(ValueError, match=r"nul\.txt:2: expected 2 values, found 3"):
        load_stack(str(path))
    path = tmp_path / "nul.csv"
    path.write_text("subject_id,row_id,col_id,value,note\ns1,r1,c1,1.0\n\0,s1,r1,c2,2.0,y\n")
    with pytest.raises(ValueError, match=r"nul\.csv:2: expected 5 fields, found 4"):
        load_stack(str(path))


def test_clean_files_never_fall_back(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a clean file was scanned for a bad line")

    monkeypatch.setattr(io, "_first_bad_line", refuse)
    rng = np.random.default_rng(19)
    values = rng.standard_normal((3, 700, 40))  # several blocks of 64k values
    stack_path = tmp_path / "clean.txt"
    write_stack_file(str(stack_path), DataStack(values))
    assert np.array_equal(load_stack(str(stack_path)).stack.values, values)
    long_path = tmp_path / "clean.tsv"
    _write_long(str(long_path), values, [f"s{i}" for i in range(3)],
                [f"g{a}" for a in range(700)], [f"t{b}" for b in range(40)])
    assert np.array_equal(load_stack(str(long_path)).stack.values, values)
    m_path = tmp_path / "m0.txt"
    m_path.write_text("1.0\t2.0\n\n3.0,4.0\n5.0 6.0\n")
    assert np.array_equal(read_matrix_file(str(m_path), 3, 2),
                          np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))


def _first_appearance(ids, order, position_of):
    """The ids of one long-format column, and their positions in ``ids``,
    in first-appearance order over the flat cells ``order``;
    ``position_of`` turns a flat cell into its id's position."""
    seen = list(dict.fromkeys(position_of(k) for k in order))
    return tuple(ids[k] for k in seen), seen


def _assert_long_load(path, values, subj_ids, row_ids, col_ids, order):
    """The loaded ids are the written ids in first-appearance order over
    the shuffled records, and each value sits in its cell, bit for bit."""
    n, r, c = values.shape
    loaded = load_stack(str(path))
    subj, s = _first_appearance(subj_ids, order, lambda k: k // (r * c))
    rows, a = _first_appearance(row_ids, order, lambda k: k // c % r)
    cols, b = _first_appearance(col_ids, order, lambda k: k % c)
    assert (loaded.subject_ids, loaded.row_ids, loaded.col_ids, loaded.source_format) == (
        subj, rows, cols, "long")
    assert loaded.stack.values.tobytes() == values[np.ix_(s, a, b)].tobytes()


def test_fast_path_matches_line_parser_on_random_shapes(tmp_path):
    rng = np.random.default_rng(23)
    # (2, 170, 200) spans some twenty blocks of 64k characters in both formats
    for k, shape in enumerate([(1, 1, 1), (2, 1, 5), (4, 9, 1), (2, 170, 200), (7, 17, 3)]):
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        path = tmp_path / f"s{k}.txt"
        write_stack_file(str(path), DataStack(values))
        loaded = load_stack(str(path))
        assert loaded.source_format == "stack"
        assert loaded.stack.values.shape == shape
        assert loaded.stack.values.tobytes() == values.tobytes()
        n, r, c = shape
        order = rng.permutation(n * r * c)
        ids = ([f"s{i}" for i in range(n)], [f"r{a}" for a in range(r)],
               [f"c{b}" for b in range(c)])
        for delim, suffix in (("\t", "tsv"), (",", "csv")):
            path = tmp_path / f"l{k}.{suffix}"
            _write_long(str(path), values, *ids, delim=delim, order=list(order))
            _assert_long_load(path, values, *ids, order)


def test_fast_path_matches_line_parser_on_layout_variants(tmp_path):
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(b"note,value,col_id,subject_id,row_id,extra\r\n"
                     b"a,1.5,t1,m2,g1,x\r\n"
                     b"b,2.5,t0,m2,g1,y\r\n"
                     b"\r\n"
                     b"c,3.5,t1,m1,g1,z\r\n"
                     b"d,4.5,t0,m1,g1,w\r\n")
    loaded = load_stack(str(crlf))
    assert (loaded.subject_ids, loaded.row_ids, loaded.col_ids) == (
        ("m2", "m1"), ("g1",), ("t1", "t0"))
    assert loaded.stack.values.tolist() == [[[1.5, 2.5]], [[3.5, 4.5]]]
    stack = tmp_path / "crlf.txt"
    stack.write_bytes(b"2 1 2\r\n1 2\r\n   \r\n3,\t4,\r\n")
    loaded = load_stack(str(stack))
    assert loaded.stack.values.tolist() == [[[1.0, 2.0]], [[3.0, 4.0]]]


def test_fast_path_matches_line_parser_on_float_spellings(tmp_path):
    tokens = ["1_0", "+.5", "-0.0", "5e-324", "1E3", "-1.5e+2", "7.", "00.25"]
    expected = np.array([float(t) for t in tokens])
    path = tmp_path / "tokens.txt"
    path.write_text(f"1 1 {len(tokens)}\n" + " ".join(tokens) + "\n")
    assert load_stack(str(path)).stack.values.ravel().tobytes() == expected.tobytes()
    long = tmp_path / "tokens.csv"
    long.write_text("subject_id,row_id,col_id,value\n" + "".join(
        f"s,r,c{k},{t}\n" for k, t in enumerate(tokens + [" 1.5 "])))
    loaded = load_stack(str(long))
    assert loaded.col_ids == tuple(f"c{k}" for k in range(len(tokens) + 1))
    assert loaded.stack.values.ravel().tobytes() == np.append(expected, 1.5).tobytes()


def test_padded_ids_name_one_id_across_blocks(tmp_path):
    # 80000 records in 1.6 MB, so about 25 blocks of 64k characters.  Row
    # "b" is spelled " b" from the 12th block on and "b" or "b " only from
    # the 22nd; row b's column ids are padded.  Each id is one id, numbered
    # at its first appearance.
    n_cols = 40000
    path = tmp_path / "padded.csv"
    with open(path, "w") as fh:
        fh.write("subject_id,row_id,col_id,value\n")
        fh.writelines(f"s,a,c{k},{k}.0\n" for k in range(n_cols))
        spellings = [" b"] * 30000 + ["b", "b "] * 5000
        fh.writelines(f"s,{row}, c{k}\t,-{k}.0\n" for k, row in enumerate(spellings))
    loaded = load_stack(str(path))
    assert (loaded.subject_ids, loaded.row_ids) == (("s",), ("a", "b"))
    assert loaded.col_ids == tuple(f"c{k}" for k in range(n_cols))
    k = np.arange(n_cols, dtype=float)
    assert loaded.stack.values.tolist() == [[k.tolist(), (-k).tolist()]]
