"""File formats: long records, stack blocks, side inputs."""

import numpy as np
import pytest

from matmean import io
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
# fast path and line parser


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
    # the fast path puts a NUL field between lines; a NUL field of the
    # file's own must not pass for one
    path = tmp_path / "nul.csv"
    path.write_text("subject_id,row_id,col_id,value,note\ns1,r1,c1,1.0\n\0,s1,r1,c2,2.0,y\n")
    with pytest.raises(ValueError, match=r"nul\.csv:2: expected 5 fields, found 4"):
        load_stack(str(path))


def test_clean_files_never_fall_back(tmp_path, monkeypatch):
    def refuse(path, lines):
        raise AssertionError("line parser ran on a clean file")

    monkeypatch.setattr(io, "_load_stack_format", refuse)
    monkeypatch.setattr(io, "_load_long_format", refuse)
    monkeypatch.setattr(io, "_rows_by_line", refuse)
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


def _same_load(path):
    """Run the fast path and the line parser on one file; both must agree."""
    lines = io._read_lines(str(path))
    if len(lines[0].replace(",", " ").split()) == 3:
        fast, by_line = io._fast_stack_format, io._load_stack_format
    else:
        fast, by_line = io._fast_long_format, io._load_long_format
    a, b = fast(str(path), lines), by_line(str(path), lines)
    assert a is not None, "fast path declined a clean file"
    assert a.stack.values.tobytes() == b.stack.values.tobytes()
    assert a.stack.values.shape == b.stack.values.shape
    assert (a.subject_ids, a.row_ids, a.col_ids, a.source_format) == (
        b.subject_ids, b.row_ids, b.col_ids, b.source_format)
    assert load_stack(str(path)).stack.values.tobytes() == a.stack.values.tobytes()
    return a


def test_fast_path_matches_line_parser_on_random_shapes(tmp_path):
    rng = np.random.default_rng(23)
    # (2, 170, 200) spans two blocks of 64k values in both formats
    for k, shape in enumerate([(1, 1, 1), (2, 1, 5), (4, 9, 1), (2, 170, 200), (7, 17, 3)]):
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        path = tmp_path / f"s{k}.txt"
        write_stack_file(str(path), DataStack(values))
        assert np.array_equal(_same_load(path).stack.values, values)
        n, r, c = shape
        order = rng.permutation(n * r * c)
        for delim, suffix in (("\t", "tsv"), (",", "csv")):
            path = tmp_path / f"l{k}.{suffix}"
            _write_long(str(path), values, [f"s{i}" for i in range(n)],
                        [f"r{a}" for a in range(r)], [f"c{b}" for b in range(c)],
                        delim=delim, order=list(order))
            _same_load(path)


def test_fast_path_matches_line_parser_on_layout_variants(tmp_path):
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(b"note,value,col_id,subject_id,row_id,extra\r\n"
                     b"a,1.5,t1,m2,g1,x\r\n"
                     b"b,2.5,t0,m2,g1,y\r\n"
                     b"\r\n"
                     b"c,3.5,t1,m1,g1,z\r\n"
                     b"d,4.5,t0,m1,g1,w\r\n")
    loaded = _same_load(crlf)
    assert loaded.subject_ids == ("m2", "m1")
    assert loaded.col_ids == ("t1", "t0")
    stack = tmp_path / "crlf.txt"
    stack.write_bytes(b"2 1 2\r\n1 2\r\n   \r\n3,\t4,\r\n")
    assert _same_load(stack).stack.values.ravel().tolist() == [1.0, 2.0, 3.0, 4.0]


def test_fast_path_matches_line_parser_on_float_spellings(tmp_path):
    tokens = ["1_0", "+.5", "-0.0", "5e-324", "1E3", "-1.5e+2", "7.", "00.25"]
    path = tmp_path / "tokens.txt"
    path.write_text(f"1 1 {len(tokens)}\n" + " ".join(tokens) + "\n")
    assert _same_load(path).stack.values.ravel().tolist() == [float(t) for t in tokens]
    assert np.signbit(load_stack(str(path)).stack.values[0, 0, 2])
    long = tmp_path / "tokens.csv"
    long.write_text("subject_id,row_id,col_id,value\n" + "".join(
        f"s,r,c{k},{t}\n" for k, t in enumerate(tokens + [" 1.5 "])))
    assert _same_load(long).stack.values.ravel().tolist() == [
        float(t) for t in tokens + [" 1.5 "]]


def test_padded_ids_are_read_by_the_line_parser(tmp_path):
    path = tmp_path / "padded.csv"
    path.write_text("subject_id,row_id,col_id,value\ns1 ,r1,c1,1.0\ns1 ,r1, c2,2.0\n")
    lines = io._read_lines(str(path))
    assert io._fast_long_format(str(path), lines) is None
    loaded = load_stack(str(path))
    assert (loaded.subject_ids, loaded.col_ids) == (("s1",), ("c1", "c2"))
    assert loaded.stack.values.ravel().tolist() == [1.0, 2.0]
