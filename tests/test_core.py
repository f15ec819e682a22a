import numpy as np
import pytest

import matmean
from matmean.core import (
    DataStack,
    GroupPartition,
    ProjectionMatrix,
    build_projection,
    drop_singletons,
)


def test_partition_from_sizes():
    p = GroupPartition.from_sizes((7, 3))
    assert p.assignment == (1,) * 7 + (2,) * 3
    assert p.n_cols == 10
    assert p.n_groups == 2
    assert p.sizes == (7, 3)
    assert p.max_group_size == 7


def test_partition_from_labels_first_appearance_order():
    p = GroupPartition.from_labels(["b", "a", "b", "c", "a"])
    assert p.assignment == (1, 2, 1, 3, 2)
    assert p.sizes == (2, 2, 1)
    assert p.singleton_columns() == (3,)


def test_partition_sizes_are_computed_once():
    p = GroupPartition.from_labels([3, 1, 3, 2, 1, 3])
    assert p.sizes == (3, 2, 1)
    assert p.sizes is p.sizes
    assert p == GroupPartition((1, 2, 1, 3, 2, 1))


def test_partition_rejects_gapped_ids():
    with pytest.raises(ValueError, match="no gaps"):
        GroupPartition((1, 3))
    with pytest.raises(ValueError, match="no gaps"):
        GroupPartition((0, 1))
    with pytest.raises(ValueError):
        GroupPartition(())
    with pytest.raises(ValueError):
        GroupPartition.from_sizes((0, 3))


def test_all_singletons_is_constructible_but_not_projectable():
    p = GroupPartition((1, 2, 3))
    assert p.max_group_size == 1
    with pytest.raises(ValueError, match="all groups are singletons"):
        build_projection(p)


def _averaging_matrix(partition):
    c = partition.n_cols
    h = np.zeros((c, c))
    for q in range(1, partition.n_groups + 1):
        cols = [b for b, gid in enumerate(partition.assignment) if gid == q]
        for a in cols:
            for b in cols:
                h[a, b] = 1.0 / len(cols)
    return h


@pytest.mark.parametrize("sizes", [(10,), (7, 3), (5, 2, 3), (2, 2), (4, 1, 3)])
def test_projection_matches_block_averaging_complement(sizes):
    part = GroupPartition.from_sizes(sizes)
    proj = build_projection(part)
    expected = np.eye(part.n_cols) - _averaging_matrix(part)
    assert np.allclose(proj.values, expected, atol=1e-12)


@pytest.mark.parametrize("sizes", [(6,), (4, 2), (3, 2, 2), (2, 5)])
def test_projection_idempotent_symmetric_with_known_trace(sizes):
    part = GroupPartition.from_sizes(sizes)
    p = build_projection(part).values
    assert np.allclose(p, p.T, atol=1e-12)
    assert np.allclose(p @ p, p, atol=1e-12)
    assert np.trace(p) == pytest.approx(part.n_cols - part.n_groups, abs=1e-12)
    # every row sums to zero: the all-ones vector per group is in the kernel
    assert np.allclose(p.sum(axis=1), 0.0, atol=1e-12)


def test_projection_rank_property():
    part = GroupPartition.from_sizes((5, 3))
    proj = build_projection(part)
    assert proj.n_cols == 8
    # the rank of a projection is its trace, c - g
    eigvals = np.linalg.eigvalsh(proj.values)
    assert int(round(eigvals.sum())) == 8 - 2
    assert np.sum(eigvals > 0.5) == 8 - 2


def test_projection_conjugation_under_column_permutation():
    # relabeling columns permutes the projection consistently: P' = Q P Q^T
    rng = np.random.default_rng(11)
    part = GroupPartition.from_labels([1, 1, 2, 2, 2, 3, 3])
    perm = rng.permutation(7)
    permuted = GroupPartition.from_labels([part.assignment[k] for k in perm])
    q = np.eye(7)[perm]  # row k of q selects original column perm[k]
    p_orig = build_projection(part).values
    p_perm = build_projection(permuted).values
    assert np.allclose(p_perm, q @ p_orig @ q.T, atol=1e-12)
    # centering within the scattered groups is the product with P
    x = rng.standard_normal((3, 4, 7))
    assert np.allclose(build_projection(permuted).apply(x), x @ p_perm, atol=1e-12)


def test_drop_singletons():
    rng = np.random.default_rng(21)
    vals = rng.standard_normal((4, 3, 6))
    stack = DataStack(vals)
    part = GroupPartition.from_labels(["a", "x", "a", "b", "b", "y"])
    kept_stack, kept_part, dropped = drop_singletons(stack, part)
    assert dropped == (1, 5)
    assert kept_part.sizes == (2, 2)
    assert kept_stack.n_cols == 4
    assert np.array_equal(kept_stack.values, vals[:, :, [0, 2, 3, 4]])
    # no singletons: the same objects come back
    part2 = GroupPartition.from_sizes((3, 3))
    same_stack, same_part, none_dropped = drop_singletons(stack, part2)
    assert same_stack is stack and same_part is part2 and none_dropped == ()


def test_datastack_validation_and_views():
    rng = np.random.default_rng(13)
    vals = rng.standard_normal((4, 3, 5))
    st = DataStack(vals)
    assert (st.n_subjects, st.n_rows, st.n_cols) == (4, 3, 5)
    with pytest.raises(ValueError):
        st.values[0, 0, 0] = 1.0  # read-only
    with pytest.raises(ValueError, match="non-finite"):
        bad = vals.copy()
        bad[1, 2, 3] = np.nan
        DataStack(bad)
    with pytest.raises(ValueError):
        DataStack(np.zeros((2, 3)))

    tr = st.transposed()
    assert tr.values.shape == (4, 5, 3)
    assert np.array_equal(tr.values[2], vals[2].T)

    sub = st.take_columns([4, 0])
    assert np.array_equal(sub.values[:, :, 0], vals[:, :, 4])
    rows = st.take_rows([1])
    assert np.array_equal(rows.values[:, 0, :], vals[:, 1, :])


def test_datastack_views_are_read_only_c_ordered_copies():
    vals = np.random.default_rng(14).standard_normal((4, 3, 5))
    st = DataStack(vals)
    views = (
        (st.transposed(), vals.transpose(0, 2, 1)),
        (st.take_columns([4, 0, 2]), vals[:, :, [4, 0, 2]]),
        (st.take_rows([2, 0]), vals[:, [2, 0], :]),
    )
    for view, expected in views:
        assert view.values.tobytes() == np.ascontiguousarray(expected).tobytes()
        assert view.values.flags.c_contiguous and not view.values.flags.writeable
        assert not np.shares_memory(view.values, st.values)
    with pytest.raises(ValueError, match="empty dimension"):
        st.take_columns([])


def test_projection_matrix_accessors():
    part = GroupPartition.from_sizes((2, 2))
    good = build_projection(part)
    assert isinstance(good, ProjectionMatrix)
    assert good.n_cols == 4
    with pytest.raises(ValueError):
        good.values[0, 0] = 9.0  # read-only


def _gather_apply(partition, x):
    """Centering by gathering columns into group order and expanding the means."""
    sizes = partition.sizes
    labels = np.asarray(partition.assignment) - 1
    order = np.argsort(labels, kind="stable")
    starts = np.cumsum((0,) + sizes[:-1])
    means = np.add.reduceat(x[..., order], starts, axis=-1) / sizes
    return x - means[..., labels]


@pytest.mark.parametrize(
    "partition",
    [
        GroupPartition.from_sizes((10,)),
        GroupPartition.from_sizes((7, 3)),
        GroupPartition.from_sizes((5, 2, 3)),
        GroupPartition.from_labels([2, 1, 2, 3, 1, 1, 3, 2, 2, 1]),
        GroupPartition.from_labels("abcabcabca"),
    ],
    ids=["one", "7-3", "5-2-3", "scattered", "cyclic"],
)
def test_projection_apply_equals_gather_expression_bytes(partition):
    # groups that are runs of adjacent columns skip the gather; the
    # sums and subtractions must be the same floating-point operations
    rng = np.random.default_rng(23)
    proj = ProjectionMatrix(partition)
    for shape in ((6, 10), (4, 7, 10), (10, 100, 10)):
        x = rng.standard_normal(shape) * np.exp(rng.uniform(-20, 20, shape))
        for arr, out in ((x, None), (np.asfortranarray(x), None),
                         (x, np.full(x.size + 3, np.nan))):
            got = proj.apply(arr, out=out)
            expected = _gather_apply(partition, arr)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            assert out is None or np.shares_memory(got, out)


def test_interleaved_groups_are_centred_one_group_at_a_time():
    # each group's columns are gathered in turn, so centring into ``out``
    # holds one group's share of the data at a time, where the gather
    # expression holds the gathered columns and the expanded means; the
    # bits are the same
    import tracemalloc

    rng = np.random.default_rng(29)
    for k in range(60):
        c = int(rng.integers(4, 40))
        labels = rng.permutation(np.arange(c) % int(rng.integers(2, c // 2 + 1))).tolist()
        if k % 2:  # and one singleton group
            labels.insert(int(rng.integers(c + 1)), c)
        partition = GroupPartition.from_labels(labels)
        shape = (int(rng.integers(1, 8)), int(rng.integers(1, 30)), partition.n_cols)
        x = rng.standard_normal(shape) * np.exp(rng.uniform(-20, 20, shape))
        for out in (None, np.full(x.size + 2, np.nan)):
            got = ProjectionMatrix(partition).apply(x, out=out)
            assert got.tobytes() == _gather_apply(partition, x).tobytes()
    x = rng.standard_normal((20, 200, 100))
    proj = ProjectionMatrix(GroupPartition.from_labels([b % 2 for b in range(100)]))
    spare = np.empty(x.size)
    proj.apply(x, out=spare)
    tracemalloc.start()
    try:
        proj.apply(x, out=spare)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.6 * x.nbytes


@pytest.mark.parametrize("error, call, message", [
    pytest.param(ValueError, lambda: build_projection(GroupPartition.from_sizes((2, 2))).apply(
                     np.ones((3, 5))),
                 "last axis has length 5, projection expects 4", id="projection-width"),
    pytest.param(ValueError, lambda: drop_singletons(DataStack(np.ones((4, 2, 3))),
                                                     GroupPartition.from_sizes((2, 2))),
                 "stack has 3 columns but partition covers 4", id="drop-width"),
    pytest.param(ValueError, lambda: drop_singletons(DataStack(np.ones((4, 2, 3))),
                                                     GroupPartition((1, 2, 3))),
                 "partition needs at least one group of size >= 2; all groups are singletons",
                 id="drop-all"),
    pytest.param(AttributeError, lambda: matmean.no_such_name,
                 "module 'matmean' has no attribute 'no_such_name'", id="package-attribute"),
])
def test_invalid_input_is_refused_with_its_message(error, call, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
