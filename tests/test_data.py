"""LIBSVM parsing, partitioning, and the assignment table."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asyncsgd import data, rng
from asyncsgd.data import (AssignmentTable, DataFormatError, DataSet,
                           build_assignment, parse_libsvm, partition,
                           synthetic_logistic, synthetic_quadratic)
from asyncsgd.schedules import SampleSchedule, sample_size


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_basic_line():
    ds = parse_libsvm("+1 1:0.5 3:2\n")
    assert ds.dim == 3
    assert np.array_equal(ds.X[0], [0.5, 0.0, 2.0])
    assert ds.y[0] == 1


def test_parse_label_mapping():
    ds = parse_libsvm("-1 2:1\n+1 1:1 2:1\n")
    assert list(ds.y) == [0, 1]
    assert np.array_equal(ds.X[0], [0.0, 1.0])


def test_parse_pads_to_max_dim():
    ds = parse_libsvm("+1 3:1\n-1 5:2\n")
    assert ds.dim == 5
    assert np.array_equal(ds.X[0], [0, 0, 1, 0, 0])
    assert np.array_equal(ds.X[1], [0, 0, 0, 0, 2])


def test_parse_zero_one_labels():
    ds = parse_libsvm("0 1:1\n1 1:2\n")
    assert list(ds.y) == [0, 1]


@pytest.mark.parametrize("text,fragment", [
    ("+1 1:0.5 oops\n", "line 1"),
    ("+1 3:1 2:1\n", "non-ascending"),
    ("nope 1:1\n", "bad label"),
    ("", "empty"),
    ("+3 1:1\n", "not binary"),
    ("1\n0\n", "one feature column"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(DataFormatError, match=fragment):
        parse_libsvm(text)


def test_parse_refuses_a_huge_dense_matrix():
    """Two lines with feature index 10**9 would make a 2 x 10**9 matrix
    (14.9 GiB); the parser names the index before allocating it."""
    with pytest.raises(DataFormatError, match="feature index 1000000000"):
        parse_libsvm("+1 1000000000:1\n-1 1:1\n")


def test_dataset_invariants():
    with pytest.raises(DataFormatError):
        DataSet(X=np.zeros((2, 2)), y=np.zeros(3))
    with pytest.raises(DataFormatError):
        DataSet(X=np.array([[np.inf, 0.0]]), y=np.zeros(1))


LABELS = {"+1": 1, "1": 1, "1.0": 1, "-1": 0, "0": 0, "-1.0": 0}
# Each turns a valid line into one the parser must reject.
CORRUPTIONS = (
    lambda line, last: "2 " + line,             # label 2 is not binary
    lambda line, last: line + " 3",
    lambda line, last: line + " a:1",
    lambda line, last: line + f" {last + 1}:x",
    lambda line, last: line + f" {last}:1",      # not ascending (0 at start)
    lambda line, last: line + f" {last + 1}:inf",
    lambda line, last: line + f" {last + 1}:nan",
)


@st.composite
def libsvm_line(draw):
    """(text, label, {index: value}, corrupted) for one data line; indices
    stay at most 1000, since the parser allocates rows x max index."""
    label = draw(st.sampled_from(sorted(LABELS)))
    idx = sorted(draw(st.sets(st.integers(1, 1000), max_size=5)))
    vals = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=len(idx), max_size=len(idx)))
    sep = draw(st.sampled_from([" ", "\t", "  "]))
    text = sep.join([label] + [f"{j}:{v!r}" for j, v in zip(idx, vals)])
    corrupt = draw(st.none() | st.sampled_from(CORRUPTIONS))
    if corrupt is not None:
        text = corrupt(text, idx[-1] if idx else 0)
    return text, LABELS[label], dict(zip(idx, vals)), corrupt is not None


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(st.one_of(libsvm_line(), st.sampled_from(
    [("", None, None, False), ("# comment", None, None, False)])),
    max_size=8))
def test_parse_libsvm_fuzz(lines):
    """Mixed valid and corrupted lines parse to the expected X and y, or
    raise DataFormatError when any line is bad or no feature is left."""
    text = "\n".join(line for line, *_ in lines)
    rows = [(label, feats) for _, label, feats, _ in lines
            if label is not None]
    dim = max((max(feats, default=0) for _, feats in rows), default=0)
    if any(bad for *_, bad in lines) or dim == 0:
        with pytest.raises(DataFormatError):
            parse_libsvm(text)
        return
    ds = parse_libsvm(text)
    X = np.zeros((len(rows), dim))
    for r, (_, feats) in enumerate(rows):
        for j, v in feats.items():
            X[r, j - 1] = v
    assert np.array_equal(ds.X, X)
    assert ds.y.tolist() == [label for label, _ in rows]


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------

def make_binary(M=1000, seed=2):
    return synthetic_logistic(M, 4, seed=seed)


def test_partition_identity_single_node():
    ds = make_binary(50)
    part = partition(ds, 1, seed=0)
    assert len(part.local(1)) == 50
    assert sorted(part.indices[0].tolist()) == list(range(50))


def test_partition_unbiased_disjoint_cover():
    ds = make_binary(1000)
    part = partition(ds, 5, seed=3)
    sizes = [len(part.local(c)) for c in range(1, 6)]
    assert sizes == [200] * 5
    all_idx = np.concatenate([part.indices[c - 1] for c in range(1, 6)])
    assert sorted(all_idx.tolist()) == list(range(1000))


def test_partition_proportional_sizes():
    ds = make_binary(1000)
    part = partition(ds, 2, p=[0.7, 0.3], seed=1)
    assert [len(part.local(1)), len(part.local(2))] == [700, 300]


def test_partition_biased_by_label_two_nodes():
    ds = make_binary(400)
    part = partition(ds, 2, mode=data.BIASED_BY_LABEL, seed=0)
    assert set(part.local(1).y.tolist()) == {0}
    assert set(part.local(2).y.tolist()) == {1}
    total = len(part.local(1)) + len(part.local(2))
    assert total == 400


def test_partition_biased_more_nodes_than_labels():
    ds = make_binary(600)
    part = partition(ds, 5, mode=data.BIASED_BY_LABEL, seed=4)
    # every node still sees a single label
    for c in range(1, 6):
        assert len(set(part.local(c).y.tolist())) == 1
    all_idx = np.concatenate([part.indices[c - 1] for c in range(1, 6)])
    assert sorted(all_idx.tolist()) == list(range(600))


def test_partition_rejects_bad_p():
    ds = make_binary(100)
    with pytest.raises(ValueError):
        partition(ds, 2, p=[0.9, 0.2], seed=0)
    with pytest.raises(ValueError):
        partition(ds, 0, seed=0)


def test_partition_rejects_node_without_samples():
    ds = make_binary(3)
    with pytest.raises(ValueError, match="leaves a node with none"):
        partition(ds, 5, seed=0)


def test_partition_biased_rejects_more_nodes_than_label_groups_hold():
    """One positive among 100 samples: the largest-remainder split of n=3
    gives the positive group no node."""
    ds = DataSet(X=np.arange(100.0)[:, None],
                 y=(np.arange(100) == 7).astype(np.int8))
    with pytest.raises(ValueError,
                       match="n exceeds distinct usable label groups"):
        partition(ds, 3, mode=data.BIASED_BY_LABEL, seed=0)


def test_partition_local_is_a_copy_of_the_node_rows():
    ds = make_binary(100)
    part = partition(ds, 3, seed=2)
    local, idx = part.local(2), part.indices[1]
    assert np.array_equal(local.X, ds.X[idx])
    assert np.array_equal(local.y, ds.y[idx])
    before = ds.X[idx[0]].copy()
    local.X[0] += 1.0
    assert np.array_equal(ds.X[idx[0]], before)


def test_partition_reproducible():
    ds = make_binary(300)
    a = partition(ds, 3, seed=9)
    b = partition(ds, 3, seed=9)
    for c in range(1, 4):
        assert np.array_equal(a.indices[c - 1], b.indices[c - 1])


# ---------------------------------------------------------------------------
# assignment table
# ---------------------------------------------------------------------------

def table_rows(table):
    return np.split(table.node, table.start[1:-1])


def test_assignment_single_node_all_ones():
    sched = SampleSchedule.constant(8)
    table = build_assignment(sched, [1.0], 1, rounds=5, seed=0)
    for row in table_rows(table):
        assert set(row.tolist()) == {1}


@pytest.mark.parametrize("p,n,rounds,match", [
    ([0.5, 0.5], 2, 0, "need at least one round"),
    ([0.5, 0.5], 3, 4, "p must be a length-n probability vector"),
    ([1.5, -0.5], 2, 4, "p must be a length-n probability vector"),
    ([0.5, 0.4], 2, 4, "p must be a length-n probability vector")])
def test_assignment_rejects_bad_arguments(p, n, rounds, match):
    with pytest.raises(ValueError, match=match):
        build_assignment(SampleSchedule.constant(10), p, n, rounds=rounds,
                         seed=0)


def test_assignment_zero_mass_node():
    sched = SampleSchedule.constant(10)
    table = build_assignment(sched, [1.0, 0.0], 2, rounds=4, seed=0)
    for row in table_rows(table):
        assert set(row.tolist()) == {1}


def test_assignment_binomial_concentration():
    sched = SampleSchedule.constant(10 ** 4)
    passed = 0
    for seed in range(20):
        table = build_assignment(sched, [0.5, 0.5], 2, rounds=1, seed=seed)
        count = int(np.sum(table_rows(table)[0] == 1))
        if abs(count - 5000) <= 3 * np.sqrt(10 ** 4 * 0.25):
            passed += 1
    assert passed >= 19  # 3-sigma: > 99% of seeds


def test_assignment_marginals_long_run():
    sched = SampleSchedule.constant(10 ** 4)
    p = [0.2, 0.3, 0.5]
    table = build_assignment(sched, p, 3, rounds=100, seed=7)
    flat = np.concatenate(table_rows(table))
    for c, pc in enumerate(p, start=1):
        freq = float(np.mean(flat == c))
        assert abs(freq - pc) < 0.01


def test_assignment_row_lengths_and_range():
    sched = SampleSchedule.power_law(a=3.0)
    table = build_assignment(sched, [0.5, 0.5], 2, rounds=6, seed=1)
    for i, row in enumerate(table_rows(table)):
        assert len(row) == sample_size(sched, i)
        assert all(1 <= c <= 2 for c in row.tolist())


def test_assignment_reproducible():
    sched = SampleSchedule.constant(50)
    a = build_assignment(sched, [0.3, 0.7], 2, rounds=10, seed=42)
    b = build_assignment(sched, [0.3, 0.7], 2, rounds=10, seed=42)
    assert all(np.array_equal(x, y)
               for x, y in zip(table_rows(a), table_rows(b)))


def test_assignment_counts_in_blocks(monkeypatch):
    rows = [[2, 1, 2], [], [3], [], [], [1, 1, 3, 3, 2, 2, 2], [2]]
    table = AssignmentTable(np.array(sum(rows, [])),
                            np.array([0, 3, 3, 4, 4, 4, 11, 12]), n=3)
    assert [r.tolist() for r in table_rows(table)] == rows
    expected = [np.bincount(r, minlength=4).tolist() for r in rows]
    for block in (1, 2, 5, 8192):
        monkeypatch.setattr(data, "_BLOCK", block)
        assert table.counts().tolist() == expected


def built_table_pins(monkeypatch, sched, n, rounds, seed, **kwargs):
    """(digest of the rows, ASSIGNMENT generator state after the build)."""
    gens = []

    def spy(*args):
        gens.append(real(*args))
        return gens[-1]
    real = rng.stream
    monkeypatch.setattr(rng, "stream", spy)
    p = np.arange(1.0, n + 1) / (n * (n + 1) / 2)  # unequal weights
    table = build_assignment(sched, p, n, rounds=rounds, seed=seed, **kwargs)
    monkeypatch.undo()
    h = hashlib.sha256()
    for row in table_rows(table):
        h.update(np.asarray(row, dtype="<i8").tobytes() + b"|")
    (gen,) = gens
    state = gen.bit_generator.state
    return h.hexdigest()[:32], (state["state"]["counter"].tolist(),
                                state["buffer_pos"], state["has_uint32"],
                                state["uinteger"])


# Recorded before the table was drawn in one pass; the rows and the
# stream state after the build must not move.
@pytest.mark.parametrize("case, sched, n, rounds, kwargs, digest, state", [
    ("one-node", SampleSchedule.constant(7), 1, 30, {},
     "60aff1cbefed894b7c15407e9e7881f7", ([53, 0, 0, 0], 2, 0, 0)),
    ("strongly-convex", SampleSchedule.matched_log(m=7747, d=1), 5, 200, {},
     "d304c6c6ef1b3c0f6f64fdc6aaaccdd3", ([850, 0, 0, 0], 1, 0, 0)),
    ("empty-round", SampleSchedule.power_law(a=0.7, c=1.2), 20, 60, {},
     "ed4adcc3158a5e7dab77f7cac817feea", ([645, 0, 0, 0], 4, 0, 0)),
])
def test_assignment_pinned(monkeypatch, case, sched, n, rounds, kwargs,
                           digest, state):
    assert built_table_pins(monkeypatch, sched, n, rounds, seed=11,
                            **kwargs) == (digest, state)


def test_synthetic_generators():
    q = synthetic_quadratic(100, 5, seed=1)
    assert q.X.shape == (100, 5)
    lg = synthetic_logistic(101, 4, seed=1)
    assert lg.X.shape == (101, 4)
    # labels roughly balanced by construction
    assert 45 <= int(np.sum(lg.y)) <= 56
