import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracle
from moleval.predmetrics import (
    _distinct_rows,
    DegenerateLabels,
    DimMismatch,
    EmbeddingMatrix,
    EmptySequence,
    LengthMismatch,
    MissingId,
    ScoredLabels,
    f1_mean,
    pool,
    pr_auc,
    regression_metrics,
    retrieval_eval,
    roc_auc,
)


def test_roc_examples():
    assert roc_auc(ScoredLabels((1, 1, 0, 0), (0.9, 0.8, 0.3, 0.2))) == 1.0
    assert roc_auc(ScoredLabels((1, 1, 0, 0), (0.9, 0.2, 0.8, 0.1))) == pytest.approx(0.75)
    assert roc_auc(ScoredLabels((1, 0), (0.5, 0.5))) == pytest.approx(0.5)


def test_roc_degenerate():
    with pytest.raises(DegenerateLabels):
        roc_auc(ScoredLabels((1, 1), (0.1, 0.2)))


def test_roc_oracle_and_monotone_invariance():
    rng = random.Random(13)
    for _ in range(250):
        n = rng.randint(2, 30)
        labels = [rng.randint(0, 1) for _ in range(n)]
        if sum(labels) in (0, n):
            labels[0] = 1 - labels[0]
        scores = [round(rng.random(), 2) for _ in range(n)]  # force ties
        s = ScoredLabels(tuple(labels), tuple(scores))
        got = roc_auc(s)
        assert got == pytest.approx(oracle.roc_auc_pairwise(labels, scores), abs=1e-9)
        transformed = ScoredLabels(
            tuple(labels), tuple(math.exp(3 * x) + 1 for x in scores)
        )
        assert roc_auc(transformed) == pytest.approx(got, abs=1e-9)


def test_pr_examples():
    assert pr_auc(ScoredLabels((1, 0), (0.9, 0.1))) == 1.0
    assert pr_auc(ScoredLabels((0, 1), (0.9, 0.1))) == pytest.approx(0.5)
    with pytest.raises(DegenerateLabels):
        pr_auc(ScoredLabels((0, 0), (0.5, 0.4)))


def test_pr_oracle_agreement():
    rng = random.Random(14)
    for _ in range(250):
        n = rng.randint(1, 30)
        labels = [rng.randint(0, 1) for _ in range(n)]
        if sum(labels) == 0:
            labels[rng.randrange(n)] = 1
        scores = [round(rng.random(), 2) for _ in range(n)]
        got = pr_auc(ScoredLabels(tuple(labels), tuple(scores)))
        assert got == pytest.approx(oracle.pr_auc_reference(labels, scores), abs=1e-9)


def test_f1_examples():
    perfect = ScoredLabels((1, 0, 1), (0.9, 0.1, 0.8))
    assert f1_mean([perfect]) == pytest.approx(1.0)
    mixed = ScoredLabels((1, 1, 0), (0.9, 0.2, 0.8))
    assert f1_mean([mixed]) == pytest.approx(0.5)
    silent = ScoredLabels((1, 1), (0.1, 0.2))
    assert f1_mean([silent]) == 0.0
    assert f1_mean([perfect, silent]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        f1_mean([perfect], threshold=1.5)


def test_f1_oracle_agreement():
    rng = random.Random(15)
    for _ in range(200):
        n = rng.randint(1, 25)
        labels = [rng.randint(0, 1) for _ in range(n)]
        scores = [round(rng.random(), 2) for _ in range(n)]
        got = f1_mean([ScoredLabels(tuple(labels), tuple(scores))])
        preds = [1 if x >= 0.5 else 0 for x in scores]
        assert got == pytest.approx(oracle.f1_reference(labels, preds), abs=1e-9)


def test_regression_metrics():
    assert regression_metrics([1.0, 2.0], [1.0, 2.0]) == {"mse": 0.0, "rmse": 0.0, "mae": 0.0}
    got = regression_metrics([0.0, 2.0], [1.0, 1.0])
    assert got == {"mse": 1.0, "rmse": 1.0, "mae": 1.0}
    got = regression_metrics([3.0], [1.0])
    assert got == {"mse": 4.0, "rmse": 2.0, "mae": 2.0}
    with pytest.raises(LengthMismatch):
        regression_metrics([1.0], [1.0, 2.0])


def test_pool_examples():
    assert pool([[1.0, 3.0], [3.0, 5.0]], "avg") == [2.0, 4.0]
    assert pool([[1.0, 3.0], [3.0, 5.0]], "max") == [3.0, 5.0]
    assert pool([[7.0, 2.0]], "avg") == [7.0, 2.0]
    with pytest.raises(EmptySequence):
        pool([], "avg")
    with pytest.raises(DimMismatch):
        pool([[1.0], [1.0, 2.0]], "max")
    with pytest.raises(ValueError):
        pool([[1.0]], "median")


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-100, 100), min_size=3, max_size=3),
        min_size=1,
        max_size=6,
    )
)
def test_pool_permutation_invariance(vectors):
    rng = random.Random(0)
    shuffled = vectors[:]
    rng.shuffle(shuffled)
    for mode in ("avg", "max"):
        got = pool(shuffled, mode)
        want = pool(vectors, mode)
        assert all(a == pytest.approx(b, abs=1e-9) for a, b in zip(got, want))


def _matrix(ids, vectors):
    return EmbeddingMatrix(tuple(ids), tuple(tuple(v) for v in vectors))


def test_retrieval_identity():
    m = _matrix(["a", "b", "c"], [[1, 0], [0, 1], [1, 1]])
    out = retrieval_eval(m, m, {"a": "a", "b": "b", "c": "c"})
    assert out["mrr"] == 1.0
    assert out["recall_at"][1] == 1.0


def test_retrieval_rank_example():
    # one query; construct targets so gold lands at rank 3
    queries = _matrix(["q"], [[1.0, 0.0]])
    targets = _matrix(
        ["t1", "t2", "gold"],
        [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]],
    )
    out = retrieval_eval(queries, targets, {"q": "gold"}, ks=[1, 5])
    assert out["ranks"] == [3]
    assert out["mrr"] == pytest.approx(1 / 3)
    assert out["recall_at"][1] == 0.0 and out["recall_at"][5] == 1.0


def test_retrieval_mrr_arithmetic():
    ids = [f"t{i}" for i in range(10)]
    vecs = [[math.cos(i / 20), math.sin(i / 20)] for i in range(10)]
    targets = _matrix(ids, vecs)
    queries = _matrix(["q1"], [vecs[0]])
    out = retrieval_eval(queries, targets, {"q1": ids[0]})
    assert out["ranks"] == [1] and out["mrr"] == 1.0
    # gold ranks 1, 3, 10 give the documented mean reciprocal rank
    assert (1 + 1 / 3 + 1 / 10) / 3 == pytest.approx(0.4778, abs=1e-4)


def test_retrieval_tie_break_by_id():
    queries = _matrix(["q"], [[1.0, 0.0]])
    targets = _matrix(["zz", "aa"], [[1.0, 0.0], [1.0, 0.0]])
    out = retrieval_eval(queries, targets, {"q": "zz"})
    assert out["ranks"] == [2]  # tie resolved toward "aa" first


def test_retrieval_zero_vector_similarity():
    queries = _matrix(["q"], [[0.0, 0.0]])
    targets = _matrix(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
    out = retrieval_eval(queries, targets, {"q": "b"})
    assert out["ranks"] == [2]  # all sims 0, id order decides


def test_retrieval_errors():
    q = _matrix(["q"], [[1.0, 0.0]])
    t = _matrix(["t"], [[1.0, 0.0, 0.0]])
    with pytest.raises(DimMismatch):
        retrieval_eval(q, t, {"q": "t"})
    t2 = _matrix(["t"], [[1.0, 0.0]])
    with pytest.raises(MissingId):
        retrieval_eval(q, t2, {"q": "nope"})
    with pytest.raises(MissingId):
        retrieval_eval(q, t2, {"ghost": "t"})


def test_retrieval_oracle_and_l2_invariance():
    rng = random.Random(16)
    for _ in range(40):
        nt = rng.randint(2, 12)
        nq = rng.randint(1, 6)
        dim = rng.randint(2, 5)
        t_ids = [f"t{i}" for i in range(nt)]
        q_ids = [f"q{i}" for i in range(nq)]
        t_vecs = [[rng.uniform(-2, 2) for _ in range(dim)] for _ in range(nt)]
        q_vecs = [[rng.uniform(-2, 2) for _ in range(dim)] for _ in range(nq)]
        gold = {q: rng.choice(t_ids) for q in q_ids}
        out = retrieval_eval(_matrix(q_ids, q_vecs), _matrix(t_ids, t_vecs), gold)
        want = oracle.retrieval_ranks_reference(
            dict(zip(q_ids, q_vecs)), dict(zip(t_ids, t_vecs)), gold
        )
        got_ranks = dict(zip(sorted(gold), out["ranks"]))
        # oracle breaks similarity ties arbitrarily; compare where unambiguous
        for qid in gold:
            assert got_ranks[qid] == want[qid]
        # recall monotone in k
        rec = out["recall_at"]
        assert rec[1] <= rec[5] <= rec[10]

        def scale(vectors):
            out_vecs = []
            for v in vectors:
                norm = math.sqrt(sum(x * x for x in v)) or 1.0
                out_vecs.append([x / norm for x in v])
            return out_vecs

        normed = retrieval_eval(
            _matrix(q_ids, scale(q_vecs)), _matrix(t_ids, scale(t_vecs)), gold
        )
        assert normed["ranks"] == out["ranks"]


def test_retrieval_exact_ties_across_tiles_and_blocks():
    # Duplicate target rows, some among the last rows where BLAS kernels
    # switch to edge tiles, and more queries than one scoring block; queries
    # equal to a duplicated target put the gold in an exact tie at rank 1 or 2.
    rng = random.Random(2402)
    nt, nq, dim = 500, 300, 32
    t_ids = [f"t{i:03d}" for i in range(nt)]
    t_vecs = [[rng.gauss(0.0, 1.0) for _ in range(dim)] for _ in range(nt)]
    copies = [nt - 1, nt - 2, nt - 5, nt - 7] + rng.sample(range(1, nt - 7), 56)
    sources = [0] + rng.sample([i for i in range(1, nt) if i not in copies], 59)
    for dst, src in zip(copies, sources):
        t_vecs[dst] = list(t_vecs[src])
    # rows equal up to the sign of a zero must tie too
    t_vecs[copies[0]][3] = 0.0
    t_vecs[sources[0]][3] = -0.0
    q_ids = [f"q{i:03d}" for i in range(nq)]
    gold = {}
    q_vecs = []
    for i, qid in enumerate(q_ids):
        if i % 25 == 0:
            pair = (copies[i // 25], sources[i // 25])
            q_vecs.append(list(t_vecs[pair[0]]))
            gold[qid] = t_ids[pair[i % 2]]
        else:
            # half the golds are duplicated rows, whose rank needs the tie
            target = rng.choice(copies + sources) if i % 2 else rng.randrange(nt)
            q_vecs.append([x + rng.gauss(0.0, 1.5) for x in t_vecs[target]])
            gold[qid] = t_ids[target]
    out = retrieval_eval(_matrix(q_ids, q_vecs), _matrix(t_ids, t_vecs), gold)
    want = oracle.retrieval_ranks_reference(
        dict(zip(q_ids, q_vecs)), dict(zip(t_ids, t_vecs)), gold
    )
    assert out["ranks"] == [want[q] for q in sorted(gold)]
    tied = [want[q] for i, q in enumerate(q_ids) if i % 25 == 0]
    assert set(tied) == {1, 2}


# finite 16-column rows whose float64 row sum overflows: numpy's pairwise sum
# adds lanes 0 and 8, and 1 and 9, first, so these sum to NaN, +inf and -inf
_BIG = 1.5e308
_OVERFLOW_ROWS = [
    [_BIG, -_BIG] + [0.0] * 6 + [_BIG, -_BIG] + [0.0] * 6,
    [_BIG, -_BIG] + [1.0] * 6 + [_BIG, -_BIG] + [0.0] * 6,
    [_BIG] + [0.0] * 7 + [_BIG] + [0.0] * 7,
    [-_BIG] + [2.0] * 7 + [-_BIG] + [0.0] * 7,
]


@st.composite
def _row_sets(draw):
    dim = draw(st.sampled_from([1, 2, 3, 5, 16, 33, 130]))
    cell = st.integers(-3, 3).map(float)
    rows = draw(st.lists(st.lists(cell, min_size=dim, max_size=dim), min_size=1, max_size=6))
    rows.append([0.0] * dim)
    # permutations of one row: equal sums, different rows
    rows += [list(p) for p in draw(st.lists(st.permutations(rows[0]), max_size=3))]
    # twins equal up to the sign of their zeros
    twins = draw(st.lists(st.sampled_from(rows), max_size=3))
    rows += [[-0.0 if x == 0.0 else x for x in row] for row in twins]
    if dim == 16:
        rows += draw(st.lists(st.sampled_from(_OVERFLOW_ROWS), max_size=5))
    rows += [list(row) for row in draw(st.lists(st.sampled_from(rows), max_size=4))]
    return [rows[i] for i in draw(st.permutations(range(len(rows))))]


@settings(max_examples=300, deadline=None)
@given(_row_sets())
def test_distinct_rows_matches_reference(rows):
    vectors = np.array(rows, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        firsts, inverse = _distinct_rows(vectors)
    want_firsts, want_inverse = oracle.distinct_rows_reference(rows)
    assert firsts.tolist() == want_firsts
    assert inverse.tolist() == want_inverse


def test_distinct_rows_overflow_twins_stay_one_row():
    # two equal rows whose sums are NaN must not split
    vectors = np.array([_OVERFLOW_ROWS[0], [1.0] * 16, _OVERFLOW_ROWS[0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        firsts, inverse = _distinct_rows(vectors)
    assert firsts.tolist() == [0, 1] and inverse.tolist() == [0, 1, 0]


def test_retrieval_leaves_inputs_untouched():
    rng = np.random.default_rng(5)
    t_arr = rng.integers(-2, 3, size=(30, 4)).astype(np.float64)
    t_arr[3] = 0.0
    t_arr[7] = t_arr[2]
    t_arr[8] = np.where(t_arr[2] == 0.0, -0.0, t_arr[2])
    q_arr = rng.standard_normal((5, 4))
    q_arr[1, 0] = -0.0
    before = (q_arr.tobytes(), t_arr.tobytes())
    queries = EmbeddingMatrix([f"q{i}" for i in range(5)], q_arr)
    targets = EmbeddingMatrix([f"t{i:02d}" for i in range(30)], t_arr)
    retrieval_eval(queries, targets, {f"q{i}": f"t{2 * i + 2:02d}" for i in range(5)})
    assert (q_arr.tobytes(), t_arr.tobytes()) == before
    assert (queries.vectors.tobytes(), targets.vectors.tobytes()) == before
    assert not queries.vectors.flags.writeable and not targets.vectors.flags.writeable


def test_embedding_matrix_storage_and_validation():
    m = _matrix(["a", "b"], [[1, 2], [3, 4]])
    assert m.vectors.dtype == np.float64 and m.vectors.flags.c_contiguous
    assert m.vectors.shape == (2, 2) and m.dim == 2
    assert m.row("b").tolist() == [3.0, 4.0]
    with pytest.raises(ValueError, match="read-only"):
        m.row("b")[0] = 0.0
    with pytest.raises(MissingId):
        m.row("c")
    with pytest.raises(DimMismatch, match="rows differ in dimension"):
        _matrix(["a", "b"], [[1.0, 2.0], [3.0]])
    with pytest.raises(DimMismatch):
        _matrix(["a"], [[]])
    with pytest.raises(ValueError, match="unique"):
        _matrix(["a", "a"], [[1.0], [2.0]])
    with pytest.raises(LengthMismatch):
        _matrix(["a"], [[1.0], [2.0]])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite value in row 'b'"):
            _matrix(["a", "b"], [[1.0, 0.0], [0.0, bad]])
    assert EmbeddingMatrix((), ()).dim == 0

def test_scored_labels_validation():
    with pytest.raises(LengthMismatch):
        ScoredLabels((1,), (0.5, 0.6))
    with pytest.raises(EmptySequence):
        ScoredLabels((), ())
    with pytest.raises(ValueError):
        ScoredLabels((2,), (0.5,))


def test_embedding_matrix_validation():
    with pytest.raises(ValueError):
        _matrix(["a", "a"], [[1.0], [2.0]])
    with pytest.raises(DimMismatch):
        _matrix(["a", "b"], [[1.0], [1.0, 2.0]])
