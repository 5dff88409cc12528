import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracle
from moleval.harness import read_embeddings, write_embeddings
import moleval.predmetrics as predmetrics
from moleval.predmetrics import (
    _score_error,
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

SRC = Path(__file__).resolve().parent.parent / "src"


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
    # the errors sum past the float range and their mean does not; each
    # square is already infinite, and the root of their mean is not
    got = regression_metrics([1e308, -1e308, 1e308], [0.0, 0.0, 0.0])
    assert got == {"mse": math.inf, "rmse": 1e308, "mae": 1e308}
    got = regression_metrics([2e200, 1e200], [0.0, -1e200])
    assert got == {"mse": math.inf, "rmse": 2e200, "mae": 2e200}


def test_pool_examples():
    assert pool([[1.0, 3.0], [3.0, 5.0]], "avg") == [2.0, 4.0]
    assert pool([[1.0, 3.0], [3.0, 5.0]], "max") == [3.0, 5.0]
    assert pool([[7.0, 2.0]], "avg") == [7.0, 2.0]
    assert pool([[1e308], [1e308]], "avg") == [1e308]  # the sum overflows, the mean does not
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


def _exact_ranks(q_ids, q_vecs, t_ids, t_vecs, gold):
    """oracle.exact_ranks in the order of retrieval_eval's ranks"""
    want = oracle.exact_ranks(dict(zip(q_ids, q_vecs)), dict(zip(t_ids, t_vecs)), gold)
    return [want[q] for q in sorted(gold)]


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
        assert out["ranks"] == _exact_ranks(q_ids, q_vecs, t_ids, t_vecs, gold)
        # recall monotone in k
        rec = out["recall_at"]
        assert rec[1] <= rec[5] <= rec[10]

        # a power of two per row leaves every cosine exactly as it was
        def scale(vectors):
            out_vecs = []
            for v in vectors:
                power = rng.randint(-900, 1000)
                out_vecs.append([math.ldexp(x, power) for x in v])
            return out_vecs

        scaled = retrieval_eval(
            _matrix(q_ids, scale(q_vecs)), _matrix(t_ids, scale(t_vecs)), gold
        )
        assert scaled["ranks"] == out["ranks"]


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
    want = _exact_ranks(q_ids, q_vecs, t_ids, t_vecs, gold)
    assert out["ranks"] == want
    tied = [w for i, w in enumerate(want) if i % 25 == 0]
    assert set(tied) == {1, 2}


# finite 16-column rows whose float64 sums overflow: numpy's pairwise sum
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
def test_retrieval_equal_rows_tie(rows):
    # every row queries itself and the next row: equal rows, -0.0 twins and
    # rows whose squares overflow tie exactly, whatever their position
    t_ids = [f"t{i:02d}" for i in range(len(rows))]
    q_ids = [f"{side}{i:02d}" for side in "ab" for i in range(len(rows))]
    gold = {q: t_ids[(int(q[1:]) + (q[0] == "b")) % len(rows)] for q in q_ids}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = retrieval_eval(_matrix(q_ids, rows + rows), _matrix(t_ids, rows), gold)
    assert out["ranks"] == _exact_ranks(q_ids, rows + rows, t_ids, rows, gold)


def _planted_set(kind, seed, n_targets=300, n_queries=70, dim=48):
    """Targets and queries of one kind of value with planted exact ties:
    block-swapped twins (distinct rows whose cosines are equal against any
    query whose first two blocks are equal), byte-equal duplicates, -0.0
    twins, zero rows, and rows scaled by 2**1000 (squares overflow) or
    2**-700 (squares underflow), whose cosines are those of the rows they
    scale. 70 queries and 300 targets of dimension 48 span more than one
    query block and more than one tile."""
    rng = np.random.default_rng(seed)
    w = dim // 4

    def draw(shape):
        if kind == "integer":
            return rng.integers(-5, 6, size=shape).astype(np.float64)
        if kind == "binary":
            return (rng.random(shape) < 0.08).astype(np.float64)
        values = rng.standard_normal(shape).astype(np.float16).astype(np.float64)
        return np.where(rng.random(shape) < 0.1, 0.0, values)

    def swapped(row):
        return np.concatenate([row[w : 2 * w], row[:w], row[2 * w :]])

    t = draw((n_targets, dim))
    slots = rng.permutation(n_targets)
    sources, plants = slots[:60], slots[60:120]
    for k, (src, dst) in enumerate(zip(sources, plants)):
        t[dst] = [
            swapped(t[src]),
            t[src],
            np.where(t[src] == 0.0, -0.0, t[src]),
            np.zeros(dim),
            np.ldexp(t[src], 1000),
            np.ldexp(t[src], -700),
        ][k % 6]
    big, twin = slots[120:122]
    t[big] = 0.0
    t[big, [0, w, 2 * w]] = [_BIG, -_BIG, _BIG]
    t[twin] = swapped(t[big])
    golds = rng.choice(slots[:122], size=n_queries)
    q = np.array(t[golds])
    noisy = np.arange(n_queries) % 3 != 0  # the others equal their gold
    if kind == "binary":
        q[noisy] = np.abs(q[noisy] - (rng.random((noisy.sum(), dim)) < 0.04))
    else:
        q[noisy] += draw((noisy.sum(), dim))
    q[noisy, w : 2 * w] = q[noisy, :w]
    for rows, power in ((slice(1, None, 6), 1000), (slice(2, None, 6), -700)):
        _, exponent = np.frexp(np.abs(q[rows]).max(axis=1))
        q[rows] = np.ldexp(q[rows], power - exponent[:, None])
    q[4] = 0.0
    q[5] = np.where(q[5] == 0.0, -0.0, q[5])
    t_ids = [f"t{i:03d}" for i in range(n_targets)]
    q_ids = [f"q{i:02d}" for i in range(n_queries)]
    return q_ids, q, t_ids, t, {q_ids[i]: t_ids[g] for i, g in enumerate(golds)}


@pytest.mark.parametrize("kind", ["integer", "binary", "float16"])
def test_retrieval_matches_exact_ranks_on_planted_sets(kind):
    for seed in range(3):
        q_ids, q, t_ids, t, gold = _planted_set(kind, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = retrieval_eval(EmbeddingMatrix(q_ids, q), EmbeddingMatrix(t_ids, t), gold)
        assert out["ranks"] == _exact_ranks(q_ids, q.tolist(), t_ids, t.tolist(), gold)


def test_retrieval_probe_integer_twins():
    # integer-valued rows, 400 queries x 800 targets x 64: each gold is a
    # block-swapped twin of the target before it, so the two tie exactly;
    # float scores ranked 9 of the first 60 one too high
    rng = np.random.default_rng(0)
    nt, nq, dim, w = 800, 400, 64, 16
    t = rng.integers(-6, 7, size=(nt, dim)).astype(np.float64)
    t[1::2] = np.concatenate([t[::2, w : 2 * w], t[::2, :w], t[::2, 2 * w :]], axis=1)
    q = t[1 : 2 * nq : 2] + rng.integers(-3, 4, size=(nq, dim))
    q[:, w : 2 * w] = q[:, :w]
    t_ids = [f"t{i:03d}" for i in range(nt)]
    q_ids = [f"q{i:03d}" for i in range(nq)]
    gold = {qid: t_ids[2 * i + 1] for i, qid in enumerate(q_ids)}
    out = retrieval_eval(EmbeddingMatrix(q_ids, q), EmbeddingMatrix(t_ids, t), gold)
    checked = {qid: gold[qid] for qid in q_ids[:60]}
    assert out["ranks"][:60] == _exact_ranks(q_ids[:60], q[:60].tolist(), t_ids, t.tolist(), checked)


def test_retrieval_probe_binary_fingerprints():
    # 256-bit fingerprints at 8% density, 500 queries x 3,000 targets, golds
    # unrelated to their queries, so exact ties with the gold are common;
    # float scores ranked 10 queries wrongly, query 0 among them
    rng = np.random.default_rng(1)
    nt, nq, dim = 3000, 500, 256
    t = (rng.random((nt, dim)) < 0.08).astype(np.float64)
    golds = rng.permutation(nt)[:nq]
    q = (rng.random((nq, dim)) < 0.08).astype(np.float64)
    t_ids = [f"t{i:04d}" for i in range(nt)]
    q_ids = [f"q{i:03d}" for i in range(nq)]
    gold = {qid: t_ids[g] for qid, g in zip(q_ids, golds)}
    out = retrieval_eval(EmbeddingMatrix(q_ids, q), EmbeddingMatrix(t_ids, t), gold)
    checked = {qid: gold[qid] for qid in q_ids[:40]}
    assert out["ranks"][:40] == _exact_ranks(q_ids[:40], q[:40].tolist(), t_ids, t.tolist(), checked)


def test_retrieval_band_edge(monkeypatch):
    # the gold scores exactly 1; a target whose float score is more than 2δ
    # below it needs no exact comparison, and one inside 2δ needs one
    dim = 64
    delta = _score_error(dim)
    compared = []
    orders = predmetrics._exact_orders

    def counting(targets, q, rows, g):
        compared.extend(rows.tolist())
        return orders(targets, q, rows, g)

    monkeypatch.setattr(predmetrics, "_exact_orders", counting)
    axis = np.eye(dim)[0]

    def below_axis(gap):  # cosine with the axis close to 1 - gap
        row = np.array(axis)
        row[1] = math.sqrt(2 * gap)
        return row

    queries = EmbeddingMatrix(["q"], axis[None])
    for gap, calls in ((2.5 * delta, 0), (1.5 * delta, 1)):
        row = below_axis(gap)
        score = row[0] / np.linalg.norm(row)
        assert (1 - score > 2 * delta) == (calls == 0)
        compared.clear()
        targets = EmbeddingMatrix(["a", "gold"], np.stack([row, axis]))
        out = retrieval_eval(queries, targets, {"q": "gold"})
        assert len(compared) == calls
        want = _exact_ranks(["q"], [axis.tolist()], ["a", "gold"], targets.values.tolist(), {"q": "gold"})
        assert out["ranks"] == want == [1]
    # inside the band the other way round: the target is ahead of the gold
    compared.clear()
    targets = EmbeddingMatrix(["a", "gold"], np.stack([axis, below_axis(1.5 * delta)]))
    assert retrieval_eval(queries, targets, {"q": "gold"})["ranks"] == [2]
    assert len(compared) == 1


def _threads() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("Threads:"))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_retrieval_starts_no_blas_thread():
    # a forked child scores 10 queries against 1,000 x 256 targets, the
    # benchmark's shape, on its one thread
    read, write = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
        pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            rng = np.random.default_rng(3)
            targets = EmbeddingMatrix([f"t{i:04d}" for i in range(1000)], rng.standard_normal((1000, 256)))
            queries = EmbeddingMatrix([f"q{i}" for i in range(10)], rng.standard_normal((10, 256)))
            before = _threads()
            retrieval_eval(queries, targets, {f"q{i}": f"t{7 * i:04d}" for i in range(10)})
            os.write(write, f"{before} {_threads()}".encode())
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read) as pipe:
        got = pipe.read()
    os.waitpid(pid, 0)
    assert got == "1 1"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="OpenBLAS thread setting")
def test_retrieval_report_same_for_one_and_two_blas_threads(tmp_path):
    # 1,000 x 1,000 x 256, where float scores differed between thread counts
    rng = np.random.default_rng(11)
    t = rng.standard_normal((1000, 256)).astype(np.float32)
    golds = rng.permutation(1000)
    q = t[golds] + rng.standard_normal((1000, 256)).astype(np.float32) * np.float32(3.0)
    write_embeddings(tmp_path / "t.emb", EmbeddingMatrix([f"t{i:04d}" for i in range(1000)], t))
    write_embeddings(tmp_path / "q.emb", EmbeddingMatrix([f"q{i:04d}" for i in range(1000)], q))
    (tmp_path / "gold.jsonl").write_text(
        "".join(f'{{"query": "q{i:04d}", "target": "t{g:04d}"}}\n' for i, g in enumerate(golds))
    )
    reports = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads}
        subprocess.run(
            [sys.executable, "-m", "moleval.harness.cli", "eval", "retrieval", "--queries", "q.emb",
             "--targets", "t.emb", "--gold", "gold.jsonl", "--out", "report.json"],
            cwd=tmp_path, env=env, check=True, timeout=120,
        )
        reports.append((tmp_path / "report.json").read_bytes())
    assert reports[0] == reports[1]


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
    assert (queries.values.tobytes(), targets.values.tobytes()) == before
    assert not queries.values.flags.writeable and not targets.values.flags.writeable


def _emb1_files(tmp_path, n_queries, seed):
    """An EMB1 query and target file, 1,000 x 256 targets as in the
    benchmark's retrieval op, and gold pairs; read back with read_embeddings."""
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((1000, 256)).astype(np.float32)
    golds = rng.permutation(1000)[:n_queries]
    q = t[golds] + rng.standard_normal((n_queries, 256)).astype(np.float32)
    t_ids = [f"t{i:04d}" for i in range(1000)]
    q_ids = [f"q{i:02d}" for i in range(n_queries)]
    write_embeddings(tmp_path / "t.emb", EmbeddingMatrix(t_ids, t))
    write_embeddings(tmp_path / "q.emb", EmbeddingMatrix(q_ids, q))
    queries = read_embeddings(tmp_path / "q.emb")
    targets = read_embeddings(tmp_path / "t.emb")
    return queries, targets, {q_ids[i]: t_ids[g] for i, g in enumerate(golds)}, t


def test_retrieval_memory_bounded(tmp_path):
    # guards the benchmark's peak_rss_mb: 10 queries against 1,000 x 256 EMB1
    # targets hold one tile of unit rows at a time, never a float64 copy of
    # the whole target matrix (2 MB)
    queries, targets, gold, _ = _emb1_files(tmp_path, 10, 26)
    tracemalloc.start()
    try:
        retrieval_eval(queries, targets, gold)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_emb1_values_kept_as_read(tmp_path):
    queries, targets, gold, t = _emb1_files(tmp_path, 10, 27)
    out = retrieval_eval(queries, targets, gold)
    assert out["ranks"] == [1] * 10  # no band: each gold is well ahead
    values = targets.values
    assert values.dtype == np.float32 and values.flags.c_contiguous
    assert not values.flags.writeable
    assert values.tobytes() == t.tobytes()
    assert values.astype(np.float64).tobytes() == t.astype(np.float64).tobytes()


@pytest.mark.parametrize("n_queries", [10, 33], ids=["one-query-tile", "two-query-tiles"])
def test_retrieval_f32_values_match_exact_ranks(n_queries):
    # float32 storage, 300 x 256 targets in several column tiles; with 33
    # queries the second query tile reads the kept target tiles. Duplicates
    # tie as equal rows and block-swapped twins tie exactly, so both band
    # paths run on float32 values.
    rng = np.random.default_rng(2600 + n_queries)
    dim, w = 256, 64
    t = rng.standard_normal((300, dim)).astype(np.float16).astype(np.float32)
    t[150:200] = t[:50]
    t[200:250] = np.concatenate([t[:50, w : 2 * w], t[:50, :w], t[:50, 2 * w :]], axis=1)
    t[250] = 0.0
    golds = rng.choice(250, size=n_queries)
    q = t[golds] + rng.standard_normal((n_queries, dim)).astype(np.float16).astype(np.float32)
    q[:, w : 2 * w] = q[:, :w]
    q[1] = 0.0
    t_ids = [f"t{i:03d}" for i in range(300)]
    q_ids = [f"q{i:02d}" for i in range(n_queries)]
    gold = {q_ids[i]: t_ids[g] for i, g in enumerate(golds)}
    queries, targets = EmbeddingMatrix(q_ids, q), EmbeddingMatrix(t_ids, t)
    assert targets.values.dtype == np.float32
    out = retrieval_eval(queries, targets, gold)
    assert out["ranks"] == _exact_ranks(q_ids, q.tolist(), t_ids, t.tolist(), gold)
    assert targets.values.dtype == np.float32


def test_embedding_matrix_storage_and_validation():
    m = _matrix(["a", "b"], [[1, 2], [3, 4]])
    assert m.values.dtype == np.float64 and m.values.flags.c_contiguous
    assert m.values.shape == (2, 2) and m.dim == 2
    assert m.values[m.index("b")].tolist() == [3.0, 4.0]
    with pytest.raises(ValueError, match="read-only"):
        m.values[m.index("b")][0] = 0.0
    with pytest.raises(MissingId):
        m.index("c")
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
