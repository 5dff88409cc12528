"""Classification, regression, pooling, and retrieval metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DegenerateLabels(ValueError):
    pass


class LengthMismatch(ValueError):
    pass


class EmptySequence(ValueError):
    pass


class DimMismatch(ValueError):
    pass


class MissingId(ValueError):
    pass


@dataclass(frozen=True)
class ScoredLabels:
    labels: tuple[int, ...]
    scores: tuple[float, ...]
    task_id: str = ""

    def __post_init__(self):
        if len(self.labels) != len(self.scores):
            raise LengthMismatch("labels and scores differ in length")
        if not self.labels:
            raise EmptySequence("no labelled scores")
        if any(y not in (0, 1) for y in self.labels):
            raise ValueError("labels must be 0 or 1")


def roc_auc(s: ScoredLabels) -> float:
    """Probability that a random positive outranks a random negative,
    with 0.5 credit for score ties. Computed from average ranks."""
    n_pos = sum(s.labels)
    n_neg = len(s.labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels(f"need both classes, task {s.task_id!r}")
    order = sorted(range(len(s.scores)), key=lambda i: s.scores[i])
    ranks = [0.0] * len(s.scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and s.scores[order[j + 1]] == s.scores[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1  # 1-based average rank of the tie block
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    pos_rank_sum = sum(r for r, y in zip(ranks, s.labels) if y == 1)
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def pr_auc(s: ScoredLabels) -> float:
    """Average precision: precision at each positive's rank, walking
    scores in descending order with stable input-order tie breaks."""
    n_pos = sum(s.labels)
    if n_pos == 0:
        raise DegenerateLabels(f"no positive labels, task {s.task_id!r}")
    order = sorted(range(len(s.scores)), key=lambda i: (-s.scores[i], i))
    hits = 0
    acc = 0.0
    for rank, idx in enumerate(order, start=1):
        if s.labels[idx] == 1:
            hits += 1
            acc += hits / rank
    return acc / n_pos


def f1_mean(tasks: list[ScoredLabels], threshold: float = 0.5) -> float:
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    if not tasks:
        raise EmptySequence("no tasks")
    total = 0.0
    for task in tasks:
        preds = [1 if score >= threshold else 0 for score in task.scores]
        tp = sum(1 for y, p in zip(task.labels, preds) if y == 1 and p == 1)
        fp = sum(1 for y, p in zip(task.labels, preds) if y == 0 and p == 1)
        fn = sum(1 for y, p in zip(task.labels, preds) if y == 1 and p == 0)
        if tp == 0:
            continue  # no predicted or no true positives scores 0
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        total += 2 * precision * recall / (precision + recall)
    return total / len(tasks)


def regression_metrics(pred: list[float], truth: list[float]) -> dict[str, float]:
    if len(pred) != len(truth):
        raise LengthMismatch("prediction and truth lengths differ")
    if not pred:
        raise EmptySequence("no values")
    sq = [(p - t) ** 2 for p, t in zip(pred, truth)]
    ab = [abs(p - t) for p, t in zip(pred, truth)]
    mse = sum(sq) / len(sq)
    return {"mse": mse, "rmse": math.sqrt(mse), "mae": sum(ab) / len(ab)}


def pool(seq: list[list[float]], mode: str) -> list[float]:
    if not seq:
        raise EmptySequence("cannot pool an empty sequence")
    dim = len(seq[0])
    if any(len(v) != dim for v in seq):
        raise DimMismatch("vectors differ in dimension")
    if mode == "avg":
        return [sum(v[k] for v in seq) / len(seq) for k in range(dim)]
    if mode == "max":
        return [max(v[k] for v in seq) for k in range(dim)]
    raise ValueError(f"unknown pooling mode {mode!r}")


class EmbeddingMatrix:
    """Embedding rows keyed by id, held as one read-only C-contiguous
    (n, dim) float64 array. Accepts an array or nested sequences of equal
    length; values must be finite."""

    __slots__ = ("ids", "vectors", "_rows")

    def __init__(self, ids, vectors):
        ids = tuple(ids)
        if len(ids) != len(vectors):
            raise LengthMismatch("ids and vectors differ in length")
        rows = {item_id: i for i, item_id in enumerate(ids)}
        if len(rows) != len(ids):
            raise ValueError("ids must be unique")
        if not isinstance(vectors, np.ndarray) and len({len(v) for v in vectors}) > 1:
            raise DimMismatch("rows differ in dimension")
        array = np.ascontiguousarray(vectors, dtype=np.float64)
        if not ids:
            array = array.reshape(0, 0)
        elif array.ndim != 2:
            raise DimMismatch("vectors must form an (n, dim) matrix")
        elif array.shape[1] < 1:
            raise DimMismatch("dimension must be at least 1")
        finite = np.isfinite(array).all(axis=1)
        if not finite.all():
            raise ValueError(f"non-finite value in row {ids[int(np.argmin(finite))]!r}")
        self.ids = ids
        # a read-only view: row() hands out slices of it, and the array may
        # be the caller's own
        self.vectors = array.view()
        self.vectors.flags.writeable = False
        self._rows = rows

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __contains__(self, item_id) -> bool:
        return item_id in self._rows

    def index(self, item_id: str) -> int:
        try:
            return self._rows[item_id]
        except KeyError:
            raise MissingId(f"id {item_id!r} not present") from None

    def row(self, item_id: str) -> np.ndarray:
        return self.vectors[self.index(item_id)]


# query rows scored per matrix product; bounds the score block at
# _QUERY_BLOCK x n_targets float64 values
_QUERY_BLOCK = 256


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    """Scales the rows of a fresh array to unit length in place and returns
    it; zero rows stay zero and so score 0."""
    norms = np.sqrt(np.einsum("ij,ij->i", vectors, vectors))[:, None]
    norms[norms == 0.0] = 1.0
    vectors /= norms
    return vectors


def _distinct_rows(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first row of each distinct value, row -> distinct index), comparing
    rows by their bytes after folding -0.0 into 0.0. Equal rows have equal
    sums (up to the sign of zero), so only rows whose sum is shared or not
    finite are compared by bytes."""
    with np.errstate(over="ignore", invalid="ignore"):
        sums = vectors.sum(axis=1) + 0.0
    _, slot, counts = np.unique(sums, return_inverse=True, return_counts=True)
    suspects = np.flatnonzero((counts[slot] > 1) | ~np.isfinite(sums))
    folded = vectors[suspects] + 0.0
    keys = folded.view(np.dtype((np.void, vectors.shape[1] * 8))).ravel().tolist()
    first_of: dict[bytes, int] = {}
    first = np.arange(len(vectors))
    first[suspects] = [first_of.setdefault(k, i) for k, i in zip(keys, suspects.tolist())]
    firsts = np.flatnonzero(first == np.arange(len(vectors)))
    return firsts, np.searchsorted(firsts, first)


def retrieval_eval(
    queries: EmbeddingMatrix,
    targets: EmbeddingMatrix,
    gold: dict[str, str],
    ks: list[int] = (1, 5, 10),
) -> dict:
    """Cosine-ranked retrieval. A gold target's rank is 1 + the targets
    scoring higher + the targets scoring equal with a smaller id."""
    if queries.dim != targets.dim:
        raise DimMismatch(f"query dim {queries.dim} vs target dim {targets.dim}")
    if not gold:
        raise EmptySequence("no gold annotations")
    for qid, tid in gold.items():
        if qid not in queries:
            raise MissingId(f"query id {qid!r} not present")
        if tid not in targets:
            raise MissingId(f"target id {tid!r} not present")
    pairs = sorted(gold.items())
    q_unit = _unit_rows(queries.vectors[[queries.index(q) for q, _ in pairs]])
    gold_rows = np.array([targets.index(t) for _, t in pairs], dtype=np.intp)
    # Equal rows must tie exactly, and BLAS may round the same row
    # differently at different tile positions: score each distinct row
    # once and copy its score to the duplicates.
    firsts, inverse = _distinct_rows(targets.vectors)
    t_unit_t = _unit_rows(targets.vectors[firsts]).T
    n_targets = len(targets.ids)
    id_rank = np.empty(n_targets, dtype=np.intp)
    id_rank[sorted(range(n_targets), key=targets.ids.__getitem__)] = np.arange(n_targets)
    ranks: list[int] = []
    for start in range(0, len(pairs), _QUERY_BLOCK):
        block = slice(start, start + _QUERY_BLOCK)
        scores = (q_unit[block] @ t_unit_t)[:, inverse]
        cols = gold_rows[block]
        gold_scores = scores[np.arange(len(cols)), cols][:, None]
        ahead = (scores > gold_scores) | (
            (scores == gold_scores) & (id_rank < id_rank[cols][:, None])
        )
        ranks.extend((1 + ahead.sum(axis=1)).tolist())
    mrr = sum(1.0 / r for r in ranks) / len(ranks)
    recall_at = {k: sum(1 for r in ranks if r <= k) / len(ranks) for k in ks}
    return {"mrr": mrr, "recall_at": recall_at, "ranks": ranks}
