"""Classification, regression, pooling, and retrieval metrics."""

from __future__ import annotations

import math
import operator
import statistics
from dataclasses import dataclass

import numpy as np

from .metrics import f_measure


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
    pos_rank_sum = math.fsum(r for r, y in zip(ranks, s.labels) if y == 1)
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def pr_auc(s: ScoredLabels) -> float:
    """Average precision: precision at each positive's rank, walking
    scores in descending order with stable input-order tie breaks."""
    n_pos = sum(s.labels)
    if n_pos == 0:
        raise DegenerateLabels(f"no positive labels, task {s.task_id!r}")
    order = sorted(range(len(s.scores)), key=lambda i: (-s.scores[i], i))
    ranks = [rank for rank, idx in enumerate(order, start=1) if s.labels[idx] == 1]
    return statistics.fmean(hits / rank for hits, rank in enumerate(ranks, start=1))


def _f1(task: ScoredLabels, threshold: float) -> float:
    preds = [1 if score >= threshold else 0 for score in task.scores]
    tp = sum(1 for y, p in zip(task.labels, preds) if y == 1 and p == 1)
    fp = sum(1 for y, p in zip(task.labels, preds) if y == 0 and p == 1)
    fn = sum(1 for y, p in zip(task.labels, preds) if y == 1 and p == 0)
    return f_measure(tp, tp + fp, tp + fn)


def f1_mean(tasks: list[ScoredLabels], threshold: float = 0.5) -> float:
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    if not tasks:
        raise EmptySequence("no tasks")
    return statistics.fmean(_f1(task, threshold) for task in tasks)


def mean(values: list[float]) -> float:
    """The arithmetic mean. statistics.fmean raises OverflowError where
    finite values sum past the float range; their mean is then taken
    exactly, and it is finite. The mean is infinite only where a value is."""
    try:
        return statistics.fmean(values)
    except OverflowError:
        return statistics.mean(values)


def root_mean_square(values: list[float], centre: float = 0.0) -> float:
    """sqrt(mean((v - centre)²)), as that formula gives it wherever its
    result is finite or a value is not. Where finite values deviate or
    square past the float range, they are first scaled by a power of two,
    so the result is finite wherever the true value is."""
    # d * d, as d ** 2 raises OverflowError where d * d is inf
    square = mean([(v - centre) * (v - centre) for v in values])
    if square < math.inf or not all(map(math.isfinite, [centre, *values])):
        return math.sqrt(square)
    _, exponent = math.frexp(max(map(abs, [centre, *values])))
    scaled = [math.ldexp(v, -exponent) - math.ldexp(centre, -exponent) for v in values]
    try:
        return math.ldexp(math.sqrt(mean([d * d for d in scaled])), exponent)
    except OverflowError:  # the root rounds past the largest float
        return math.inf


def regression_metrics(pred: list[float], truth: list[float]) -> dict[str, float]:
    if len(pred) != len(truth):
        raise LengthMismatch("prediction and truth lengths differ")
    if not pred:
        raise EmptySequence("no values")
    diffs = [p - t for p, t in zip(pred, truth)]
    return {
        "mse": mean([d * d for d in diffs]),
        "rmse": root_mean_square(diffs),
        "mae": mean([abs(d) for d in diffs]),
    }


def pool(seq: list[list[float]], mode: str) -> list[float]:
    if not seq:
        raise EmptySequence("cannot pool an empty sequence")
    dim = len(seq[0])
    if any(len(v) != dim for v in seq):
        raise DimMismatch("vectors differ in dimension")
    if mode == "avg":
        return [mean([v[k] for v in seq]) for k in range(dim)]
    if mode == "max":
        return [max(v[k] for v in seq) for k in range(dim)]
    raise ValueError(f"unknown pooling mode {mode!r}")


class EmbeddingMatrix:
    """Embedding rows keyed by id. Accepts an array or nested sequences of
    equal length; values must be finite.

    `values` is the (n, dim) array of the rows as given, read-only and
    C-contiguous: a float32 array (an EMB1 file's block as read) stays
    float32, 4 bytes a value, and anything else is held as float64."""

    __slots__ = ("ids", "values", "_rows")

    def __init__(self, ids, vectors):
        ids = tuple(ids)
        if len(ids) != len(vectors):
            raise LengthMismatch("ids and vectors differ in length")
        rows = {item_id: i for i, item_id in enumerate(ids)}
        if len(rows) != len(ids):
            raise ValueError("ids must be unique")
        if not isinstance(vectors, np.ndarray) and len({len(v) for v in vectors}) > 1:
            raise DimMismatch("rows differ in dimension")
        if isinstance(vectors, np.ndarray) and vectors.dtype == np.float32:
            array = np.ascontiguousarray(vectors)
        else:
            array = np.ascontiguousarray(vectors, dtype=np.float64)
        if not ids:
            array = array.reshape(0, 0)
        elif array.ndim != 2:
            raise DimMismatch("vectors must form an (n, dim) matrix")
        elif array.shape[1] < 1:
            raise DimMismatch("dimension must be at least 1")
        # a row of finite values can sum past the float range (float64
        # values only), so only a row whose sum is not finite is read value
        # by value
        with np.errstate(over="ignore", invalid="ignore"):
            suspect = np.flatnonzero(~np.isfinite(array.sum(axis=1, dtype=np.float64)))
        bad = suspect[~np.isfinite(array[suspect]).all(axis=1)]
        if bad.size:
            raise ValueError(f"non-finite value in row {ids[bad[0]]!r}")
        self.ids = ids
        # a read-only view, as the array may be the caller's own
        self.values = array.view()
        self.values.flags.writeable = False
        self._rows = rows

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def __contains__(self, item_id) -> bool:
        return item_id in self._rows

    def index(self, item_id: str) -> int:
        try:
            return self._rows[item_id]
        except KeyError:
            raise MissingId(f"id {item_id!r} not present") from None


# OpenBLAS runs a product of at most 65536 * 4 = 2**18 multiply-adds on the
# calling thread (interface/gemm.c: SMP_THRESHOLD_MIN times
# GEMM_MULTITHREAD_THRESHOLD). Scores are computed in tiles of that size, so
# retrieval never starts a BLAS worker thread, which spins after each call.
_TILE_MACS = 2**18
# query rows per tile; the target columns fill the rest of the budget
_TILE_ROWS = 32
# a row whose float sum of squares is below this is first scaled by a power
# of two, so that squares which underflow cannot move the sum by a rounding
_MIN_SQUARES = 2.0**-500


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    """Scales the rows of a fresh array to unit length in place and returns
    it; zero rows stay zero and so score 0. A row whose sum of squares
    overflows or underflows is first scaled by a power of two (exactly), so
    that its largest magnitude lies in [0.5, 1)."""
    with np.errstate(over="ignore"):
        squares = np.einsum("ij,ij->i", vectors, vectors)
    odd = np.flatnonzero(~(squares < np.inf) | (squares < _MIN_SQUARES))
    if odd.size:
        _, exponent = np.frexp(np.abs(vectors[odd]).max(axis=1))
        vectors[odd] = np.ldexp(vectors[odd], -exponent[:, None])
        squares[odd] = np.einsum("ij,ij->i", vectors[odd], vectors[odd])
    norms = np.sqrt(squares)
    norms[norms == 0.0] = 1.0
    vectors /= norms[:, None]
    return vectors


def _score_error(dim: int) -> float:
    """A bound δ on |s - cos(x, y)|, where s is the float score of two rows
    of length `dim` (unit rows from `_unit_rows`, then their float product),
    whatever the summation order, blocking or FMA use of the BLAS kernel.

    With u = 2**-53 and γ_n = n·u / (1 - n·u) (Higham, "Accuracy and
    Stability of Numerical Algorithms", 2nd ed., §3.1):
    - fl(Σ x_i²) = Σ x_i² · (1 + θ) with |θ| ≤ γ_d, since every term is
      nonnegative; the square root halves θ and adds one rounding, the
      division one more, so each unit value is x̂_i = x_i/‖x‖ · (1 + α_i)
      with |α_i| ≤ γ_{d+2} (Lemma 3.3).
    - The product obeys |fl(x̂·ŷ) - x̂·ŷ| ≤ γ_d Σ|x̂_i ŷ_i| ≤ γ_d (1 + γ_{d+2})²
      by Cauchy-Schwarz, and |x̂·ŷ - cos(x, y)| ≤ Σ|x_i y_i|/(‖x‖‖y‖) ·
      (2γ_{d+2} + γ_{d+2}²) ≤ 2γ_{d+2} + γ_{d+2}².
    - With γ = γ_{d+2}, the two sum to at most 3γ + 3γ² + γ³, which is below
      4γ by more than γ/2 while γ ≤ 0.1. That margin exceeds the absolute
      errors of values that underflow (each at most 2**-1074, a few per
      element): `_unit_rows` keeps every scaled row's sum of squares at or
      above 2**-500, so those stay far below one rounding.
    So δ = 4γ_{d+2}, and two scores more than 2δ apart (a float difference,
    whose rounding the same margin covers) order their exact cosines the
    same way."""
    n = (dim + 2) * 2.0**-53
    return 4 * n / (1 - n)


def _integer_form(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digits, shifts): each value of a row is digits << shifts (>> where
    negative, which drops only zero bits) times one power of two for the
    whole row, chosen to make these integers the smallest."""
    mantissa, exponent = np.frexp(rows)
    digits = (mantissa * 2.0**53).astype(np.int64)
    _, low_bit = np.frexp((digits & -digits).astype(np.float64))
    lowest = np.where(digits != 0, exponent + low_bit, np.iinfo(np.int32).max)
    row_low = lowest.min(axis=-1, keepdims=True)
    return digits, exponent - np.where(digits.any(axis=-1, keepdims=True), row_low, 0) + 1


def _python_integers(digits: np.ndarray, shifts: np.ndarray) -> list[int]:
    """The integers of `_integer_form` as Python ints, which never overflow."""
    return [d << s if s >= 0 else d >> -s for d, s in zip(digits.tolist(), shifts.tolist())]


def _exact_orders(targets: np.ndarray, q: np.ndarray, rows: np.ndarray, g: int) -> np.ndarray:
    """The sign of cos(q, t) - cos(q, g), on exact values, for the nonzero
    row q, each row t of `targets` named in `rows` and the row g. cos(q, t)
    has the sign of q·t, and two cosines of one nonzero sign compare as
    (q·t)²·|g|² against (q·g)²·|t|²; a zero row has cosine 0.

    Rows are taken as integers, each row times one power of two, which
    cancels in the comparison; only the rows named are widened. A product of
    integer rows whose terms sum to under 2**52 in magnitude is exact in
    float64 in any order; one that may not be is summed in Python integers
    instead."""
    q_digits, q_shifts = _integer_form(np.asarray(q, dtype=np.float64))
    members = np.append(rows, g)
    digits, shifts = _integer_form(targets[members].astype(np.float64))
    with np.errstate(over="ignore", invalid="ignore"):
        q_ints = np.ldexp(q_digits.astype(np.float64), q_shifts)
        ints = np.ldexp(digits.astype(np.float64), shifts)
        norms = np.einsum("ij,ij->i", ints, ints)
        dots = np.einsum("ij,j->i", ints, q_ints)
        terms = np.einsum("ij,j->i", np.abs(ints), np.abs(q_ints))
        fits = (terms < 2.0**52) & (norms < 2.0**52)
    dots = np.where(fits, dots, 0.0).astype(np.int64).astype(object)
    norms = np.where(fits, norms, 0.0).astype(np.int64).astype(object)
    if not fits.all():
        q_py = _python_integers(q_digits, q_shifts)
        for k in np.flatnonzero(~fits).tolist():
            t_py = _python_integers(digits[k], shifts[k])
            dots[k] = sum(map(operator.mul, q_py, t_py))
            norms[k] = sum(map(operator.mul, t_py, t_py))
    qt, qg = dots[:-1], dots[-1]
    sign = (qt > 0).astype(int) - (qt < 0).astype(int)
    other = (qg > 0) - (qg < 0)
    lhs, rhs = qt * qt * norms[-1], qg * qg * norms[:-1]
    by_size = sign * ((lhs > rhs).astype(int) - (lhs < rhs).astype(int))
    return np.where((sign != other) | (sign == 0), sign - other, by_size)


def retrieval_eval(
    queries: EmbeddingMatrix,
    targets: EmbeddingMatrix,
    gold: dict[str, str],
    ks: list[int] = (1, 5, 10),
) -> dict:
    """Cosine-ranked retrieval. A gold target's rank is 1 + the targets
    whose cosine is higher + the targets with an equal cosine and a smaller
    id, on the exact cosines of the values (float32 ones widened exactly);
    a zero row has cosine 0 with every row.

    Float scores only filter: a target scoring more than 2δ
    (`_score_error`) above or below the gold is ahead or behind. Within
    that band, a row equal to the gold's (-0.0 read as 0.0) ties, and any
    other row is compared exactly (`_exact_orders`)."""
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
    q_rows = np.array([queries.index(q) for q, _ in pairs], dtype=np.intp)
    gold_rows = np.array([targets.index(t) for _, t in pairs], dtype=np.intp)
    n_targets = len(targets.ids)
    id_rank = np.empty(n_targets, dtype=np.intp)
    id_rank[sorted(range(n_targets), key=targets.ids.__getitem__)] = np.arange(n_targets)
    band = 2 * _score_error(targets.dim)
    tile_rows = max(1, min(_TILE_ROWS, len(pairs), _TILE_MACS // targets.dim))
    tile_cols = max(1, _TILE_MACS // (tile_rows * targets.dim))
    # each target tile's unit rows, kept while a later query tile reads them
    t_units = [None] * -(-n_targets // tile_cols)
    block_scores = np.empty((tile_rows, n_targets))
    ranks: list[int] = []
    for start in range(0, len(pairs), tile_rows):
        last = start + tile_rows >= len(pairs)
        # rows taken by index are a fresh array, which _unit_rows may scale
        tile_q_rows = q_rows[start : start + tile_rows]
        q_block = _unit_rows(queries.values[tile_q_rows].astype(np.float64, copy=False))
        scores = block_scores[: len(q_block)]
        for tile, col in enumerate(range(0, n_targets, tile_cols)):
            t_unit = t_units[tile]
            if t_unit is None:
                t_unit = _unit_rows(targets.values[col : col + tile_cols].astype(np.float64))
            t_units[tile] = None if last else t_unit
            scores[:, col : col + tile_cols] = q_block @ t_unit.T
        cols = gold_rows[start : start + tile_rows]
        gap = scores - scores[np.arange(len(cols)), cols][:, None]
        ahead = (gap > band).sum(axis=1)
        near = np.abs(gap, out=gap) <= band
        # a zero query ties every target, so its rank follows target ids
        zero = ~q_block.any(axis=1)
        ahead[zero] = id_rank[cols[zero]]
        near[zero] = False
        for i in np.flatnonzero(near.sum(axis=1) > 1).tolist():
            g = cols[i]
            band_rows = np.flatnonzero(near[i])
            smaller_id = id_rank[band_rows] < id_rank[g]
            equal = (targets.values[band_rows] == targets.values[g]).all(axis=1)
            ahead[i] += (equal & smaller_id).sum()
            if not equal.all():
                q = queries.values[tile_q_rows[i]]
                orders = _exact_orders(targets.values, q, band_rows[~equal], g)
                ahead[i] += ((orders > 0) | ((orders == 0) & smaller_id[~equal])).sum()
        ranks.extend((1 + ahead).tolist())
    mrr = statistics.fmean(1.0 / r for r in ranks)
    recall_at = {k: sum(1 for r in ranks if r <= k) / len(ranks) for k in ks}
    return {"mrr": mrr, "recall_at": recall_at, "ranks": ranks}
