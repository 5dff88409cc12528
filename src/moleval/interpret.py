"""Token mapping matrices and localized feature filtering.

The pipeline: count input/output token co-occurrences over inference
records, sort the matrix by row and column totals, flag cells that sit
T standard deviations above their local neighborhood, then judge the
flagged proportion against what a globally normal matrix would produce.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np


class TooFewTokens(ValueError):
    pass


class DegenerateMatrix(ValueError):
    pass


@dataclass
class MappingMatrix:
    counts: np.ndarray
    row_tokens: tuple[str, ...]
    col_tokens: tuple[str, ...]
    degraded: bool = False

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=float)
        n, m = self.counts.shape
        if n != len(self.row_tokens) or m != len(self.col_tokens):
            raise ValueError("token labels do not match matrix shape")
        if n < 2 or m < 2:
            raise TooFewTokens("mapping matrix needs at least 2 tokens per axis")
        for axis, tokens in (("row_tokens", self.row_tokens), ("col_tokens", self.col_tokens)):
            repeated = [token for token, seen in Counter(tokens).items() if seen > 1]
            if repeated:
                raise ValueError(f"repeated label {repeated[0]!r} in {axis}")
        if not np.all(np.isfinite(self.counts)) or np.any(self.counts < 0):
            raise ValueError("counts must be finite and non-negative")
        # the filter sums counts and their squares
        with np.errstate(over="ignore"):
            if not np.isfinite(np.square(self.counts).sum()):
                raise ValueError("counts too large: their squares sum past the float range")

    @property
    def row_sums(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def col_sums(self) -> np.ndarray:
        return self.counts.sum(axis=0)


@dataclass(frozen=True)
class FilterStats:
    threshold_T: float
    flags: np.ndarray
    p_actual: float
    p_expected: float
    z: float
    confidence: float
    global_mean: float
    global_std: float
    neighbor_means: np.ndarray
    neighbor_stds: np.ndarray


@dataclass(frozen=True)
class MappingPair:
    input_token: str
    output_token: str
    value: float
    group_key: str | None


@dataclass(frozen=True)
class SweepRow:
    threshold_T: float
    flag_count: int
    unique_pair_count: int
    z: float
    confidence: float


def build_mapping_matrix(
    pairs,
    top_k: int = 20,
    stoplist: frozenset[str] = frozenset(),
    count_mode: str = "presence",
) -> MappingMatrix:
    """Select the top_k most frequent tokens per axis (document frequency)
    and count co-occurrences. presence mode adds 1 per record containing
    both tokens; occurrence mode multiplies the two occurrence counts."""
    if not pairs:
        raise ValueError("no record pairs")
    if top_k < 2:
        raise ValueError("top_k must be at least 2")
    if count_mode not in ("presence", "occurrence"):
        raise ValueError(f"unknown count mode {count_mode!r}")

    def tally(seq) -> Counter:
        return Counter(t for t in getattr(seq, "tokens", seq) if t not in stoplist)

    records = [(tally(seq_in), tally(seq_out)) for seq_in, seq_out in pairs]
    degraded = False
    selected = []
    incidence = []
    for side, axis in zip(zip(*records), ("input", "output")):
        freq = Counter(t for counter in side for t in counter)
        if len(freq) < 2:
            raise TooFewTokens(f"fewer than 2 distinct {axis} tokens after filtering")
        if len(freq) < top_k:
            degraded = True
        ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
        selected.append(tuple(token for token, _ in ranked[:top_k]))
        incidence.append(_incidence(side, selected[-1], count_mode))
    # the product's sums are whole numbers far below 2**53, so float64
    # holds them exactly
    return MappingMatrix(incidence[0].T @ incidence[1], *selected, degraded=degraded)


def _incidence(side, tokens: tuple[str, ...], count_mode: str) -> np.ndarray:
    """records x tokens: 1 (presence) or the in-record count (occurrence)
    where a record holds a selected token, 0 elsewhere."""
    index = {t: k for k, t in enumerate(tokens)}
    matrix = np.zeros((len(side), len(tokens)))
    for r, counter in enumerate(side):
        for t, c in counter.items():
            k = index.get(t)
            if k is not None:
                matrix[r, k] = 1 if count_mode == "presence" else c
    return matrix


def sort_matrix(matrix: MappingMatrix) -> MappingMatrix:
    """Descending row/column totals; equal totals fall back to token order."""
    row_sums = matrix.row_sums
    col_sums = matrix.col_sums
    row_order = sorted(
        range(len(matrix.row_tokens)),
        key=lambda i: (-row_sums[i], matrix.row_tokens[i]),
    )
    col_order = sorted(
        range(len(matrix.col_tokens)),
        key=lambda j: (-col_sums[j], matrix.col_tokens[j]),
    )
    counts = matrix.counts[np.ix_(row_order, col_order)]
    return MappingMatrix(
        counts,
        tuple(matrix.row_tokens[i] for i in row_order),
        tuple(matrix.col_tokens[j] for j in col_order),
        degraded=matrix.degraded,
    )


def neighborhood_stats(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population standard deviation over the radius-1 Moore
    neighborhood of each cell, center excluded, truncated at borders."""
    a = np.asarray(counts, dtype=float)
    count = _neighbour_sum(np.ones_like(a))
    total = _neighbour_sum(a)
    total_sq = _neighbour_sum(a * a)
    means = total / count
    variances = np.maximum(total_sq / count - means * means, 0.0)
    return means, np.sqrt(variances)


def _neighbour_sum(x: np.ndarray) -> np.ndarray:
    """Sum of each cell's eight neighbours, zero beyond the borders, added
    row by row from the upper left."""
    n, m = x.shape
    padded = np.pad(x, 1)
    total = np.zeros((n, m))
    for di in range(3):
        for dj in range(3):
            if di != 1 or dj != 1:
                total += padded[di : n + di, dj : m + dj]
    return total


def normal_cdf(x: float) -> float:
    # Phi(x) = erfc(-x / sqrt(2)) / 2; the C library erfc keeps absolute
    # error near machine epsilon, far inside the 1e-7 budget
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _threshold(counts: np.ndarray, means: np.ndarray, stds: np.ndarray, T: float):
    """Cells above their neighborhood by T local deviations: the flags, the
    flagged share, and the share a globally normal matrix would flag at the
    same cutoffs (None when the counts have zero variance)."""
    # a huge T gives cutoffs past the float range: inf, which flags nothing
    # and which a globally normal matrix exceeds with probability 0
    with np.errstate(over="ignore"):
        cutoffs = means + T * stds
        flags = counts > cutoffs
        p_actual = float(flags.sum()) / counts.size
        sigma = float(counts.std())
        if sigma == 0.0:
            return flags, p_actual, None
        expected = 1.0 - np.vectorize(normal_cdf)((cutoffs - float(counts.mean())) / sigma)
    return flags, p_actual, float(expected.mean())


def _z_score(p_actual: float, p_expected: float, cells: int) -> float:
    spread = p_expected * (1.0 - p_expected) / cells
    if spread <= 0.0:
        if p_actual == p_expected:
            return 0.0
        return math.inf if p_actual > p_expected else -math.inf
    return (p_actual - p_expected) / math.sqrt(spread)


def local_filter(matrix: MappingMatrix, T: float) -> FilterStats:
    """Flag cells above their neighborhood by T local deviations, then
    compare the flagged share with the globally-normal expectation."""
    # a negated comparison also refuses NaN
    if not 0 <= T < math.inf:
        raise ValueError("T must be finite and non-negative")
    ordered = sort_matrix(matrix)
    counts = ordered.counts
    means, stds = neighborhood_stats(counts)
    flags, p_actual, p_expected = _threshold(counts, means, stds, T)
    if p_expected is None:
        raise DegenerateMatrix("matrix has zero variance")
    z = _z_score(p_actual, p_expected, counts.size)
    return FilterStats(
        threshold_T=float(T),
        flags=flags,
        p_actual=p_actual,
        p_expected=p_expected,
        z=z,
        confidence=normal_cdf(z),
        global_mean=float(counts.mean()),
        global_std=float(counts.std()),
        neighbor_means=means,
        neighbor_stds=stds,
    )


def sweep_threshold(matrix: MappingMatrix, t_grid: list[float]) -> list[SweepRow]:
    """One filter run per threshold over one set of neighborhood statistics.
    A zero-variance matrix still reports flag counts, with the z statistics
    marked NaN."""
    if not t_grid:
        raise ValueError("empty threshold grid")
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("threshold grid must be strictly increasing")
    ordered = sort_matrix(matrix)
    means, stds = neighborhood_stats(ordered.counts)
    rows = []
    for T in t_grid:
        flags, p_actual, p_expected = _threshold(ordered.counts, means, stds, T)
        z = math.nan if p_expected is None else _z_score(p_actual, p_expected, flags.size)
        unique = len(_flagged_pairs(ordered, flags))
        rows.append(SweepRow(float(T), int(flags.sum()), unique, z, normal_cdf(z)))
    return rows


def _flagged_pairs(ordered: MappingMatrix, flags: np.ndarray) -> list[tuple[str, str, float]]:
    """(input, output, count) per flagged cell, identical-name pairs dropped."""
    return [
        (ordered.row_tokens[i], ordered.col_tokens[j], float(ordered.counts[i, j]))
        for i, j in zip(*np.nonzero(flags))
        if ordered.row_tokens[i] != ordered.col_tokens[j]
    ]


def select_pairs(matrix: MappingMatrix, stats: FilterStats) -> list[MappingPair]:
    """Flagged cells as pairs, identical-name pairs dropped, grouped by
    shared input or output tokens. A group is keyed by its smallest token
    that occurs at least twice among its pairs' inputs and outputs."""
    ordered = sort_matrix(matrix)
    if stats.flags.shape != ordered.counts.shape:
        raise ValueError("stats were not produced from this matrix")
    raw = _flagged_pairs(ordered, stats.flags)

    # union-find over ("in", token) and ("out", token) nodes: a pair joins
    # its input node to its output node
    parent: dict[tuple[str, str], tuple[str, str]] = {}

    def find(node):
        parent.setdefault(node, node)
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for token_in, token_out, _ in raw:
        parent[find(("in", token_in))] = find(("out", token_out))

    tallies: dict = {}
    for token_in, token_out, _ in raw:
        tallies.setdefault(find(("in", token_in)), Counter()).update((token_in, token_out))
    keys = {
        root: min((t for t, c in tally.items() if c >= 2), default=None)
        for root, tally in tallies.items()
    }
    pairs = [
        MappingPair(token_in, token_out, value, keys[find(("in", token_in))])
        for token_in, token_out, value in raw
    ]
    pairs.sort(key=lambda p: (-p.value, p.input_token, p.output_token))
    return pairs
