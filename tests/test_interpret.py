import dataclasses
import math
import warnings

import numpy as np
import pytest

from _oracles import mapping_counts_reference, pair_groups_reference
from moleval.interpret import (
    DegenerateMatrix,
    MappingMatrix,
    TooFewTokens,
    _z_score,
    build_mapping_matrix,
    local_filter,
    neighborhood_stats,
    normal_cdf,
    select_pairs,
    sort_matrix,
    sweep_threshold,
)

EXAMPLE = np.array([[1.0, 2.0, 3.0], [4.0, 10.0, 6.0], [7.0, 8.0, 9.0]])


def test_neighborhood_center_cell():
    means, stds = neighborhood_stats(EXAMPLE)
    assert means[1, 1] == pytest.approx(5.0, abs=1e-12)
    assert stds[1, 1] == pytest.approx(math.sqrt(7.5), abs=1e-9)
    assert stds[1, 1] == pytest.approx(2.7386, abs=1e-4)


def test_neighborhood_corner_and_edge():
    means, stds = neighborhood_stats(EXAMPLE)
    # corner (0, 0) has 3 neighbors: 2, 4, 10
    assert means[0, 0] == pytest.approx(16.0 / 3.0)
    expected_var = (4 + 16 + 100) / 3.0 - (16.0 / 3.0) ** 2
    assert stds[0, 0] == pytest.approx(math.sqrt(expected_var))
    # edge (0, 1) has 5 neighbors: 1, 3, 4, 10, 6
    assert means[0, 1] == pytest.approx(24.0 / 5.0)


def test_example_cell_flagging():
    means, stds = neighborhood_stats(EXAMPLE)
    assert EXAMPLE[1, 1] > means[1, 1] + 1.0 * stds[1, 1]
    assert not EXAMPLE[1, 1] > means[1, 1] + 2.0 * stds[1, 1]


def test_z_score_worked_example():
    assert _z_score(0.05, 0.03, 400) == pytest.approx(2.345, abs=1e-3)


def test_normal_cdf_anchors():
    assert 0.99661 <= normal_cdf(2.758) <= 0.99761
    assert 0.99287 <= normal_cdf(2.476) <= 0.99387
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-12)


def test_normal_cdf_symmetry_and_monotonicity():
    for x in (0.1, 0.5, 1.0, 2.3, 4.0, 7.5):
        assert normal_cdf(-x) == pytest.approx(1.0 - normal_cdf(x), abs=1e-12)
    xs = [-6 + 0.5 * i for i in range(25)]
    values = [normal_cdf(x) for x in xs]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


def _matrix(counts, rows=None, cols=None):
    counts = np.asarray(counts, dtype=float)
    n, m = counts.shape
    rows = rows or tuple(f"r{i}" for i in range(n))
    cols = cols or tuple(f"c{j}" for j in range(m))
    return MappingMatrix(counts, tuple(rows), tuple(cols))


def test_sort_matrix_orders_by_sums():
    m = _matrix([[1, 2, 3], [4, 10, 6], [7, 8, 9]], rows=("a", "b", "c"), cols=("x", "y", "z"))
    s = sort_matrix(m)
    assert s.row_tokens == ("c", "b", "a")
    assert s.col_tokens == ("y", "z", "x")
    assert s.counts[0].tolist() == [8.0, 9.0, 7.0]
    # idempotent
    again = sort_matrix(s)
    assert again.row_tokens == s.row_tokens
    assert np.array_equal(again.counts, s.counts)


def test_sort_matrix_tie_breaks_on_token():
    m = _matrix([[1, 1], [1, 1]], rows=("zeta", "alpha"), cols=("n", "m"))
    s = sort_matrix(m)
    assert s.row_tokens == ("alpha", "zeta")
    assert s.col_tokens == ("m", "n")


def test_mapping_matrix_validation():
    with pytest.raises(ValueError):
        MappingMatrix(np.zeros((2, 3)), ("a", "b"), ("x", "y"))
    with pytest.raises(TooFewTokens):
        MappingMatrix(np.zeros((1, 3)), ("a",), ("x", "y", "z"))
    with pytest.raises(ValueError):
        MappingMatrix(np.array([[1.0, -1.0], [0.0, 0.0]]), ("a", "b"), ("x", "y"))
    with pytest.raises(ValueError):
        MappingMatrix(np.array([[1.0, math.nan], [0.0, 0.0]]), ("a", "b"), ("x", "y"))


def test_build_presence_counts():
    pairs = [
        (["acid", "strong"], ["box", "lic"]),
        (["acid"], ["box", "box"]),
        (["salt", "strong"], ["lic"]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m = build_mapping_matrix(pairs)
    assert m.degraded
    assert m.row_tokens == ("acid", "strong", "salt")
    assert m.col_tokens == ("box", "lic")
    idx_r = {t: i for i, t in enumerate(m.row_tokens)}
    idx_c = {t: j for j, t in enumerate(m.col_tokens)}
    assert m.counts[idx_r["acid"], idx_c["box"]] == 2  # repeat in one record counts once
    assert m.counts[idx_r["acid"], idx_c["lic"]] == 1
    assert m.counts[idx_r["strong"], idx_c["lic"]] == 2
    assert m.counts[idx_r["salt"], idx_c["box"]] == 0


def test_build_occurrence_counts():
    pairs = [
        (["acid", "strong"], ["box", "lic"]),
        (["acid"], ["box", "box"]),
        (["salt", "strong"], ["lic"]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m = build_mapping_matrix(pairs, count_mode="occurrence")
    idx_r = {t: i for i, t in enumerate(m.row_tokens)}
    idx_c = {t: j for j, t in enumerate(m.col_tokens)}
    assert m.counts[idx_r["acid"], idx_c["box"]] == 3  # 1*1 + 1*2


def test_build_top_k_selection():
    pairs = []
    for _ in range(5):
        pairs.append((["a", "b", "c"], ["x", "y"]))
    for _ in range(3):
        pairs.append((["a", "d"], ["x", "z"]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m = build_mapping_matrix(pairs, top_k=2)
    assert m.row_tokens == ("a", "b")  # a:8, then b/c/d tie broken by token, b:5 c:5 d:3
    assert m.col_tokens == ("x", "y")


def test_build_degrade_flags_without_warning():
    pairs = [(["a", "b"], ["x", "y"])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = build_mapping_matrix(pairs, top_k=20)
    assert m.degraded
    assert len(m.row_tokens) == 2


def test_build_stoplist_and_too_few():
    pairs = [(["a", "b", "the"], ["x", "y"]), (["a", "the"], ["x"])]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m = build_mapping_matrix(pairs, stoplist=frozenset({"the"}))
    assert "the" not in m.row_tokens
    with pytest.raises(TooFewTokens), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        build_mapping_matrix(pairs, stoplist=frozenset({"x", "y"}))
    with pytest.raises(ValueError):
        build_mapping_matrix([])


def test_build_accepts_token_seq():
    from moleval.textmetrics import tokenize

    pairs = [
        (tokenize("acid base", "whitespace"), tokenize("box lic", "whitespace")),
        (tokenize("acid salt", "whitespace"), tokenize("box", "whitespace")),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m = build_mapping_matrix(pairs)
    assert "acid" in m.row_tokens and "box" in m.col_tokens


def test_local_filter_example_spike():
    # already-sorted layout with a bump off the monotone trend
    counts = np.array(
        [
            [9.0, 8.0, 7.0, 6.0],
            [8.0, 30.0, 6.0, 5.0],
            [7.0, 6.0, 5.0, 4.0],
            [6.0, 5.0, 4.0, 3.0],
        ]
    )
    m = _matrix(counts)
    stats = local_filter(m, 2.0)
    ordered = sort_matrix(m)
    i = ordered.row_tokens.index("r1")
    j = ordered.col_tokens.index("c1")
    assert stats.flags[i, j]
    assert stats.p_actual == pytest.approx(stats.flags.sum() / counts.size)
    assert 0.0 <= stats.p_expected <= 1.0
    assert stats.confidence == pytest.approx(normal_cdf(stats.z))


def test_local_filter_degenerate():
    m = _matrix(np.full((4, 4), 3.0))
    with pytest.raises(DegenerateMatrix):
        local_filter(m, 1.0)


def test_local_filter_rejects_negative_threshold():
    m = _matrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        local_filter(m, -0.5)


def test_scale_invariance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        counts = rng.lognormal(0.0, 2.0, size=(10, 12))
        m = _matrix(counts)
        base = {T: local_filter(m, T).flags for T in (0.5, 1.0, 2.0, 3.5)}
        for c in (0.5, 3.7, 100.0):
            scaled = _matrix(counts * c)
            for T, flags in base.items():
                assert np.array_equal(local_filter(scaled, T).flags, flags)


def test_sweep_monotone_and_valid():
    rng = np.random.default_rng(11)
    m = _matrix(rng.lognormal(0.0, 2.0, size=(15, 15)))
    grid = [0.25 * k for k in range(1, 25)]
    rows = sweep_threshold(m, grid)
    assert [r.threshold_T for r in rows] == grid
    flag_counts = [r.flag_count for r in rows]
    assert all(b <= a for a, b in zip(flag_counts, flag_counts[1:]))
    assert all(r.unique_pair_count <= r.flag_count for r in rows)


def test_sweep_grid_validation():
    m = _matrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        sweep_threshold(m, [])
    with pytest.raises(ValueError):
        sweep_threshold(m, [1.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        sweep_threshold(m, [2.0, 1.0])


def test_sweep_degenerate_matrix_reports_counts():
    m = _matrix(np.full((4, 4), 3.0))
    rows = sweep_threshold(m, [0.5, 1.0])
    for row in rows:
        assert row.flag_count == 0
        assert math.isnan(row.z)
        assert math.isnan(row.confidence)


def test_sorting_tendency_smooths_adjacency():
    # heavy-tailed counts: sorting by totals should usually reduce the
    # mean absolute difference between adjacent cells
    rng = np.random.default_rng(3)

    def adjacency(a):
        v = np.abs(np.diff(a, axis=0)).sum()
        h = np.abs(np.diff(a, axis=1)).sum()
        n_pairs = np.diff(a, axis=0).size + np.diff(a, axis=1).size
        return (v + h) / n_pairs

    wins = 0
    trials = 60
    for _ in range(trials):
        counts = rng.lognormal(0.0, 2.5, size=(20, 20))
        m = _matrix(counts)
        if adjacency(sort_matrix(m).counts) <= adjacency(counts):
            wins += 1
    assert wins / trials >= 0.9


def test_select_pairs_consolidation():
    counts = np.array([[9.0, 8.0, 1.0], [1.0, 1.0, 1.0]])
    m = _matrix(counts, rows=("acid", "base"), cols=("box", "lic", "acid"))
    ordered = sort_matrix(m)
    assert ordered.row_tokens == ("acid", "base")
    assert ordered.col_tokens == ("box", "lic", "acid")
    flags = np.array(
        [
            [True, True, True],  # (acid, acid) must be dropped
            [False, False, True],  # (base, acid) is a singleton
        ]
    )
    stats = local_filter(m, 0.0)
    stats = type(stats)(
        threshold_T=0.0,
        flags=flags,
        p_actual=0.0,
        p_expected=0.5,
        z=0.0,
        confidence=0.5,
        global_mean=0.0,
        global_std=1.0,
        neighbor_means=stats.neighbor_means,
        neighbor_stds=stats.neighbor_stds,
    )
    pairs = select_pairs(m, stats)
    assert [(p.input_token, p.output_token) for p in pairs] == [
        ("acid", "box"),
        ("acid", "lic"),
        ("base", "acid"),
    ]
    assert pairs[0].group_key == "acid"
    assert pairs[1].group_key == "acid"
    assert pairs[2].group_key is None
    assert pairs[0].value == 9.0


def test_select_pairs_chained_groups():
    counts = np.array([[9.0, 0.0], [8.0, 7.0]])
    m = _matrix(counts, rows=("a", "b"), cols=("x", "y"))
    ordered = sort_matrix(m)
    assert ordered.row_tokens == ("b", "a")
    flags = np.array([[True, True], [True, False]])
    stats = local_filter(m, 0.0)
    stats = type(stats)(
        threshold_T=0.0,
        flags=flags,
        p_actual=0.0,
        p_expected=0.5,
        z=0.0,
        confidence=0.5,
        global_mean=0.0,
        global_std=1.0,
        neighbor_means=stats.neighbor_means,
        neighbor_stds=stats.neighbor_stds,
    )
    pairs = select_pairs(m, stats)
    # b-x and b-y share b; b-x and a-x share x: one group of three
    assert [(p.input_token, p.output_token, p.value) for p in pairs] == [
        ("a", "x", 9.0),
        ("b", "x", 8.0),
        ("b", "y", 7.0),
    ]
    assert {p.group_key for p in pairs} == {"b"}


def test_select_pairs_shape_mismatch():
    m = _matrix([[1, 2], [3, 4]])
    other = _matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    stats = local_filter(other, 1.0)
    with pytest.raises(ValueError):
        select_pairs(m, stats)


def test_planted_spike_recovered():
    # spikes that land next to each other after sorting share neighborhoods
    # and mask one another, so resample until the sorted layout keeps them
    # pairwise separated
    rng = np.random.default_rng(19)
    for _ in range(200):
        counts = np.clip(rng.normal(10.0, 1.0, size=(20, 20)), 0.1, None)
        cells = rng.choice(400, size=5, replace=False)
        for flat in cells:
            counts[flat // 20, flat % 20] = 50.0
        m = _matrix(counts)
        ordered = sort_matrix(m)
        spots = list(zip(*np.nonzero(ordered.counts == 50.0)))
        if all(
            max(abs(a[0] - b[0]), abs(a[1] - b[1])) >= 2
            for x, a in enumerate(spots)
            for b in spots[x + 1 :]
        ):
            break
    else:
        pytest.fail("could not place separated spikes")
    planted = set(spots)
    grid = [0.5 * k for k in range(1, 33)]
    rows = sweep_threshold(m, grid)
    exact = []
    for T in grid:
        flagged = set(zip(*np.nonzero(local_filter(m, T).flags)))
        if flagged == planted:
            exact.append(T)
    assert exact, "no threshold isolated exactly the planted cells"
    flag_counts = [r.flag_count for r in rows]
    assert all(b <= a for a, b in zip(flag_counts, flag_counts[1:]))


def _random_pairs(rng, vocab_in, vocab_out, n_records):
    pairs = []
    for _ in range(n_records):
        seq_in = [vocab_in[k] for k in rng.integers(0, len(vocab_in), size=rng.integers(0, 12))]
        seq_out = [vocab_out[k] for k in rng.integers(0, len(vocab_out), size=rng.integers(0, 12))]
        pairs.append((seq_in, seq_out))
    return pairs


@pytest.mark.parametrize("count_mode", ["presence", "occurrence"])
def test_build_counts_match_reference(count_mode):
    # repeated tokens within a record, stoplisted tokens on both axes,
    # top_k cuts and TokenSeq inputs, against the per-record double loop
    from moleval.textmetrics import tokenize

    rng = np.random.default_rng(5)
    vocab_in = [f"i{k}" for k in range(30)] + ["the", "of", "shared"]
    vocab_out = [f"o{k}" for k in range(25)] + ["the", "a", "shared"]
    stoplists = (frozenset(), frozenset({"the", "of", "a"}), frozenset({"shared", "i0", "o0"}))
    for trial in range(60):
        pairs = _random_pairs(rng, vocab_in, vocab_out, int(rng.integers(1, 40)))
        if trial % 3 == 0:
            pairs = [
                (tokenize(" ".join(a), "whitespace"), tokenize(" ".join(b), "whitespace"))
                for a, b in pairs
            ]
        stoplist = stoplists[trial % len(stoplists)]
        top_k = int(rng.integers(2, 35))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                m = build_mapping_matrix(pairs, top_k=top_k, stoplist=stoplist, count_mode=count_mode)
            except TooFewTokens:
                continue
        expected = mapping_counts_reference(pairs, m.row_tokens, m.col_tokens, stoplist, count_mode)
        assert np.array_equal(m.counts, np.array(expected))


def _random_matrices():
    rng = np.random.default_rng(23)
    for k in range(30):
        n, m = int(rng.integers(2, 14)), int(rng.integers(2, 14))
        if k % 3 == 0:
            counts = rng.integers(0, 6, size=(n, m)).astype(float)
        else:
            counts = rng.lognormal(0.0, 2.0, size=(n, m))
        # shared names across the axes, so identical-name pairs occur
        rows = tuple(f"t{i}" for i in rng.permutation(max(n, m))[:n])
        cols = tuple(f"t{j}" for j in rng.permutation(max(n, m))[:m])
        yield MappingMatrix(counts, rows, cols)


def test_sweep_rows_equal_local_filter():
    grid = [0.25 * k for k in range(0, 17)]
    for m in _random_matrices():
        for row in sweep_threshold(m, grid):
            stats = local_filter(m, row.threshold_T)
            assert row.flag_count == int(stats.flags.sum())
            assert row.unique_pair_count == len(select_pairs(m, stats))
            assert math.copysign(1.0, row.z) == math.copysign(1.0, stats.z)
            assert row.z == stats.z
            assert row.confidence == stats.confidence


def test_select_pairs_groups_match_components():
    rng = np.random.default_rng(29)
    for m in _random_matrices():
        stats = local_filter(m, 0.0)
        for _ in range(5):
            flags = rng.random(stats.flags.shape) < rng.uniform(0.05, 0.6)
            stats = dataclasses.replace(stats, flags=flags)
            pairs = select_pairs(m, stats)
            ordered = sort_matrix(m)
            cells = [
                (ordered.row_tokens[i], ordered.col_tokens[j])
                for i, j in zip(*np.nonzero(flags))
                if ordered.row_tokens[i] != ordered.col_tokens[j]
            ]
            expected = dict(zip(cells, pair_groups_reference(cells)))
            assert sorted((p.input_token, p.output_token) for p in pairs) == sorted(cells)
            assert all(p.group_key == expected[p.input_token, p.output_token] for p in pairs)
