import math
import random
import string

import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracle
from _pinned_meteor import ROWS as METEOR_ROWS
from moleval.textmetrics import (
    EmptyCorpus,
    EmptyInput,
    LengthMismatch,
    TokenSeq,
    _lcs_length,
    bleu,
    clipped_counts,
    corpus_bleu,
    exact_match,
    exact_match_raw,
    levenshtein,
    meteor_lite,
    rouge,
    sentence_bleu,
    tokenize,
)


def ws(text: str) -> TokenSeq:
    return tokenize(text, "whitespace")


# -- tokenizers ---------------------------------------------------------------

def test_tokenize_whitespace_and_char():
    assert tokenize("the cat  sat", "whitespace").tokens == ("the", "cat", "sat")
    assert tokenize("abc", "char").tokens == ("a", "b", "c")


def test_tokenize_smiles_regex():
    got = tokenize("C[NH4+]Cl%12Br1", "smiles_regex").tokens
    assert got == ("C", "[NH4+]", "Cl", "%12", "Br", "1")


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40) | st.text(alphabet="CNOcn[]H+-Brl%123()=#\n\r ", max_size=40))
def test_smiles_regex_tokens_join_to_input(text):
    # the parser lexes through the same tokens, so none may be dropped
    assert "".join(tokenize(text, "smiles_regex").tokens) == text


def test_tokenize_selfies_scheme():
    assert tokenize("[C][=C]", "selfies_bracket").tokens == ("[C]", "[=C]")


def test_tokenize_unknown_scheme():
    with pytest.raises(ValueError):
        tokenize("x", "words")


# -- bleu ----------------------------------------------------------------------

def test_bleu_identical():
    assert bleu([ws("the cat sat")], [ws("the cat sat")], 2) == pytest.approx(1.0)
    assert bleu([ws("the cat sat")], [ws("the cat sat")], 4) == pytest.approx(1.0)


def test_bleu_brevity_example():
    got = bleu([ws("the cat")], [ws("the cat sat")], 2)
    assert got == pytest.approx(math.exp(1 - 3 / 2), abs=1e-9)


def test_bleu_zero_overlap():
    assert bleu([ws("a b")], [ws("x y")], 2) == 0.0


def test_bleu_errors():
    with pytest.raises(LengthMismatch):
        bleu([ws("a")], [], 2)
    with pytest.raises(EmptyCorpus):
        bleu([], [], 2)
    with pytest.raises(ValueError):
        bleu([ws("a")], [ws("a")], 3)


def _random_seq(rng, vocab="abcde", max_len=10):
    return ws(" ".join(rng.choice(vocab) for _ in range(rng.randint(1, max_len))))


def test_bleu_oracle_agreement():
    rng = random.Random(7)
    for _ in range(250):
        n = rng.randint(1, 5)
        cands = [_random_seq(rng) for _ in range(n)]
        refs = [_random_seq(rng) for _ in range(n)]
        max_n = rng.choice([2, 4])
        got = bleu(cands, refs, max_n)
        want = oracle.bleu_reference(
            [c.tokens for c in cands], [r.tokens for r in refs], max_n
        )
        assert got == pytest.approx(want, abs=1e-9)


def test_bleu_sentence_oracle_agreement():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(1, 4)
        cands = [_random_seq(rng) for _ in range(n)]
        refs = [_random_seq(rng) for _ in range(n)]
        scores = [sentence_bleu(clipped_counts(c.tokens, r.tokens)) for c, r in zip(cands, refs)]
        for i, max_n in enumerate((2, 4)):
            want = oracle.bleu_sentence_reference(
                [c.tokens for c in cands], [r.tokens for r in refs], max_n
            )
            assert sum(score[i] for score in scores) / n == pytest.approx(want, abs=1e-9)


@st.composite
def _token_pairs(draw):
    # 0-12 tokens over a 4-6 word alphabet: repeated n-grams, equal
    # sequences and sequences shorter than n all occur
    alphabet = ["acid", "ring", "the", "is", "a", "cat"][: draw(st.integers(4, 6))]
    seq = st.lists(st.sampled_from(alphabet), max_size=12).map(tuple)
    cand = draw(seq)
    return cand, cand if draw(st.booleans()) else draw(seq)


@settings(max_examples=300, deadline=None)
@given(st.lists(_token_pairs(), min_size=1, max_size=4))
def test_clipped_counts_match_reference(pairs):
    got = [clipped_counts(c, r) for c, r in pairs]
    assert got == [[oracle.clipped_reference(c, r, n) for n in range(1, 5)] for c, r in pairs]


@settings(max_examples=300, deadline=None)
@given(_token_pairs())
def test_sentence_bleu_matches_reference(pair):
    # empty sides and sides shorter than 4 tokens included
    cand, ref = pair
    got = sentence_bleu(clipped_counts(cand, ref))
    want = tuple(oracle.bleu_sentence_reference([cand], [ref], max_n) for max_n in (2, 4))
    assert got == pytest.approx(want, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(st.lists(_token_pairs(), min_size=1, max_size=4))
def test_corpus_bleu_of_summed_counts_matches_reference(pairs):
    totals = [tuple(map(sum, zip(*order))) for order in zip(*(clipped_counts(c, r) for c, r in pairs))]
    cands, refs = zip(*pairs)
    for max_n in (2, 4):
        assert corpus_bleu(totals, max_n) == pytest.approx(oracle.bleu_reference(cands, refs, max_n), abs=1e-9)


# -- rouge ----------------------------------------------------------------------

def test_rouge_unigram_example():
    assert rouge(ws("the cat sat"), ws("the cat"), "r1") == pytest.approx(0.8)


def test_rouge_lcs_example():
    assert rouge(ws("a b c d"), ws("a c b d"), "rl") == pytest.approx(0.75)


def test_rouge_identical():
    for variant in ("r1", "r2", "rl"):
        assert rouge(ws("x y z"), ws("x y z"), variant) == pytest.approx(1.0)


def test_rouge_errors():
    with pytest.raises(EmptyInput):
        rouge(ws(""), ws("a"), "r1")
    with pytest.raises(ValueError):
        rouge(ws("a"), ws("a"), "r9")


def test_rouge_oracle_agreement():
    rng = random.Random(9)
    for _ in range(250):
        cand = _random_seq(rng)
        ref = _random_seq(rng)
        assert rouge(cand, ref, "r1") == pytest.approx(
            oracle.rouge_n_reference(cand.tokens, ref.tokens, 1), abs=1e-9
        )
        assert rouge(cand, ref, "r2") == pytest.approx(
            oracle.rouge_n_reference(cand.tokens, ref.tokens, 2), abs=1e-9
        )
        assert rouge(cand, ref, "rl") == pytest.approx(
            oracle.rouge_l_reference(cand.tokens, ref.tokens), abs=1e-9
        )


# lengths either side of the first two 64-bit word boundaries
_KERNEL_LENGTHS = (0, 1, 2, 7, 63, 64, 65, 127, 128, 129)


def _kernel_cases(rng, alphabets):
    """Seeded (a, b) pairs for the bit-parallel kernels: every pair of
    `_KERNEL_LENGTHS`, then random lengths, then two long pairs, each drawn
    from one alphabet (a one-letter alphabet repeats a single token)."""
    lengths = [(m, n) for m in _KERNEL_LENGTHS for n in _KERNEL_LENGTHS]
    lengths += [(rng.randint(0, 200), rng.randint(0, 200)) for _ in range(100)]
    lengths += [(1030, 1001), (1001, 1100)]
    for m, n in lengths:
        alphabet = rng.choice(alphabets)
        yield (
            [rng.choice(alphabet) for _ in range(m)],
            [rng.choice(alphabet) for _ in range(n)],
        )


def test_lcs_kernel_matches_full_table():
    rng = random.Random(12)
    alphabets = [["a"], ["a", "b"], "the acid is a ring of".split(), ["α", "中文", "é", "ß", "a"]]
    for a, b in _kernel_cases(rng, alphabets):
        assert _lcs_length(a, b) == oracle.lcs_length_reference(a, b), (len(a), len(b))


def test_rouge_l_on_long_sequences():
    rng = random.Random(13)
    vocab = "the acid is a ring of".split()
    for m, n in [(64, 65), (1001, 1030)]:
        cand = [rng.choice(vocab) for _ in range(m)]
        ref = [rng.choice(vocab) for _ in range(n)]
        lcs = oracle.lcs_length_reference(cand, ref)
        p, r = lcs / m, lcs / n
        got = rouge(TokenSeq(tuple(cand), "whitespace"), TokenSeq(tuple(ref), "whitespace"), "rl")
        assert got == pytest.approx(2 * p * r / (p + r), abs=1e-9)


# -- meteor ----------------------------------------------------------------------

def test_meteor_identical_penalty():
    got = meteor_lite(ws("the cat sat"), ws("the cat sat"))
    assert got == pytest.approx(1 - 0.5 * (1 / 3) ** 3, abs=1e-9)


def test_meteor_zero_overlap():
    assert meteor_lite(ws("a b"), ws("x y")) == 0.0


def test_meteor_stem_stage():
    got = meteor_lite(ws("cats"), ws("cat"))
    assert got == pytest.approx((10 * 1 * 1 / (1 + 9)) * (1 - 0.5), abs=1e-9)


def test_meteor_oracle_agreement():
    rng = random.Random(10)
    words = ["cat", "cats", "walk", "walked", "walking", "sat", "quick", "ly", "dog"]
    for _ in range(250):
        cand = ws(" ".join(rng.choice(words) for _ in range(rng.randint(1, 10))))
        ref = ws(" ".join(rng.choice(words) for _ in range(rng.randint(1, 10))))
        got = meteor_lite(cand, ref)
        want = oracle.meteor_reference(cand.tokens, ref.tokens)
        assert got == pytest.approx(want, abs=1e-9)


def test_meteor_oracle_agreement_long_sequences():
    # a small vocabulary repeats tokens and stems, so both stages pick
    # among many equal references
    rng = random.Random(14)
    words = ["walk", "walked", "walking", "walks", "cat", "cats", "acid", "acids", "ring"]
    for _ in range(60):
        cand = ws(" ".join(rng.choice(words) for _ in range(rng.randint(20, 120))))
        ref = ws(" ".join(rng.choice(words) for _ in range(rng.randint(20, 120))))
        got = meteor_lite(cand, ref)
        want = oracle.meteor_reference(cand.tokens, ref.tokens)
        assert got == pytest.approx(want, abs=1e-9)


def test_meteor_pinned_bits():
    for cand, ref, want in METEOR_ROWS:
        assert meteor_lite(ws(cand), ws(ref)) == float.fromhex(want), (cand, ref)


# -- levenshtein -------------------------------------------------------------------

def test_levenshtein_examples():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("x", "x") == 0
    assert levenshtein("", "abc") == 3


def test_levenshtein_oracle_agreement():
    rng = random.Random(11)
    for _ in range(250):
        a = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 10)))
        b = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 10)))
        assert levenshtein(a, b) == oracle.levenshtein_full_matrix(a, b)


def test_levenshtein_kernel_matches_full_matrix():
    rng = random.Random(15)
    alphabets = ["a", "ab", "CNO()=1", "αβγ中文é"]
    for a, b in _kernel_cases(rng, alphabets):
        a, b = "".join(a), "".join(b)
        assert levenshtein(a, b) == oracle.levenshtein_full_matrix(a, b), (len(a), len(b))


@settings(max_examples=150, deadline=None)
@given(
    st.text(alphabet=string.ascii_lowercase, max_size=8),
    st.text(alphabet=string.ascii_lowercase, max_size=8),
    st.text(alphabet=string.ascii_lowercase, max_size=8),
)
def test_levenshtein_metric_properties(a, b, c):
    assert levenshtein(a, b) == levenshtein(b, a)
    assert (levenshtein(a, b) == 0) == (a == b)
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


# -- exact match --------------------------------------------------------------------

def test_exact_match_canonical():
    assert exact_match("OCC", "CCO")
    assert not exact_match("CCO", "CCN")
    assert not exact_match("C1CC", "CCO")  # unparseable candidate
    assert not exact_match("C(C)(C)(C)(C)C", "CCO")  # invalid valence
    assert exact_match_raw("CCO", "CCO")
    assert not exact_match_raw("OCC", "CCO")
