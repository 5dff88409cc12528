"""Tokenizers and sequence-similarity metrics for text and chemical strings."""

from __future__ import annotations

import math
import statistics
from collections import Counter
from itertools import chain
from dataclasses import dataclass

from .metrics import f_measure
from .molgraph.parser import SMILES_TOKEN
from .selfies import tokenize_selfies


class LengthMismatch(ValueError):
    pass


class EmptyCorpus(ValueError):
    pass


class EmptyInput(ValueError):
    pass


SCHEMES = ("whitespace", "smiles_regex", "selfies_bracket", "char")


@dataclass(frozen=True)
class TokenSeq:
    tokens: tuple[str, ...]
    scheme: str

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)


def tokenize(text: str, scheme: str) -> TokenSeq:
    if scheme == "whitespace":
        tokens = tuple(text.split())
    elif scheme == "smiles_regex":
        tokens = tuple(SMILES_TOKEN.findall(text))
    elif scheme == "selfies_bracket":
        tokens = tuple(tokenize_selfies(text))
    elif scheme == "char":
        tokens = tuple(text)
    else:
        raise ValueError(f"unknown tokenizer scheme {scheme!r}")
    return TokenSeq(tokens=tokens, scheme=scheme)


def _grams(s):
    """Every n-gram of `s` of orders 1-4, as a tuple of n tokens."""
    return chain(zip(s), zip(s, s[1:]), zip(s, s[1:], s[2:]), zip(s, s[1:], s[2:], s[3:]))


def clipped_counts(cand, ref) -> list[tuple[int, int, int]]:
    """Per order 1-4, the clipped n-gram matches of the token sequence
    `cand` against `ref`, then the number of n-grams on each side: what
    BLEU and ROUGE-1/2 read. One Counter per side holds all four orders,
    since tuples of different lengths never collide. The only place
    n-grams are counted."""
    get = Counter(_grams(ref)).get
    hits = [0] * 5
    for g, c in Counter(_grams(cand)).items():
        r = get(g, 0)
        if r:
            hits[len(g)] += c if c < r else r  # min(c, r)
    return [(hits[n], max(0, len(cand) - n + 1), max(0, len(ref) - n + 1)) for n in range(1, 5)]


def sentence_bleu(orders: list[tuple[int, int, int]]) -> tuple[float, float]:
    """Sentence BLEU-2 and BLEU-4 of one pair from its `clipped_counts`:
    zero precisions are smoothed to 1e-9 so short sentences still produce a
    graded signal, and an empty candidate scores 0."""
    # order 1 counts one n-gram per token on each side
    cand_n, ref_n = orders[0][1], orders[0][2]
    if cand_n == 0:
        return 0.0, 0.0
    logs = [math.log(hit / count if hit else 1e-9) for hit, count, _ in orders]
    log_2 = logs[0] + logs[1]
    log_4 = log_2 + logs[2] + logs[3]
    brevity = math.exp(min(0.0, 1.0 - ref_n / cand_n))
    return brevity * math.exp(log_2 / 2), brevity * math.exp(log_4 / 4)


def corpus_bleu(totals: list[tuple[int, int, int]], max_n: int) -> float:
    """Corpus BLEU of order `max_n` from the `clipped_counts` of every pair
    summed order by order: the geometric mean of the clipped n-gram
    precisions times the brevity penalty; a zero precision at any order
    gives 0."""
    # orders with no n-grams anywhere (corpus shorter than n) are skipped so
    # that identical inputs score 1.0 regardless of max_n; an empty
    # candidate side has none at all and scores 0
    pairs = [(hit, count) for hit, count, _ in totals[:max_n] if count > 0]
    if not pairs or any(hit == 0 for hit, _ in pairs):
        return 0.0
    brevity = math.exp(min(0.0, 1.0 - totals[0][2] / totals[0][1]))
    return brevity * math.exp(statistics.fmean(math.log(hit / count) for hit, count in pairs))


def bleu(candidates: list[TokenSeq], references: list[TokenSeq], max_n: int) -> float:
    """Corpus BLEU of order `max_n` (2 or 4); see `corpus_bleu`."""
    if max_n not in (2, 4):
        raise ValueError("max_n must be 2 or 4")
    if len(candidates) != len(references):
        raise LengthMismatch(
            f"{len(candidates)} candidates vs {len(references)} references"
        )
    if not candidates:
        raise EmptyCorpus("no sentence pairs")
    counts = [clipped_counts(c.tokens, r.tokens) for c, r in zip(candidates, references)]
    return corpus_bleu([tuple(map(sum, zip(*order))) for order in zip(*counts)], max_n)


def rouge(candidate: TokenSeq, reference: TokenSeq, variant: str) -> float:
    if len(candidate) == 0 or len(reference) == 0:
        raise EmptyInput("rouge needs non-empty sequences")
    if variant in ("r1", "r2"):
        return rouge_from_counts(clipped_counts(candidate.tokens, reference.tokens), int(variant[1]))
    if variant == "rl":
        cand, ref = candidate.tokens, reference.tokens
        return f_measure(_lcs_length(cand, ref), len(cand), len(ref))
    raise ValueError(f"unknown rouge variant {variant!r}")


def rouge_from_counts(orders: list[tuple[int, int, int]], n: int) -> float:
    """ROUGE-n (n = 1 or 2) from one pair's `clipped_counts`; equals
    `rouge(candidate, reference, f"r{n}")` on non-empty sequences."""
    return f_measure(*orders[n - 1])


def _lcs_length(cand, ref) -> int:
    """Longest common subsequence length, bit-parallel (Allison & Dix 1986;
    Hyyrö 2004): bit j of `v` is 1 while reference position j is not yet
    on the subsequence, and each candidate token costs one word-parallel
    step over the whole reference."""
    masks: dict = {}
    for j, token in enumerate(ref):
        masks[token] = masks.get(token, 0) | 1 << j
    full = (1 << len(ref)) - 1
    v = full
    for token in cand:
        u = v & masks.get(token, 0)
        v = ((v + u) | (v - u)) & full
    return len(ref) - v.bit_count()


_SUFFIXES = ("ing", "es", "ed", "ly", "s")  # longest first


def _stem(token: str) -> str:
    for suffix in _SUFFIXES:
        if token.endswith(suffix) and len(token) > len(suffix):
            return token[: -len(suffix)]
    return token


def meteor_lite(candidate: TokenSeq, reference: TokenSeq) -> float:
    """Unigram alignment score: exact matches, then suffix-strip stem
    matches; harmonic mean weighted toward recall, discounted by a
    fragmentation penalty."""
    if len(candidate) == 0 or len(reference) == 0:
        raise EmptyInput("meteor needs non-empty sequences")
    cand, ref = candidate.tokens, reference.tokens
    # free reference positions by token, last first: pop() hands out the
    # first unused equal reference, as a left-to-right scan would
    free: dict[str, list[int]] = {}
    for ri in range(len(ref) - 1, -1, -1):
        free.setdefault(ref[ri], []).append(ri)
    pairs: list[tuple[int, int]] = []
    left = []
    for ci, token in enumerate(cand):
        slots = free.get(token)
        if slots:
            pairs.append((ci, slots.pop()))
        else:
            left.append(ci)
    if left:
        # the stem stage sees only the reference positions still free, by
        # stem, again last first
        stems: dict[str, list[int]] = {}
        for token, slots in free.items():
            if slots:
                key = _stem(token)
                stems[key] = sorted(stems[key] + slots, reverse=True) if key in stems else slots
        for ci in left:
            slots = stems.get(_stem(cand[ci]))
            if slots:
                pairs.append((ci, slots.pop()))
    m = len(pairs)
    if m == 0:
        return 0.0
    precision = m / len(cand)
    recall = m / len(ref)
    fmean = 10 * precision * recall / (recall + 9 * precision)
    pairs.sort()
    chunks = 1
    for (c0, r0), (c1, r1) in zip(pairs, pairs[1:]):
        if c1 != c0 + 1 or r1 != r0 + 1:
            chunks += 1
    penalty = 0.5 * (chunks / m) ** 3
    return fmean * (1 - penalty)


def levenshtein(a: str, b: str) -> int:
    """Edit distance with unit insert/delete/substitute costs, by Myers'
    bit-vector recurrence (J. ACM 1999, in Hyyrö's form for the global
    distance): `pv`/`mv` hold the +1/-1 vertical deltas of the current
    column over the characters of the shorter string, and each character
    of the longer one costs one word-parallel step."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    for i, ch in enumerate(b):
        peq[ch] = peq.get(ch, 0) | 1 << i
    full = (1 << len(b)) - 1
    last = 1 << (len(b) - 1)
    pv, mv = full, 0
    score = len(b)
    for ch in a:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = ((((eq & pv) + pv) ^ pv) | eq) & full
        ph = mv | (full & ~(xh | pv))
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        # the top row of the table grows by one per column
        ph = ((ph << 1) | 1) & full
        mh = (mh << 1) & full
        pv = mh | (full & ~(xv | ph))
        mv = ph & xv
    return score


def exact_match_raw(candidate: str, reference: str) -> bool:
    return candidate == reference
