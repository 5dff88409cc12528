"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way on purpose: different
algorithms than the package uses, so agreement is meaningful.
"""

from __future__ import annotations

import math
import operator
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

from moleval.molgraph.canon import UnsupportedFeature, _bond_token, _write
from moleval.molgraph.elements import ORGANIC_SUBSET, allowed_valences, default_valence
from moleval.molgraph.model import AROMATIC, DOUBLE, SINGLE, TRIPLE, Atom, Bond, MolGraph
from moleval.molgraph.parser import SmilesError, parse_smiles


# -- graph isomorphism (backtracking, signature-pruned) -----------------------

def _atom_sig(graph: MolGraph, idx: int):
    atom = graph.atoms[idx]
    return (
        atom.element,
        atom.charge,
        atom.isotope,
        atom.aromatic,
        graph.total_h(idx),
        graph.degree(idx),
    )


def graphs_isomorphic(g1: MolGraph, g2: MolGraph) -> bool:
    n = len(g1.atoms)
    if n != len(g2.atoms) or len(g1.bonds) != len(g2.bonds):
        return False
    sigs1 = [_atom_sig(g1, i) for i in range(n)]
    sigs2 = [_atom_sig(g2, i) for i in range(n)]
    if sorted(sigs1) != sorted(sigs2):
        return False

    # visit g1 atoms so each (after the first per component) touches a mapped one
    order: list[int] = []
    seen = set()
    for start in range(n):
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        while queue:
            cur = queue.pop(0)
            order.append(cur)
            for bi in g1.adjacency()[cur]:
                nbr = g1.bonds[bi].other(cur)
                if nbr not in seen:
                    seen.add(nbr)
                    queue.append(nbr)

    def bond_order(g: MolGraph, a: int, b: int):
        bond = g.bond_between(a, b)
        return None if bond is None else bond.order

    mapping: dict[int, int] = {}
    used = set()

    def extend(k: int) -> bool:
        if k == n:
            want = Counter(
                (min(mapping[b.a], mapping[b.b]), max(mapping[b.a], mapping[b.b]), b.order)
                for b in g1.bonds
            )
            have = Counter((min(b.a, b.b), max(b.a, b.b), b.order) for b in g2.bonds)
            return want == have
        i = order[k]
        for j in range(n):
            if j in used or sigs2[j] != sigs1[i]:
                continue
            ok = True
            for bi in g1.adjacency()[i]:
                nbr = g1.bonds[bi].other(i)
                if nbr in mapping and bond_order(g2, j, mapping[nbr]) != g1.bonds[bi].order:
                    ok = False
                    break
            if not ok:
                continue
            mapping[i] = j
            used.add(j)
            if extend(k + 1):
                return True
            del mapping[i]
            used.discard(j)
        return False

    return extend(0)


# -- Kekulé form (exhaustive backtracking) -------------------------------------

def kekule_exists_reference(graph: MolGraph) -> bool:
    """Whether the aromatic atoms that need a pi bond can each get exactly
    one double bond among the aromatic bonds joining two of them. An
    aromatic atom needs one when its default valence exceeds its bond sum
    (aromatic bonds count one) plus its hydrogens, a bare atom's being
    the default valence less the bond sum less one."""
    needy = set()
    for idx, atom in enumerate(graph.atoms):
        dv = default_valence(atom.element, atom.charge)
        if not atom.aromatic or dv is None:
            continue
        bond_sum = sum(
            1 if b.order == AROMATIC else b.order
            for b in graph.bonds
            if idx in (b.a, b.b)
        )
        h = atom.explicit_h if atom.explicit_h is not None else max(0, dv - bond_sum - 1)
        if dv > bond_sum + h:
            needy.add(idx)
    candidates = [
        (b.a, b.b) for b in graph.bonds if b.order == AROMATIC and b.a in needy and b.b in needy
    ]

    def match(pending: frozenset) -> bool:
        if not pending:
            return True
        first = min(pending)
        return any(
            match(pending - {a, b})
            for a, b in candidates
            if first in (a, b) and a in pending and b in pending
        )

    return match(frozenset(needy))


def kekule_form(graph: MolGraph) -> MolGraph:
    """The graph with MolGraph.kekulize's bond orders, aromatic flags off
    and every hydrogen count pinned: what a SELFIES round trip gives back."""
    orders = graph.kekulize()
    atoms = [
        replace(atom, aromatic=False, explicit_h=graph.total_h(idx))
        for idx, atom in enumerate(graph.atoms)
    ]
    bonds = [Bond(b.a, b.b, orders[bi]) for bi, b in enumerate(graph.bonds)]
    return MolGraph(atoms, bonds)


# -- random molecule generator (valid by construction) ------------------------

_GEN_ELEMENTS = ["C"] * 8 + ["N", "N", "O", "O", "S", "P", "F", "Cl", "Br", "I", "B"]


def random_molecule(rng: random.Random, max_atoms: int = 12) -> MolGraph:
    """Random connected molecule whose bond sums stay within the smallest
    allowed valence, so validity holds by construction."""
    n = rng.randint(1, max_atoms)
    atoms: list[Atom] = []
    bonds: list[Bond] = []
    budget: list[int] = []
    for i in range(n):
        element = rng.choice(_GEN_ELEMENTS)
        charge = 0
        if element in ("N", "O", "S") and rng.random() < 0.08:
            charge = rng.choice([-1, 1])
        atoms.append(Atom(element=element, charge=charge))
        budget.append(default_valence(element, charge))
        if i == 0:
            continue
        anchors = [j for j in range(i) if budget[j] >= 1]
        if not anchors or budget[i] < 1:
            atoms.pop()
            budget.pop()
            break
        j = rng.choice(anchors)
        top = min(budget[i], budget[j], 3)
        order = 1
        if top >= 2 and rng.random() < 0.18:
            order = rng.randint(2, top)
        bonds.append(Bond(j, i, {1: SINGLE, 2: DOUBLE, 3: TRIPLE}[order]))
        budget[j] -= order
        budget[i] -= order
    # occasional ring closures between non-adjacent atoms
    for _ in range(rng.randint(0, 2)):
        open_atoms = [i for i in range(len(atoms)) if budget[i] >= 1]
        rng.shuffle(open_atoms)
        placed = False
        for a in open_atoms:
            for b in open_atoms:
                if b <= a or MolGraph(atoms, bonds).bond_between(a, b) is not None:
                    continue
                bonds.append(Bond(a, b, SINGLE))
                budget[a] -= 1
                budget[b] -= 1
                placed = True
                break
            if placed:
                break
    if atoms and rng.random() < 0.15:
        # pin one atom's hydrogens explicitly at the value it would get anyway
        idx = rng.randrange(len(atoms))
        graph = MolGraph(atoms, bonds)
        atoms[idx].explicit_h = graph.total_h(idx)
    return MolGraph(atoms, bonds)


def disjoint_union(graphs) -> MolGraph:
    """Disjoint union, atoms in the order of the graphs."""
    atoms, bonds = [], []
    for graph in graphs:
        base = len(atoms)
        atoms += [replace(atom) for atom in graph.atoms]
        bonds += [Bond(b.a + base, b.b + base, b.order) for b in graph.bonds]
    return MolGraph(atoms, bonds)


# -- sequence metrics ----------------------------------------------------------

def levenshtein_full_matrix(a: str, b: str) -> int:
    rows = len(a) + 1
    cols = len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[-1][-1]


def lcs_length_reference(a, b) -> int:
    """Longest common subsequence length from the full table; unlike the
    memoized recursion in `rouge_l_reference` it has no depth limit."""
    d = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                d[i][j] = d[i - 1][j - 1] + 1
            else:
                d[i][j] = max(d[i - 1][j], d[i][j - 1])
    return d[-1][-1]


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def clipped_reference(cand, ref, n: int) -> tuple[int, int, int]:
    """Clipped n-gram matches of `cand` against `ref`, then the number of
    n-grams on each side."""
    counts = _ngrams(cand, n)
    ref_counts = _ngrams(ref, n)
    hit = sum(min(c, ref_counts[g]) for g, c in counts.items())
    return hit, sum(counts.values()), sum(ref_counts.values())


def bleu_reference(candidates, references, max_n: int) -> float:
    """Corpus BLEU computed straight from the definition; one reference
    per candidate."""
    matched = [0] * max_n
    total = [0] * max_n
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            counts = _ngrams(cand, n)
            ref_counts = _ngrams(ref, n)
            for gram, c in counts.items():
                matched[n - 1] += min(c, ref_counts[gram])
                total[n - 1] += c
    precisions = [m / t for m, t in zip(matched, total) if t > 0]
    if not precisions or any(p == 0 for p in precisions):
        return 0.0
    log_avg = sum(math.log(p) for p in precisions) / len(precisions)
    bp = math.exp(min(0.0, 1.0 - ref_len / cand_len)) if cand_len > 0 else 0.0
    return bp * math.exp(log_avg)


def bleu_sentence_reference(candidates, references, max_n: int) -> float:
    """Mean of per-sentence BLEU with add-epsilon smoothing on zero
    precisions."""
    eps = 1e-9
    scores = []
    for cand, ref in zip(candidates, references):
        precisions = []
        for n in range(1, max_n + 1):
            counts = _ngrams(cand, n)
            ref_counts = _ngrams(ref, n)
            total = sum(counts.values())
            hit = sum(min(c, ref_counts[g]) for g, c in counts.items())
            if total == 0:
                precisions.append(eps)
            else:
                p = hit / total
                precisions.append(p if p > 0 else eps)
        log_avg = sum(math.log(p) for p in precisions) / max_n
        if len(cand) > 0:
            bp = math.exp(min(0.0, 1.0 - len(ref) / len(cand)))
        else:
            bp = 0.0
        scores.append(bp * math.exp(log_avg))
    return sum(scores) / len(scores)


def rouge_n_reference(candidate, reference, n: int) -> float:
    cand = _ngrams(candidate, n)
    ref = _ngrams(reference, n)
    overlap = sum(min(c, ref[g]) for g, c in cand.items())
    cand_total = sum(cand.values())
    ref_total = sum(ref.values())
    if overlap == 0 or cand_total == 0 or ref_total == 0:
        return 0.0
    p = overlap / cand_total
    r = overlap / ref_total
    return 2 * p * r / (p + r)


def rouge_l_reference(candidate, reference) -> float:
    cand = tuple(candidate)
    ref = tuple(reference)

    @lru_cache(maxsize=None)
    def lcs(i: int, j: int) -> int:
        if i == len(cand) or j == len(ref):
            return 0
        if cand[i] == ref[j]:
            return 1 + lcs(i + 1, j + 1)
        return max(lcs(i + 1, j), lcs(i, j + 1))

    L = lcs(0, 0)
    lcs.cache_clear()
    if L == 0 or not cand or not ref:
        return 0.0
    p = L / len(cand)
    r = L / len(ref)
    return 2 * p * r / (p + r)


_STEM_SUFFIXES = ("ing", "ed", "es", "ly", "s")


def _stem(token: str) -> str:
    for suf in sorted(_STEM_SUFFIXES, key=len, reverse=True):
        if token.endswith(suf) and len(token) > len(suf):
            return token[: -len(suf)]
    return token


def meteor_reference(candidate, reference) -> float:
    cand = list(candidate)
    ref = list(reference)
    if not cand or not ref:
        return 0.0
    pairs = []
    used_c = set()
    used_r = set()
    # stage 1: exact
    for ci, ct in enumerate(cand):
        for ri, rt in enumerate(ref):
            if ri in used_r:
                continue
            if ct == rt:
                pairs.append((ci, ri))
                used_c.add(ci)
                used_r.add(ri)
                break
    # stage 2: stems
    for ci, ct in enumerate(cand):
        if ci in used_c:
            continue
        for ri, rt in enumerate(ref):
            if ri in used_r:
                continue
            if _stem(ct) == _stem(rt):
                pairs.append((ci, ri))
                used_c.add(ci)
                used_r.add(ri)
                break
    m = len(pairs)
    if m == 0:
        return 0.0
    precision = m / len(cand)
    recall = m / len(ref)
    fmean = 10 * precision * recall / (recall + 9 * precision)
    pairs.sort()
    chunks = 1
    for (c0, r0), (c1, r1) in zip(pairs, pairs[1:]):
        if not (c1 == c0 + 1 and r1 == r0 + 1):
            chunks += 1
    penalty = 0.5 * (chunks / m) ** 3
    return fmean * (1 - penalty)


# -- prediction metrics --------------------------------------------------------

def roc_auc_pairwise(labels, scores) -> float:
    pos = [s for y, s in zip(labels, scores) if y == 1]
    neg = [s for y, s in zip(labels, scores) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def pr_auc_reference(labels, scores) -> float:
    """Average precision: precision sampled at each positive, walking the
    list in score order (ties broken by original position)."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hit = 0
    total = 0.0
    npos = sum(1 for y in labels if y == 1)
    for rank, idx in enumerate(order, start=1):
        if labels[idx] == 1:
            hit += 1
            total += hit / rank
    return total / npos if npos else 0.0


def f1_reference(labels, preds) -> float:
    tp = sum(1 for y, p in zip(labels, preds) if y == 1 and p == 1)
    fp = sum(1 for y, p in zip(labels, preds) if y == 0 and p == 1)
    fn = sum(1 for y, p in zip(labels, preds) if y == 1 and p == 0)
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def cosine_reference(u, v) -> float:
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(x * x for x in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return sum(a * b for a, b in zip(u, v)) / (nu * nv)


def retrieval_ranks_reference(queries, targets, gold):
    """gold: query id -> target id. Returns rank per query (1-based)."""
    ranks = {}
    for qid, qvec in queries.items():
        sims = [(-cosine_reference(qvec, tvec), tid) for tid, tvec in targets.items()]
        sims.sort()
        for pos, (_, tid) in enumerate(sims, start=1):
            if tid == gold[qid]:
                ranks[qid] = pos
                break
    return ranks


def exact_ranks(queries, targets, gold):
    """gold: query id -> target id. Rank per query (1-based) by README's
    rule on exact cosines: 1 + the targets whose cosine is greater + the
    targets with an equal cosine and a smaller id. A zero row has cosine 0
    with every row.

    Each row is read exactly as integers over one common denominator. For
    a fixed query q, cos(q, t) orders targets as the Fraction
    sign(q.t) * (q.t)**2 / |t|**2, so no square root is taken."""

    def integers(row):
        ratios = [float(x).as_integer_ratio() for x in row]
        den = math.lcm(*(d for _, d in ratios))
        return [n * (den // d) for n, d in ratios]

    t_rows = {tid: integers(vec) for tid, vec in targets.items()}
    t_norms = {tid: sum(x * x for x in row) for tid, row in t_rows.items()}
    ranks = {}
    for qid, qvec in queries.items():
        q_ints = integers(qvec)
        nonzero = [i for i, x in enumerate(q_ints) if x]
        q_terms = [q_ints[i] for i in nonzero]
        keys = {}
        for tid, row in t_rows.items():
            dot = sum(map(operator.mul, q_terms, map(row.__getitem__, nonzero)))
            keys[tid] = Fraction(dot * abs(dot), t_norms[tid]) if dot else Fraction(0)
        gid = gold[qid]
        ranks[qid] = 1 + sum(
            1 for tid, key in keys.items() if key > keys[gid] or (key == keys[gid] and tid < gid)
        )
    return ranks


def tanimoto_reference(features_a: set, features_b: set, width: int) -> float:
    bits_a = {f % width for f in features_a}
    bits_b = {f % width for f in features_b}
    union = bits_a | bits_b
    if not union:
        return 1.0
    return len(bits_a & bits_b) / len(union)


# -- path and Morgan fingerprint features (string form, hashed at the end) ----

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _fnv1a_reference(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _atom_codes_reference(graph: MolGraph) -> list[int]:
    codes = []
    for idx, atom in enumerate(graph.atoms):
        payload = "|".join(
            (
                atom.element,
                str(graph.degree(idx)),
                str(atom.charge),
                str(graph.total_h(idx)),
                str(int(graph.in_ring(idx))),
                str(int(atom.aromatic)),
            )
        )
        codes.append(_fnv1a_reference(payload.encode()))
    return codes


def path_features_reference(graph: MolGraph, max_len: int) -> set[int]:
    """One feature per simple bond path of 1..max_len bonds: the path's
    text (`-`-joined 16-hex atom codes and bond orders) in its smaller
    direction, hashed with FNV-1a."""
    atom_codes = _atom_codes_reference(graph)
    encodings: set[str] = set()

    def walk(path_atoms: list[int], path_bonds: list[int]):
        if path_bonds:
            forward = _path_text(path_atoms, path_bonds)
            backward = _path_text(path_atoms[::-1], path_bonds[::-1])
            encodings.add(min(forward, backward))
        if len(path_bonds) == max_len:
            return
        last = path_atoms[-1]
        for bi in graph.adjacency()[last]:
            nbr = graph.bonds[bi].other(last)
            if nbr in path_atoms:
                continue
            walk(path_atoms + [nbr], path_bonds + [bi])

    def _path_text(atoms_seq: list[int], bonds_seq: list[int]) -> str:
        parts = [f"{atom_codes[atoms_seq[0]]:016x}"]
        for k, bi in enumerate(bonds_seq):
            parts.append(str(graph.bonds[bi].order))
            parts.append(f"{atom_codes[atoms_seq[k + 1]]:016x}")
        return "-".join(parts)

    for start in range(len(graph.atoms)):
        walk([start], [])
    return {_fnv1a_reference(text.encode()) for text in encodings}


def morgan_features_reference(graph: MolGraph, radius: int) -> set[int]:
    """Every atom code of rounds 0..radius. Round 0 codes are the atom
    codes; each later round hashes the text of an atom's previous code (16
    hex digits) followed by one `|order:code` piece per bond, the pieces in
    sorted text order."""
    codes = _atom_codes_reference(graph)
    features = set(codes)
    for _ in range(radius):
        texts = []
        for idx in range(len(graph.atoms)):
            pieces = []
            for bi in graph.adjacency()[idx]:
                bond = graph.bonds[bi]
                pieces.append(f"|{bond.order}:{codes[bond.other(idx)]:016x}")
            texts.append(f"{codes[idx]:016x}" + "".join(sorted(pieces)))
        codes = [_fnv1a_reference(text.encode()) for text in texts]
        features.update(codes)
    return features


# -- Murcko scaffold (peel one layer per round, rebuild each round) ------------

def murcko_scaffold_reference(graph: MolGraph) -> MolGraph:
    current = graph
    while True:
        ring = current.ring_atoms()
        drop = [
            i
            for i in range(len(current.atoms))
            if i not in ring and current.degree(i) <= 1
        ]
        if not drop:
            return current
        remaining = [i for i in range(len(current.atoms)) if i not in set(drop)]
        current = current.subgraph(remaining)


# -- token mapping ---------------------------------------------------------------

def mapping_counts_reference(pairs, row_tokens, col_tokens, stoplist=frozenset(), count_mode="presence"):
    """Co-occurrence counts over the given axis tokens, one record at a time:
    presence adds 1 per record holding both tokens, occurrence adds the
    product of their in-record counts."""
    row_index = {t: i for i, t in enumerate(row_tokens)}
    col_index = {t: j for j, t in enumerate(col_tokens)}
    counts = [[0.0] * len(col_tokens) for _ in row_tokens]
    for seq_in, seq_out in pairs:
        tokens_in = Counter(t for t in getattr(seq_in, "tokens", seq_in) if t not in stoplist)
        tokens_out = Counter(t for t in getattr(seq_out, "tokens", seq_out) if t not in stoplist)
        for token_in, c_in in tokens_in.items():
            i = row_index.get(token_in)
            if i is None:
                continue
            for token_out, c_out in tokens_out.items():
                j = col_index.get(token_out)
                if j is None:
                    continue
                counts[i][j] += 1 if count_mode == "presence" else c_in * c_out
    return counts


def pair_groups_reference(pairs):
    """Group keys for (input, output) pairs: two pairs are linked when they
    share an input token or share an output token, and a group of two or
    more pairs is keyed by its smallest token that occurs at least twice
    among its members' inputs and outputs. Components are grown by
    repeated scans until nothing changes."""
    group = list(range(len(pairs)))
    changed = True
    while changed:
        changed = False
        for x, (in_x, out_x) in enumerate(pairs):
            for y, (in_y, out_y) in enumerate(pairs):
                if (in_x == in_y or out_x == out_y) and group[x] != group[y]:
                    low = min(group[x], group[y])
                    group[x] = group[y] = low
                    changed = True
    keys = []
    for x in range(len(pairs)):
        members = [pairs[y] for y in range(len(pairs)) if group[y] == group[x]]
        if len(members) == 1:
            keys.append(None)
            continue
        seen = Counter(t for pair in members for t in pair)
        shared = sorted(t for t, c in seen.items() if c >= 2)
        keys.append(shared[0] if shared else None)
    return keys


# -- canonical SMILES (unpruned tie search) ------------------------------------

# aromatic elements writable as bare lowercase symbols, written out here so
# the reference does not read the writer's element sets
_AROMATIC_WRITABLE_REFERENCE = {"B", "C", "N", "O", "P", "S"}

def _atom_token_reference(graph: MolGraph, idx: int) -> str:
    """The writer's atom token, derived from the graph on each call."""
    atom = graph.atoms[idx]
    symbol = atom.element
    if atom.aromatic:
        if symbol not in _AROMATIC_WRITABLE_REFERENCE:
            raise UnsupportedFeature(f"aromatic {symbol} cannot be written")
        symbol = symbol.lower()
    total_h = graph.total_h(idx)
    if (
        atom.element in ORGANIC_SUBSET
        and atom.charge == 0
        and atom.isotope is None
        and graph.bare_h(idx) == total_h
    ):
        return symbol
    if total_h > 9:
        raise UnsupportedFeature("hydrogen count above 9")
    if abs(atom.charge) > 9:
        raise UnsupportedFeature("charge magnitude above 9")
    isotope = "" if atom.isotope is None else str(atom.isotope)
    hydrogens = "" if total_h == 0 else "H" if total_h == 1 else f"H{total_h}"
    charge = {0: "", 1: "+", -1: "-"}.get(atom.charge)
    if charge is None:
        charge = f"{atom.charge:+d}"
    return f"[{isotope}{symbol}{hydrogens}{charge}]"


def dense_reference(keys: list) -> list[int]:
    order = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def refine_reference(links, ranks: list[int]) -> list[int]:
    """Dense ranks after splitting rank classes by sorted neighbour
    (bond order, rank) profiles, every atom recomputed each round, until
    a round splits nothing."""
    while True:
        keys = []
        for idx, atom_links in enumerate(links):
            profile = sorted((order, ranks[nbr]) for order, nbr, _ in atom_links)
            keys.append((ranks[idx], tuple(profile)))
        new = dense_reference(keys)
        if new == ranks:
            return ranks
        ranks = new


def fork_reference(ranks: list[int], atom: int) -> list[int]:
    """Dense ranks with one atom promoted just ahead of the rest of its class."""
    forked = [r * 2 for r in ranks]
    forked[atom] -= 1
    return dense_reference(forked)


def _canonical_from_reference(links, tokens, ranks) -> str:
    # every fork of the lowest tied class is searched, so every leaf is written
    ranks = refine_reference(links, ranks)
    if len(set(ranks)) == len(ranks):
        return _write(links, tokens, ranks)
    tied = min(r for r in set(ranks) if ranks.count(r) > 1)
    return min(
        _canonical_from_reference(links, tokens, fork_reference(ranks, atom))
        for atom, r in enumerate(ranks)
        if r == tied
    )


def canonical_inputs_reference(graph: MolGraph):
    """(links, tokens, initial dense ranks) of each connected component:
    links are each atom's (bond order, neighbour, bond token) list."""
    tokens = [_atom_token_reference(graph, idx) for idx in range(len(graph.atoms))]
    ring = graph.ring_atoms()
    invariants = [
        (atom.element, graph.degree(idx), atom.charge, graph.total_h(idx), idx in ring, atom.aromatic)
        for idx, atom in enumerate(graph.atoms)
    ]
    out = []
    for comp in graph.components():
        local = {atom: i for i, atom in enumerate(comp)}
        links = [[] for _ in comp]
        for bond in graph.bonds:
            if bond.a in local:
                token = _bond_token(graph, bond.a, bond.b, bond.order)
                links[local[bond.a]].append((bond.order, local[bond.b], token))
                links[local[bond.b]].append((bond.order, local[bond.a], token))
        out.append((links, [tokens[a] for a in comp], dense_reference([invariants[a] for a in comp])))
    return out


def canonical_smiles_reference(graph: MolGraph) -> str:
    """Canonical SMILES by the unpruned search: the smallest string the
    writer gives over every leaf of the individualization tree."""
    return ".".join(
        sorted(_canonical_from_reference(*inputs) for inputs in canonical_inputs_reference(graph))
    )


# -- validity and one molecule generation record -------------------------------

def validity_reference(graph: MolGraph) -> bool:
    """A Kekulé form exists and every atom's total valence is allowed: its
    bond sum (aromatic bonds count one), one more for an aromatic atom that
    needs a pi bond, plus its hydrogens."""
    if not kekule_exists_reference(graph):
        return False
    for idx, atom in enumerate(graph.atoms):
        allowed = allowed_valences(atom.element, atom.charge)
        if allowed is None:
            continue
        bond_sum = sum(
            1 if b.order == AROMATIC else b.order
            for b in graph.bonds
            if idx in (b.a, b.b)
        )
        h = graph.total_h(idx)
        pi = atom.aromatic and (default_valence(atom.element, atom.charge) or 0) > bond_sum + h
        if bond_sum + pi + h not in allowed:
            return False
    return True


def molecule_record_reference(prediction: str, reference: str) -> dict:
    """The `eval gen` molecule metrics of one record, each side parsed on
    its own: exact match needs both sides valid with equal unpruned
    canonical forms, and both Tanimotos (string-built features folded at
    2048 bits) are 0 unless both sides parse."""
    graphs = []
    for text in (prediction, reference):
        try:
            graphs.append(parse_smiles(text))
        except SmilesError:
            graphs.append(None)
    pred, ref = graphs
    valid = [g is not None and validity_reference(g) for g in graphs]
    exact = False
    if all(valid):
        try:
            exact = canonical_smiles_reference(pred) == canonical_smiles_reference(ref)
        except ValueError:
            pass
    rdk = morgan = 0.0
    if pred is not None and ref is not None:
        rdk = tanimoto_reference(path_features_reference(pred, 7), path_features_reference(ref, 7), 2048)
        morgan = tanimoto_reference(
            morgan_features_reference(pred, 2), morgan_features_reference(ref, 2), 2048
        )
    return {
        "validity": float(valid[0]),
        "exact-match": float(exact),
        "exact-match-raw": float(prediction == reference),
        "levenshtein": float(levenshtein_full_matrix(prediction, reference)),
        "rdk-fts": rdk,
        "morgan-fts": morgan,
    }
