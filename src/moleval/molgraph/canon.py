"""Canonical SMILES generation.

Each connected component is written on its own; atoms are ranked by
iterative partition refinement over local invariants, and remaining ties
are broken by trial ranking, keeping the candidate that produces the
lexicographically smallest string. The writer emits one deterministic
SMILES per canonical ranking, so equal graphs map to equal strings
regardless of input atom order; the sorted component strings are joined
with '.'.
"""

from __future__ import annotations

import heapq
from collections import defaultdict

from .elements import ORGANIC_SUBSET
from .model import AROMATIC, DOUBLE, SINGLE, TRIPLE, MolGraph

# aromatic atoms writable as bare lowercase symbols
_AROMATIC_WRITABLE = {"B", "C", "N", "O", "P", "S"}

_BOND_TOKEN = {SINGLE: "", DOUBLE: "=", TRIPLE: "#", AROMATIC: ":"}


class UnsupportedFeature(ValueError):
    """Graph uses a construct the writer cannot express."""


def canonical_smiles(graph: MolGraph) -> str:
    """Canonical SMILES for a molecular graph.

    Stereo annotations are ignored. The exact string is stable across
    atom permutations of the same graph but is an internal convention,
    not aligned with any external toolkit's canonical form.
    """
    # everything the search and the writer read, derived once per call:
    # each atom's token, and its (bond order, neighbour, bond token) links
    tokens = [_atom_token(graph, idx) for idx in range(len(graph.atoms))]
    links: list[list[tuple[int, int, str]]] = [[] for _ in graph.atoms]
    for bond in graph.bonds:
        token = _bond_token(graph, bond.a, bond.b, bond.order)
        links[bond.a].append((bond.order, bond.b, token))
        links[bond.b].append((bond.order, bond.a, token))
    ranks = _initial_ranks(graph)
    # each component is searched on its own, so identical components
    # (hydrates, salts) never multiply each other's tie forks
    pieces = []
    for comp in graph.components():
        local = {atom: i for i, atom in enumerate(comp)}
        comp_links = [[(order, local[nbr], tok) for order, nbr, tok in links[a]] for a in comp]
        comp_ranks = _dense([ranks[a] for a in comp])
        pieces.append(_canonical_from(comp_links, [tokens[a] for a in comp], comp_ranks))
    return ".".join(sorted(pieces))


# -- ranking ---------------------------------------------------------------


def _initial_ranks(graph: MolGraph) -> list[int]:
    ring = graph.ring_atoms()
    invariants = []
    for idx, atom in enumerate(graph.atoms):
        invariants.append(
            (
                atom.element,
                graph.degree(idx),
                atom.charge,
                graph.total_h(idx),
                idx in ring,
                atom.aromatic,
            )
        )
    return _dense(invariants)


def _dense(keys: list) -> list[int]:
    order = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def _refine(links, ranks: list[int]) -> list[int]:
    """Split rank classes by sorted neighbor (bond order, rank) profiles."""
    while True:
        keys = []
        for idx, atom_links in enumerate(links):
            profile = sorted((order, ranks[nbr]) for order, nbr, _ in atom_links)
            keys.append((ranks[idx], tuple(profile)))
        new = _dense(keys)
        if new == ranks:
            return ranks
        ranks = new


def _tie_forks(ranks: list[int]):
    """All single-atom promotions of the lowest tied rank class."""
    by_rank: dict[int, list[int]] = {}
    for idx, r in enumerate(ranks):
        by_rank.setdefault(r, []).append(idx)
    tied_rank = min(r for r, members in by_rank.items() if len(members) > 1)
    for atom in by_rank[tied_rank]:
        forked = [r * 2 for r in ranks]
        forked[atom] -= 1
        yield _dense(forked)


def _canonical_from(links, tokens: list[str], ranks: list[int]) -> str:
    ranks = _refine(links, ranks)
    if len(set(ranks)) == len(ranks):
        return _write(links, tokens, ranks)
    return min(_canonical_from(links, tokens, forked) for forked in _tie_forks(ranks))


# -- writing ---------------------------------------------------------------


def _atom_token(graph: MolGraph, idx: int) -> str:
    atom = graph.atoms[idx]
    symbol = atom.element
    if atom.aromatic:
        if symbol not in _AROMATIC_WRITABLE:
            raise UnsupportedFeature(f"aromatic {symbol} cannot be written")
        symbol = symbol.lower()

    total_h = graph.total_h(idx)
    plain_ok = (
        atom.element in ORGANIC_SUBSET
        and atom.charge == 0
        and atom.isotope is None
        and graph.bare_h(idx) == total_h
    )
    if plain_ok:
        return symbol
    if total_h > 9:
        raise UnsupportedFeature("hydrogen count above 9")
    if abs(atom.charge) > 9:
        raise UnsupportedFeature("charge magnitude above 9")
    parts = ["["]
    if atom.isotope is not None:
        parts.append(str(atom.isotope))
    parts.append(symbol)
    if total_h == 1:
        parts.append("H")
    elif total_h > 1:
        parts.append(f"H{total_h}")
    if atom.charge == 1:
        parts.append("+")
    elif atom.charge == -1:
        parts.append("-")
    elif atom.charge > 0:
        parts.append(f"+{atom.charge}")
    elif atom.charge < 0:
        parts.append(f"-{-atom.charge}")
    parts.append("]")
    return "".join(parts)


def _bond_token(graph: MolGraph, a: int, b: int, order: int) -> str:
    both_aromatic = graph.atoms[a].aromatic and graph.atoms[b].aromatic
    if order == SINGLE and both_aromatic:
        return "-"  # would otherwise parse back as aromatic
    if order == AROMATIC and both_aromatic:
        return ""
    return _BOND_TOKEN[order]


def _write(links, tokens: list[str], ranks: list[int]) -> str:
    """SMILES of one connected component whose ranks are all distinct,
    starting from its lowest-ranked atom."""

    def by_rank(link):
        return ranks[link[1]]

    # pass 1: depth-first walk on an explicit stack, neighbours in rank
    # order. A visited neighbour other than the parent was reached earlier
    # (a ring closure) or later (a closure already recorded at its end).
    # children and closures_at: atom -> [(other atom, bond token)]
    children: dict[int, list[tuple[int, str]]] = defaultdict(list)
    closures_at: dict[int, list[tuple[int, str]]] = defaultdict(list)
    start = ranks.index(0)
    position = {start: 0}  # visit position of each atom written so far
    stack = [(start, -1, iter(sorted(links[start], key=by_rank)))]
    while stack:
        atom, parent, pending = stack[-1]
        for _, nbr, bond in pending:
            if nbr not in position:
                position[nbr] = len(position)
                children[atom].append((nbr, bond))
                stack.append((nbr, atom, iter(sorted(links[nbr], key=by_rank))))
                break
            if nbr != parent and position[nbr] < position[atom]:
                closures_at[nbr].append((atom, bond))
                closures_at[atom].append((nbr, bond))
        else:
            stack.pop()

    # pass 2: emit in visit order, branches but the last in parentheses;
    # ring digits are handed out in the order ring openings are emitted
    free = list(range(1, 100))
    open_now: dict[tuple[int, int], int] = {}
    out = []
    work: list = [(start, "")]
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        atom, bond = item
        out.append(bond + tokens[atom])
        for other, ring_bond in sorted(closures_at[atom], key=lambda c: position[c[0]]):
            key = (min(atom, other), max(atom, other))
            if key in open_now:
                digit = open_now.pop(key)
                heapq.heappush(free, digit)
            else:
                if not free:
                    raise UnsupportedFeature("more than 99 open ring bonds")
                digit = heapq.heappop(free)
                open_now[key] = digit
            out.append(ring_bond + (str(digit) if digit < 10 else f"%{digit:02d}"))
        kids = children[atom]
        if kids:
            work.append(kids[-1])
            for kid in reversed(kids[:-1]):
                work.extend((")", kid, "("))
    return "".join(out)
