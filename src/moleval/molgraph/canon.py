"""Canonical SMILES generation.

Atoms are ranked by iterative partition refinement over local invariants;
remaining ties are broken by trial ranking, keeping the candidate that
produces the lexicographically smallest string. The writer emits one
deterministic SMILES per canonical ranking, so equal graphs map to equal
strings regardless of input atom order.
"""

from __future__ import annotations

from .elements import ORGANIC_SUBSET, default_valence
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
    if not graph.atoms:
        return ""
    ranks = _initial_ranks(graph)
    return _canonical_from(graph, ranks)


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
    return _dense([(inv,) for inv in invariants])


def _dense(keys: list) -> list[int]:
    order = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def _refine(graph: MolGraph, ranks: list[int]) -> list[int]:
    """Split rank classes by sorted neighbor (bond order, rank) profiles."""
    while True:
        keys = []
        for idx in range(len(graph.atoms)):
            profile = sorted(
                (graph.bonds[bi].order, ranks[graph.bonds[bi].other(idx)])
                for bi in graph.adjacency()[idx]
            )
            keys.append((ranks[idx], tuple(profile)))
        new = _dense(keys)
        if new == ranks:
            return ranks
        ranks = new


def _is_discrete(ranks: list[int]) -> bool:
    return len(set(ranks)) == len(ranks)


def _tie_forks(graph: MolGraph, ranks: list[int]):
    """All single-atom promotions of the lowest tied rank class."""
    by_rank: dict[int, list[int]] = {}
    for idx, r in enumerate(ranks):
        by_rank.setdefault(r, []).append(idx)
    tied_rank = min(r for r, members in by_rank.items() if len(members) > 1)
    for atom in by_rank[tied_rank]:
        forked = [r * 2 for r in ranks]
        forked[atom] -= 1
        yield _dense([(r,) for r in forked])


def _canonical_from(graph: MolGraph, ranks: list[int]) -> str:
    ranks = _refine(graph, ranks)
    if _is_discrete(ranks):
        return _write(graph, ranks)
    return min(_canonical_from(graph, forked) for forked in _tie_forks(graph, ranks))


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
        and _plain_h(graph, idx) == total_h
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


def _plain_h(graph: MolGraph, idx: int) -> int:
    """Hydrogens a bare (bracketless) atom would receive on re-parse."""
    atom = graph.atoms[idx]
    dv = default_valence(atom.element, atom.charge)
    if dv is None:
        return -1
    return max(0, dv - graph.effective_bond_sum(idx))


def _bond_token(graph: MolGraph, a: int, b: int, order: int) -> str:
    both_aromatic = graph.atoms[a].aromatic and graph.atoms[b].aromatic
    if order == SINGLE and both_aromatic:
        return "-"  # would otherwise parse back as aromatic
    if order == AROMATIC and both_aromatic:
        return ""
    return _BOND_TOKEN[order]


def _write(graph: MolGraph, ranks: list[int]) -> str:
    pieces = []
    visited = [False] * len(graph.atoms)
    order = sorted(range(len(graph.atoms)), key=lambda i: ranks[i])
    for start in order:
        if visited[start]:
            continue
        pieces.append(_write_component(graph, ranks, start, visited))
    return ".".join(sorted(pieces))


def _write_component(graph, ranks, start, visited) -> str:
    # pass 1: visit order, tree structure, ring closures
    children: dict[int, list[int]] = {}
    closures_at: dict[int, list[tuple[int, int]]] = {}  # atom -> [(other, bond order)]
    position: dict[int, int] = {}
    bond_used = set()

    def explore(atom: int) -> None:
        visited[atom] = True
        position[atom] = len(position)
        children[atom] = []
        for nbr in sorted(graph.neighbors(atom), key=lambda i: ranks[i]):
            bond = graph.bond_between(atom, nbr)
            key = id(bond)
            if key in bond_used:
                continue
            bond_used.add(key)
            if visited[nbr]:
                closures_at.setdefault(nbr, []).append((atom, bond.order))
                closures_at.setdefault(atom, []).append((nbr, bond.order))
            else:
                children[atom].append(nbr)
                explore(nbr)

    explore(start)

    # digits handed out in the order ring openings are emitted
    digit_of: dict[tuple[int, int], int] = {}
    free = list(range(1, 100))
    open_now: dict[tuple[int, int], int] = {}

    def closure_digits(atom: int) -> str:
        out = []
        pairs = sorted(
            closures_at.get(atom, []),
            key=lambda pair: (position[pair[0]], pair[1]),
        )
        for other, order in pairs:
            key = (min(atom, other), max(atom, other))
            if key in open_now:
                digit = open_now.pop(key)
                free.append(digit)
                free.sort()
            else:
                if not free:
                    raise UnsupportedFeature("more than 99 open ring bonds")
                digit = free.pop(0)
                open_now[key] = digit
            token = _bond_token(graph, atom, other, order)
            out.append(token + (str(digit) if digit < 10 else f"%{digit:02d}"))
        return "".join(out)

    def emit(atom: int, parent: int | None) -> str:
        parts = []
        if parent is not None:
            bond = graph.bond_between(parent, atom)
            parts.append(_bond_token(graph, parent, atom, bond.order))
        parts.append(_atom_token(graph, atom))
        parts.append(closure_digits(atom))
        kids = children[atom]
        for kid in kids[:-1]:
            parts.append("(" + emit(kid, atom) + ")")
        if kids:
            parts.append(emit(kids[-1], atom))
        return "".join(parts)

    return emit(start, None)
