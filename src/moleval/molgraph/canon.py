"""Canonical SMILES generation.

Each connected component is written on its own. Atoms are ranked by
partition refinement over local invariants, and remaining ties are broken
by an individualization-refinement search that keeps the lexicographically
smallest string the writer gives over the leaves of the search tree. A leaf
that an automorphism maps onto an earlier leaf writes the same string, so it
is not written; such automorphisms also prune whole subtrees (McKay &
Piperno, "Practical graph isomorphism, II", 2014). The writer emits one
deterministic SMILES per canonical ranking, so equal graphs map to equal
strings regardless of input atom order; the sorted component strings are
joined with '.'.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from itertools import accumulate

from .elements import AROMATIC_SUBSET, ORGANIC_SUBSET
from .model import AROMATIC, DOUBLE, SINGLE, TRIPLE, Atom, MolGraph
from .props import validity

_BOND_TOKEN = {SINGLE: "", DOUBLE: "=", TRIPLE: "#", AROMATIC: ":"}
# ring digits the writer has: 1-9 and %10-%99
_RING_DIGITS = 99


class UnsupportedFeature(ValueError):
    """Graph uses a construct the writer cannot express."""


def canonical_smiles(graph: MolGraph) -> str:
    """Canonical SMILES for a molecular graph.

    Stereo annotations are ignored. The exact string is stable across
    atom permutations of the same graph but is an internal convention,
    not aligned with any external toolkit's canonical form.
    """
    invariants, tokens, links = _prologue(graph)
    ranks = _dense(invariants)
    components = graph.components()
    if len(components) == 1:
        return _search(links, tokens, ranks)
    # each component is searched on its own, so identical components
    # (hydrates, salts) never multiply each other's tie forks
    pieces = []
    for comp in components:
        local = {atom: i for i, atom in enumerate(comp)}
        comp_links = [[(order, local[nbr], tok) for order, nbr, tok in links[a]] for a in comp]
        comp_ranks = _dense([ranks[a] for a in comp])
        pieces.append(_search(comp_links, [tokens[a] for a in comp], comp_ranks))
    return ".".join(sorted(pieces))


def same_form(a: MolGraph, b: MolGraph) -> bool:
    """`canonical_smiles(a) == canonical_smiles(b)`, raising what that would
    raise, mostly without a search.

    Equal strings imply an isomorphism that keeps every atom invariant, so
    unequal invariant multisets differ. With at most 99 ring bonds the writer
    never runs out of ring digits, so once every atom token is written a
    graph compared with itself is equal. Otherwise, when the first leaves of
    the search over each whole graph map one onto the other by rank, keeping
    every atom token and link, the graphs are isomorphic and write one
    string. Any other pair takes both searches.
    """
    if len(a.rings()) <= _RING_DIGITS and len(b.rings()) <= _RING_DIGITS:
        invariants, tokens, links = _prologue(a)
        if b is a:
            return True
        b_invariants, b_tokens, b_links = _prologue(b)
        if sorted(invariants) != sorted(b_invariants):
            return False
        if not invariants:  # two empty graphs, both written ""
            return True
        leaf, b_leaf = _first_leaf(links, _dense(invariants)), _first_leaf(b_links, _dense(b_invariants))
        if _leaf_map(links, tokens, leaf, [sorted(atom_links) for atom_links in b_links], b_tokens, b_leaf) is not None:
            return True
    form = canonical_smiles(a)
    return b is a or form == canonical_smiles(b)


def exact_match_graphs(cand: MolGraph | None, ref: MolGraph | None) -> bool:
    """The exact-match rule over parsed graphs, None standing for a string
    that did not parse: both valid with equal canonical forms (`same_form`);
    a graph the writer cannot express is simply False."""
    if cand is None or ref is None or not validity(cand) or not validity(ref):
        return False
    try:
        return same_form(cand, ref)
    except ValueError:
        return False


def _prologue(graph: MolGraph):
    """Everything the search and the writer read, derived once per graph:
    each atom's invariant, its token (whose H count is the invariant's total
    H), and its (bond order, neighbour, bond token) links."""
    invariants = graph.atom_invariants()
    tokens = [
        _atom_token(atom, inv.total_h, bare) for atom, inv, bare in zip(graph.atoms, invariants, graph.bare_hs())
    ]
    links: list[list[tuple[int, int, str]]] = [[] for _ in graph.atoms]
    for bond in graph.bonds:
        token = _bond_token(graph, bond.a, bond.b, bond.order)
        links[bond.a].append((bond.order, bond.b, token))
        links[bond.b].append((bond.order, bond.a, token))
    return invariants, tokens, links


# -- ranking ---------------------------------------------------------------


def _dense(keys: list) -> list[int]:
    order = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


class _Partition:
    """Ordered partition of a component's atoms into cells.

    Cell `c` holds the atoms `members[c]` and covers the positions from
    `start[c]` on; `cell[atom]` names an atom's cell. The rank of an atom is
    its cell's place in position order. Ranks are only ever compared, so
    comparing starts instead gives the same orders, and splitting one cell
    renumbers no other.
    """

    __slots__ = ("cell", "start", "members")

    def __init__(self, cell: list[int], start: list[int], members: list[set[int]]):
        self.cell, self.start, self.members = cell, start, members

    @classmethod
    def from_ranks(cls, ranks: list[int]) -> "_Partition":
        """One cell per rank; the ranks are dense, so each names its cell."""
        members: list[set[int]] = [set() for _ in range(max(ranks) + 1)]
        for atom, r in enumerate(ranks):
            members[r].add(atom)
        return cls(ranks[:], list(accumulate((len(m) for m in members[:-1]), initial=0)), members)

    def copy(self) -> "_Partition":
        return _Partition(self.cell[:], self.start[:], [set(m) for m in self.members])

    def leaf(self) -> list[int] | None:
        """Each atom's position when every cell holds one atom, else None."""
        if len(self.start) < len(self.cell):
            return None
        return [self.start[c] for c in self.cell]

    def target(self) -> list[int]:
        """Atoms of the first cell with more than one atom."""
        tied = [c for c, atoms in enumerate(self.members) if len(atoms) > 1]
        return sorted(self.members[min(tied, key=self.start.__getitem__)])

    def individualize(self, atom: int) -> None:
        """Move the atom into a new cell just ahead of the rest of its cell."""
        c = self.cell[atom]
        self.members[c].remove(atom)
        self.cell[atom] = len(self.start)
        self.start.append(self.start[c])
        self.members.append({atom})
        self.start[c] += 1

    def refine(self, links, touched: set[int]) -> None:
        """Split cells by sorted neighbour (bond order, rank) profiles until
        no cell splits, as synchronous rounds over dense ranks would.

        `touched` holds the atoms whose profile may have changed: every atom
        at the root, the individualized atom's neighbours after a fork. An
        atom's profile changes only when a neighbour moves to a new cell, so
        each round recomputes only the neighbours of the atoms the round
        before moved, and a chain costs O(n) in all.
        """
        cell, start, members = self.cell, self.start, self.members
        # a (bond order, neighbour rank) pair as one integer, order first
        weight = len(cell)

        def key(atom):
            return tuple(sorted([order * weight + start[cell[nbr]] for order, nbr, _ in links[atom]]))

        while touched:
            dirty: dict[int, list[int]] = defaultdict(list)
            for atom in touched:
                if len(members[cell[atom]]) > 1:
                    dirty[cell[atom]].append(atom)
            # every key of the round is read before any cell splits
            splits = []
            for c, atoms in dirty.items():
                groups: dict[tuple, list[int]] = defaultdict(list)
                for atom in atoms:
                    groups[key(atom)].append(atom)
                if len(atoms) < len(members[c]):
                    # the untouched atoms kept their profile of the round
                    # before, so they share one key and keep their cell
                    keeper = key(next(atom for atom in members[c] if atom not in touched))
                    groups.setdefault(keeper, [])
                elif len(groups) > 1:
                    # any group may keep the cell; the largest moves fewest
                    keeper = max(groups, key=lambda k: len(groups[k]))
                if len(groups) > 1:
                    splits.append((c, groups, keeper))
            moved: list[int] = []
            for c, groups, keeper in splits:
                stay = len(members[c]) - sum(len(g) for k, g in groups.items() if k != keeper)
                p = start[c]
                for k in sorted(groups):
                    if k == keeper:
                        start[c] = p
                        p += stay
                        continue
                    members[c].difference_update(groups[k])
                    for atom in groups[k]:
                        cell[atom] = len(start)
                    start.append(p)
                    members.append(set(groups[k]))
                    p += len(groups[k])
                    moved += groups[k]
            touched = {nbr for atom in moved for _, nbr, _ in links[atom]}


def _search(links, tokens: list[str], ranks: list[int]) -> str:
    """Smallest string the writer gives over the leaves of the
    individualization-refinement tree, without writing leaves that an
    automorphism maps onto a leaf already seen.

    The tree is walked depth first on an explicit stack. A leaf is mapped
    by rank onto the first leaf, then onto the best leaf so far; a map that
    keeps every atom token and link is an automorphism, and the leaf writes
    that leaf's string. A map onto the first leaf also maps the subtree the
    current path entered where it left the first path onto one already
    searched, so the search returns there. At each node, a child in the
    orbit of a searched child, under the automorphisms found that fix the
    node's path, is skipped: refinement, the choice of cell and the writer
    all commute with automorphisms, so a skipped subtree only repeats
    strings already seen.
    """
    root = _Partition.from_ranks(ranks)
    root.refine(links, set(range(len(ranks))))
    leaf = root.leaf()
    if leaf is not None:
        return _write(links, tokens, leaf)
    sorted_links = [sorted(atom_links) for atom_links in links]
    found: list[list[int]] = []  # automorphisms as atom -> image lists
    first_path: list[int] = []
    first = best = None  # leaves as atom -> rank lists
    best_text = ""
    # a node: its partition, the atoms individualized on its path, its
    # target cell, and the children searched so far
    stack = [(root, [], root.target(), [])]
    while stack:
        part, path, cell, searched = stack[-1]
        fixing = [g for g in found if all(g[v] == v for v in path)]
        child = None
        while cell:
            atom = cell.pop(0)
            orbit, frontier = {atom}, [atom]
            while frontier:
                a = frontier.pop()
                for g in fixing:
                    if g[a] not in orbit:
                        orbit.add(g[a])
                        frontier.append(g[a])
            if orbit.isdisjoint(searched):
                child = atom
                break
        if child is None:
            stack.pop()
            continue
        searched.append(child)
        node = part.copy()
        node.individualize(child)
        node.refine(links, {nbr for _, nbr, _ in links[child]})
        child_path = path + [child]
        leaf = node.leaf()
        if leaf is None:
            stack.append((node, child_path, node.target(), []))
            continue
        if first is None:
            first, best, first_path = leaf, leaf, child_path
            best_text = _write(links, tokens, leaf)
            continue
        image = _leaf_map(links, tokens, first, sorted_links, tokens, leaf)
        if image is not None:
            found.append(image)
            depth = next(d for d, (a, b) in enumerate(zip(first_path, child_path)) if a != b)
            del stack[depth + 1 :]
            continue
        image = _leaf_map(links, tokens, best, sorted_links, tokens, leaf) if best is not first else None
        if image is not None:
            found.append(image)
            continue
        text = _write(links, tokens, leaf)
        if text < best_text:
            best, best_text = leaf, text
    return best_text


def _first_leaf(links, ranks: list[int]) -> list[int]:
    """The first leaf of the search over a graph: the refined root, then the
    first atom of each target cell individualized and refined in turn."""
    part = _Partition.from_ranks(ranks)
    part.refine(links, set(range(len(ranks))))
    while (leaf := part.leaf()) is None:
        atom = part.target()[0]
        part.individualize(atom)
        part.refine(links, {nbr for _, nbr, _ in links[atom]})
    return leaf


def _leaf_map(links, tokens, leaf, to_links, to_tokens, to_leaf) -> list[int] | None:
    """Each atom's image under the map that sends the atom of each rank in
    `leaf` to the atom of that rank in `to_leaf`, or None unless it keeps
    every atom token and link; `to_links` are the target's sorted links."""
    atom_at = [0] * len(to_leaf)
    for atom, r in enumerate(to_leaf):
        atom_at[r] = atom
    image = [atom_at[r] for r in leaf]
    for a, b in enumerate(image):
        if tokens[a] != to_tokens[b]:
            return None
        if to_links[b] != sorted([(order, image[nbr], tok) for order, nbr, tok in links[a]]):
            return None
    return image


# -- writing ---------------------------------------------------------------


def _atom_token(atom: Atom, total_h: int, bare_h: int) -> str:
    """Token of an atom with total_h hydrogens; bare_h is the count the
    bare symbol would imply."""
    symbol = atom.element
    if atom.aromatic:
        symbol = symbol.lower()
        if symbol not in AROMATIC_SUBSET:
            raise UnsupportedFeature(f"aromatic {atom.element} cannot be written")

    plain_ok = (
        atom.element in ORGANIC_SUBSET
        and atom.charge == 0
        and atom.isotope is None
        and bare_h == total_h
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
    free = list(range(1, _RING_DIGITS + 1))
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
