"""Molecular graph model: atoms, bonds, rings, hydrogen bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .elements import allowed_valences, default_valence, hydrogens_to_fill

# Bond orders. Aromatic bonds use a sentinel order; bond order sums count
# them as 1, and MolGraph.kekulize gives each a concrete single or double.
SINGLE, DOUBLE, TRIPLE, AROMATIC = 1, 2, 3, 4

_ORDER_VALUE = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3, AROMATIC: 1}

_UNSET = object()


@dataclass
class Atom:
    """One atom. explicit_h is None for atoms written without brackets;
    bracket atoms carry their hydrogen count explicitly (0 if omitted)."""

    element: str
    charge: int = 0
    isotope: int | None = None
    aromatic: bool = False
    explicit_h: int | None = None
    chirality: str | None = None  # parsed annotation, ignored downstream

    def copy(self) -> "Atom":
        # the constructor, not dataclasses.replace, which walks fields() on
        # every call; a new field must be added here too
        return Atom(
            self.element, self.charge, self.isotope, self.aromatic, self.explicit_h, self.chirality
        )


class AtomInvariant(NamedTuple):
    """An atom's Daylight-style invariant, the start of canonical ranks
    (Weininger et al. 1989) and of fingerprint atom codes (Rogers & Hahn
    2010). Ring membership and aromaticity are 0/1. Being a tuple subclass,
    its instances are freed after use; CPython would keep up to 2,000 freed
    plain 6-tuples on its free list, which a 1,500-atom chain fills."""

    element: str
    degree: int
    charge: int
    total_h: int
    in_ring: int
    aromatic: int


@dataclass
class Bond:
    a: int
    b: int
    order: int = SINGLE
    stereo: str | None = None  # parsed annotation, ignored downstream

    def other(self, idx: int) -> int:
        return self.b if idx == self.a else self.a


@dataclass
class MolGraph:
    atoms: list[Atom] = field(default_factory=list)
    bonds: list[Bond] = field(default_factory=list)

    def __post_init__(self):
        self._adj: list[list[int]] | None = None
        self._rings: list[list[int]] | None = None
        self._kekule = _UNSET
        self._plain_sums: list[int] | None = None
        self._bare_h: list[int] | None = None
        # validity result, filled by moleval.molgraph.props.validity on first use
        self._valid: bool | None = None
        # fingerprint atom codes, filled by moleval.fingerprint on first use
        self._atom_codes: list[int] | None = None

    # -- structure ---------------------------------------------------

    def adjacency(self) -> list[list[int]]:
        """Bond indices incident to each atom."""
        if self._adj is None:
            adj: list[list[int]] = [[] for _ in self.atoms]
            for bi, bond in enumerate(self.bonds):
                adj[bond.a].append(bi)
                adj[bond.b].append(bi)
            self._adj = adj
        return self._adj

    def neighbors(self, idx: int) -> list[int]:
        return [self.bonds[bi].other(idx) for bi in self.adjacency()[idx]]

    def degree(self, idx: int) -> int:
        return len(self.adjacency()[idx])

    def bond_between(self, a: int, b: int) -> Bond | None:
        for bi in self.adjacency()[a]:
            if self.bonds[bi].other(a) == b:
                return self.bonds[bi]
        return None

    def components(self) -> list[list[int]]:
        """Connected components as sorted atom-index lists."""
        adjacency, bonds = self.adjacency(), self.bonds
        seen = [False] * len(self.atoms)
        out = []
        for start in range(len(self.atoms)):
            if seen[start]:
                continue
            comp, stack = [], [start]
            seen[start] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for bi in adjacency[v]:
                    bond = bonds[bi]
                    w = bond.b if bond.a == v else bond.a
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            out.append(sorted(comp))
        return out

    # -- rings ---------------------------------------------------------

    def rings(self) -> list[list[int]]:
        """Basis cycles from BFS spanning forests.

        BFS trees keep fundamental cycles close to the smallest rings,
        which is what ring counting and ring membership consume. The
        basis size equals the cyclomatic number.
        """
        if self._rings is not None:
            return self._rings
        n = len(self.atoms)
        parent_bond = [-1] * n
        parent = [-1] * n
        depth = [-1] * n
        rings: list[list[int]] = []
        seen_bond = [False] * len(self.bonds)
        for start in range(n):
            if depth[start] >= 0:
                continue
            depth[start] = 0
            queue = [start]
            qi = 0
            while qi < len(queue):
                v = queue[qi]
                qi += 1
                for bi in self.adjacency()[v]:
                    if seen_bond[bi]:
                        continue
                    w = self.bonds[bi].other(v)
                    if depth[w] < 0:
                        seen_bond[bi] = True
                        depth[w] = depth[v] + 1
                        parent[w] = v
                        parent_bond[w] = bi
                        queue.append(w)
                    elif w != v:
                        seen_bond[bi] = True
                        rings.append(self._cycle_through(v, w, parent, depth))
        self._rings = rings
        return rings

    def _cycle_through(self, v, w, parent, depth):
        # walk both endpoints up to their lowest common ancestor
        left, right = [v], [w]
        a, b = v, w
        while depth[a] > depth[b]:
            a = parent[a]
            left.append(a)
        while depth[b] > depth[a]:
            b = parent[b]
            right.append(b)
        while a != b:
            a = parent[a]
            b = parent[b]
            left.append(a)
            right.append(b)
        return left + right[-2::-1]

    def ring_atoms(self) -> set[int]:
        out: set[int] = set()
        for cyc in self.rings():
            out.update(cyc)
        return out

    def in_ring(self, idx: int) -> bool:
        return idx in self.ring_atoms()

    # -- valence and hydrogens -----------------------------------------

    def plain_bond_sums(self) -> list[int]:
        """Each atom's bond order sum with aromatic bonds counted as one,
        from one pass over the bonds. Cached per graph."""
        if self._plain_sums is None:
            self._plain_sums = self._atom_sums(_ORDER_VALUE[bond.order] for bond in self.bonds)
        return self._plain_sums

    def bare_hs(self) -> list[int]:
        """Every atom's bare_h. Cached per graph."""
        if self._bare_h is None:
            self._bare_h = self._bare_h_rule()
        return self._bare_h

    def bare_h(self, idx: int) -> int:
        return self.bare_hs()[idx]

    def _bare_h_rule(self) -> list[int]:
        """Hydrogens of each atom written without brackets (OpenSMILES
        3.1.5): hydrogens_to_fill over the atom's allowed valences, or, for
        an aromatic atom, over its smallest valence with its pi bond added
        to the bond sum; 0 where no valence fits or the element has none."""
        out = []
        for atom, bonded in zip(self.atoms, self.plain_bond_sums()):
            valences = allowed_valences(atom.element, atom.charge) or ()
            if atom.aromatic:
                valences, bonded = valences[:1], bonded + 1
            out.append(hydrogens_to_fill(valences, bonded) or 0)
        return out

    def total_h(self, idx: int) -> int:
        explicit = self.atoms[idx].explicit_h
        return self.bare_h(idx) if explicit is None else explicit

    def atom_invariants(self) -> list[AtomInvariant]:
        """Each atom's invariant. Built anew on each call, not cached."""
        ring, adjacency, total_h = self.ring_atoms(), self.adjacency(), self.total_h
        return [
            AtomInvariant(
                atom.element, len(adjacency[idx]), atom.charge, total_h(idx), int(idx in ring), int(atom.aromatic)
            )
            for idx, atom in enumerate(self.atoms)
        ]

    def kekule_bond_sums(self) -> list[int] | None:
        """Each atom's bond order sum in the Kekulé form, from one pass over
        the bonds; None when no Kekulé form exists."""
        orders = self.kekulize()
        return None if orders is None else self._atom_sums(orders)

    def _atom_sums(self, bond_values) -> list[int]:
        """Each atom's sum of the values of its bonds, given in bond order."""
        sums = [0] * len(self.atoms)
        for bond, value in zip(self.bonds, bond_values):
            sums[bond.a] += value
            sums[bond.b] += value
        return sums

    def kekulize(self) -> list[int] | None:
        """Concrete order of every bond, or None when no Kekulé form exists.

        An aromatic atom needs a pi bond when its default valence exceeds
        its bond sum plus its hydrogens. Each such atom gets exactly one
        double bond among the aromatic bonds joining two of them (a perfect
        matching); every other aromatic bond is single. Cached per graph.
        """
        if self._kekule is not _UNSET:
            return self._kekule
        sums = self.plain_bond_sums()
        needy = {}  # atoms that need a pi bond, in index order
        for idx, atom in enumerate(self.atoms):
            if not atom.aromatic:
                continue
            if (default_valence(atom.element, atom.charge) or 0) > sums[idx] + self.total_h(idx):
                needy[idx] = True
        adj: list[list[int]] = [[] for _ in self.atoms]
        for b in self.bonds:
            if b.order == AROMATIC and b.a in needy and b.b in needy:
                adj[b.a].append(b.b)
                adj[b.b].append(b.a)
        # greedy, then one augmenting-path search per atom left free: the
        # first search that fails shows that no perfect matching exists
        mate = [-1] * len(self.atoms)
        for v in needy:
            w = next((w for w in adj[v] if mate[w] == -1), -1) if mate[v] == -1 else -1
            if w != -1:
                mate[v], mate[w] = w, v
        self._kekule = None
        if all(mate[v] != -1 or _augment(v, adj, mate) for v in needy):
            self._kekule = [
                b.order if b.order != AROMATIC else DOUBLE if mate[b.a] == b.b else SINGLE
                for b in self.bonds
            ]
        return self._kekule

    # -- editing -------------------------------------------------------

    def subgraph(self, keep: list[int]) -> "MolGraph":
        """Induced subgraph; atoms re-indexed preserving relative order."""
        index = {old: new for new, old in enumerate(keep)}
        atoms = [self.atoms[i].copy() for i in keep]
        bonds = [
            Bond(index[b.a], index[b.b], b.order, b.stereo)
            for b in self.bonds
            if b.a in index and b.b in index
        ]
        return MolGraph(atoms, bonds)

    def permuted(self, perm: list[int]) -> "MolGraph":
        """Relabeled copy: atom at old index i moves to perm[i]."""
        n = len(self.atoms)
        atoms: list[Atom | None] = [None] * n
        for i, atom in enumerate(self.atoms):
            atoms[perm[i]] = atom.copy()
        bonds = [Bond(perm[b.a], perm[b.b], b.order, b.stereo) for b in self.bonds]
        return MolGraph(list(atoms), bonds)  # type: ignore[arg-type]


def _augment(root: int, adj: list[list[int]], mate: list[int]) -> bool:
    """Edmonds' blossom search: grow an alternating tree from the free vertex
    root on an explicit queue, shrink each odd cycle (blossom) to its base, and
    flip the path to the first free vertex reached; False when there is none."""
    n = len(adj)
    base = list(range(n))
    parent = [-1] * n  # tree parent of each odd vertex
    even = [False] * n
    even[root] = True
    queue = [root]
    for v in queue:  # the queue grows while it is read
        for w in adj[v]:
            if base[v] == base[w] or mate[v] == w:
                continue
            if w == root or (mate[w] != -1 and parent[mate[w]] != -1):
                # v and w are both even, so v-w closes a blossom. Its base is
                # the first base on w's path to the root that is on v's too.
                x, on_path = v, {base[v]}
                while mate[base[x]] != -1:
                    x = parent[mate[base[x]]]
                    on_path.add(base[x])
                x = w
                while base[x] not in on_path:
                    x = parent[mate[base[x]]]
                top = base[x]
                blossom = [False] * n
                for x, child in ((v, w), (w, v)):
                    while base[x] != top:
                        blossom[base[x]] = blossom[base[mate[x]]] = True
                        parent[x], child = child, mate[x]
                        x = parent[child]
                for u in range(n):
                    if blossom[base[u]]:
                        base[u] = top
                        if not even[u]:
                            even[u] = True
                            queue.append(u)
            elif parent[w] == -1:
                parent[w] = v
                if mate[w] == -1:
                    while w != -1:  # flip the path back to the root
                        v = parent[w]
                        mate[w], mate[v], w = v, w, mate[v]
                    return True
                even[mate[w]] = True
                queue.append(mate[w])
    return False
