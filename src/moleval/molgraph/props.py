"""Chemical sanity checks and whole-molecule descriptors."""

from __future__ import annotations

import math
from statistics import median

from .elements import allowed_valences, atomic_weight
from .model import MolGraph


def validity(graph: MolGraph) -> bool:
    """True when the graph has a Kekulé form and each atom's total valence is
    allowed for its element and charge (elements outside the table always are).
    Cached per graph."""
    if graph._valid is None:
        graph._valid = _valence_check(graph)
    return graph._valid


def _valence_check(graph: MolGraph) -> bool:
    bonded = graph.kekule_bond_sums()
    if bonded is None:
        return False
    for idx, atom in enumerate(graph.atoms):
        allowed = allowed_valences(atom.element, atom.charge)
        if allowed is not None and bonded[idx] + graph.total_h(idx) not in allowed:
            return False
    return True


def descriptors(graph: MolGraph) -> dict:
    """Molecular weight, heavy atom count, and ring counts.

    Hydrogen mass covers both explicit and derived hydrogens. The weight is
    the correctly rounded sum of the per-atom terms (math.fsum), so its bits
    do not depend on atom order.
    """
    terms = []
    heavy = 0
    for idx, atom in enumerate(graph.atoms):
        terms.append(atomic_weight(atom.element, atom.isotope))
        terms.append(graph.total_h(idx) * atomic_weight("H"))
        if atom.element != "H":
            heavy += 1
    rings = graph.rings()
    aromatic_rings = sum(
        1 for cyc in rings if all(graph.atoms[i].aromatic for i in cyc)
    )
    return {
        "mol_weight": math.fsum(terms),
        "heavy_atoms": heavy,
        "rings": len(rings),
        "aromatic_rings": aromatic_rings,
    }


def murcko_scaffold(graph: MolGraph) -> MolGraph:
    """Ring systems plus connecting linkers.

    Non-ring atoms of degree <= 1 are deleted repeatedly until none
    remain; an acyclic molecule reduces to the empty graph.
    """
    # an atom of degree <= 1 lies on no ring, and deleting it breaks none,
    # so one pass over a queue of leaves reaches the fixpoint
    degree = [graph.degree(i) for i in range(len(graph.atoms))]
    removed = [False] * len(graph.atoms)
    queue = [i for i, d in enumerate(degree) if d <= 1]
    for leaf in queue:
        removed[leaf] = True
        for nbr in graph.neighbors(leaf):
            if not removed[nbr]:
                degree[nbr] -= 1
                if degree[nbr] == 1:
                    queue.append(nbr)
    return graph.subgraph([i for i, gone in enumerate(removed) if not gone])


def summarize_descriptors(values: list[float]) -> dict:
    """min/median/max summary used by dataset profiling."""
    if not values:
        return {"min": None, "median": None, "max": None}
    return {"min": min(values), "median": median(values), "max": max(values)}
