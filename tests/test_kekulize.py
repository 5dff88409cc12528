import random

import pytest

from _oracles import kekule_exists_reference
from moleval.molgraph import AROMATIC, DOUBLE, SINGLE, Atom, Bond, MolGraph, parse_smiles, validity
from moleval.molgraph.elements import default_valence

C60 = (
    "c12c3c4c5c1c1c6c7c2c2c8c3c3c9c4c4c%10c5c5c1c1c6c6c%11c7c2c2c7c8c3c3c8c9"
    "c4c4c9c%10c5c5c1c1c6c6c%11c2c2c7c3c3c8c4c4c9c5c1c1c6c2c3c41"
)

POLYCYCLES = {
    "azulene": "c1ccc2cccc2cc1",
    "acenaphthylene": "C1=Cc2cccc3cccc1c23",
    "fluoranthene": "c1ccc-2c(c1)-c1cccc3cccc-2c13",
    "pyrene": "c1cc2ccc3cccc4ccc(c1)c2c34",
    "coronene": "c1cc2ccc3ccc4ccc5ccc6ccc1c7c2c3c4c5c67",
    "porphine": "c1cc2cc3ccc(n3)cc4ccc([nH]4)cc5ccc(n5)cc1[nH]2",
    "c60": C60,
}


def _needs_pi(graph: MolGraph, idx: int) -> bool:
    atom = graph.atoms[idx]
    dv = default_valence(atom.element, atom.charge)
    return atom.aromatic and dv is not None and dv > graph.plain_bond_sums()[idx] + graph.total_h(idx)


def _check_assignment(graph: MolGraph, orders: list[int]) -> None:
    """Each atom that needs a pi bond has exactly one double bond among its
    aromatic bonds and every other atom none; other bonds keep their order."""
    for bi, bond in enumerate(graph.bonds):
        if bond.order != AROMATIC:
            assert orders[bi] == bond.order
        else:
            assert orders[bi] in (SINGLE, DOUBLE)
    for idx in range(len(graph.atoms)):
        doubles = sum(
            1
            for bi in graph.adjacency()[idx]
            if graph.bonds[bi].order == AROMATIC and orders[bi] == DOUBLE
        )
        assert doubles == (1 if _needs_pi(graph, idx) else 0)


def _random_aromatic(rng: random.Random) -> MolGraph:
    """Aromatic atoms on one or two cycles with random chords (degree at
    most 3), some carrying explicit H, exocyclic =O or a methyl."""
    n = rng.randint(3, 16)
    atoms = []
    for _ in range(n):
        element = rng.choice("CCCCCCNNOS")
        explicit_h = None
        if rng.random() < 0.15:
            explicit_h = rng.choice((0, 1))
        atoms.append(Atom(element=element, aromatic=True, explicit_h=explicit_h))
    order = list(range(n))
    rng.shuffle(order)
    cut = n if n < 6 or rng.random() < 0.6 else rng.randint(3, n - 3)
    bonds = []
    for cycle in (order[:cut], order[cut:]):
        for k in range(len(cycle)):
            bonds.append(Bond(cycle[k], cycle[(k + 1) % len(cycle)], AROMATIC))
    degree = [2] * n
    for _ in range(rng.randint(0, n // 2)):
        a, b = rng.sample(range(n), 2)
        if degree[a] < 3 and degree[b] < 3 and not any({x.a, x.b} == {a, b} for x in bonds):
            bonds.append(Bond(a, b, AROMATIC))
            degree[a] += 1
            degree[b] += 1
    for idx in range(n):
        if degree[idx] < 3 and atoms[idx].element == "C" and rng.random() < 0.15:
            atoms.append(Atom(element=rng.choice("OC")))
            order_value = DOUBLE if atoms[-1].element == "O" else SINGLE
            bonds.append(Bond(idx, len(atoms) - 1, order_value))
    return MolGraph(atoms, bonds)


def test_kekulize_agrees_with_backtracking_reference():
    rng = random.Random(1729)
    found = missing = 0
    for _ in range(600):
        graph = _random_aromatic(rng)
        orders = graph.kekulize()
        assert (orders is not None) == kekule_exists_reference(graph)
        if orders is None:
            missing += 1
        else:
            found += 1
            _check_assignment(graph, orders)
    # both outcomes are exercised
    assert found >= 100 and missing >= 100


@pytest.mark.parametrize("name", sorted(POLYCYCLES))
def test_kekulize_polycycles(name):
    graph = parse_smiles(POLYCYCLES[name])
    orders = graph.kekulize()
    assert orders is not None
    assert kekule_exists_reference(graph)
    _check_assignment(graph, orders)
    assert validity(graph)


def test_kekulize_is_cached_per_graph():
    graph = parse_smiles("c1ccc2ccccc2c1")
    assert graph.kekulize() is graph.kekulize()


def test_c60_has_no_hydrogens():
    graph = parse_smiles(C60)
    assert [graph.total_h(i) for i in range(60)] == [0] * 60


@pytest.mark.parametrize(
    "text",
    [
        "c1cc[nH]c1",
        "c1ccoc1",
        "c1ccsc1",
        "C[n+]1ccccc1",
        "O=c1cc[nH]cc1",
        "Cn1cnc2c1c(=O)n(C)c(=O)n2C",
        "c1ccncc1",
        C60,
    ],
)
def test_valid_aromatics(text):
    assert validity(parse_smiles(text))


@pytest.mark.parametrize("text", ["c1cccc1", "c1ccnc1"])
def test_no_kekule_form_is_invalid(text):
    graph = parse_smiles(text)
    assert graph.kekulize() is None
    assert not validity(graph)
