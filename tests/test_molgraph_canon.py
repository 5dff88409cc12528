import random
import time

import pytest

from _oracles import graphs_isomorphic, random_molecule
from moleval.molgraph import (
    Atom,
    Bond,
    MolGraph,
    SINGLE,
    UnsupportedFeature,
    canon,
    canonical_smiles,
    parse_smiles,
)


def test_same_molecule_different_writings():
    assert canonical_smiles(parse_smiles("OCC")) == canonical_smiles(parse_smiles("CCO"))
    assert canonical_smiles(parse_smiles("C(O)C")) == canonical_smiles(parse_smiles("CCO"))
    assert canonical_smiles(parse_smiles("c1ccccc1")) == canonical_smiles(
        parse_smiles("c1ccc(cc1)")
    )


def test_distinct_molecules_differ():
    assert canonical_smiles(parse_smiles("CCO")) != canonical_smiles(parse_smiles("CCN"))
    # Kekule and aromatic benzene are different graphs and stay distinct
    assert canonical_smiles(parse_smiles("C1=CC=CC=C1")) != canonical_smiles(
        parse_smiles("c1ccccc1")
    )


def test_components_sorted():
    assert canonical_smiles(parse_smiles("O.C")) == canonical_smiles(parse_smiles("C.O"))
    text = canonical_smiles(parse_smiles("O.C"))
    parts = text.split(".")
    assert parts == sorted(parts)


def test_repeated_components_do_not_multiply_the_search():
    # each component is searched on its own: the tie forks of one water or
    # benzene never multiply those of its copies (milliseconds each)
    for text in ["O.O.O.O.O.O.O.O.O.O", "c1ccccc1.c1ccccc1.c1ccccc1"]:
        start = time.process_time()
        assert canonical_smiles(parse_smiles(text)) == text
        assert time.process_time() - start < 0.5


def test_empty_graph_writes_empty_string():
    assert canonical_smiles(MolGraph([], [])) == ""


def test_bracket_features_round_trip():
    for text in ["[13CH4]", "[NH4+]", "[O-2]", "[Cu+2]", "[2H]O[2H]"]:
        canon = canonical_smiles(parse_smiles(text))
        again = canonical_smiles(parse_smiles(canon))
        assert canon == again


def test_permutation_invariance_fixed_molecules():
    rng = random.Random(7)
    molecules = [
        "CCO",
        "CC(C)C(=O)O",
        "c1ccccc1",
        "Cn1cnc2c1c(=O)n(C)c(=O)n2C",
        "CN1C=NC2=C1C(=O)N(C)C(=O)N2C",
        "C1CC2CCC1CC2",
        "OC(=O)c1ccccc1O",
        "N#Cc1ccc(Br)cc1",
        "[NH4+].[O-2]",
    ]
    for text in molecules:
        g = parse_smiles(text)
        base = canonical_smiles(g)
        n = len(g.atoms)
        for _ in range(25):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_smiles(g.permuted(perm)) == base


def test_round_trip_isomorphic_fixed():
    for text in [
        "CCO",
        "CC(C)C(=O)O",
        "c1ccccc1",
        "Cn1cnc2c1c(=O)n(C)c(=O)n2C",
        "C1CC2CCC1CC2",
        "[13CH4]",
        "[NH4+]",
        "FC(F)(F)S(=O)(=O)O",
    ]:
        g = parse_smiles(text)
        back = parse_smiles(canonical_smiles(g))
        assert graphs_isomorphic(g, back)


def test_random_molecules_permutation_and_round_trip():
    rng = random.Random(2024)
    for _ in range(60):
        g = random_molecule(rng)
        base = canonical_smiles(g)
        n = len(g.atoms)
        for _ in range(8):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_smiles(g.permuted(perm)) == base
        assert graphs_isomorphic(g, parse_smiles(base))


def test_unwritable_features_raise():
    atom = Atom(element="C", explicit_h=12)
    with pytest.raises(UnsupportedFeature):
        canonical_smiles(MolGraph([atom], []))
    atom = Atom(element="C", charge=11)
    with pytest.raises(UnsupportedFeature):
        canonical_smiles(MolGraph([atom], []))
    selenium = Atom(element="Se", aromatic=True)
    other = Atom(element="Se", aromatic=True)
    with pytest.raises(UnsupportedFeature):
        canonical_smiles(MolGraph([selenium, other], [Bond(0, 1, SINGLE)]))


def test_canonical_is_idempotent_on_random_molecules():
    rng = random.Random(99)
    for _ in range(40):
        g = random_molecule(rng)
        once = canonical_smiles(g)
        assert canonical_smiles(parse_smiles(once)) == once


def test_atom_tokens_derived_once_per_call(monkeypatch):
    # the search may reach many leaves, but each atom's token is derived
    # once, before the search, and every leaf reuses it
    calls = []
    real = canon._atom_token

    def counting(atom, total_h, bare_h):
        calls.append(atom)
        return real(atom, total_h, bare_h)

    monkeypatch.setattr(canon, "_atom_token", counting)
    graph = parse_smiles("c1ccccc1")
    assert canonical_smiles(graph) == "c1ccccc1"
    assert [id(atom) for atom in calls] == [id(atom) for atom in graph.atoms]
