"""The one atom invariant, MolGraph.atom_invariants, which canonical ranks
and the fingerprint atom codes both read."""

import random
from collections import Counter

from _oracles import _atom_codes_reference, benchmark_library, random_molecule
from moleval.fingerprint import _initial_codes, morgan_fp, path_fp
from moleval.molgraph import MolGraph, UnsupportedFeature, canonical_smiles, parse_smiles


def _texts():
    lib = benchmark_library()
    return list(lib.LIBRARY) + [
        lib.C60,
        lib.CHAIN_1500,
        lib.TETRA_TERT_BUTYLMETHANE,
        "CC(=O)[O-].[Na+]",
        "[Na+].[Cl-]",
        "[NH3+]CC(=O)[O-]",
        "[OH]CC",
        "c1cc[nH]c1",
        "[13CH4]",
        "[CH2]C",
    ]


def _graphs():
    """120 seeded random molecules, the benchmark's library, C60, the
    1,500-atom chain, the tert-butyl star, salts and bracket-H atoms."""
    rng = random.Random(24)
    graphs = [random_molecule(rng, max_atoms=rng.choice((12, 24))) for _ in range(120)]
    return graphs + [parse_smiles(text) for text in _texts()]


def test_invariant_fields():
    for graph in _graphs():
        want = [
            (atom.element, graph.degree(i), atom.charge, graph.total_h(i), int(graph.in_ring(i)), int(atom.aromatic))
            for i, atom in enumerate(graph.atoms)
        ]
        got = graph.atom_invariants()
        assert got == want
        # ring membership and aromaticity are written 0/1, not as bools
        assert all(type(field) is int for inv in got for field in inv[1:])


def test_atom_codes_match_the_oracle():
    for graph in _graphs():
        assert _initial_codes(graph) == _atom_codes_reference(graph)


def test_one_invariant_per_canonical_form_and_per_fingerprinted_graph(monkeypatch):
    calls: Counter = Counter()
    real = MolGraph.atom_invariants

    def counted(graph):
        calls[id(graph)] += 1
        return real(graph)

    monkeypatch.setattr(MolGraph, "atom_invariants", counted)
    for text in _texts() + ["CC.O", "c1ccccc1.c1ccccc1"]:
        graph = parse_smiles(text)
        for call in (1, 2):  # each call derives its own: nothing is cached
            try:
                canonical_smiles(graph)
            except UnsupportedFeature:
                pass
            assert calls[id(graph)] == call, text
        calls.clear()
        # both fingerprints share the graph's atom codes
        for _ in range(2):
            path_fp(graph)
            morgan_fp(graph)
        assert calls[id(graph)] == 1, text
        calls.clear()
