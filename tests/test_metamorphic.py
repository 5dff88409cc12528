"""Metamorphic properties over the benchmark's library molecules: what a
molecule scores must not depend on how its SMILES is written."""

import random

import pytest

from _oracles import benchmark_library, kekule_form
from moleval.fingerprint import morgan_fp, path_fp, tanimoto
from moleval.molgraph import canonical_smiles, descriptors, parse_smiles
from moleval.selfies import decode_selfies, encode_selfies
from moleval.textmetrics import exact_match_graphs


def _descriptors_over_orders(names):
    """For each library molecule, the named descriptors of it and of 40
    random atom orders of it."""
    library = benchmark_library()
    rng = random.Random(7)
    for text in library.LIBRARY:
        want = {name: descriptors(parse_smiles(text))[name] for name in names}
        for _ in range(40):
            got = descriptors(parse_smiles(library.reorder(text, rng)))
            yield text, want, {name: got[name] for name in names}


def test_descriptors_do_not_depend_on_atom_order():
    for text, want, got in _descriptors_over_orders(("mol_weight", "heavy_atoms", "rings")):
        assert got == want, text


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: aromatic rings are counted over a BFS ring basis "
    "that depends on atom order",
)
def test_aromatic_rings_do_not_depend_on_atom_order():
    for text, want, got in _descriptors_over_orders(("aromatic_rings",)):
        assert got == want, text


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: no aromaticity perception, so a Kekulé spelling "
    "or a SELFIES round trip is another molecule to the metrics",
)
def test_aromatic_spellings_score_alike():
    aromatic = [
        text
        for text in benchmark_library().LIBRARY
        if any(atom.aromatic for atom in parse_smiles(text).atoms)
    ]
    assert len(aromatic) >= 70
    for text in aromatic:
        graph = parse_smiles(text)
        kekule = parse_smiles(canonical_smiles(kekule_form(graph)))
        for other in (kekule, decode_selfies(encode_selfies(graph))):
            assert exact_match_graphs(graph, other), text
            assert tanimoto(path_fp(graph), path_fp(other)) == 1.0, text
            assert tanimoto(morgan_fp(graph), morgan_fp(other)) == 1.0, text
