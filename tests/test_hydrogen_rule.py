"""The one hydrogen rule: elements.hydrogens_to_fill derives the hydrogens
of a bare SMILES atom and of every atom a SELFIES stream decodes to, and
the SELFIES encoder checks counts against it."""

import random
from dataclasses import replace

import pytest

from moleval.molgraph import MolGraph, allowed_valences, parse_smiles, validity
from moleval.molgraph.elements import (
    ALLOWED_VALENCES,
    CHARGE_SHIFTED,
    ISOELECTRONIC,
    ORGANIC_SUBSET,
    hydrogens_to_fill,
)
from moleval.selfies import SelfiesStream, decode_selfies, encode_selfies

C60 = (
    "c12c3c4c5c1c1c6c7c2c2c8c3c3c9c4c4c%10c5c5c1c1c6c6c%11c7c2c2c7c8c3c3c8c9"
    "c4c4c9c%10c5c5c1c1c6c6c%11c2c2c7c3c3c8c4c4c9c5c1c1c6c2c3c41"
)

_PAIRS = sorted(
    {(element, 0) for element in ALLOWED_VALENCES}
    | set(ISOELECTRONIC)
    | {(element, charge) for element in CHARGE_SHIFTED for charge in (-1, 1)}
)


def _fill_reference(valences, bond_sum):
    """The fewest hydrogens that bring bond_sum to an allowed valence."""
    fits = [h for h in range(20) if bond_sum + h in valences]
    return min(fits) if fits else None


@pytest.mark.parametrize("element, charge", _PAIRS)
def test_fill_matches_brute_force(element, charge):
    valences = allowed_valences(element, charge)
    for bond_sum in range(9):
        assert hydrogens_to_fill(valences, bond_sum) == _fill_reference(valences, bond_sum), bond_sum


@pytest.mark.parametrize(
    "text, hydrogens",
    [
        ("c1ccsc1", [1, 1, 1, 0, 1]),  # thiophene: s fills its smallest valence only
        ("c1ccoc1", [1, 1, 1, 0, 1]),  # furan
        ("c1ccncc1", [1, 1, 1, 0, 1, 1]),  # pyridine
        ("c1cc[nH]c1", [1, 1, 1, 1, 1]),  # pyrrole
        (C60, [0] * 60),
    ],
)
def test_aromatic_hydrogen_anchors(text, hydrogens):
    graph = parse_smiles(text)
    assert [graph.total_h(i) for i in range(len(graph.atoms))] == hydrogens
    assert validity(graph)


def test_encoder_accepts_bare_sulfur_at_its_next_valence():
    assert encode_selfies(parse_smiles("CS(C)C")).text() == "[C][S][Branch1][C][C][C]"


_VOCAB = [
    "[C]", "[=C]", "[#C]", "[N]", "[=N]", "[#N]", "[O]", "[=O]", "[S]", "[=S]",
    "[#S]", "[P]", "[=P]", "[#P]", "[B]", "[F]", "[Cl]", "[Br]", "[I]", "[O-1]",
    "[N+1]", "[S-1]", "[Ring1]", "[=Ring1]", "[Branch1]", "[=Branch1]", "[Branch2]",
]


def test_decoded_hydrogens_survive_writing_atoms_bare():
    # the decoder pins every atom's derived count; dropping the pin from an
    # atom SMILES may write bare must leave the same count, so the bare rule
    # and the decoder's rule agree, above the smallest valence too
    rng = random.Random(21)
    checked = above_smallest = 0
    for _ in range(400):
        tokens = tuple(rng.choice(_VOCAB) for _ in range(rng.randint(1, 40)))
        graph = decode_selfies(SelfiesStream(tokens))
        bare = [
            not atom.charge and not atom.aromatic and atom.element in ORGANIC_SUBSET
            for atom in graph.atoms
        ]
        atoms = [
            replace(atom, explicit_h=None) if is_bare else atom.copy()
            for atom, is_bare in zip(graph.atoms, bare)
        ]
        rewritten = MolGraph(atoms, list(graph.bonds))
        for idx, is_bare in enumerate(bare):
            if is_bare:
                assert rewritten.total_h(idx) == graph.total_h(idx), tokens
                checked += 1
                smallest = allowed_valences(graph.atoms[idx].element)[0]
                above_smallest += rewritten.plain_bond_sums()[idx] > smallest
        assert validity(rewritten), tokens
    assert checked >= 1000 and above_smallest >= 100
