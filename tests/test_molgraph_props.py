import random
from dataclasses import asdict, fields

import pytest

from _oracles import murcko_scaffold_reference, random_molecule
from moleval.molgraph import (
    Atom,
    Bond,
    MolGraph,
    allowed_valences,
    canonical_smiles,
    descriptors,
    murcko_scaffold,
    parse_smiles,
    summarize_descriptors,
    validity,
)


def test_ethanol_descriptors():
    d = descriptors(parse_smiles("CCO"))
    assert d["mol_weight"] == pytest.approx(46.069, abs=1e-3)
    assert d["heavy_atoms"] == 3
    assert d["rings"] == 0
    assert d["aromatic_rings"] == 0


def test_benzene_descriptors():
    d = descriptors(parse_smiles("c1ccccc1"))
    assert d["mol_weight"] == pytest.approx(78.114, abs=1e-2)
    assert d["heavy_atoms"] == 6
    assert d["rings"] == 1
    assert d["aromatic_rings"] == 1


@pytest.mark.parametrize(
    "text, weight",
    [
        ("c1ccncc1", 79.10),  # pyridine
        ("c1ccc2ccccc2c1", 128.17),  # naphthalene
        ("Cn1cnc2c1c(=O)n(C)c(=O)n2C", 194.19),  # caffeine
        ("c1ccc(cc1)-c1ccccc1", 154.21),  # biphenyl
        ("c1ccc2[nH]ccc2c1", 117.15),  # indole
        ("c1ccoc1", 68.07),  # furan
        ("c1ccsc1", 84.14),  # thiophene
        ("O=c1cc[nH]cc1", 95.10),  # 4-pyridone
        ("C[n+]1ccccc1", 94.14),  # N-methylpyridinium
        (
            "c12c3c4c5c1c1c6c7c2c2c8c3c3c9c4c4c%10c5c5c1c1c6c6c%11c7c2c2c7c8c3c3c8c9"
            "c4c4c9c%10c5c5c1c1c6c6c%11c2c2c7c3c3c8c4c4c9c5c1c1c6c2c3c41",
            720.66,
        ),  # C60
    ],
)
def test_aromatic_weights(text, weight):
    # textbook values: an aromatic atom's pi bond takes one hydrogen site
    assert descriptors(parse_smiles(text))["mol_weight"] == pytest.approx(weight, abs=0.01)


def test_ring_counts():
    assert descriptors(parse_smiles("c1ccc2ccccc2c1"))["rings"] == 2
    assert descriptors(parse_smiles("C1CC2CCC1CC2"))["rings"] == 2
    # tetralin: one aromatic ring, two rings total
    d = descriptors(parse_smiles("c1ccc2c(c1)CCCC2"))
    assert d["rings"] == 2
    assert d["aromatic_rings"] == 1
    # spiro
    assert descriptors(parse_smiles("C1CCC2(CC1)CCCC2"))["rings"] == 2


def test_hydrogen_molecule():
    d = descriptors(parse_smiles("[H][H]"))
    assert d["heavy_atoms"] == 0
    assert d["mol_weight"] == pytest.approx(2.016, abs=1e-3)


def test_isotope_weight():
    light = descriptors(parse_smiles("C"))["mol_weight"]
    heavy = descriptors(parse_smiles("[13CH4]"))["mol_weight"]
    assert heavy == pytest.approx(13.0 + light - 12.011, abs=0.2)


def test_scaffold_examples():
    benzene = canonical_smiles(parse_smiles("c1ccccc1"))
    scaffold = murcko_scaffold(parse_smiles("CCc1ccccc1"))
    assert canonical_smiles(scaffold) == benzene
    # acyclic molecules collapse to nothing
    assert len(murcko_scaffold(parse_smiles("CCO")).atoms) == 0
    # the linker between two rings is kept
    biphenyl = parse_smiles("c1ccccc1Cc1ccccc1")
    kept = murcko_scaffold(biphenyl)
    assert len(kept.atoms) == 13


def test_scaffold_idempotent_random():
    rng = random.Random(5)
    for _ in range(50):
        g = random_molecule(rng)
        once = murcko_scaffold(g)
        twice = murcko_scaffold(once)
        assert canonical_smiles(once) == canonical_smiles(twice)


def test_scaffold_matches_layer_peeling_reference():
    rng = random.Random(9)
    graphs = [random_molecule(rng, max_atoms=rng.choice((12, 30))) for _ in range(200)]
    graphs += [MolGraph(), parse_smiles("CCO"), parse_smiles("C1CC1CC(C2CC2)CCC")]
    for g in graphs:
        assert murcko_scaffold(g) == murcko_scaffold_reference(g)


def test_scaffold_long_tail_one_subgraph(monkeypatch):
    calls = []
    subgraph = MolGraph.subgraph

    def counting(self, keep):
        calls.append(len(keep))
        return subgraph(self, keep)

    monkeypatch.setattr(MolGraph, "subgraph", counting)
    scaffold = murcko_scaffold(parse_smiles("C1CC1" + "C" * 2000))
    assert (len(scaffold.atoms), len(scaffold.bonds)) == (3, 3)
    assert calls == [3]


def test_subgraph_and_permuted_copy_every_atom_field():
    # a field that the copies dropped would take its default, not the
    # distinct value each field holds here; the copies are new objects, so
    # writing one (decode_selfies sets explicit_h in place) leaves the other
    labelled = Atom(**{f.name: f"{f.name} value" for f in fields(Atom)})
    graph = parse_smiles("[13CH3][C@@H](N)[O-]")
    graph.atoms.append(labelled)
    graph.bonds.append(Bond(3, 4))
    order = list(range(len(graph.atoms)))
    for copy, originals in (
        (graph.subgraph(order), graph.atoms),
        (graph.permuted(order[::-1]), graph.atoms[::-1]),
    ):
        for atom, original in zip(copy.atoms, originals, strict=True):
            assert atom is not original
            assert asdict(atom) == asdict(original)
        copy.atoms[0].explicit_h = 7
        assert originals[0].explicit_h != 7


def test_random_molecules_valid_by_construction():
    rng = random.Random(11)
    for _ in range(100):
        assert validity(random_molecule(rng))


def test_summarize_descriptors():
    stats = summarize_descriptors([3.0, 1.0, 2.0])
    assert stats == {"min": 1.0, "median": 2.0, "max": 3.0}
    stats = summarize_descriptors([4.0, 1.0, 2.0, 3.0])
    assert stats["median"] == pytest.approx(2.5)


@pytest.mark.parametrize("text", ["[Cl-]", "[Br-]", "[K+].[I-]", "[Na+].[Cl-]"])
def test_halide_anions_valid(text):
    # a halide anion has valence 0, like O in [O-2]
    assert validity(parse_smiles(text))


def test_halogen_valence_shifts_with_charge():
    assert allowed_valences("Cl", -1) == (0,)
    assert allowed_valences("I", 1) == (2,)
    assert validity(parse_smiles("C[I+]C"))
    assert not validity(parse_smiles("C[Br-]C"))


@pytest.mark.parametrize(
    "text",
    [
        "[B-](F)(F)(F)F",
        "[BH4-]",
        "[C-]#N",
        "[C-]#[O+]",
        "[CH3+]",
        "[P-](F)(F)(F)(F)(F)F",
        "C[P+](C)(C)C",
        "[cH-]1cccc1",
    ],
)
def test_charged_boron_carbon_phosphorus_valid(text):
    # charge +-1 gives B, C and P the valences of the isoelectronic
    # neighbour: [B-] 4, [C-] and [C+] 3, [P-] 2/4/6, [P+] 4
    assert validity(parse_smiles(text))


def test_charged_boron_carbon_phosphorus_valences():
    assert allowed_valences("B", -1) == (4,)
    assert allowed_valences("B", 1) == (2,)
    assert allowed_valences("C", -1) == (3,)
    assert allowed_valences("C", 1) == (3,)
    assert allowed_valences("P", -1) == (2, 4, 6)
    assert allowed_valences("P", 1) == (4,)
    # a carbanion has three bonds, not four
    assert not validity(parse_smiles("[C-](C)(C)(C)C"))


@pytest.mark.parametrize("text", ["CS(C)C", "CP(C)(C)C", "O=S(=O)O", "O=P(O)O"])
def test_bare_sulfur_and_phosphorus_take_next_valence(text):
    # OpenSMILES 3.1.5: a bare atom takes the next normal valence at or above
    # its bond order sum (S 2/4/6, P 3/5), so here S or P carries one H
    graph = parse_smiles(text)
    assert graph.total_h(1) == 1
    assert validity(graph)
