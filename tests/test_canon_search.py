"""The pruned canonical search against the unpruned reference search.

Pruning may skip only leaves that write a string already seen, so every
canonical string, and every error class, must equal the reference's.
"""

import random
import time

from _oracles import (
    benchmark_library,
    canonical_inputs_reference,
    canonical_smiles_reference,
    dense_reference,
    disjoint_union,
    fork_reference,
    random_molecule,
    refine_reference,
)
from moleval.molgraph import Bond, MolGraph, canon, canonical_smiles, murcko_scaffold, parse_smiles


C60 = (
    "c12c3c4c5c1c1c6c7c2c2c8c3c3c9c4c4c%10c5c5c1c1c6c6c%11c7c2c2c7c8c3c3c8c9"
    "c4c4c9c%10c5c5c1c1c6c6c%11c2c2c7c3c3c8c4c4c9c5c1c1c6c2c3c41"
)
CAGES = [
    C60,
    "C12C3C4C1C5C2C3C45",  # cubane
    "C1C2CC3CC1CC(C2)C3",  # adamantane
    "C1C2CC3CC1CC(C2)C3C1C2CC3CC1CC(C2)C3",  # adamantane dimer
    "CC(C)(C)C",
    "CC(C)(C)CC(C)(C)C",
    "CC(C)(C)C(C(C)(C)C)C(C)(C)C",  # tri-tert-butylmethane
    "CC(C)(C)N(C(C)(C)C)C(C)(C)C",
    "c1ccccc1",
    "c1ccc2ccccc2c1",
    "C1CC2CCC1CC2",
    "OC(O)(O)C(O)(O)O",
    # labels that only the atom tokens tell apart: the ranks of the
    # search ignore isotopes, so a map between leaves must check tokens
    "[13CH3]CC",
    "CC[13CH3]",
    "[2H]C([2H])([2H])C",
    "[13cH]1ccccc1",
    "OC(=O)C[13CH2]C(=O)O",
    "[13CH3]C(C)(C)C",
    "C1C[13CH2]C2CCCC12",
]
TETRA_TERT_BUTYLMETHANE = "C(C(C)(C)C)(C(C)(C)C)(C(C)(C)C)C(C)(C)C"


def _outcome(write, graph):
    try:
        return write(graph)
    except ValueError as exc:
        return type(exc).__name__


def _agree(graph):
    return _outcome(canonical_smiles, graph) == _outcome(canonical_smiles_reference, graph)


def _dimer(graph, atom):
    """Two copies of a graph joined by a bond between the two copies of one
    atom: a graph with an automorphism that swaps the copies."""
    joined = disjoint_union([graph, graph])
    return MolGraph(joined.atoms, joined.bonds + [Bond(atom, atom + len(graph.atoms))])


def test_random_molecules_agree_with_unpruned_search():
    rng = random.Random(61)
    graphs = [random_molecule(rng, max_atoms=rng.choice((12, 24, 36))) for _ in range(1500)]
    assert [g for g in graphs if not _agree(g)] == []


def test_random_dimers_agree_with_unpruned_search():
    rng = random.Random(62)
    graphs = [random_molecule(rng, max_atoms=10) for _ in range(300)]
    dimers = [_dimer(g, rng.randrange(len(g.atoms))) for g in graphs]
    assert [g for g in dimers if not _agree(g)] == []


def test_library_molecules_and_scaffolds_agree_with_unpruned_search():
    library = benchmark_library().LIBRARY
    assert len(library) >= 100
    for text in library:
        graph = parse_smiles(text)
        assert _agree(graph), text
        assert _agree(murcko_scaffold(graph)), text


def test_cages_and_stars_agree_with_unpruned_search():
    rng = random.Random(3)
    for text in CAGES:
        graph = parse_smiles(text)
        assert _agree(graph), text
        perm = list(range(len(graph.atoms)))
        rng.shuffle(perm)
        assert canonical_smiles(graph.permuted(perm)) == canonical_smiles(graph), text


def test_unions_agree_with_unpruned_search():
    rng = random.Random(17)
    for _ in range(150):
        parts = [random_molecule(rng, 12) for _ in range(rng.randint(2, 4))]
        parts += [parse_smiles(rng.choice(CAGES[1:])) for _ in range(rng.randint(0, 1))]
        rng.shuffle(parts)
        assert _agree(disjoint_union(parts))


def test_chains_and_rings_agree_with_unpruned_search():
    for n in list(range(1, 13)) + [31, 64, 151, 300]:
        for text in ("C" * n, "O" + "C" * n, "C" * n + "=O"):
            assert _agree(parse_smiles(text)), text
    # the unpruned search refines once per ring atom, so rings stay short
    for n in list(range(1, 13)) + [31, 40]:
        assert _agree(parse_smiles("C1" + "C" * n + "C1")), n


def _refine_inputs():
    rng = random.Random(23)
    graphs = [random_molecule(rng, 30) for _ in range(150)]
    graphs += [parse_smiles(t) for t in CAGES + ["C" * 40, "CC(C)C" * 8]]
    for graph in graphs:
        yield from canonical_inputs_reference(graph)


def _ranks(partition):
    # a cell's start orders the cells as its dense rank does
    return dense_reference([partition.start[c] for c in partition.cell])


def test_refinement_matches_reference_from_initial_ranks_and_forks():
    checked = 0
    for links, _, ranks in _refine_inputs():
        root = canon._Partition.from_ranks(ranks)
        root.refine(links, set(range(len(ranks))))
        expected = refine_reference(links, ranks)
        assert _ranks(root) == expected
        # single-atom forks of every tied atom, then of the atoms tied after them
        nodes = [(root, expected, 2)]
        while nodes:
            node, ranks, depth = nodes.pop()
            for atom, r in enumerate(ranks):
                if ranks.count(r) < 2:
                    continue
                child = node.copy()
                child.individualize(atom)
                child.refine(links, {nbr for _, nbr, _ in links[atom]})
                forked = refine_reference(links, fork_reference(ranks, atom))
                assert _ranks(child) == forked
                checked += 1
                if depth > 1:
                    nodes.append((child, forked, depth - 1))
    assert checked >= 1000


# -- cost gates -------------------------------------------------------------


def _cpu(call):
    start = time.process_time()
    result = call()
    return result, time.process_time() - start


def test_symmetric_stars_and_cages_are_fast():
    # the unpruned search wrote every leaf: about 8 s and 0.27 s of CPU
    for text, expected in [
        (TETRA_TERT_BUTYLMETHANE, "CC(C)(C)C(C(C)(C)C)(C(C)(C)C)C(C)(C)C"),
        (C60, canonical_smiles_reference(parse_smiles(C60))),
    ]:
        graph = parse_smiles(text)
        text_out, seconds = min((_cpu(lambda: canonical_smiles(graph)) for _ in range(3)), key=lambda r: r[1])
        assert text_out == expected
        assert seconds < 0.05, (text, seconds)


def test_long_chain_canonicalizes_in_linear_refinement():
    # one neighbour shell per round: refining a whole chain costs O(n)
    from moleval.selfies import decode_selfies, encode_selfies

    chain = parse_smiles("C" * 10_000)
    text, seconds = _cpu(lambda: canonical_smiles(chain))
    assert text == "C" * 10_000
    assert seconds < 5.0
    again = parse_smiles(text)
    assert canonical_smiles(again) == text
    assert canonical_smiles(decode_selfies(encode_selfies(again).text())) == text


def test_benzene_writes_one_leaf(monkeypatch):
    # every other leaf of benzene's search is a rotation or reflection of
    # the first, so it is mapped onto the first and never written
    calls = []
    real = canon._write

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(canon, "_write", counting)
    assert canonical_smiles(parse_smiles("c1ccccc1")) == "c1ccccc1"
    assert len(calls) == 1
