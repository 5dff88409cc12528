"""Exact match against the oracle's string rule: two parsed molecules match
when both are valid and the unpruned canonical search in tests/_oracles.py
writes them alike, and a molecule the writer refuses matches nothing. Most
pairs are decided without a canonical search; the rest take two."""

import random
import re

from _oracles import benchmark_library, canonical_smiles_reference, random_molecule, validity_reference
from moleval.molgraph import (
    AROMATIC,
    Atom,
    Bond,
    MolGraph,
    SmilesError,
    canon,
    canonical_smiles,
    exact_match_graphs,
    parse_smiles,
    same_form,
)

_TOKEN = re.compile(r"\[[^\]]+\]|Br|Cl|%\d\d|[A-Za-z]|[=#:/\\-]|[()]|\d")
# what a one-token edit puts in place of an atom token: the same element
# with another isotope or hydrogen count, another element, a charge
_ATOM_EDITS = ("C", "N", "O", "S", "Cl", "[13CH2]", "[13CH3]", "[CH2]", "[CH]", "[NH+]", "[O-]", "[2H]")


def _reference(a, b) -> bool:
    """The exact-match rule by the oracles: both sides parsed and valid, and
    equal strings from the unpruned search; a writer refusal is no match."""
    if a is None or b is None or not (validity_reference(a) and validity_reference(b)):
        return False
    try:
        return canonical_smiles_reference(a) == canonical_smiles_reference(b)
    except ValueError:
        return False


def _parsed(text):
    try:
        return parse_smiles(text)
    except SmilesError:
        return None


def _shuffled(graph, rng):
    perm = list(range(len(graph.atoms)))
    rng.shuffle(perm)
    return graph.permuted(perm)


def _edited(graph, rng):
    """The graph's oracle string with one atom token or bond token replaced,
    parsed again; None when the edit does not parse."""
    tokens = _TOKEN.findall(canonical_smiles_reference(graph))
    spots = [i for i, t in enumerate(tokens) if t[0] == "[" or t[0].isalpha() or t in "=#"]
    i = rng.choice(spots)
    tokens[i] = rng.choice(("", "=", "#")) if tokens[i] in "=#" else rng.choice(_ATOM_EDITS)
    return _parsed("".join(tokens))


def _swapped(graph, rng):
    """The graph with two atoms' elements and charges swapped: the same
    atoms in another arrangement, often with the same invariants."""
    atoms = [atom.copy() for atom in graph.atoms]
    if len(atoms) > 1:
        i, j = rng.sample(range(len(atoms)), 2)
        atoms[i], atoms[j] = atoms[j], atoms[i]
    return MolGraph(atoms, [Bond(b.a, b.b, b.order) for b in graph.bonds])


def _ladder(rungs: int) -> MolGraph:
    """Two carbon rails joined by `rungs` rungs: rungs - 1 rings."""
    atoms = [Atom("C") for _ in range(2 * rungs)]
    bonds = [Bond(i, i + 1) for i in range(rungs - 1)] + [Bond(rungs + i, rungs + i + 1) for i in range(rungs - 1)]
    return MolGraph(atoms, bonds + [Bond(i, rungs + i) for i in range(rungs)])


def _grid(k: int) -> MolGraph:
    """A k x k grid of carbons, which the writer refuses from k = 28 on: its
    string would hold more than 99 ring bonds open at once."""
    atoms = [Atom("C") for _ in range(k * k)]
    bonds = [Bond(r * k + c, r * k + c + 1) for r in range(k) for c in range(k - 1)]
    return MolGraph(atoms, bonds + [Bond(r * k + c, (r + 1) * k + c) for r in range(k - 1) for c in range(k)])


def _selenophene() -> MolGraph:
    """Valid, but the writer has no token for an aromatic selenium."""
    atoms = [Atom("Se", aromatic=True)] + [Atom("C", aromatic=True) for _ in range(4)]
    return MolGraph(atoms, [Bond(i, (i + 1) % 5, AROMATIC) for i in range(5)])


def test_random_pairs_agree_with_the_oracle():
    rng = random.Random(3201)
    pairs = []
    for kind in ("permuted", "edited", "swapped", "unrelated") * 550:
        graph = random_molecule(rng, max_atoms=rng.choice((6, 12, 18)))
        if kind == "permuted":
            other = _shuffled(graph, rng)
        elif kind == "edited":
            other = _edited(graph, rng)
        elif kind == "swapped":
            other = _shuffled(_swapped(graph, rng), rng)
        else:
            other = random_molecule(rng, max_atoms=12)
        pairs.append((graph, other) if rng.random() < 0.5 else (other, graph))
    assert len(pairs) >= 2000
    wrong = [(a, b) for a, b in pairs if exact_match_graphs(a, b) != _reference(a, b)]
    assert wrong == []
    matched = sum(exact_match_graphs(a, b) for a, b in pairs)
    # every permuted pair matches, and some edits and swaps do too
    assert 550 < matched < len(pairs) - 1000


def test_a_molecule_matches_itself():
    rng = random.Random(3202)
    for _ in range(300):
        graph = random_molecule(rng, max_atoms=rng.choice((6, 12, 18)))
        assert exact_match_graphs(graph, graph) == _reference(graph, graph)


def test_spellings_unparseable_and_invalid_input():
    assert exact_match_graphs(_parsed("OCC"), _parsed("CCO"))
    assert not exact_match_graphs(_parsed("CCO"), _parsed("CCN"))
    assert not exact_match_graphs(_parsed("C1CC"), _parsed("CCO"))  # unparseable candidate
    assert not exact_match_graphs(_parsed("C(C)(C)(C)(C)C"), _parsed("CCO"))  # invalid valence


def test_the_rule_is_defined_once_in_molgraph():
    import moleval.harness.evaluate as evaluate
    import moleval.molgraph as molgraph
    import moleval.textmetrics as textmetrics

    assert molgraph.exact_match_graphs is evaluate.exact_match_graphs
    assert molgraph.exact_match_graphs.__module__ == "moleval.molgraph.canon"
    # the text metrics hold no second exact-match rule and parse nothing
    gone = ("exact_match", "exact_match_graphs", "parse_smiles", "validity", "same_form", "MolGraph")
    assert [name for name in gone if hasattr(textmetrics, name)] == []


def test_library_molecules_in_forty_orders_agree_with_the_oracle():
    library = benchmark_library().LIBRARY
    assert len(library) >= 100
    rng = random.Random(3203)
    for text in library:
        graph = parse_smiles(text)
        want = canonical_smiles_reference(graph)
        for _ in range(40):
            other = _shuffled(graph, rng)
            assert canonical_smiles_reference(other) == want, text
            assert exact_match_graphs(other, graph) == validity_reference(graph), text
        # a neighbour in the library is another molecule
        neighbour = parse_smiles(library[(library.index(text) + 1) % len(library)])
        assert exact_match_graphs(graph, neighbour) == _reference(graph, neighbour), text


def test_cages_stars_and_chains_in_other_orders():
    lib = benchmark_library()
    rng = random.Random(3204)
    c60 = parse_smiles(lib.C60)
    for other in (parse_smiles(lib.reorder(lib.C60, rng)), _shuffled(c60, rng)):
        assert exact_match_graphs(other, c60) == _reference(other, c60) is True
    # the unpruned search writes every order of tetra-tert-butylmethane as
    # the reordered spelling, in about 8 s, so that string stands for it
    # here; test_canon_search pins the pruned search to it
    stars = [parse_smiles(lib.TETRA_TERT_BUTYLMETHANE), parse_smiles(lib.TETRA_TERT_BUTYLMETHANE_REORDERED)]
    stars.append(_shuffled(stars[0], rng))
    assert all(exact_match_graphs(a, b) for a in stars for b in stars)
    # one methyl of another isotope writes a [13CH3] token that the plain
    # star's string lacks, so the oracle's strings differ
    labelled = parse_smiles("[13CH3]C(C)(C)C(C(C)(C)C)(C(C)(C)C)C(C)(C)C")
    assert not exact_match_graphs(_shuffled(labelled, rng), stars[0])
    # the unpruned search refines a chain in O(n^2), about 5 s at 1,500
    # atoms; its string is the chain's own spelling at every length
    chain = parse_smiles(lib.CHAIN_1500)
    assert exact_match_graphs(chain, chain)
    assert exact_match_graphs(chain, chain.permuted(list(reversed(range(1500)))))
    assert not exact_match_graphs(chain, parse_smiles("C" * 1499 + "O"))
    for n in (1, 2, 3, 30, 151):
        short = parse_smiles("C" * n)
        assert exact_match_graphs(short, short) == _reference(short, short) is True


def test_equal_invariants_that_are_not_one_molecule():
    decalin, bicyclopentyl = parse_smiles("C1CCC2CCCCC2C1"), parse_smiles("C1CCC(C1)C1CCCC1")
    assert sorted(decalin.atom_invariants()) == sorted(bicyclopentyl.atom_invariants())
    assert exact_match_graphs(decalin, bicyclopentyl) == _reference(decalin, bicyclopentyl) is False
    rng = random.Random(3205)
    assert exact_match_graphs(_shuffled(decalin, rng), decalin) is True
    # a six-ring and two three-rings; cubane and a cuneane-like cage
    for a, b in [("C1CCCCC1", "C1CC1C1CC1"), ("C12C3C4C1C5C2C3C45", "C12C3C1C4C5C2C3C45"),
                 ("c1ccc2ccccc2c1", "c1ccc(cc1)-c1cccc1")]:
        ga, gb = _parsed(a), _parsed(b)
        assert exact_match_graphs(ga, gb) == _reference(ga, gb), (a, b)


def test_salts_and_bracket_variants():
    rng = random.Random(3206)
    pairs = [
        ("[Na+].[Cl-]", "[Cl-].[Na+]"), ("CC(=O)[O-].[Na+]", "[Na+].[O-]C(C)=O"), ("CC(=O)[O-].[Na+]", "CC(=O)O"),
        ("O.O.[Cu+2]", "[Cu+2].O.O"), ("O.O.[Cu+2]", "O.[Cu+2]"), ("C.C", "CC"),
        ("[OH]CC", "OCC"), ("[CH3]CO", "OCC"), ("C[C@H](N)O", "CC(N)O"), ("[CH2]CO", "OCC"),
        ("[NH4+]", "N"), ("C[NH3+]", "CN"), ("C[NH3+]", "[NH3+]C"), ("CC(=O)[O-]", "CC(=O)O"), ("[O-]C=O", "O=C[O-]"),
        ("[13CH3]CC", "CC[13CH3]"), ("[13CH3]CC", "CCC"), ("[2H]O[2H]", "O"), ("[2H]O[2H]", "[2H]O[2H]"),
        ("OC(=O)C[13CH2]C(=O)O", "OC(=O)[13CH2]CC(=O)O"), ("[13cH]1ccccc1", "c1cccc[13cH]1"), ("[13cH]1ccccc1", "c1ccccc1"),
        ("c1cc[nH]c1", "[nH]1cccc1"), ("c1ccncc1", "n1ccccc1"), ("C1=CC=CC=C1", "c1ccccc1"),
        ("C(C)(C)(C)(C)C", "CC(C)(C)C"),  # an invalid side is no match
    ]
    for a, b in pairs:
        ga, gb = parse_smiles(a), parse_smiles(b)
        want = _reference(ga, gb)
        assert exact_match_graphs(ga, gb) == want, (a, b)
        assert exact_match_graphs(_shuffled(gb, rng), _shuffled(ga, rng)) == want, (a, b)
        assert exact_match_graphs(ga, ga) == _reference(ga, ga), a


def test_writer_refusals_match_nothing():
    rng = random.Random(3207)
    selenophene, grid = _selenophene(), _grid(28)
    for graph in (selenophene, grid):
        assert validity_reference(graph)
        for a, b in [(graph, graph), (graph, _shuffled(graph, rng)), (_shuffled(graph, rng), graph)]:
            assert exact_match_graphs(a, b) is _reference(a, b) is False
    thiophene = parse_smiles("c1ccsc1")
    assert exact_match_graphs(selenophene, thiophene) is exact_match_graphs(thiophene, selenophene) is False


def test_a_ladder_of_101_rings():
    rng = random.Random(3208)
    ladder = _ladder(102)
    assert len(ladder.rings()) == 101
    other = _shuffled(ladder, rng)
    assert exact_match_graphs(ladder, other) == _reference(ladder, other) is True
    assert exact_match_graphs(ladder, ladder) is True
    aza = _ladder(102)
    aza.atoms[50] = Atom("N")
    assert exact_match_graphs(aza, other) == _reference(aza, other) is False


# -- how each pair is decided -------------------------------------------------


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return type(exc).__name__


def test_same_form_is_comparing_canonical_strings():
    rng = random.Random(3209)
    lib = benchmark_library()
    graphs = [random_molecule(rng, max_atoms=rng.choice((6, 12, 18))) for _ in range(200)]
    graphs += [parse_smiles(text) for text in lib.LIBRARY[::4]]
    graphs += [_selenophene(), _grid(28), _grid(20), _ladder(102), parse_smiles("C1CCC2CCCCC2C1")]
    pairs = [(g, g) for g in graphs] + [(g, _shuffled(g, rng)) for g in graphs]
    pairs += [(g, _swapped(g, rng)) for g in graphs] + [(g, rng.choice(graphs)) for g in graphs]
    pairs += [(parse_smiles("C1CCC(C1)C1CCCC1"), graphs[-1]), (graphs[-1], _selenophene()), (MolGraph(), MolGraph())]
    for a, b in pairs:
        assert _outcome(lambda: same_form(a, b)) == _outcome(lambda: canonical_smiles(a) == canonical_smiles(b))


def _counting(monkeypatch, name):
    calls = []
    real = getattr(canon, name)

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(canon, name, counted)
    return calls


def test_reorderings_need_no_search(monkeypatch):
    rng = random.Random(3210)
    lib = benchmark_library()
    graphs = [parse_smiles(text) for text in lib.LIBRARY]
    graphs += [parse_smiles(lib.C60), parse_smiles(lib.TETRA_TERT_BUTYLMETHANE), parse_smiles(lib.CHAIN_1500)]
    searches = _counting(monkeypatch, "_search")
    for graph in graphs:
        assert exact_match_graphs(_shuffled(graph, rng), graph)
        assert exact_match_graphs(graph, graph)
    assert exact_match_graphs(parse_smiles("CC(=O)[O-].[Na+]"), parse_smiles("[Na+].[O-]C(C)=O"))
    assert not exact_match_graphs(graphs[0], graphs[1])
    assert searches == []


def test_equal_invariants_of_two_molecules_take_both_searches(monkeypatch):
    searched = _counting(monkeypatch, "canonical_smiles")
    assert not exact_match_graphs(parse_smiles("C1CCC2CCCCC2C1"), parse_smiles("C1CCC(C1)C1CCCC1"))
    assert len(searched) == 2


def test_more_than_99_ring_bonds_take_the_searches(monkeypatch):
    searched = _counting(monkeypatch, "canonical_smiles")
    ladder = _ladder(102)
    assert exact_match_graphs(ladder, _shuffled(ladder, random.Random(3211)))
    assert len(searched) == 2
    # one graph compared with itself is searched once, as a writer refusal
    # only the search shows could arise past 99 ring bonds
    assert exact_match_graphs(ladder, ladder)
    assert len(searched) == 3
    short = _ladder(100)
    assert len(short.rings()) == 99
    assert exact_match_graphs(short, short)
    assert len(searched) == 3
