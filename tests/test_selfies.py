import importlib
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import graphs_isomorphic, kekule_form, random_molecule
from moleval import selfies
from moleval.molgraph import canonical_smiles, parse_smiles, validity
from moleval.selfies import (
    EmptyStream,
    INDEX_ALPHABET,
    NotEncodable,
    SelfiesStream,
    StrayCharacter,
    check_encodable,
    decode_selfies,
    encode_selfies,
    tokenize_selfies,
)


def test_tokenize_basic():
    stream = tokenize_selfies("[C][=C][Ring1][Branch2]")
    assert list(stream) == ["[C]", "[=C]", "[Ring1]", "[Branch2]"]
    assert stream.text() == "[C][=C][Ring1][Branch2]"


def test_tokenize_stray_character():
    with pytest.raises(StrayCharacter) as info:
        tokenize_selfies("[C]x[C]")
    assert info.value.offset == 3
    with pytest.raises(StrayCharacter) as info:
        tokenize_selfies("abc")
    assert info.value.offset == 0


def test_empty_stream():
    with pytest.raises(EmptyStream):
        decode_selfies("")
    with pytest.raises(EmptyStream):
        decode_selfies(SelfiesStream(()))


def test_index_alphabet_is_fixed():
    assert INDEX_ALPHABET == (
        "[C]",
        "[Ring1]",
        "[Ring2]",
        "[Branch1]",
        "[=Branch1]",
        "[#Branch1]",
        "[Branch2]",
        "[=Branch2]",
        "[#Branch2]",
        "[O]",
        "[N]",
        "[=N]",
        "[=C]",
        "[#C]",
        "[S]",
        "[P]",
    )


def test_decode_simple_chain():
    g = decode_selfies("[C][C][O]")
    assert canonical_smiles(g) == canonical_smiles(parse_smiles("CCO"))


def test_decode_ring_length_arithmetic():
    # [Ring1] with digit [Ring2] (value 2) closes to the atom three back
    g = decode_selfies("[C][C][C][C][Ring1][Ring2]")
    assert len(g.bonds) == 4
    assert g.bond_between(0, 3) is not None


def test_decode_branch():
    g = decode_selfies("[C][Branch1][C][C][C]")
    assert g.degree(0) == 2 or g.degree(1) == 3  # isobutane-style center
    assert validity(g)


def test_decode_caps_bond_orders():
    # fluorine cannot accept a triple bond; request degrades to single
    g = decode_selfies("[F][#C]")
    assert g.bonds[0].order in (1,)
    assert validity(g)


def test_decode_is_total_on_garbage():
    for text in [
        "[Ring1]",
        "[Branch3]",
        "[Branch1][Branch1]",
        "[nonsense][C]",
        "[C][Ring2][Ring2]",
        "[O-1][O-1][O-1]",
        "[C][Branch2][C][C]",
    ]:
        g = decode_selfies(text)
        assert validity(g)


def test_decode_reads_ascii_charge_digits_only():
    # an Arabic-Indic digit makes [N+\u0661] an unknown token, not [N+1]
    assert canonical_smiles(decode_selfies("[C][N+1]")) == "C[NH3+]"
    assert canonical_smiles(decode_selfies("[C][N+\u0661]")) == "C"


def test_benzene_published_form():
    stream = encode_selfies(parse_smiles("c1ccccc1"))
    assert stream.text() == "[C][=C][C][=C][C][=C][Ring1][=Branch1]"
    # both written forms of benzene produce the same stream
    other = encode_selfies(parse_smiles("C1=CC=CC=C1"))
    assert other.text() == stream.text()
    back = decode_selfies(stream)
    assert validity(back)
    assert canonical_smiles(back) == canonical_smiles(parse_smiles("C1=CC=CC=C1"))


def test_encode_round_trip_kekule_fixtures():
    for text in [
        "CCO",
        "CC(C)C(=O)O",
        "CC1=CC=CC=C1",
        "N#CC1=CC=C(Cl)C=C1",
        "C1CC2CCC1CC2",
        "S(=O)(=O)(O)O",
        "[O-]C(=O)C",
        "[NH4+]",
        "BrCCCCCCCCCCCCBr",
    ]:
        g = parse_smiles(text)
        back = decode_selfies(encode_selfies(g))
        assert canonical_smiles(back) == canonical_smiles(g)


def test_not_encodable_cases():
    with pytest.raises(NotEncodable):
        encode_selfies(parse_smiles("c1cccc1"))  # no Kekulé form
    with pytest.raises(NotEncodable):
        encode_selfies(parse_smiles("CC.O"))  # two components
    with pytest.raises(NotEncodable):
        encode_selfies(parse_smiles("[13CH4]"))  # isotope label
    with pytest.raises(NotEncodable):
        encode_selfies(parse_smiles("[Fe]"))  # outside the element table
    with pytest.raises(NotEncodable):
        encode_selfies(parse_smiles("[CH2]C"))  # hydrogens off the default
    from moleval.molgraph import MolGraph

    with pytest.raises(NotEncodable):
        encode_selfies(MolGraph([], []))


C60 = (
    "c12c3c4c5c1c1c6c7c2c2c8c3c3c9c4c4c%10c5c5c1c1c6c6c%11c7c2c2c7c8c3c3c8c9"
    "c4c4c9c%10c5c5c1c1c6c6c%11c2c2c7c3c3c8c4c4c9c5c1c1c6c2c3c41"
)


@pytest.mark.parametrize(
    "text",
    [
        "c1ccncc1",  # pyridine
        "Cn1cnc2c1c(=O)n(C)c(=O)n2C",  # caffeine
        "c1ccc2ccccc2c1",  # naphthalene
        "c1ccc2cc3ccccc3cc2c1",  # anthracene
        "c1ccc(cc1)-c1ccccc1",  # biphenyl
        C60,
    ],
)
def test_aromatic_round_trip_is_the_kekule_form(text):
    graph = parse_smiles(text)
    back = decode_selfies(encode_selfies(graph))
    assert validity(back)
    assert graphs_isomorphic(back, kekule_form(graph))


def test_aromatic_encode_is_stable_after_one_round():
    for text in ["Cc1ccccc1", "c1ccc2ccccc2c1", "N#Cc1ccccc1"]:
        stream = encode_selfies(parse_smiles(text))
        once = decode_selfies(stream)
        assert validity(once)
        assert encode_selfies(once).text() == stream.text()


def test_round_trip_random_supported_molecules():
    rng = random.Random(314)
    done = 0
    for _ in range(300):
        g = random_molecule(rng)
        try:
            stream = encode_selfies(g)
        except NotEncodable:
            continue
        back = decode_selfies(stream)
        assert graphs_isomorphic(g, back), stream.text()
        done += 1
    assert done >= 200


def _frame_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize(
    "write, expected",
    [(canonical_smiles, "C" * 400), (lambda g: encode_selfies(g).text(), "[C]" * 400)],
    ids=["canonical_smiles", "encode_selfies"],
)
def test_writers_do_not_recurse(write, expected):
    # a writer that recursed once per atom would need 400 frames here
    graph = parse_smiles("C" * 400)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 150)
    try:
        assert write(graph) == expected
    finally:
        sys.setrecursionlimit(limit)


def _path_labels(graph) -> list:
    """Atom and bond labels along a graph that must be a simple path, read
    from the end that gives the smaller sequence: two paths are isomorphic
    exactly when these agree."""
    n = len(graph.atoms)
    adjacency = graph.adjacency()
    assert len(graph.bonds) == n - 1
    assert all(len(adjacency[i]) <= 2 for i in range(n))
    end = next(i for i in range(n) if len(adjacency[i]) == 1)
    labels, prev, cur = [], None, end
    while cur is not None:
        atom = graph.atoms[cur]
        labels.append((atom.element, atom.charge, graph.total_h(cur)))
        step = next((bi for bi in adjacency[cur] if graph.bonds[bi].other(cur) != prev), None)
        prev, cur = cur, None
        if step is not None:
            labels.append(graph.bonds[step].order)
            cur = graph.bonds[step].other(prev)
    assert len(labels) == 2 * n - 1  # the walk reached every atom
    return min(labels, labels[::-1])


def test_long_chain_round_trip():
    # 1428 units of 7 atoms and 4 more carbons: a 10,000-atom chain
    text = "CC=CCOCN" * 1428 + "CCCC"
    graph = parse_smiles(text)
    assert len(graph.atoms) == 10_000
    back = decode_selfies(encode_selfies(graph))
    assert _path_labels(back) == _path_labels(graph)


def test_long_ring_token_stream():
    # each [Ring1][C] asks for the bond to the previous atom, which the
    # chain already has: the lookup must not scan every bond made so far
    start = time.process_time()
    graph = decode_selfies("[C][Ring1][C]" * 8000)
    assert time.process_time() - start < 1.0
    assert len(graph.atoms) == 8000
    assert [(b.a, b.b, b.order) for b in graph.bonds] == [(i, i + 1, 1) for i in range(7999)]
    assert validity(graph)


_VOCAB = [
    "[C]", "[=C]", "[#C]", "[O]", "[=O]", "[N]", "[=N]", "[#N]", "[S]",
    "[P]", "[F]", "[Cl]", "[Br]", "[I]", "[B]", "[O-1]", "[N+1]", "[S-1]",
    "[Ring1]", "[Ring2]", "[Ring3]", "[=Ring1]", "[#Ring2]",
    "[Branch1]", "[=Branch1]", "[#Branch1]", "[Branch2]", "[=Branch2]",
    "[Branch3]", "[Xe]", "[gibberish]", "[H]",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=50))
def test_decode_robustness_property(tokens):
    graph = decode_selfies(SelfiesStream(tuple(tokens)))
    assert len(graph.atoms) >= 0
    assert validity(graph)


@pytest.mark.parametrize("levels", [1100, 10_000])
def test_deeply_nested_branches_decode(levels):
    # every [Branch3][P][P][P] opens a branch over the next 4096 tokens, so
    # the scopes nest about a thousand deep: decoding must not recurse
    start = time.process_time()
    graph = decode_selfies("[C]" + "[Branch3][P][P][P]" * levels + "[C]")
    assert time.process_time() - start < 2.0
    assert [(b.a, b.b, b.order) for b in graph.bonds] == [(0, 1, 1)]
    assert validity(graph)


def _perfbench_library():
    path = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, path)
    try:
        return importlib.import_module("library")
    finally:
        sys.path.remove(path)


def _refusal(encode, graph):
    try:
        encode(graph)
    except NotEncodable as exc:
        return str(exc)
    return None


def test_verdict_refuses_exactly_where_the_writer_does(monkeypatch):
    lib = _perfbench_library()
    rng = random.Random(7)
    texts = list(lib.LIBRARY)
    for smiles in lib.LIBRARY:
        texts += [lib.reorder(smiles, rng) for _ in range(40)]
    texts += [
        lib.CHAIN_1500, lib.C60, lib.TETRA_TERT_BUTYLMETHANE, lib.NON_KEKULIZABLE,
        "[NH4+]", "[O-]C(=O)C", "C[N+](C)(C)C", "[Cl-]", "[13CH4]", "CC.O", "[Na+].[Cl-]",
        "[Fe]", "[Xe]C", "[CH2]C",
    ]
    refusals = {}
    for text in texts:
        graph = parse_smiles(text)
        refusals[text] = _refusal(encode_selfies, graph)
        assert _refusal(check_encodable, parse_smiles(text)) == refusals[text], text
    assert sum(r is None for r in refusals.values()) > 2000
    assert {r for r in refusals.values() if r is not None} == {
        "aromatic system has no Kekulé form", "isotope labels not encodable", "multiple components",
        "element Fe not encodable", "element Xe not encodable", "charge leaves no bonding capacity",
        "hydrogen count is not at its derived default",
    }

    # the writer runs only where atoms + 4 * bonds > 4096, the one place it
    # may refuse: a branch or a ring that needs a fourth index digit
    written = []
    write = selfies._write_selfies

    def counted(graph, orders):
        written.append(len(graph.atoms))
        return write(graph, orders)

    monkeypatch.setattr(selfies, "_write_selfies", counted)
    too_large = "structure too large for index encoding"
    for text, atoms, refusal in [
        ("C(" + "C" * 4100 + ")C", 4102, too_large),
        ("C1" + "C" * 4200 + "C1", 4202, too_large),
        ("C" * 5000, 5000, None),
        ("C(C)" * 411, 822, None),  # 822 + 4 * 821 = 4106
        ("C(C)" * 410, None, None),  # 820 + 4 * 819 = 4096
        ("C1" + "C" * 817 + "C1", None, None),  # 819 + 4 * 819 = 4095
    ]:
        written.clear()
        assert _refusal(check_encodable, parse_smiles(text)) == refusal, text
        assert written == ([] if atoms is None else [atoms]), text
        assert _refusal(encode_selfies, parse_smiles(text)) == refusal, text
