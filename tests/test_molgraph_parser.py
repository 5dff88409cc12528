import time

import pytest
from hypothesis import given, settings, strategies as st

from moleval.molgraph import (
    AROMATIC,
    AromaticityError,
    BadBracketAtom,
    BadRingClosure,
    DanglingBond,
    DOUBLE,
    EmptyInput,
    SINGLE,
    SmilesError,
    TRIPLE,
    UnbalancedParenthesis,
    UnclosedRingBond,
    UnknownElement,
    parse_smiles,
    validity,
)


def test_ethanol_shape():
    g = parse_smiles("CCO")
    assert [a.element for a in g.atoms] == ["C", "C", "O"]
    assert len(g.bonds) == 2
    assert all(b.order == SINGLE for b in g.bonds)
    assert [g.total_h(i) for i in range(3)] == [3, 2, 1]


def test_bond_symbols():
    g = parse_smiles("C=C")
    assert g.bonds[0].order == DOUBLE
    g = parse_smiles("C#N")
    assert g.bonds[0].order == TRIPLE
    g = parse_smiles("C-C")
    assert g.bonds[0].order == SINGLE


def test_branches_and_rings():
    g = parse_smiles("CC(C)C")
    assert g.degree(1) == 3
    g = parse_smiles("C1CCCCC1")
    assert len(g.bonds) == 6
    assert g.rings() and len(g.rings()) == 1
    # %nn ring label
    g = parse_smiles("C%12CCC%12")
    assert len(g.bonds) == 4


def test_ring_bond_order_either_side():
    for text in ["C=1CCCCC=1", "C=1CCCCC1", "C1CCCCC=1"]:
        g = parse_smiles(text)
        closure = g.bond_between(0, 5)
        assert closure is not None and closure.order == DOUBLE


def test_aromatic_defaults():
    g = parse_smiles("c1ccccc1")
    assert all(a.aromatic for a in g.atoms)
    assert all(b.order == AROMATIC for b in g.bonds)
    assert all(g.total_h(i) == 1 for i in range(6))
    # explicit single bond between two aromatic systems stays single
    g = parse_smiles("c1ccccc1-c1ccccc1")
    bridge = g.bond_between(5, 6) or g.bond_between(0, 6)
    assert bridge is not None and bridge.order == SINGLE


def test_dot_components():
    g = parse_smiles("CCO.CC")
    assert len(g.components()) == 2
    assert len(g.bonds) == 3


def test_bracket_atoms():
    g = parse_smiles("[13CH4]")
    atom = g.atoms[0]
    assert atom.isotope == 13 and atom.explicit_h == 4 and g.total_h(0) == 4
    g = parse_smiles("[NH4+]")
    assert g.atoms[0].charge == 1 and g.total_h(0) == 4
    g = parse_smiles("[O-2]")
    assert g.atoms[0].charge == -2
    g = parse_smiles("[Cu+2]")
    assert g.atoms[0].element == "Cu" and g.atoms[0].charge == 2
    # bracket hydrogens are explicit only
    g = parse_smiles("[CH]")
    assert g.total_h(0) == 1


def test_stereo_marks_preserved():
    g = parse_smiles("F/C=C/F")
    stereos = [b.stereo for b in g.bonds]
    assert "/" in stereos
    g = parse_smiles("N[C@@H](C)O")
    assert g.atoms[1].chirality == "@@"


def test_trailing_whitespace_ok_embedded_not():
    g = parse_smiles("CCO \n")
    assert len(g.atoms) == 3
    with pytest.raises(SmilesError):
        parse_smiles("C CO")


def test_aromatic_caffeine_form_parses_and_validates():
    aromatic_form = "Cn1cnc2c1c(=O)n(C)c(=O)n2C"
    kekule_form = "CN1C=NC2=C1C(=O)N(C)C(=O)N2C"
    for text in (aromatic_form, kekule_form):
        g = parse_smiles(text)
        assert len(g.atoms) == 14
        assert validity(g)


def test_validity_rules():
    assert validity(parse_smiles("CCO"))
    assert validity(parse_smiles("[H][H]"))
    assert not validity(parse_smiles("C(C)(C)(C)(C)C"))  # pentavalent carbon
    assert validity(parse_smiles("S(=O)(=O)(O)O"))  # sulfur at 6
    assert not validity(parse_smiles("O(C)(C)C"))


@pytest.mark.parametrize(
    "text,exc,offset",
    [
        ("", EmptyInput, 0),
        ("C(C", UnbalancedParenthesis, 1),
        ("CC)", UnbalancedParenthesis, 2),
        ("C1CC", UnclosedRingBond, 1),
        ("Cx", UnknownElement, 1),
        ("[]", BadBracketAtom, 0),
        ("[C", BadBracketAtom, 0),
        ("C=", DanglingBond, 1),
        ("=CC", DanglingBond, 0),
        ("C%5", BadRingClosure, 1),
        ("C11C", BadRingClosure, 2),
        ("C12CC12", BadRingClosure, 6),
        ("C1C1", BadRingClosure, 3),
        ("cc", AromaticityError, 0),
        # errors after a multi-character token: the offset counts every
        # character of the bracket atoms, halogens and %nn labels before it
        ("C[nH]C", AromaticityError, 1),
        ("Cl[O-]c", AromaticityError, 6),
        ("Br[C", BadBracketAtom, 2),
        ("C%12C%1", BadRingClosure, 5),
        ("[NH4+]C)", UnbalancedParenthesis, 7),
        ("C%10CC%10x", UnknownElement, 9),
        # only ASCII digits are ring bonds, labels, isotopes, H counts and
        # charges; superscript and Arabic-Indic digits are none of these
        ("C\u00b2", UnknownElement, 1),
        ("C%\u00b2\u00b2", BadRingClosure, 1),
        ("C\u0663CC\u0663", UnknownElement, 1),
        ("C%\u0661\u0662CC%\u0661\u0662", BadRingClosure, 1),
        ("[\u0661\u0662C]", BadBracketAtom, 0),
        ("[CH\u0663]", BadBracketAtom, 0),
        ("[N+\u0662]", BadBracketAtom, 0),
    ],
)
def test_error_offsets(text, exc, offset):
    with pytest.raises(exc) as info:
        parse_smiles(text)
    assert info.value.offset == offset
    assert isinstance(info.value, SmilesError)
    assert f"(offset {offset})" in str(info.value)


def test_conflicting_ring_orders():
    with pytest.raises(BadRingClosure):
        parse_smiles("C=1CCCCC#1")


_ALPHABET = "CNOPSFcnos123%()[]=#+-@/\\H.Brl "


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=_ALPHABET, min_size=0, max_size=30))
def test_parser_totality(text):
    """Any input either parses or raises a positioned SmilesError."""
    try:
        graph = parse_smiles(text)
    except SmilesError as err:
        assert 0 <= err.offset <= len(text)
    else:
        assert len(graph.atoms) >= 1


def test_many_ring_closures_linear_time():
    # each closure checks for an existing bond between its two atoms: the
    # lookup must not scan every bond made so far
    start = time.process_time()
    graph = parse_smiles("C1CC1" * 4000)
    assert time.process_time() - start < 1.0
    assert (len(graph.atoms), len(graph.bonds)) == (12000, 15999)
