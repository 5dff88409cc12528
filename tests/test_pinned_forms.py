import random

from _oracles import disjoint_union, graphs_isomorphic, kekule_form, random_molecule
from _pinned_forms import ROWS
from moleval.molgraph import canonical_smiles, parse_smiles
from moleval.selfies import decode_selfies, encode_selfies


def _graph(text):
    if text.startswith("random:"):
        seeds = text.split(":")[1].split("+")
        return disjoint_union([random_molecule(random.Random(int(s)), 24) for s in seeds])
    return parse_smiles(text)


def _outcome(write):
    try:
        return write()
    except ValueError as exc:
        return type(exc).__name__


def test_pinned_canonical_and_selfies_forms():
    assert len(ROWS) >= 300
    mismatches = []
    for text, canon, selfies in ROWS:
        graph = _graph(text)
        got = (
            _outcome(lambda: canonical_smiles(graph)),
            _outcome(lambda: encode_selfies(graph).text()),
        )
        if got != (canon, selfies):
            mismatches.append((text, (canon, selfies), got))
    assert mismatches == []


def test_pinned_selfies_decode_to_the_kekule_input():
    checked = 0
    for text, _, selfies in ROWS:
        if selfies.startswith("["):
            assert graphs_isomorphic(decode_selfies(selfies), kekule_form(_graph(text))), text
            checked += 1
    assert checked >= 200
