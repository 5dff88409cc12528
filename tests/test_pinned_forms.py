import random

from _oracles import random_molecule
from _pinned_forms import ROWS
from moleval.molgraph import canonical_smiles, parse_smiles
from moleval.selfies import encode_selfies


def _graph(text):
    if text.startswith("random:"):
        return random_molecule(random.Random(int(text.split(":")[1])), 24)
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
