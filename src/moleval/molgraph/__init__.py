"""Molecular graphs: SMILES parsing, canonical form, descriptors, scaffolds."""

from .canon import UnsupportedFeature, canonical_smiles, same_form
from .elements import (
    AROMATIC_SUBSET,
    ORGANIC_SUBSET,
    allowed_valences,
    atomic_weight,
    default_valence,
    max_valence,
)
from .model import AROMATIC, DOUBLE, SINGLE, TRIPLE, Atom, Bond, MolGraph
from .parser import (
    AromaticityError,
    BadBracketAtom,
    BadRingClosure,
    DanglingBond,
    EmptyInput,
    SmilesError,
    UnbalancedParenthesis,
    UnclosedRingBond,
    UnknownElement,
    parse_smiles,
)
from .props import descriptors, murcko_scaffold, summarize_descriptors, validity

__all__ = [
    "AROMATIC",
    "AROMATIC_SUBSET",
    "Atom",
    "AromaticityError",
    "BadBracketAtom",
    "BadRingClosure",
    "Bond",
    "DOUBLE",
    "DanglingBond",
    "EmptyInput",
    "MolGraph",
    "ORGANIC_SUBSET",
    "SINGLE",
    "SmilesError",
    "TRIPLE",
    "UnbalancedParenthesis",
    "UnclosedRingBond",
    "UnknownElement",
    "UnsupportedFeature",
    "allowed_valences",
    "atomic_weight",
    "canonical_smiles",
    "default_valence",
    "descriptors",
    "max_valence",
    "murcko_scaffold",
    "parse_smiles",
    "same_form",
    "summarize_descriptors",
    "validity",
]
