"""SMILES reader covering the organic subset, brackets, rings and branches.

Every input either yields a MolGraph or raises a SmilesError carrying the
byte offset of the offending character; no other exception escapes.
"""

from __future__ import annotations

import re

from .elements import AROMATIC_SUBSET, ORGANIC_SUBSET
from .model import AROMATIC, DOUBLE, SINGLE, TRIPLE, Atom, Bond, MolGraph


class SmilesError(ValueError):
    """Base parse error; offset is the byte position in the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EmptyInput(SmilesError):
    pass


class UnbalancedParenthesis(SmilesError):
    pass


class UnclosedRingBond(SmilesError):
    pass


class UnknownElement(SmilesError):
    pass


class BadBracketAtom(SmilesError):
    pass


class DanglingBond(SmilesError):
    """Bond symbol with no atom to attach to."""


class BadRingClosure(SmilesError):
    """Ring bond reopened on the same atom or with conflicting orders."""


class AromaticityError(SmilesError):
    """Aromatic atom that ends up outside any ring."""


# The one SMILES lexer, shared with textmetrics' smiles_regex scheme: bracket
# atoms, two-letter halogens and %nn ring labels stay whole, every other
# character (newline included) is a token, so the tokens always join back to
# the input and a token's offset is the length of the tokens before it.
# OpenSMILES digits are ASCII only, hence re.ASCII here and in _BRACKET.
SMILES_TOKEN = re.compile(r"\[[^\]]*\]|Br|Cl|%\d\d|.", re.DOTALL | re.ASCII)

_BRACKET = re.compile(
    r"\[(?P<isotope>\d+)?(?P<symbol>[A-Z][a-z]?|[bcnops])"
    r"(?P<chiral>@{1,2})?"
    r"(?P<hcount>H\d?)?"
    r"(?P<charge>\+{1,3}|-{1,3}|\+\d|-\d)?\]",
    re.ASCII,
)

_BOND_ORDERS = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC}


def parse_smiles(text: str) -> MolGraph:
    """Parse a SMILES string into a MolGraph.

    Stereo markers (@, @@, /, \\) are recorded as annotations and play no
    further role. Raises a SmilesError subclass on malformed input.
    """
    if not isinstance(text, str):
        raise EmptyInput("input must be a string", 0)
    if text == "" or text.strip() == "":
        raise EmptyInput("empty SMILES", 0)

    atoms: list[Atom] = []
    atom_pos: list[int] = []
    bonds: list[Bond] = []
    bonded: set[tuple[int, int]] = set()  # (lower, higher) atom pairs
    prev: int | None = None  # atom awaiting the next bond
    pending_order: int | None = None  # explicit bond symbol seen
    pending_stereo: str | None = None
    pending_pos = 0
    # open ring closures: number -> (atom, explicit order or None, stereo, offset)
    open_rings: dict[int, tuple[int, int | None, str | None, int]] = {}
    stack: list[tuple[int | None, int]] = []  # (prev, open paren offset)

    def add_bond(a: int, b: int, order: int | None, stereo: str | None) -> None:
        if order is None:  # no bond symbol: aromatic between aromatic atoms
            order = AROMATIC if atoms[a].aromatic and atoms[b].aromatic else SINGLE
        bonds.append(Bond(a, b, order, stereo))
        bonded.add((min(a, b), max(a, b)))

    def add_atom(atom: Atom, pos: int) -> None:
        nonlocal prev, pending_order, pending_stereo
        atoms.append(atom)
        atom_pos.append(pos)
        idx = len(atoms) - 1
        if prev is not None:
            add_bond(prev, idx, pending_order, pending_stereo)
        prev = idx
        pending_order = None
        pending_stereo = None

    def close_ring(number: int, pos: int) -> None:
        nonlocal pending_order, pending_stereo
        if prev is None:
            raise BadRingClosure("ring bond before any atom", pos)
        if number in open_rings:
            other, other_order, other_stereo, _ = open_rings.pop(number)
            if other == prev:
                raise BadRingClosure("ring bond to the same atom", pos)
            pair = (min(other, prev), max(other, prev))
            if pair in bonded:
                raise BadRingClosure("duplicate bond between atoms", pos)
            order = pending_order
            if order is not None and other_order is not None and order != other_order:
                raise BadRingClosure("conflicting ring bond orders", pos)
            add_bond(other, prev, other_order if order is None else order, pending_stereo or other_stereo)
        else:
            open_rings[number] = (prev, pending_order, pending_stereo, pos)
        pending_order = None
        pending_stereo = None

    end = 0
    for token in SMILES_TOKEN.findall(text):
        pos, end = end, end + len(token)
        if token[0] == "[":
            m = _BRACKET.fullmatch(token)
            if not m:
                raise BadBracketAtom("malformed bracket atom", pos)
            symbol = m.group("symbol")
            aromatic = symbol[0].islower()
            element = symbol if not aromatic else symbol.upper()
            hcount = m.group("hcount")
            explicit_h = 0
            if hcount:
                explicit_h = int(hcount[1:]) if len(hcount) > 1 else 1
            charge_text = m.group("charge") or ""
            if not charge_text:
                charge = 0
            elif charge_text[-1].isdigit():
                charge = int(charge_text[1:]) * (1 if charge_text[0] == "+" else -1)
            else:
                charge = len(charge_text) * (1 if charge_text[0] == "+" else -1)
            isotope = m.group("isotope")
            add_atom(
                Atom(
                    element=element,
                    charge=charge,
                    isotope=int(isotope) if isotope else None,
                    aromatic=aromatic,
                    explicit_h=explicit_h,
                    chirality=m.group("chiral"),
                ),
                pos,
            )
        elif token in ORGANIC_SUBSET or token in AROMATIC_SUBSET:
            aromatic = token.islower()
            add_atom(Atom(element=token.upper() if aromatic else token, aromatic=aromatic), pos)
        elif token.isalpha():
            raise UnknownElement(f"unknown element {token!r}", pos)
        elif token in _BOND_ORDERS:
            if prev is None:
                raise DanglingBond("bond symbol before any atom", pos)
            pending_order = _BOND_ORDERS[token]
            pending_pos = pos
        elif token in "/\\":
            if prev is None:
                raise DanglingBond("bond symbol before any atom", pos)
            pending_order = SINGLE
            pending_stereo = token
            pending_pos = pos
        elif token.isascii() and token.isdigit():
            close_ring(int(token), pos)
        elif token[0] == "%":
            if token == "%":
                raise BadRingClosure("% ring closure needs two digits", pos)
            close_ring(int(token[1:]), pos)
        elif token == "(":
            if prev is None:
                raise UnbalancedParenthesis("branch with no preceding atom", pos)
            if pending_order is not None:
                raise DanglingBond("bond symbol before branch open", pending_pos)
            stack.append((prev, pos))
        elif token == ")":
            if not stack:
                raise UnbalancedParenthesis("unmatched closing parenthesis", pos)
            if pending_order is not None:
                raise DanglingBond("dangling bond at branch close", pending_pos)
            prev, _ = stack.pop()
        elif token == ".":
            if pending_order is not None:
                raise DanglingBond("bond symbol before dot", pending_pos)
            prev = None
        elif token.isspace():
            # trailing whitespace terminates the molecule; embedded
            # whitespace is treated the same way as end of input
            if text[pos:].strip():
                raise UnknownElement("whitespace inside SMILES", pos)
            break
        else:
            raise UnknownElement(f"unexpected character {token!r}", pos)

    if stack:
        raise UnbalancedParenthesis("unclosed branch", stack[-1][1])
    if open_rings:
        number, (_, _, _, pos) = min(open_rings.items(), key=lambda kv: kv[1][3])
        raise UnclosedRingBond(f"ring bond {number} never closed", pos)
    if pending_order is not None:
        raise DanglingBond("trailing bond symbol", pending_pos)
    if not atoms:
        raise EmptyInput("no atoms in input", 0)

    graph = MolGraph(atoms, bonds)
    ring_members = graph.ring_atoms()
    for idx, atom in enumerate(atoms):
        if atom.aromatic and idx not in ring_members:
            raise AromaticityError("aromatic atom outside any ring", atom_pos[idx])
    return graph
