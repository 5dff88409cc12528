"""Fixed inputs of the benchmark: drug-like SMILES, the hostile set, and a
small SMILES reader/writer used to write a molecule in another atom order.

Everything here is independent of moleval: the program only ever sees the
files the generators write.
"""

from __future__ import annotations

import heapq
import re

# Drug-like molecules and common metabolites, written without stereo marks.
LIBRARY = (
    "CC(=O)Oc1ccccc1C(=O)O",
    "Cn1cnc2c1c(=O)n(C)c(=O)n2C",
    "CC(C)Cc1ccc(cc1)C(C)C(=O)O",
    "CC(=O)Nc1ccc(O)cc1",
    "CN1CCCC1c1cccnc1",
    "COc1ccc2[nH]cc(CCNC(C)=O)c2c1",
    "CC(C)NCC(O)c1ccc(O)c(O)c1",
    "NCCc1ccc(O)c(O)c1",
    "CN(C)CCCN1c2ccccc2CCc2ccccc21",
    "Clc1ccc(cc1)C(c1ccccc1)N1CCN(CC1)CCOCC(=O)O",
    "CC(C)(C)NCC(O)c1ccc(O)c(CO)c1",
    "OC(=O)CCCc1c[nH]c2ccccc12",
    "CCOC(=O)C1=C(C)NC(C)=C(C1c1ccccc1Cl)C(=O)OC",
    "CC1=CC(=O)c2ccccc2C1=O",
    "O=C(O)c1ccccc1O",
    "CCN(CC)CC(=O)Nc1c(C)cccc1C",
    "CN1CCN(CC1)c1ccc(cc1)C(=O)O",
    "CCCCC(CC)COC(=O)c1ccccc1C(=O)OCC(CC)CCCC",
    "OCC1OC(O)C(O)C(O)C1O",
    "OC(=O)C(O)CC(O)(CC(O)=O)C(O)=O",
    "CC(O)C(=O)O",
    "NC(CCCCN)C(=O)O",
    "NC(Cc1ccccc1)C(=O)O",
    "NC(Cc1c[nH]c2ccccc12)C(=O)O",
    "NC(Cc1ccc(O)cc1)C(=O)O",
    "CSCCC(N)C(=O)O",
    "NC(CS)C(=O)O",
    "OC(=O)CCC(N)C(=O)O",
    "NC(=O)CCC(N)C(=O)O",
    "CC(C)CC(N)C(=O)O",
    "CCC(C)C(N)C(=O)O",
    "OC(=O)C1CCCN1",
    "NC(CCCNC(N)=N)C(=O)O",
    "CCCCCCCCCCCCCCCC(=O)O",
    "CCCCCCCCC=CCCCCCCCC(=O)O",
    "CC(C)=CCCC(C)=CCO",
    "CC1=CCC(CC1)C(C)=C",
    "CC(C)C1CCC(C)CC1O",
    "O=Cc1ccc(O)c(OC)c1",
    "COc1cc(C=CC(=O)O)ccc1O",
    "Oc1ccc(C=Cc2cc(O)cc(O)c2)cc1",
    "O=C1CC(c2ccc(O)cc2)Oc2cc(O)cc(O)c12",
    "O=c1cc(-c2ccc(O)c(O)c2)oc2cc(O)cc(O)c12",
    "OC1Cc2c(O)cc(O)cc2OC1c1ccc(O)c(O)c1",
    "CC(=O)OCC(=O)C1(O)CCC2C3CCC4=CC(=O)CCC4(C)C3C(O)CC21C",
    "CC12CCC3c4ccc(O)cc4CCC3C1CCC2O",
    "CC(C)CCCC(C)C1CCC2C3CC=C4CC(O)CCC4(C)C3CCC12C",
    "OC(=O)c1ccccc1Nc1cccc(c1)C(F)(F)F",
    "COc1ccc2cc(ccc2c1)C(C)C(=O)O",
    "OC(=O)Cc1ccccc1Nc1c(Cl)cccc1Cl",
    "CC(=O)c1ccc(cc1)S(=O)(=O)NC(=O)NC1CCCCC1",
    "Cc1ccc(cc1)S(=O)(=O)NC(=O)NCCCC",
    "NS(=O)(=O)c1cc(C(=O)O)c(NCc2ccco2)cc1Cl",
    "CN1C(=O)CN=C(c2ccccc2)c2cc(Cl)ccc21",
    "OC1N=C(c2ccccc2)c2cc(Cl)ccc2NC1=O",
    "CC(C)N(C)CCC(C(N)=O)(c1ccccc1)c1ccccn1",
    "CN(C)CCC=C1c2ccccc2CCc2ccccc12",
    "CNCCC(Oc1ccc(cc1)C(F)(F)F)c1ccccc1",
    "CN(C)CCOC(c1ccccc1)c1ccccc1",
    "OC(CCN1CCCCC1)(c1ccccc1)C1CCCCC1",
    "CCOc1ccccc1OCC1CNCCO1",
    "COc1ccc(CCN(C)CCCC(C#N)(C(C)C)c2ccc(OC)c(OC)c2)cc1OC",
    "CC(C)NCC(O)COc1cccc2ccccc12",
    "CC(C)NCC(O)COc1ccc(CC(N)=O)cc1",
    "COCCc1ccc(OCC(O)CNC(C)C)cc1",
    "O=C(O)c1cn(C2CC2)c2cc(N3CCNCC3)c(F)cc2c1=O",
    "CC1(C)SC2C(NC(=O)Cc3ccccc3)C(=O)N2C1C(=O)O",
    "CC1(C)SC2C(NC(=O)C(N)c3ccccc3)C(=O)N2C1C(=O)O",
    "Nc1ccc(cc1)S(=O)(=O)Nc1ccccn1",
    "Cc1onc(NS(=O)(=O)c2ccc(N)cc2)c1",
    "COc1cc(Cc2cnc(N)nc2N)cc(OC)c1OC",
    "Nc1ccc(cc1)S(=O)(=O)c1ccc(N)cc1",
    "CC(=O)NCCCOc1cccc(CN2CCCCC2)c1",
    "CN1CCCC1Cc1c[nH]c2ccc(CCS(=O)(=O)c3ccccc3)cc12",
    "O=C(CCCN1CCC(O)(CC1)c1ccc(Cl)cc1)c1ccc(F)cc1",
    "CN1CCN(CC1)C1=Nc2cc(Cl)ccc2Nc2ccccc12",
    "Clc1ccccc1C1(CCCCC1=O)NC",
    "CCC1(CC)C(=O)NC(=O)NC1=O",
    "CCC1(c2ccccc2)C(=O)NC(=O)NC1=O",
    "NC(=O)N1c2ccccc2C=Cc2ccccc12",
    "O=C1NC(=O)C(N1)(c1ccccc1)c1ccccc1",
    "CCCC(CCC)C(=O)O",
    "NCC1(CC(O)=O)CCCCC1",
    "CC(CN)CC(O)=O",
    "OC(=O)CCC(=O)O",
    "OC(=O)C=CC(=O)O",
    "OCC(O)CO",
    "NC(=O)N",
    "CC(C)(C)c1ccc(O)cc1",
    "Oc1ccc(Cl)cc1Cl",
    "Clc1ccc(cc1)C(c1ccc(Cl)cc1)C(Cl)(Cl)Cl",
    "CCOP(=S)(OCC)Oc1ccc(cc1)[N+](=O)[O-]",
    "C1CCC(CC1)NC1CCCCC1",
    "c1ccc2ccccc2c1",
    "c1ccc2cc3ccccc3cc2c1",
    "c1ccc(cc1)-c1ccccc1",
    "O=C1c2ccccc2C(=O)c2ccccc12",
    "CC(C)(C)OC(=O)NC(Cc1ccccc1)C(=O)O",
    "CCCCN1CCCCC1C(=O)Nc1c(C)cccc1C",
    "COC(=O)C1C(O)CCC2CC3c4[nH]c5ccccc5c4CCN3CC21",
    "CC(N)Cc1ccccc1",
    "CNC(C)Cc1ccccc1",
    "CNC(C)C(O)c1ccccc1",
    "OC(=O)C1=CC(O)C(O)C(O)C1",
    "CC(=O)OC1CC2CCC(C1)N2C",
    "CN1C2CCC1C(C(=O)OC)C(OC(=O)c1ccccc1)C2",
    "CCN(CC)C(=O)C1CN(C)C2Cc3c[nH]c4cccc(C2=C1)c34",
    "COc1ccc(cc1)C1Oc2ccccc2SC(C1OC(C)=O)CCN(C)C",
)

# Molecules left out of `convert --to selfies`, which stops at the first
# input it cannot encode: aromatic heterocycles and linearly fused acenes.
ACENES = frozenset({"c1ccc2cc3ccccc3cc2c1"})


def convertible(smiles: str) -> bool:
    hetero = any(t in "nops" or t[:2] in ("[n", "[o", "[p", "[s") for t in tokens(smiles))
    return smiles not in ACENES and not hetero


# The fixed hostile set: symmetric, deep, large-cage and non-kekulizable
# inputs that must never be dropped from the workloads that carry them.
TETRA_TERT_BUTYLMETHANE = "C(C(C)(C)C)(C(C)(C)C)(C(C)(C)C)C(C)(C)C"
TETRA_TERT_BUTYLMETHANE_REORDERED = "CC(C)(C)C(C(C)(C)C)(C(C)(C)C)C(C)(C)C"
CHAIN_1500 = "C" * 1500
C60 = (
    "c12c3c4c5c1c1c6c7c2c2c8c3c3c9c4c4c%10c5c5c1c1c6c6c%11c7c2c2c7c8c3c3c8c9"
    "c4c4c9c%10c5c5c1c1c6c6c%11c2c2c7c3c3c8c4c4c9c5c1c1c6c2c3c41"
)
NON_KEKULIZABLE = "c1cccc1"

_TOKEN = re.compile(r"\[[^\]]+\]|Br|Cl|%\d\d|[BCNOPSFI]|[bcnops]|[=#:/\\-]|[()]|\d")
_BOND_SYMBOLS = "=#:/\\-"


def tokens(smiles: str) -> list[str]:
    found = _TOKEN.findall(smiles)
    if "".join(found) != smiles:
        raise ValueError(f"library SMILES outside the supported subset: {smiles}")
    return found


def is_atom_token(token: str) -> bool:
    return token[0] == "[" or token[0].isalpha()


def _read_graph(smiles: str):
    """Atoms as their SMILES tokens and bonds as (a, b, symbol), where the
    symbol is the bond character written in the input ('' if implicit)."""
    atoms: list[str] = []
    bonds: list[tuple[int, int, str]] = []
    stack: list[int] = []
    rings: dict[str, tuple[int, str]] = {}
    prev = None
    pending = ""
    for token in tokens(smiles):
        if is_atom_token(token):
            atoms.append(token)
            if prev is not None:
                bonds.append((prev, len(atoms) - 1, pending))
            prev = len(atoms) - 1
            pending = ""
        elif token in _BOND_SYMBOLS:
            pending = token
        elif token == "(":
            stack.append(prev)
        elif token == ")":
            prev = stack.pop()
        else:
            if token in rings:
                other, symbol = rings.pop(token)
                bonds.append((other, prev, symbol or pending))
            else:
                rings[token] = (prev, pending)
            pending = ""
    if rings or stack:
        raise ValueError(f"unbalanced library SMILES: {smiles}")
    return atoms, bonds


def reorder(smiles: str, rng) -> str:
    """The same molecule written from a random start atom with randomly
    ordered branches, so the atom order differs from the input's."""
    atoms, bonds = _read_graph(smiles)
    adjacency: list[list[tuple[int, str]]] = [[] for _ in atoms]
    for a, b, symbol in bonds:
        adjacency[a].append((b, symbol))
        adjacency[b].append((a, symbol))
    for neighbours in adjacency:
        rng.shuffle(neighbours)

    # spanning tree by depth-first search; the remaining bonds close rings
    order: list[int] = []
    parent = {}
    children: list[list[tuple[int, str]]] = [[] for _ in atoms]
    start = rng.randrange(len(atoms))
    stack = [(start, None, "")]
    while stack:
        atom, up, symbol = stack.pop()
        if atom in parent:
            continue
        parent[atom] = up
        order.append(atom)
        if up is not None:
            children[up].append((atom, symbol))
        for nxt, sym in reversed(adjacency[atom]):
            if nxt not in parent:
                stack.append((nxt, atom, sym))
    position = {atom: i for i, atom in enumerate(order)}
    closures: list[list[tuple[int, str]]] = [[] for _ in atoms]
    for a, b, symbol in bonds:
        if parent[a] == b or parent[b] == a:
            continue
        first, second = (a, b) if position[a] < position[b] else (b, a)
        closures[first].append((second, symbol))
        closures[second].append((first, ""))

    labels: dict[tuple[int, int], int] = {}
    free = list(range(1, 100))  # a heap: the lowest free ring label is reused first
    out: list[str] = []

    def emit(atom: int):
        out.append(atoms[atom])
        released = []
        for other, symbol in closures[atom]:
            key = (min(atom, other), max(atom, other))
            if key in labels:
                released.append(labels.pop(key))
                out.append(_ring_label(released[-1]))
            else:
                labels[key] = heapq.heappop(free)
                out.append(symbol + _ring_label(labels[key]))
        for label in released:
            heapq.heappush(free, label)
        kids = children[atom]
        for i, (child, symbol) in enumerate(kids):
            last = i == len(kids) - 1
            if not last:
                out.append("(")
            out.append(symbol)
            emit(child)
            if not last:
                out.append(")")

    emit(start)
    return "".join(out)


def _ring_label(number: int) -> str:
    return str(number) if number < 10 else f"%{number}"
