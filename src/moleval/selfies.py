"""Robust SELFIES-style codec.

Decoding is total over token streams: bond requests are capped by the
remaining valence of both endpoints, unknown bracketed tokens derive
nothing, and hydrogen counts are assigned afterwards so that every
decoded graph passes the validity check. Encoding is the inverse on the
supported set (single-component graphs over the core element table,
hydrogen counts at their derived defaults, aromatic systems that have a
Kekulé form).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .molgraph.elements import ALLOWED_VALENCES, allowed_valences, hydrogens_to_fill, max_valence
from .molgraph.model import DOUBLE, SINGLE, TRIPLE, Atom, Bond, MolGraph


class EmptyStream(ValueError):
    pass


class StrayCharacter(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class NotEncodable(ValueError):
    pass


@dataclass(frozen=True)
class SelfiesStream:
    tokens: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def text(self) -> str:
        return "".join(self.tokens)


_TOKEN_TEXT = re.compile(r"\[[^\[\]]*\]")
_ATOM_TOKEN = re.compile(r"\[([=#]?)([A-Z][a-z]?)(?:([+-])(\d))?\]", re.ASCII)
_STRUCT_TOKEN = re.compile(r"\[([=#]?)(Ring|Branch)([123])\]")

_PREFIX_ORDER = {"": SINGLE, "=": DOUBLE, "#": TRIPLE}
_ORDER_PREFIX = {SINGLE: "", DOUBLE: "=", TRIPLE: "#"}

# Hexadecimal digit alphabet for ring lengths and branch sizes.
INDEX_ALPHABET = (
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
_INDEX_VALUE = {tok: i for i, tok in enumerate(INDEX_ALPHABET)}


def tokenize_selfies(text: str) -> SelfiesStream:
    """Split a SELFIES string into bracketed tokens.

    Raises StrayCharacter at the first byte outside any [token].
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_TEXT.match(text, pos)
        if not m:
            raise StrayCharacter(f"unexpected character {text[pos]!r}", pos)
        tokens.append(m.group(0))
        pos = m.end()
    return SelfiesStream(tuple(tokens))


# -- decoding ----------------------------------------------------------------


class _Decoder:
    def __init__(self):
        self.atoms: list[Atom] = []
        self.bonds: list[Bond] = []
        self.caps: list[int] = []
        self.bonded: set[tuple[int, int]] = set()  # (lower, higher) atom pairs

    def add_atom(self, element: str, charge: int) -> int:
        self.atoms.append(Atom(element=element, charge=charge))
        self.caps.append(max_valence(element, charge))
        return len(self.atoms) - 1

    def add_bond(self, a: int, b: int, order: int) -> None:
        self.bonds.append(Bond(a, b, order))
        self.bonded.add((min(a, b), max(a, b)))
        self.caps[a] -= order
        self.caps[b] -= order

    def has_bond(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.bonded

    def derive(self, tokens: list[str]) -> None:
        """Derive a token stream. Each branch scope is a frame of (end,
        index, current atom, first cap) on an explicit stack: a branch
        suspends its scope, derives its body tokens[index:end] from the
        current atom, and the scope resumes after it."""
        stack = [(len(tokens), 0, None, None)]
        while stack:
            end, idx, cur, first_cap = stack.pop()
            while idx < end:
                token = tokens[idx]
                idx += 1
                struct = _STRUCT_TOKEN.fullmatch(token)
                if struct:
                    prefix, kind, size = struct.groups()
                    width = int(size)
                    value = self._read_index(tokens, idx, width, end)
                    idx += width
                    if kind == "Ring":
                        self._close_ring(cur, value + 1, _PREFIX_ORDER[prefix])
                        continue
                    body_end = min(idx + value + 1, end)
                    if cur is not None and self.caps[cur] >= 2 and idx < body_end:
                        stack.append((end, body_end, cur, first_cap))
                        end, first_cap = body_end, _PREFIX_ORDER[prefix]
                    else:
                        idx = max(idx, body_end)
                    continue

                atom = _ATOM_TOKEN.fullmatch(token)
                if not atom:
                    continue  # unknown token: nothing to derive
                prefix, element, sign, digits = atom.groups()
                if element not in ALLOWED_VALENCES:
                    continue
                charge = 0
                if sign:
                    charge = int(digits) * (1 if sign == "+" else -1)
                capacity = max_valence(element, charge)
                if cur is None:
                    cur = self.add_atom(element, charge)
                    continue
                if self.caps[cur] == 0:
                    break  # exhausted attachment ends this derivation scope
                if capacity == 0:
                    continue
                req = _PREFIX_ORDER[prefix]
                if first_cap is not None:
                    req = min(req, first_cap)
                    first_cap = None
                order_value = min(req, self.caps[cur], capacity)
                new = self.add_atom(element, charge)
                self.add_bond(cur, new, order_value)
                cur = new

    def _read_index(self, tokens: list[str], idx: int, width: int, end: int) -> int:
        value = 0
        for k in range(width):
            digit = 0
            if idx + k < end:
                digit = _INDEX_VALUE.get(tokens[idx + k], 0)
            value = value * 16 + digit
        return value

    def _close_ring(self, cur: int | None, length: int, order: int) -> None:
        if cur is None:
            return
        target = max(0, cur - length)
        if target == cur or self.has_bond(cur, target):
            return
        value = min(order, self.caps[cur], self.caps[target])
        if value == 0:
            return
        self.add_bond(cur, target, value)

    def finish(self) -> MolGraph:
        # bonds never exceed caps, so every atom has a derived count
        for atom, cap in zip(self.atoms, self.caps):
            bonded = max_valence(atom.element, atom.charge) - cap
            atom.explicit_h = hydrogens_to_fill(allowed_valences(atom.element, atom.charge), bonded)
        return MolGraph(self.atoms, self.bonds)


def decode_selfies(stream: SelfiesStream | str) -> MolGraph:
    """Decode a token stream into a molecular graph.

    Never fails on a non-empty stream; the result always satisfies the
    validity check.
    """
    if isinstance(stream, str):
        stream = tokenize_selfies(stream)
    tokens = list(stream)
    if not tokens:
        raise EmptyStream("no tokens to decode")
    decoder = _Decoder()
    decoder.derive(tokens)
    return decoder.finish()


# -- encoding ----------------------------------------------------------------


def encode_selfies(graph: MolGraph) -> SelfiesStream:
    """Encode a molecular graph; decode_selfies inverts it up to graph
    isomorphism (aromatic rings come back in the Kekulé form of
    MolGraph.kekulize).

    Raises NotEncodable for graphs outside the supported set: empty or
    multi-component graphs, elements beyond the core table, isotopes,
    charges beyond one digit, hydrogen counts away from their derived
    defaults, aromatic systems with no Kekulé form, or structures whose
    ring or branch sizes need more than three index digits.
    """
    return _write_selfies(graph, _checked_orders(graph))


def check_encodable(graph: MolGraph) -> None:
    """Raises NotEncodable exactly where encode_selfies does, writing the
    stream only where its size could make the writer refuse.

    The writer refuses an index of 4096 or more. An index is an atom
    distance or a token count less one, and the stream holds one token per
    atom plus at most one ring or branch head of at most four tokens per
    bond, so no index reaches 4096 while atoms + 4 * bonds <= 4096.
    """
    orders = _checked_orders(graph)
    if len(graph.atoms) + 4 * len(graph.bonds) > 4096:
        _write_selfies(graph, orders)


def _checked_orders(graph: MolGraph) -> list[int]:
    """The Kekulé bond orders of a graph in the supported set; raises
    NotEncodable for any other graph."""
    if not graph.atoms:
        raise NotEncodable("empty graph")
    if len(graph.components()) > 1:
        raise NotEncodable("multiple components")
    for atom in graph.atoms:
        if atom.element not in ALLOWED_VALENCES:
            raise NotEncodable(f"element {atom.element} not encodable")
        if atom.isotope is not None:
            raise NotEncodable("isotope labels not encodable")
        if abs(atom.charge) > 9:
            raise NotEncodable("charge magnitude above 9")
        if atom.charge and allowed_valences(atom.element, atom.charge) == (0,):
            raise NotEncodable("charge leaves no bonding capacity")

    bonded = graph.kekule_bond_sums()
    if bonded is None:
        raise NotEncodable("aromatic system has no Kekulé form")

    for idx, atom in enumerate(graph.atoms):
        derived_h = hydrogens_to_fill(allowed_valences(atom.element, atom.charge), bonded[idx])
        if derived_h is None:
            raise NotEncodable("bond orders exceed the element's valence")
        if derived_h != graph.total_h(idx):
            raise NotEncodable("hydrogen count is not at its derived default")
    return graph.kekulize()


def _write_selfies(graph: MolGraph, orders: list[int]) -> SelfiesStream:
    """The stream of a graph that passed _checked_orders; raises
    NotEncodable when a ring or branch size needs a fourth index digit."""
    visited = [False] * len(graph.atoms)
    position: dict[int, int] = {}
    bond_done = [False] * len(graph.bonds)

    def atom_token(idx: int, order: int) -> str:
        atom = graph.atoms[idx]
        charge = f"{atom.charge:+d}" if atom.charge else ""
        return f"[{_ORDER_PREFIX[order]}{atom.element}{charge}]"

    def index_tokens(value: int) -> list[str]:
        """Hexadecimal digits of value, most significant first."""
        if value >= 4096:
            raise NotEncodable("structure too large for index encoding")
        width = 1 if value < 16 else 2 if value < 256 else 3
        return [INDEX_ALPHABET[(value >> 4 * k) & 15] for k in reversed(range(width))]

    def struct_token(kind: str, order: int, value: int) -> list[str]:
        digits = index_tokens(value)
        return [f"[{_ORDER_PREFIX[order]}{kind}{len(digits)}]"] + digits

    def enter(idx: int, parent_order: int) -> tuple:
        """Frame (atom, order, tokens, finished subtrees as (order, token
        count, tokens), bonds to try)."""
        visited[idx] = True
        position[idx] = len(position)
        out = [atom_token(idx, parent_order)]
        adjacent = graph.adjacency()[idx]
        # ring closures back to already-derived atoms
        for bi in adjacent:
            nbr = graph.bonds[bi].other(idx)
            if bond_done[bi] or not visited[nbr]:
                continue
            bond_done[bi] = True
            out.extend(struct_token("Ring", orders[bi], position[idx] - position[nbr] - 1))
        pending = sorted(adjacent, key=lambda b: graph.bonds[b].other(idx))
        return idx, parent_order, out, [], iter(pending)

    # depth-first on an explicit stack: a frame whose bonds are all tried
    # is finished, its branches written, and handed to its parent's subtrees;
    # a subtree's token list is nested in its parent's, not copied, and the
    # whole tree is flattened once, so a chain costs linear time
    stack = [enter(0, SINGLE)]
    while True:
        idx, order, out, subtrees, pending = stack[-1]
        for bi in pending:
            nbr = graph.bonds[bi].other(idx)
            if bond_done[bi] or visited[nbr]:
                continue
            bond_done[bi] = True
            stack.append(enter(nbr, orders[bi]))
            break
        else:
            stack.pop()
            size = len(out)
            for k, (sub_order, sub_size, body) in enumerate(subtrees):
                if k < len(subtrees) - 1:
                    head = struct_token("Branch", sub_order, sub_size - 1)
                    out.extend(head)
                    size += len(head)
                out.append(body)
                size += sub_size
            if not stack:
                return SelfiesStream(tuple(_flatten(out)))
            stack[-1][3].append((order, size, out))


def _flatten(nested: list) -> list[str]:
    """Tokens of a list whose items are tokens or nested lists, in order,
    on an explicit stack."""
    tokens: list[str] = []
    stack = [iter(nested)]
    while stack:
        for item in stack[-1]:
            if isinstance(item, list):
                stack.append(iter(item))
                break
            tokens.append(item)
        else:
            stack.pop()
    return tokens
