"""Binary molecular fingerprints and Tanimoto similarity.

Two families: circular neighborhoods grown around each atom, and simple
bond paths encoded direction-canonically. Both hash structural features
with 64-bit FNV-1a and fold them into a fixed-width bitset. A feature's
bit is its hash modulo the width, which depends only on the hash's low
bits, so path_fp and morgan_fp carry only those bits where they can.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .molgraph.model import MolGraph

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
# paths path_features extends per lane pass: wide enough for the pass to pay
# for itself, small enough to bound the paths held at once
_CHUNK = 256


class WidthMismatch(ValueError):
    pass


class KindMismatch(ValueError):
    pass


def _fnv1a(data: bytes, h: int = _FNV_OFFSET, mask: int = _MASK64) -> int:
    """64-bit FNV-1a of data, continuing from state h, and with bits above
    mask (2**k - 1, k <= 64) dropped. The low k bits of a step's result
    depend only on the low k bits of its state, so a state carried at k bits
    ends in the low k bits of the 64-bit hash."""
    prime = _FNV_PRIME & mask
    h &= mask
    for byte in data:
        h = ((h ^ byte) * prime) & mask
    return h


def _fnv1a_lanes(
    states: list[int], texts: list[bytes], width: int, mask: int = _MASK64
) -> list[int]:
    """[_fnv1a(text, state, mask) for state, text in zip(states, texts)] for
    texts of `width` bytes each, in one pass over the byte columns.

    Each state sits in a lane of one Python int. Per byte, one XOR takes in
    that byte of every text, then one multiply by the prime and one AND with
    the lane mask step every lane. A lane is 4 bytes while a masked state
    XOR a byte, times the masked prime, stays below 2**32 (masks up to
    2**23 - 1), and 16 bytes otherwise: a 64-bit state times the prime stays
    below 2**105. Either way no carry reaches the next lane.
    """
    n = len(states)
    prime = _FNV_PRIME & mask
    if max(mask.bit_length(), 8) + prime.bit_length() <= 32:
        size, stride, layout = 4, 1, f"<{n}I"
        words = [state & mask for state in states]
    else:
        # lane i is words 2i (the state) and 2i + 1 (zero) of a little-endian
        # word array; one "<{2n}Q" format keeps struct's format cache small
        size, stride, layout = 16, 2, f"<{2 * n}Q"
        words = [0] * (2 * n)
        words[::2] = states
    lanes = int.from_bytes(mask.to_bytes(min(size, 8), "little").ljust(size, b"\0") * n, "little")
    h = int.from_bytes(struct.pack(layout, *words), "little") & lanes
    joined = b"".join(texts)
    column = bytearray(size * n)
    for j in range(width):
        column[::size] = joined[j::width]
        h = ((h ^ int.from_bytes(column, "little")) * prime) & lanes
    return list(struct.unpack(layout, h.to_bytes(size * n, "little"))[::stride])


def _check_width(width: int) -> None:
    # a fold builds one int of `width` bits: 2 MB at the upper bound
    if width < 64 or width & (width - 1) or width > 1 << 24:
        raise ValueError("width must be a power of two, at least 64 and at most 2**24")


@dataclass(frozen=True)
class Fingerprint:
    bits: int
    width: int
    kind: str

    def __post_init__(self):
        _check_width(self.width)

    def popcount(self) -> int:
        return self.bits.bit_count()


def _atom_codes(graph: MolGraph) -> list[int]:
    """The graph's round-0 atom codes, computed once per graph for both
    fingerprints."""
    if graph._atom_codes is None:
        graph._atom_codes = _initial_codes(graph)
    return graph._atom_codes


def _initial_codes(graph: MolGraph) -> list[int]:
    """FNV-1a of each atom's graph invariant, its fields joined by "|".
    Each distinct invariant is hashed once."""
    invariants = graph.atom_invariants()
    hashed = {inv: _fnv1a("|".join(map(str, inv)).encode()) for inv in set(invariants)}
    return [hashed[inv] for inv in invariants]


def morgan_features(graph: MolGraph, radius: int) -> set[int]:
    """All neighborhood codes for radii 0..radius."""
    return _morgan_hashes(graph, radius, _MASK64)


def _morgan_hashes(graph: MolGraph, radius: int, mask: int) -> set[int]:
    """{code & mask for code in morgan_features(graph, radius)}.

    A round's codes enter the next round's text as 16 hex digits, so the
    rounds before the last stay 64-bit; only the last round is hashed at
    the bits of mask. Each distinct text of a round is hashed once.
    """
    codes = _atom_codes(graph)
    features = {code & mask for code in codes}
    # per atom, the "|order:" head of each bond's piece and the neighbour
    heads = [
        [(f"|{graph.bonds[bi].order}:", graph.bonds[bi].other(idx)) for bi in bonds]
        for idx, bonds in enumerate(graph.adjacency())
    ]
    for step in range(radius):
        round_mask = mask if step == radius - 1 else _MASK64
        hexes = [f"{code:016x}" for code in codes]
        hashed: dict[str, int] = {}
        codes = []
        for own, env in zip(hexes, heads):
            # orders are one digit and codes 16 hex digits, so the pieces'
            # text order is their (order, code) order
            payload = own + "".join(sorted([head + hexes[nbr] for head, nbr in env]))
            code = hashed.get(payload)
            if code is None:
                code = hashed[payload] = _fnv1a(payload.encode(), mask=round_mask)
            codes.append(code)
        features.update([code & mask for code in codes])
    return features


def path_features(graph: MolGraph, max_len: int) -> set[int]:
    """One feature per simple bond path of 1..max_len bonds.

    A path's text is its atom codes (16 lowercase hex digits) and bond
    orders joined by "-", read in the direction whose text is smaller; the
    feature is the FNV-1a hash of that text. Each path's hash extends its
    parent path's hash with the step's bytes. The walk goes one bond at a
    time over a chunk of at most _CHUNK paths and hashes the chunk's
    distinct (parent state, step) pairs in one lane pass; the paths it
    grows go back on a stack worked depth-first, so a cage or a long chain
    never holds a whole level of paths.
    """
    return _path_hashes(graph, max_len, _MASK64)


def _path_hashes(graph: MolGraph, max_len: int, mask: int) -> set[int]:
    """{feature & mask for feature in path_features(graph, max_len)}, from
    states carried at the bits of mask all along the walk."""
    if max_len < 1:  # no path would reach max_len bonds, so the walk never stops
        raise ValueError("max_len must be at least 1")
    codes = _atom_codes(graph)
    # one step per directed bond: (neighbour, bytes the step appends to the
    # text, its (order, code) tokens)
    steps: list[list[tuple[int, bytes, int, int]]] = [[] for _ in codes]
    for bond in graph.bonds:
        for src, dst in ((bond.a, bond.b), (bond.b, bond.a)):
            text = f"-{bond.order}-{codes[dst]:016x}".encode()
            steps[src].append((dst, text, bond.order, codes[dst]))
    features: set[int] = set()
    for start in range(0, len(codes), _CHUNK):
        roots = range(start, min(start + _CHUNK, len(codes)))
        states = _fnv1a_lanes(
            [_FNV_OFFSET] * len(roots), [f"{codes[i]:016x}".encode() for i in roots], 16, mask
        )
        # each path carries its atoms, its tokens (c0, o1, c1, ...) and the
        # FNV-1a state of its forward text
        stack = [((i,), (codes[i],), state) for i, state in zip(roots, states)]
        while stack:
            chunk = stack[-_CHUNK:]
            del stack[-_CHUNK:]
            # symmetric parts (tert-butyl, rings, CF3) reach one (state,
            # step) many times, and masked states of different paths meet:
            # each distinct pair takes one lane
            lanes: dict[tuple[int, bytes], int] = {}
            kept = []  # lanes of the canonical extensions
            grown = []  # extensions to walk further, with their lanes
            for atoms, tokens, state in chunk:
                longest = len(atoms) == max_len  # extensions have max_len bonds
                first = tokens[0]
                for nbr, text, order, code in steps[atoms[-1]]:
                    if nbr in atoms:
                        continue
                    ext = tokens + (order, code)
                    # Codes are fixed-width 16-digit lowercase hex and bond
                    # orders single digits (1-4), so both directions' texts
                    # align token by token and tuple order equals text order;
                    # the end codes decide it unless they are equal. The walk
                    # reaches each path from both ends and keeps it where its
                    # text is not larger.
                    canonical = first < code if first != code else ext <= ext[::-1]
                    if longest and not canonical:
                        continue  # nothing extends it, so it is never hashed
                    lane = lanes.setdefault((state, text), len(lanes))
                    if canonical:
                        kept.append(lane)
                    if not longest:
                        grown.append((atoms + (nbr,), ext, lane))
            # every step text is 19 bytes: "-", the order, "-", 16 hex digits
            hashes = _fnv1a_lanes([s for s, _ in lanes], [t for _, t in lanes], 19, mask)
            features.update([hashes[lane] for lane in kept])
            stack += [(atoms, ext, hashes[lane]) for atoms, ext, lane in grown]
    return features


def _fold(features: set[int], width: int, kind: str) -> Fingerprint:
    bits = 0
    for feature in features:
        bits |= 1 << (feature % width)
    return Fingerprint(bits=bits, width=width, kind=kind)


def morgan_fp(graph: MolGraph, radius: int = 2, width: int = 2048) -> Fingerprint:
    if not 0 <= radius <= 6:
        raise ValueError("radius must be in [0, 6]")
    _check_width(width)  # before the walk, not after it
    return _fold(_morgan_hashes(graph, radius, width - 1), width, f"morgan:{radius}")


def path_fp(graph: MolGraph, max_len: int = 7, width: int = 2048) -> Fingerprint:
    if not 1 <= max_len <= 7:
        raise ValueError("max_len must be in [1, 7]")
    _check_width(width)  # before the walk, not after it
    return _fold(_path_hashes(graph, max_len, width - 1), width, f"path:{max_len}")


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    if a.width != b.width:
        raise WidthMismatch(f"widths differ: {a.width} vs {b.width}")
    if a.kind != b.kind:
        raise KindMismatch(f"kinds differ: {a.kind} vs {b.kind}")
    union = (a.bits | b.bits).bit_count()
    if union == 0:
        return 1.0
    return (a.bits & b.bits).bit_count() / union
