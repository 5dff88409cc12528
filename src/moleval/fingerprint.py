"""Binary molecular fingerprints and Tanimoto similarity.

Two families: circular neighborhoods grown around each atom, and simple
bond paths encoded direction-canonically. Both hash structural features
with 64-bit FNV-1a and fold them into a fixed-width bitset.
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


def _fnv1a(data: bytes, h: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a of data, continuing from state h."""
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _fnv1a_lanes(states: list[int], texts: list[bytes], width: int) -> list[int]:
    """[_fnv1a(text, state) for state, text in zip(states, texts)] for texts
    of `width` bytes each, in one pass over the byte columns.

    Each state sits in a 128-bit lane of one Python int. Per byte, one XOR
    takes in that byte of every text, then one multiply by the prime and
    one AND with the lane mask step every lane: a 64-bit state times the
    prime stays below 2**105, so no carry reaches the next lane.
    """
    n = len(states)
    # lane i is words 2i (the state) and 2i + 1 (zero) of a little-endian
    # word array; one "<{2n}Q" format keeps struct's format cache small
    layout = f"<{2 * n}Q"
    words = [0] * (2 * n)
    words[::2] = states
    h = int.from_bytes(struct.pack(layout, *words), "little")
    mask = int.from_bytes((b"\xff" * 8 + bytes(8)) * n, "little")
    joined = b"".join(texts)
    column = bytearray(16 * n)
    for j in range(width):
        column[::16] = joined[j::width]
        h = ((h ^ int.from_bytes(column, "little")) * _FNV_PRIME) & mask
    return list(struct.unpack(layout, h.to_bytes(16 * n, "little"))[::2])


def _check_width(width: int) -> None:
    if width < 64 or width & (width - 1):
        raise ValueError("width must be a power of two, at least 64")


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
    ring = graph.ring_atoms()
    codes = []
    for idx, atom in enumerate(graph.atoms):
        payload = "|".join(
            (
                atom.element,
                str(graph.degree(idx)),
                str(atom.charge),
                str(graph.implicit_h(idx)),
                str(int(idx in ring)),
                str(int(atom.aromatic)),
            )
        )
        codes.append(_fnv1a(payload.encode()))
    return codes


def morgan_features(graph: MolGraph, radius: int) -> set[int]:
    """All neighborhood codes for radii 0..radius."""
    codes = _atom_codes(graph)
    features = set(codes)
    for _ in range(radius):
        nxt = []
        for idx in range(len(graph.atoms)):
            env = []
            for bi in graph.adjacency()[idx]:
                bond = graph.bonds[bi]
                env.append((bond.order, codes[bond.other(idx)]))
            env.sort()
            payload = f"{codes[idx]:016x}" + "".join(
                f"|{order}:{code:016x}" for order, code in env
            )
            nxt.append(_fnv1a(payload.encode()))
        codes = nxt
        features.update(codes)
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
            [_FNV_OFFSET] * len(roots), [f"{codes[i]:016x}".encode() for i in roots], 16
        )
        # each path carries its atoms, its tokens (c0, o1, c1, ...) and the
        # FNV-1a state of its forward text
        stack = [((i,), (codes[i],), state) for i, state in zip(roots, states)]
        while stack:
            chunk = stack[-_CHUNK:]
            del stack[-_CHUNK:]
            # symmetric parts (tert-butyl, rings, CF3) reach one (state,
            # step) many times: each distinct pair takes one lane
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
            hashes = _fnv1a_lanes([s for s, _ in lanes], [t for _, t in lanes], 19)
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
    return _fold(morgan_features(graph, radius), width, f"morgan:{radius}")


def path_fp(graph: MolGraph, max_len: int = 7, width: int = 2048) -> Fingerprint:
    if not 1 <= max_len <= 7:
        raise ValueError("max_len must be in [1, 7]")
    _check_width(width)  # before the walk, not after it
    return _fold(path_features(graph, max_len), width, f"path:{max_len}")


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    if a.width != b.width:
        raise WidthMismatch(f"widths differ: {a.width} vs {b.width}")
    if a.kind != b.kind:
        raise KindMismatch(f"kinds differ: {a.kind} vs {b.kind}")
    union = (a.bits | b.bits).bit_count()
    if union == 0:
        return 1.0
    return (a.bits & b.bits).bit_count() / union
