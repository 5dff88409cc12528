"""Element data: symbols, default valences, allowed valence sets, atomic weights."""

from __future__ import annotations

# Organic subset: atoms that may appear outside brackets. Lowercase forms
# of the aromatic subset are accepted as aromatic atoms.
ORGANIC_SUBSET = {"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"}
AROMATIC_SUBSET = {"b", "c", "n", "o", "p", "s"}

# Allowed valence sets, ascending. P and S have several stable valence
# states; hydrogens_to_fill derives hydrogen counts from them.
ALLOWED_VALENCES: dict[str, tuple[int, ...]] = {
    "B": (3,),
    "C": (4,),
    "N": (3,),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
    "H": (1,),
}

# Elements whose allowed valences shift with formal charge (one unit per
# unit of charge: N+ -> {4}, O- -> {1}, S- -> {1,3,5}, Cl- -> {0},
# I+ -> {2}, ...).
CHARGE_SHIFTED = {"N", "O", "S", "F", "Cl", "Br", "I"}

# B, C and P with charge +-1 take the valences of the isoelectronic
# neighbour element: [B-] is C-like (4, as in [B-](F)(F)(F)F), [B+] Be-like
# (2), [C-] N-like (3, as in [C-]#N), [C+] B-like (3), [P-] S-like (2, 4, 6,
# as in [P-](F)(F)(F)(F)(F)F) and [P+] Si-like (4). Other charges on them
# keep the neutral valences.
ISOELECTRONIC: dict[tuple[str, int], tuple[int, ...]] = {
    ("B", -1): (4,),
    ("B", 1): (2,),
    ("C", -1): (3,),
    ("C", 1): (3,),
    ("P", -1): (2, 4, 6),
    ("P", 1): (4,),
}


def allowed_valences(element: str, charge: int = 0) -> tuple[int, ...] | None:
    """Allowed total valences for an element/charge pair.

    Returns None for elements outside the table; such atoms are treated
    as unconstrained by the validity check.
    """
    base = ALLOWED_VALENCES.get(element)
    if base is None:
        return None
    if (element, charge) in ISOELECTRONIC:
        return ISOELECTRONIC[element, charge]
    if charge and element in CHARGE_SHIFTED:
        shifted = tuple(v + charge for v in base if v + charge >= 0)
        return shifted or (0,)
    return base


def hydrogens_to_fill(valences: tuple[int, ...], bond_sum: int) -> int | None:
    """Hydrogens that fill an atom with bond order sum `bond_sum` up to the
    smallest of its allowed `valences` (ascending) at or above that sum, the
    OpenSMILES 3.1.5 rule; None when the bonds exceed every valence."""
    for valence in valences:
        if valence >= bond_sum:
            return valence - bond_sum
    return None


def default_valence(element: str, charge: int = 0) -> int | None:
    """Smallest allowed valence: the one an aromatic atom fills."""
    vals = allowed_valences(element, charge)
    return vals[0] if vals else None


def max_valence(element: str, charge: int = 0) -> int | None:
    vals = allowed_valences(element, charge)
    return vals[-1] if vals else None


# Standard atomic weights (CIAAW 2021 abridged). Elements not listed
# contribute zero mass; descriptor users working outside this table are
# expected to know their exotic atoms are unweighted.
ATOMIC_WEIGHTS: dict[str, float] = {
    "H": 1.008, "He": 4.0026,
    "Li": 6.94, "Be": 9.0122, "B": 10.81, "C": 12.011, "N": 14.007,
    "O": 15.999, "F": 18.998, "Ne": 20.180,
    "Na": 22.990, "Mg": 24.305, "Al": 26.982, "Si": 28.085, "P": 30.974,
    "S": 32.06, "Cl": 35.45, "Ar": 39.95,
    "K": 39.098, "Ca": 40.078, "Sc": 44.956, "Ti": 47.867, "V": 50.942,
    "Cr": 51.996, "Mn": 54.938, "Fe": 55.845, "Co": 58.933, "Ni": 58.693,
    "Cu": 63.546, "Zn": 65.38, "Ga": 69.723, "Ge": 72.630, "As": 74.922,
    "Se": 78.971, "Br": 79.904, "Kr": 83.798,
    "Rb": 85.468, "Sr": 87.62, "Y": 88.906, "Zr": 91.224, "Nb": 92.906,
    "Mo": 95.95, "Tc": 97.0, "Ru": 101.07, "Rh": 102.91, "Pd": 106.42,
    "Ag": 107.87, "Cd": 112.41, "In": 114.82, "Sn": 118.71, "Sb": 121.76,
    "Te": 127.60, "I": 126.90, "Xe": 131.29,
    "Cs": 132.91, "Ba": 137.33, "La": 138.91, "Ce": 140.12, "Pr": 140.91,
    "Nd": 144.24, "Pm": 145.0, "Sm": 150.36, "Eu": 151.96, "Gd": 157.25,
    "Tb": 158.93, "Dy": 162.50, "Ho": 164.93, "Er": 167.26, "Tm": 168.93,
    "Yb": 173.05, "Lu": 174.97, "Hf": 178.49, "Ta": 180.95, "W": 183.84,
    "Re": 186.21, "Os": 190.23, "Ir": 192.22, "Pt": 195.08, "Au": 196.97,
    "Hg": 200.59, "Tl": 204.38, "Pb": 207.2, "Bi": 208.98, "Po": 209.0,
    "At": 210.0, "Rn": 222.0, "Fr": 223.0, "Ra": 226.0, "Ac": 227.0,
    "Th": 232.04, "Pa": 231.04, "U": 238.03,
}


def atomic_weight(element: str, isotope: int | None = None) -> float:
    """Weight contribution of one atom.

    A specified isotope uses its mass number directly (integer-mass
    approximation); otherwise the standard atomic weight applies.
    """
    if isotope is not None:
        return float(isotope)
    return ATOMIC_WEIGHTS.get(element, 0.0)
