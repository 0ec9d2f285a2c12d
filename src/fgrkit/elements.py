"""Element data tables shared by the parser, matcher and descriptor code."""

from __future__ import annotations

# Atoms writable without brackets in SMILES, and the subset that may be
# lowercase (aromatic).
ORGANIC_SUBSET = {"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"}
AROMATIC_OK = {"B", "C", "N", "O", "P", "S"}

# Default valences used for implicit-hydrogen filling and overflow checks.
# Multi-valent entries are tried smallest-first.
STANDARD_VALENCES: dict[str, tuple[int, ...]] = {
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
}

ATOMIC_NUMBERS: dict[str, int] = {
    "H": 1, "He": 2, "Li": 3, "Be": 4, "B": 5, "C": 6, "N": 7, "O": 8,
    "F": 9, "Ne": 10, "Na": 11, "Mg": 12, "Al": 13, "Si": 14, "P": 15,
    "S": 16, "Cl": 17, "Ar": 18, "K": 19, "Ca": 20, "Ti": 22, "Cr": 24,
    "Mn": 25, "Fe": 26, "Co": 27, "Ni": 28, "Cu": 29, "Zn": 30, "Ga": 31,
    "Ge": 32, "As": 33, "Se": 34, "Br": 35, "Kr": 36, "Rb": 37, "Sr": 38,
    "Mo": 42, "Ru": 44, "Rh": 45, "Pd": 46, "Ag": 47, "Cd": 48, "In": 49,
    "Sn": 50, "Sb": 51, "Te": 52, "I": 53, "Xe": 54, "Cs": 55, "Ba": 56,
    "W": 74, "Pt": 78, "Au": 79, "Hg": 80, "Tl": 81, "Pb": 82, "Bi": 83,
}

# Monoisotopic masses of the most abundant isotope.
MONOISOTOPIC_MASS: dict[str, float] = {
    "H": 1.00782503, "B": 11.00930536, "C": 12.0, "N": 14.003074,
    "O": 15.99491462, "F": 18.99840316, "Na": 22.98976928, "Mg": 23.9850417,
    "Al": 26.98153853, "Si": 27.97692653, "P": 30.97376199, "S": 31.97207117,
    "Cl": 34.96885268, "K": 38.96370649, "Ca": 39.96259086, "Fe": 55.93493633,
    "Cu": 62.92959772, "Zn": 63.92914201, "As": 74.92159457, "Se": 79.9165218,
    "Br": 78.9183376, "Ag": 106.9050916, "Sn": 119.90220163, "I": 126.9044719,
    "Pt": 194.9647917, "Au": 196.96656879, "Hg": 201.9706434, "Pb": 207.9766525,
}

HALOGENS = {"F", "Cl", "Br", "I"}


def atomic_number(symbol: str) -> int:
    """Atomic number for a symbol; 0 for the wildcard or unknown elements."""
    return ATOMIC_NUMBERS.get(symbol, 0)

