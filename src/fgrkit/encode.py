"""Multi-hot molecule encodings and 2D descriptors.

FG bits come from SMARTS matches, MFG bits from contiguous token
subsequences found in a trie over the vocabulary's entries (token-level,
not raw bytes, so patterns never match inside a bracket atom). Each
per-molecule encoder returns a plain array; the one place that assembles
rows is encode_records, which writes [FG | MFG] and optionally the
descriptors. The descriptor vector implements a documented 14-slot subset
padded with zeros to a fixed length so downstream shapes stay compatible
with larger descriptor sets.
"""

from __future__ import annotations

import json
from collections.abc import Iterable

import numpy as np

from .chem import SINGLE, Molecule
from .elements import HALOGENS, MONOISOTOPIC_MASS, atomic_number
from .errors import ConfigError, NonFiniteInput, ShapeMismatch, VersionMismatch
from .smarts import match_exists
from .vocab import FGVocabulary, MFGVocabulary

DESCRIPTOR_LENGTH = 211

DESCRIPTOR_NAMES = [
    "mol_weight", "heavy_atoms", "heteroatoms", "halogens", "rings",
    "aromatic_rings", "hbond_donors", "hbond_acceptors", "rotatable_bonds",
    "net_charge", "electrons", "fraction_csp3", "longest_aliphatic_chain",
    "components",
]


def encode_fg(mol: Molecule, vocab: FGVocabulary) -> np.ndarray:
    """uint8 presence bit per curated pattern (matches, not counts)."""
    bits = np.zeros(vocab.size, dtype=np.uint8)
    for i, entry in enumerate(vocab.entries):
        if match_exists(entry.pattern, mol):
            bits[i] = 1
    return bits


def encode_mfg(tokens: list[str], vocab: MFGVocabulary) -> np.ndarray:
    """uint8 bits; bit i is set iff entry i occurs as a contiguous token
    subsequence. Walks the vocabulary's token trie from every start."""
    bits = np.zeros(vocab.size, dtype=np.uint8)
    trie = vocab.token_trie
    hits: list[int] = []
    for start in range(len(tokens)):
        node = trie
        for tok in tokens[start:]:
            node = node.get(tok)
            if node is None:
                break
            hits += node.get(None, ())
    bits[hits] = 1
    return bits


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

def _longest_aliphatic_chain(mol: Molecule) -> int:
    """Longest path over non-aromatic, non-ring carbons (a forest)."""
    from collections import deque

    ring_sizes = mol.atom_ring_sizes()
    keep = {i for i, a in enumerate(mol.atoms)
            if a.element == "C" and not a.aromatic and not ring_sizes[i]}
    if not keep:
        return 0
    adj = {i: [v for v, _ in mol.adjacency()[i] if v in keep] for i in keep}

    def farthest(start: int) -> tuple[int, int, set[int]]:
        dist = {start: 0}
        queue = deque([start])
        best = (0, start)
        while queue:
            u = queue.popleft()
            best = max(best, (dist[u], u))
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return best[0], best[1], set(dist)

    longest = 1
    seen: set[int] = set()
    for root in sorted(keep):
        if root in seen:
            continue
        _, u, comp = farthest(root)
        d, _, _ = farthest(u)
        longest = max(longest, d + 1)  # tree diameter, as an atom count
        seen |= comp
    return longest


def compute_descriptors(mol: Molecule, length: int = DESCRIPTOR_LENGTH) -> np.ndarray:
    """Raw (unnormalized) float64 descriptors, named by _descriptor_names:
    the DESCRIPTOR_NAMES subset, then zero padding up to length."""
    if length < len(DESCRIPTOR_NAMES):
        raise ShapeMismatch(f"descriptor length {length} < implemented subset")
    values = np.zeros(length, dtype=np.float64)
    cycles = mol.rings()

    mw = 0.0
    electrons = 0
    donors = acceptors = heteroatoms = halogens = heavy = 0
    carbons = sp3_carbons = 0
    for atom in mol.atoms:
        mw += MONOISOTOPIC_MASS.get(atom.element, 0.0)
        mw += atom.total_h * MONOISOTOPIC_MASS["H"]
        electrons += atomic_number(atom.element) + atom.total_h
        if atom.element not in ("H", "*"):
            heavy += 1
        if atom.element not in ("C", "H", "*"):
            heteroatoms += 1
        if atom.element in HALOGENS:
            halogens += 1
        if atom.element in ("N", "O"):
            acceptors += 1
            if atom.total_h >= 1:
                donors += 1
        if atom.element == "C":
            carbons += 1
            orders = {mol.bonds[bi].order for _, bi in mol.adjacency()[atom.index]}
            if orders <= {SINGLE}:
                sp3_carbons += 1
    electrons -= sum(a.formal_charge for a in mol.atoms)

    aromatic_rings = sum(1 for cyc in cycles
                         if all(mol.atoms[i].aromatic for i in cyc))
    rotatable = sum(
        1 for b in mol.bonds
        if b.order == SINGLE and b.pair not in mol.ring_bonds()
        and mol.degree(b.a) >= 2 and mol.degree(b.b) >= 2)

    values[0] = mw
    values[1] = heavy
    values[2] = heteroatoms
    values[3] = halogens
    values[4] = len(cycles)
    values[5] = aromatic_rings
    values[6] = donors
    values[7] = acceptors
    values[8] = rotatable
    values[9] = sum(a.formal_charge for a in mol.atoms)
    values[10] = electrons
    values[11] = sp3_carbons / carbons if carbons else 0.0
    values[12] = _longest_aliphatic_chain(mol)
    values[13] = len(mol.components())

    return values


def _descriptor_names(length: int) -> list[str]:
    return DESCRIPTOR_NAMES + [f"pad_{i}" for i in range(len(DESCRIPTOR_NAMES), length)]


# Below this norm the squared norm is subnormal and has lost precision.
_SMALLEST_EXACT_NORM = float(np.sqrt(np.finfo(np.float64).tiny))


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """v / ||v||2 over the feature dimension; vectors whose norm computes
    as 0 (including those whose squares all underflow) pass through. When
    the squared norm is subnormal or overflows, v is first scaled by max|v|."""
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise NonFiniteInput("non-finite entries in vector")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return v.copy()
    if not _SMALLEST_EXACT_NORM <= norm < np.inf:
        v = v / float(np.max(np.abs(v)))
        norm = float(np.linalg.norm(v))
    return v / norm


# ---------------------------------------------------------------------------
# feature matrices
# ---------------------------------------------------------------------------

def feature_columns(fg: FGVocabulary | None, mfg: MFGVocabulary | None,
                    descriptor_length: int = 0) -> tuple[list[str], list[str], dict[str, str]]:
    """(labels, kinds, fingerprints) of the columns encode_records writes:
    FG bits, MFG bits, then descriptor_length descriptor columns."""
    if fg is None and mfg is None:
        raise ConfigError("encoding needs an FG and/or an MFG vocabulary")
    labels: list[str] = []
    kinds: list[str] = []
    fingerprints: dict[str, str] = {}
    if fg is not None:
        labels += fg.names
        kinds += ["FG"] * fg.size
        fingerprints["fg"] = fg.fingerprint
    if mfg is not None:
        labels += [e.text for e in mfg.entries]
        kinds += ["MFG"] * mfg.size
        fingerprints["mfg"] = mfg.fingerprint
    if descriptor_length:
        labels += _descriptor_names(descriptor_length)
        kinds += ["DESC"] * descriptor_length
    return labels, kinds, fingerprints


def encode_records(records: Iterable[tuple[Molecule, list[str]]],
                   fg: FGVocabulary | None, mfg: MFGVocabulary | None,
                   descriptor_length: int = 0) -> tuple[np.ndarray, np.ndarray | None]:
    """(X, D) for parsed (mol, tokens) records, consumed one at a time.

    X is the float64 [FG | MFG] multi-hot matrix (FG and MFG bits may mark
    the same substructure; the clash is accepted); D holds the L2-normalized
    descriptors, or is None when descriptor_length is 0.
    """
    bit_rows, desc_rows = [], []
    for mol, tokens in records:
        bits = []
        if fg is not None:
            bits.append(encode_fg(mol, fg))
        if mfg is not None:
            bits.append(encode_mfg(tokens, mfg))
        bit_rows.append(np.concatenate(bits))
        if descriptor_length:
            desc_rows.append(l2_normalize(compute_descriptors(mol, descriptor_length)))
    X = np.asarray(bit_rows, dtype=np.float64)
    D = np.asarray(desc_rows, dtype=np.float64) if descriptor_length else None
    return X, D


# ---------------------------------------------------------------------------
# matrix export
# ---------------------------------------------------------------------------

_MATRIX_MAGIC = b"fgr-matrix v1\n"


def save_matrix(X: np.ndarray, path, fingerprints: dict[str, str]) -> None:
    """Dense binary export: magic, JSON header, row-major payload."""
    X = np.ascontiguousarray(X)
    header = {
        "rows": int(X.shape[0]),
        "cols": int(X.shape[1]),
        "dtype": str(X.dtype),
        "fingerprints": dict(sorted(fingerprints.items())),
    }
    with open(path, "wb") as fh:
        fh.write(_MATRIX_MAGIC)
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        fh.write(X.tobytes())


def load_matrix(path) -> tuple[np.ndarray, dict]:
    """(X, header) of a save_matrix file. A bad magic or header raises
    VersionMismatch; a payload that is not rows x cols values, ShapeMismatch."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_MATRIX_MAGIC))
        if magic != _MATRIX_MAGIC:
            raise VersionMismatch(f"not an fgr-matrix file: {magic!r}")
        try:
            header = json.loads(fh.readline().decode())
            rows, cols = int(header["rows"]), int(header["cols"])
            dtype = np.dtype(header["dtype"])
        except (ValueError, KeyError, TypeError, SyntaxError) as exc:
            raise VersionMismatch(f"malformed fgr-matrix header: {exc!r}") from None
        payload = fh.read()
    if dtype.kind not in "biuf" or min(rows, cols) < 0 \
            or len(payload) != rows * cols * dtype.itemsize:
        raise ShapeMismatch(f"fgr-matrix payload of {len(payload)} bytes is not "
                            f"{rows} x {cols} {dtype} values")
    return np.frombuffer(payload, dtype=dtype).reshape(rows, cols).copy(), header


def save_matrix_tsv(X: np.ndarray, path, column_labels: list[str]) -> None:
    """Debug-friendly TSV form of an encoded matrix."""
    if X.shape[1] != len(column_labels):
        raise ShapeMismatch("column label count != matrix width")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(column_labels) + "\n")
        for row in X:
            fh.write("\t".join(format(v, "g") for v in row) + "\n")
