"""Independent brute-force oracles.

These deliberately re-derive results from first principles (exhaustive
enumeration, re-counting, finite differences) and never call the library
code paths they are used to check.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from fgrkit.chem import AROMATIC, SINGLE, Molecule
from fgrkit.elements import atomic_number
from fgrkit.smarts import QueryPattern


# --- substructure matching ---------------------------------------------------

def _connected_without_bond(mol: Molecule, skip_a: int, skip_b: int) -> bool:
    """Are skip_a and skip_b still connected if their bond is removed?"""
    adj: dict[int, list[int]] = {i: [] for i in range(mol.num_atoms)}
    for b in mol.bonds:
        if {b.a, b.b} == {skip_a, skip_b}:
            continue
        adj[b.a].append(b.b)
        adj[b.b].append(b.a)
    seen = {skip_a}
    stack = [skip_a]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return skip_b in seen


def _oracle_ring_bond(mol: Molecule, i: int, j: int) -> bool:
    return _connected_without_bond(mol, i, j)


def _oracle_atom_in_ring(mol: Molecule, idx: int) -> bool:
    for b in mol.bonds:
        if idx in (b.a, b.b) and _oracle_ring_bond(mol, b.a, b.b):
            return True
    return False


def _oracle_eval(node, mol: Molecule, idx: int) -> bool:
    atom = mol.atoms[idx]
    kind = node[0]
    degree = sum(1 for b in mol.bonds if idx in (b.a, b.b))
    if kind == "element":
        if atom.element != node[1]:
            return False
        return True if node[2] is None else atom.aromatic == node[2]
    if kind == "number":
        return atomic_number(atom.element) == node[1]
    if kind == "wildcard":
        return True
    if kind == "aromatic":
        return atom.aromatic == node[1]
    if kind == "degree":
        return degree == node[1]
    if kind == "totalh":
        return atom.total_h == node[1]
    if kind == "connectivity":
        return degree + atom.total_h == node[1]
    if kind == "charge":
        return atom.formal_charge == node[1]
    if kind in ("ring_any", "ring_size_any"):
        return _oracle_atom_in_ring(mol, idx)
    if kind == "ring_count":
        if node[1] == 0:
            return not _oracle_atom_in_ring(mol, idx)
        raise NotImplementedError("oracle only supports R/R0")
    if kind == "ring_size":
        raise NotImplementedError("oracle only supports R/R0")
    if kind == "not":
        return not _oracle_eval(node[1], mol, idx)
    if kind == "and":
        return all(_oracle_eval(c, mol, idx) for c in node[1])
    if kind == "or":
        return any(_oracle_eval(c, mol, idx) for c in node[1])
    raise AssertionError(node)


def _oracle_bond_ok(pred: str, mol: Molecule, i: int, j: int) -> bool:
    bond = None
    for b in mol.bonds:
        if {b.a, b.b} == {i, j}:
            bond = b
            break
    if bond is None:
        return False
    if pred == "any":
        return True
    if pred == "ring":
        return _oracle_ring_bond(mol, i, j)
    if pred == "single_or_aromatic":
        return bond.order in (SINGLE, AROMATIC)
    return bond.order == pred


def oracle_embeddings(pattern: QueryPattern, mol: Molecule) -> list[tuple[int, ...]]:
    """Every injective assignment satisfying all atom and bond predicates."""
    nq, nm = pattern.num_atoms, mol.num_atoms
    if nq > nm:
        return []
    out = []
    for assign in permutations(range(nm), nq):
        if not all(_oracle_eval(pattern.atoms[q].tree, mol, assign[q])
                   for q in range(nq)):
            continue
        if all(_oracle_bond_ok(pred, mol, assign[a], assign[b])
               for a, b, pred in pattern.bonds):
            out.append(assign)
    return out


def oracle_match(pattern: QueryPattern, mol: Molecule) -> bool:
    return bool(oracle_embeddings(pattern, mol))


# --- graph isomorphism ---------------------------------------------------------

def oracle_isomorphic(a: Molecule, b: Molecule) -> bool:
    """Exhaustive isomorphism test over atom permutations (small inputs)."""
    if a.num_atoms != b.num_atoms or a.num_bonds != b.num_bonds:
        return False

    def label(mol, i):
        atom = mol.atoms[i]
        return (atom.element, atom.aromatic, atom.formal_charge, atom.total_h)

    b_bonds = {}
    for bond in b.bonds:
        b_bonds[bond.pair] = bond.order
    for perm in permutations(range(b.num_atoms)):
        if any(label(a, i) != label(b, perm[i]) for i in range(a.num_atoms)):
            continue
        ok = True
        for bond in a.bonds:
            i, j = perm[bond.a], perm[bond.b]
            if b_bonds.get((i, j) if i < j else (j, i)) != bond.order:
                ok = False
                break
        if ok:
            return True
    return False


# --- metrics ------------------------------------------------------------------

def oracle_roc_auc(scores, labels) -> float:
    """Exhaustive pairwise concordance count with ties worth one half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        raise ValueError("need both classes")
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def oracle_rmse(pred, true) -> float:
    diffs = [(p - t) ** 2 for p, t in zip(pred, true)]
    return (sum(diffs) / len(diffs)) ** 0.5


def oracle_mae(pred, true) -> float:
    return sum(abs(p - t) for p, t in zip(pred, true)) / len(pred)


def oracle_r2(pred, true) -> float:
    mean = sum(true) / len(true)
    ss_res = sum((t - p) ** 2 for p, t in zip(pred, true))
    ss_tot = sum((t - mean) ** 2 for t in true)
    return 1.0 - ss_res / ss_tot


def oracle_davies_bouldin(points: np.ndarray, labels: list) -> float:
    """Direct formula evaluation with explicit loops."""
    ids = sorted(set(labels))
    centroids = {}
    scatters = {}
    for cid in ids:
        members = np.array([p for p, l in zip(points, labels) if l == cid], dtype=float)
        centroids[cid] = members.mean(axis=0)
        scatters[cid] = float(np.mean(
            [np.linalg.norm(m - centroids[cid]) for m in members]))
    total = 0.0
    for ci in ids:
        worst = 0.0
        for cj in ids:
            if ci == cj:
                continue
            m = float(np.linalg.norm(centroids[ci] - centroids[cj]))
            worst = max(worst, (scatters[ci] + scatters[cj]) / m)
        total += worst
    return total / len(ids)


# --- gradients -----------------------------------------------------------------

def finite_difference_gradients(loss_fn, params: dict[str, np.ndarray],
                                h: float = 1e-5) -> dict[str, np.ndarray]:
    """Central finite differences of a scalar loss over named arrays."""
    grads = {}
    for name, value in params.items():
        g = np.zeros_like(value, dtype=float)
        flat = value.reshape(-1)
        gflat = g.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = loss_fn()
            flat[k] = orig - h
            down = loss_fn()
            flat[k] = orig
            gflat[k] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


# --- MFG encoding ----------------------------------------------------------------

def oracle_mfg_bits(tokens: list[str], entries) -> np.ndarray:
    """The set encoder: every contiguous token subsequence up to the longest
    entry goes into a set, then each entry is looked up in it."""
    bits = np.zeros(len(entries), dtype=np.uint8)
    if not entries:
        return bits
    max_len = max(len(e.tokens) for e in entries)
    present: set[tuple[str, ...]] = set()
    n = len(tokens)
    for length in range(1, min(max_len, n) + 1):
        for start in range(n - length + 1):
            present.add(tuple(tokens[start:start + length]))
    for i, entry in enumerate(entries):
        if entry.tokens in present:
            bits[i] = 1
    return bits


# --- pattern mining --------------------------------------------------------------

def oracle_merge_sequence(sequences: list[list[str]], eta: int, mvs: int,
                          initial_size: int) -> list[tuple[tuple[str, str], int]]:
    """Re-count all adjacent pairs from scratch each round (slow reference).

    Returns the merge sequence [((left, right), frequency), ...] under the
    same rules: most frequent pair first, ties broken by lexicographically
    smallest (left, right); stop when the best frequency < eta or the
    vocabulary (initial tokens + merges) would exceed mvs.
    """
    from collections import Counter

    seqs = [list(s) for s in sequences]
    merges: list[tuple[tuple[str, str], int]] = []
    seen_strings: set[str] = set()
    size = initial_size
    while size < mvs:
        counts: Counter = Counter()
        for seq in seqs:
            counts.update(zip(seq, seq[1:]))
        if not counts:
            break
        best_pair = min(counts, key=lambda p: (-counts[p], p))
        best_count = counts[best_pair]
        if best_count < eta:
            break
        merged = best_pair[0] + best_pair[1]
        new_seqs = []
        for seq in seqs:
            out = []
            i = 0
            while i < len(seq):
                if (i + 1 < len(seq) and seq[i] == best_pair[0]
                        and seq[i + 1] == best_pair[1]):
                    out.append(merged)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            new_seqs.append(out)
        seqs = new_seqs
        merges.append((best_pair, best_count))
        if merged not in seen_strings:
            seen_strings.add(merged)
            size += 1
    return merges
