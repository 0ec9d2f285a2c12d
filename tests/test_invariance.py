"""Ring membership against a bridge-test oracle, and what must not move when a
molecule's atoms are renumbered and its bonds shuffled.

Every bundled molecule is checked as parsed and under two seeded relabelings
(``helpers.relabeled_copy``). The ring-size multiset is deliberately not
compared: the DFS cycle basis depends on atom order, so fused systems can
report other sizes after a relabeling. Ring count and membership cannot move.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from fgrkit.chem import Molecule, canonical_smiles, murcko_scaffold, parse_smiles, scaffold_key
from fgrkit.datasets import load_bundled_corpus, starter_fg_vocab_path
from fgrkit.encode import encode_fg
from fgrkit.vocab import load_fg_vocab

from helpers import relabeled_copy
from oracles import _oracle_atom_in_ring, _oracle_ring_bond

RELABELINGS = 2


@pytest.fixture(scope="module")
def cases() -> list[tuple[Molecule, list[Molecule]]]:
    """Each bundled molecule with its seeded relabeled copies."""
    rng = random.Random(7)
    return [(mol, [relabeled_copy(mol, rng) for _ in range(RELABELINGS)])
            for mol in map(parse_smiles, load_bundled_corpus())]


def _membership(mol: Molecule) -> tuple[list[bool], list[bool]]:
    """Per atom and per bond (in list order): is it on a ring?"""
    ring_bonds = mol.ring_bonds()
    return ([bool(sizes) for sizes in mol.atom_ring_sizes()],
            [bond.pair in ring_bonds for bond in mol.bonds])


def _membership_by_label(mol: Molecule):
    """Ring membership keyed by atom labels, so that it survives renumbering."""
    atoms, bonds = _membership(mol)

    def label(i):
        a = mol.atoms[i]
        return (a.element, a.aromatic, a.formal_charge, a.total_h, mol.degree(i))
    return (sorted((label(i), ring) for i, ring in enumerate(atoms)),
            sorted((*sorted((label(b.a), label(b.b))), b.order, ring)
                   for b, ring in zip(mol.bonds, bonds)))


def test_ring_membership_equals_the_bridge_oracle(cases):
    for mol, copies in cases:
        for m in (mol, *copies):
            atoms, bonds = _membership(m)
            assert atoms == [_oracle_atom_in_ring(m, i) for i in range(m.num_atoms)], mol.source
            assert bonds == [_oracle_ring_bond(m, b.a, b.b) for b in m.bonds], mol.source


def test_relabeling_keeps_ring_count_and_membership(cases):
    for mol, copies in cases:
        for copy in copies:
            assert len(copy.rings()) == len(mol.rings()), mol.source
            assert _membership_by_label(copy) == _membership_by_label(mol), mol.source


def test_relabeling_keeps_canonical_smiles_and_scaffold_key(cases):
    for mol, copies in cases:
        for copy in copies:
            assert canonical_smiles(copy) == canonical_smiles(mol), mol.source
            assert scaffold_key(murcko_scaffold(copy)) == scaffold_key(murcko_scaffold(mol))


def test_relabeling_keeps_the_starter_fg_bits(cases):
    vocab = load_fg_vocab(starter_fg_vocab_path())
    for mol, copies in cases:
        bits = encode_fg(mol, vocab)
        for copy in copies:
            np.testing.assert_array_equal(encode_fg(copy, vocab), bits, err_msg=mol.source)
