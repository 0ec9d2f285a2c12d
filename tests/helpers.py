"""Shared test utilities: random molecule generation and graph summaries."""

from __future__ import annotations

import random

from fgrkit.chem import Atom, Bond, Molecule

_RING_TEMPLATES = [
    "c1ccccc1", "c1ccc({0})cc1", "c1cc({0})cc({1})c1", "C1CCCCC1",
    "C1CCC({0})CC1", "c1ccncc1", "c1ccnc({0})c1", "C1CC1{0}",
    "c1ccc2ccccc2c1", "C1CCNC1{0}", "c1ccsc1", "c1ccoc1", "c1cc[nH]c1",
    "C1CCOC1", "c1ccc(cc1){0}",
]

_CHAIN_TEMPLATES = [
    "CC{0}", "CCC{0}", "CC({0})C", "OCC{0}", "NCC{0}", "CC(=O){0}",
    "C(=O)(O){0}", "CC(C)(C){0}", "C=C{0}", "C#C{0}", "CSC{0}", "COC{0}",
]

_SUBSTITUENTS = [
    "C", "CC", "O", "N", "F", "Cl", "Br", "OC", "C(=O)O", "C(=O)N",
    "N(C)C", "C#N", "CCO", "C(F)(F)F", "S(=O)(=O)C", "[N+](=O)[O-]", "CO",
]


def random_molecule_smiles(rng: random.Random, max_atoms: int = 24) -> str:
    """A valid random SMILES from templates; small molecules only."""
    template = rng.choice(_RING_TEMPLATES + _CHAIN_TEMPLATES)
    n_slots = template.count("{")
    subs = [rng.choice(_SUBSTITUENTS) for _ in range(n_slots)]
    smiles = template.format(*subs)
    if max_atoms <= 12 and len(smiles) > 18:
        return rng.choice(["CCO", "c1ccccc1", "CC(=O)O", "C1CC1", "CCN(C)C"])
    return smiles


def relabeled_copy(mol: Molecule, rng: random.Random) -> Molecule:
    """Same graph with atom indices permuted and bond list shuffled."""
    n = mol.num_atoms
    perm = list(range(n))
    rng.shuffle(perm)  # perm[old] = new
    out = Molecule(source="")
    out.atoms = [None] * n  # type: ignore[list-item]
    for old, atom in enumerate(mol.atoms):
        out.atoms[perm[old]] = Atom(
            element=atom.element, aromatic=atom.aromatic,
            formal_charge=atom.formal_charge, explicit_h=atom.explicit_h,
            implicit_h=atom.implicit_h, index=perm[old],
            from_bracket=atom.from_bracket)
    bonds = [Bond(a=perm[b.a], b=perm[b.b], order=b.order) for b in mol.bonds]
    rng.shuffle(bonds)
    for bond in bonds:
        if rng.random() < 0.5:
            bond.a, bond.b = bond.b, bond.a
    out.bonds = bonds
    return out


def graph_summary(mol: Molecule):
    """Atom and bond label multisets; equal for isomorphic graphs."""
    atoms = sorted((a.element, a.aromatic, a.formal_charge, a.total_h)
                   for a in mol.atoms)
    def label(i):
        a = mol.atoms[i]
        return (a.element, a.aromatic, a.formal_charge, a.total_h)
    bonds = sorted((b.order, *sorted((label(b.a), label(b.b)))) for b in mol.bonds)
    return atoms, bonds


def random_model_case(seed: int):
    """Random small model + batch; cycles through tied/untied, both task
    kinds and alpha/beta in {0, 0.1} so a seed sweep covers every combo."""
    import numpy as np

    from fgrkit.nn import Batch, ModelHyper, init_model

    rng = np.random.default_rng(seed)
    p = int(rng.integers(3, 20))
    l = int(rng.integers(2, 8))
    k = int(rng.integers(1, 4))
    n = int(rng.integers(2, 6))
    use_d = bool(seed % 3 == 0)
    d = int(rng.integers(1, 4)) if use_d else 0
    hyper = ModelHyper(
        l=l,
        tied=bool(seed % 2 == 0),
        task="classification" if seed % 4 < 2 else "regression",
        alpha=[0.0, 0.1][(seed >> 1) % 2],
        beta=[0.0, 0.1][(seed >> 2) % 2],
        use_descriptors=use_d,
        descriptor_dim=d,
    )
    state = init_model(p, k, hyper, seed=seed)
    state.b_e[:] = rng.normal(0, 0.3, l)
    state.b_d[:] = rng.normal(0, 0.3, p)
    state.b_f[:] = rng.normal(0, 0.3, k)
    X = rng.integers(0, 2, (n, p)).astype(float)
    Y = (rng.integers(0, 2, (n, k)).astype(float)
         if hyper.task == "classification" else rng.normal(0, 1, (n, k)))
    M = rng.integers(0, 2, (n, k)).astype(float)
    if M.sum() == 0:
        M[0, 0] = 1.0
    D = rng.normal(0, 1, (n, d)) if use_d else None
    return state, Batch(X=X, Y=Y, M=M, D=D)


# One CSV row of each kind the dataset readers drop, between the kept rows
# CCO and CCC: blank, too short to hold the SMILES cell, wider than the
# header, not UTF-8, an unparseable SMILES, an empty SMILES cell and a
# non-numeric label (CCN, which `fgrkit encode` keeps: it reads no labels).
MIXED_ROWS_CSV = (b"t,smiles\n1,CCO\n\n0\n1,CC,2\n0,C\xf2C\n1,C1CC\n1,\n"
                  b"x,CCN\n0,CCC\n")
MIXED_ROWS_DROPS = {"bad_width": 2, "bad_encoding": 1, "bad_smiles": 2, "bad_label": 1}
