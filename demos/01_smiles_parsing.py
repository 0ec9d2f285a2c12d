"""Parsing SMILES into molecular graphs.

Walks through tokenization, graph structure, implicit hydrogens, ring
perception, Bemis-Murcko scaffolds, and canonical emission.
"""

from fgrkit import (
    canonical_smiles,
    murcko_scaffold,
    parse_smiles,
    perceive_rings,
    scaffold_key,
    tokenize_smiles,
)

# Tokenization is lossless: joining the tokens reproduces the input string.
# Two-letter halogens and bracket atoms come out as single tokens.
for smiles in ["CCO", "CCl", "C(=O)[O-]", "c1ccc2ccccc2c1"]:
    tokens = tokenize_smiles(smiles)
    assert "".join(tokens) == smiles
    print(f"{smiles:>16}  ->  {tokens}")

# Parsing builds an attributed graph with implicit hydrogens filled from a
# fixed valence table. Aromaticity is taken from lowercase symbols.
mol = parse_smiles("CC(=O)Nc1ccc(O)cc1")  # paracetamol
print(f"\nparacetamol: {mol.num_atoms} heavy atoms, {mol.num_bonds} bonds")
for atom in mol.atoms[:5]:
    print(f"  atom {atom.index}: {atom.element} aromatic={atom.aromatic} "
          f"total_h={atom.total_h}")

# Ring perception returns a cycle basis (size = bonds - atoms + components)
# and leaves the molecule unchanged. mol.rings() caches the same basis, and
# the SMARTS matcher and descriptors read ring membership off that cache.
cycles = perceive_rings(mol)
print(f"rings: {cycles}")

# Murcko scaffolds prune side chains; acyclic molecules give the empty
# sentinel. Scaffold keys are canonical, so any writing of the same core
# collapses to one key -- that is what scaffold-based splits group on.
for smiles in ["Cc1ccccc1", "c1ccccc1", "CCO"]:
    scaffold = murcko_scaffold(parse_smiles(smiles))
    print(f"{smiles:>12} -> scaffold key {scaffold_key(scaffold)!r}")

# Canonical emission is a valid SMILES string; re-parsing it gives an
# isomorphic graph (equal scaffold keys).
variants = ["OC(=O)c1ccccc1", "c1ccccc1C(O)=O", "C(=O)(O)c1ccccc1"]
emissions = {canonical_smiles(parse_smiles(s)) for s in variants}
print(f"\nbenzoic acid written three ways -> one canonical form: {emissions}")
