"""Multi-hot encodings and 2D descriptors.

FG bits come from substructure matches, MFG bits from contiguous token
subsequences, and a feature row is their concatenation, built by the same
encode_records that `fgrkit encode` and training use. Descriptors are a
documented 14-slot subset padded to a fixed width.
"""

import numpy as np

from fgrkit import (
    compute_descriptors,
    encode_fg,
    encode_mfg,
    encode_records,
    l2_normalize,
    load_fg_vocab,
    mine_mfg,
    parse_smiles,
    tokenize_smiles,
)
from fgrkit.datasets import load_bundled_corpus, starter_fg_vocab_path
from fgrkit.encode import DESCRIPTOR_NAMES

fg_vocab = load_fg_vocab(starter_fg_vocab_path())
mfg_vocab = mine_mfg(load_bundled_corpus(), eta=10, mvs=2000)

smiles = "CC(=O)Nc1ccc(O)cc1"  # paracetamol
mol = parse_smiles(smiles)
tokens = tokenize_smiles(smiles)

# FG bits are presence flags, one per curated pattern.
fg_bits = encode_fg(mol, fg_vocab)
on = [name for name, bit in zip(fg_vocab.names, fg_bits) if bit]
print(f"{smiles}: {int(fg_bits.sum())} FG bits set")
print("  set bits include:", on[:8])

# MFG bits fire when a mined token sequence occurs contiguously in the
# molecule's own token stream (token-level, never inside bracket atoms).
mfg_bits = encode_mfg(tokens, mfg_vocab)
print(f"  {int(mfg_bits.sum())} MFG bits set out of {mfg_vocab.size}")

# The combined representation is [FG | MFG]; overlapping substructures may
# set bits on both sides (accepted bit clash).
X, _ = encode_records([(mol, tokens)], fg_vocab, mfg_vocab)
assert np.array_equal(X[0], np.concatenate([fg_bits, mfg_bits]))
print(f"  combined width: {X.shape[1]} = {fg_vocab.size} + {mfg_vocab.size}")

# Descriptors are raw physical quantities; training normalizes each row to
# unit Euclidean norm over the feature dimension.
desc = compute_descriptors(mol)
named = dict(zip(DESCRIPTOR_NAMES, desc))
print("\ndescriptor subset:")
for key in ("mol_weight", "heavy_atoms", "aromatic_rings", "hbond_donors",
            "hbond_acceptors", "rotatable_bonds", "fraction_csp3"):
    print(f"  {key:>22} = {named[key]:.4g}")
normalized = l2_normalize(desc)
print(f"  normalized row norm = {np.linalg.norm(normalized):.6f}")
