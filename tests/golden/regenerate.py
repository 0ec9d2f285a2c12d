"""The golden manifest: byte fingerprints of fgrkit's BLAS-free outputs.

Usage, from the repository root:

    PYTHONPATH=src python3 tests/golden/regenerate.py

It rewrites the two files next to it, from the bundled 500-molecule corpus:

- ``molecules.tsv``: for each molecule, its canonical SMILES, the scaffold
  key of its Murcko scaffold, its ring-size multiset and three integer
  slots of ``compute_descriptors`` (``aromatic_rings``, ``rotatable_bonds``
  and ``longest_aliphatic_chain``);
- ``manifest.json``: the sha256 of the vocabularies that ``fgrkit
  mine-vocab`` mines at two etas, and of ``fgrkit encode``'s fgr matrix
  (binary and ``--tsv``) and mfg matrix (binary).

Nothing here goes through BLAS: no training, attribution or analysis, and
no L2-normalised descriptor block, whose last bits can depend on the BLAS
build and its thread count. The three raw descriptor slots are integer
counts computed in pure Python, so they are exact on every build.
``tests/test_golden.py`` recomputes both files and compares them with
the committed ones. A change that alters these outputs on purpose
reruns this script and lists the rows that moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ETAS = (2, 10)
MVS = 30000
# integer slots of compute_descriptors, written raw (never normalised)
DESCRIPTOR_SLOTS = ("aromatic_rings", "rotatable_bonds", "longest_aliphatic_chain")


def molecules_tsv() -> str:
    """One row per bundled molecule: SMILES, canonical SMILES, Murcko
    scaffold key, sorted ring sizes and the raw DESCRIPTOR_SLOTS."""
    from fgrkit.chem import canonical_smiles, murcko_scaffold, parse_smiles, scaffold_key
    from fgrkit.datasets import load_bundled_corpus
    from fgrkit.encode import DESCRIPTOR_NAMES, compute_descriptors

    slots = [DESCRIPTOR_NAMES.index(name) for name in DESCRIPTOR_SLOTS]
    rows = ["\t".join(["smiles", "canonical_smiles", "scaffold_key", "ring_sizes",
                       *DESCRIPTOR_SLOTS])]
    for smiles in load_bundled_corpus():
        mol = parse_smiles(smiles)
        rings = ",".join(str(n) for n in sorted(len(ring) for ring in mol.rings()))
        values = compute_descriptors(mol)
        counts = "".join(f"\t{int(values[i])}" for i in slots)
        rows.append(f"{smiles}\t{canonical_smiles(mol)}"
                    f"\t{scaffold_key(murcko_scaffold(mol))}\t{rings}{counts}")
    return "\n".join(rows) + "\n"


def artifact_digests(work: Path) -> dict[str, str]:
    """{artifact name: sha256} of the CLI's outputs on the bundled corpus,
    written into ``work``."""
    from fgrkit.cli import main
    from fgrkit.datasets import bundled_corpus_path, starter_fg_vocab_path

    corpus, fg = str(bundled_corpus_path()), str(starter_fg_vocab_path())
    mfg = str(work / f"mined_eta{ETAS[0]}.mfg")
    verbs = {f"mined_eta{eta}.mfg": ["mine-vocab", "--corpus", corpus, "--eta", str(eta),
                                     "--mvs", str(MVS)] for eta in ETAS}
    verbs["encode_fgr.bin"] = ["encode", "--data", corpus, "--fg", fg, "--mfg", mfg]
    verbs["encode_fgr.tsv"] = ["encode", "--data", corpus, "--fg", fg, "--mfg", mfg, "--tsv"]
    verbs["encode_mfg.bin"] = ["encode", "--data", corpus, "--mfg", mfg]
    digests = {}
    for name, argv in verbs.items():
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv + ["--out", str(work / name)])
        if rc != 0:
            raise RuntimeError(f"fgrkit {' '.join(argv)} exited with {rc}")
        digests[name] = hashlib.sha256((work / name).read_bytes()).hexdigest()
    return digests


def main() -> int:
    (HERE / "molecules.tsv").write_text(molecules_tsv(), encoding="utf-8")
    with tempfile.TemporaryDirectory() as work:
        digests = artifact_digests(Path(work))
    (HERE / "manifest.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
