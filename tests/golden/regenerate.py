"""The golden manifest: byte fingerprints of fgrkit's BLAS-free outputs.

Usage, from the repository root:

    PYTHONPATH=src python3 tests/golden/regenerate.py

It rewrites the two files next to it, from the bundled 500-molecule corpus:

- ``molecules.tsv``: for each molecule, its canonical SMILES, the scaffold
  key of its Murcko scaffold and its ring-size multiset;
- ``manifest.json``: the sha256 of the vocabularies that ``fgrkit
  mine-vocab`` mines at two etas, and of ``fgrkit encode``'s fgr matrix
  (binary and ``--tsv``) and mfg matrix (binary).

Nothing here goes through BLAS: no descriptors, no training, attribution
or analysis, whose last bits can depend on the BLAS build and its thread
count. ``tests/test_golden.py`` recomputes both files and compares them
with the committed ones. A change that alters these outputs on purpose
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


def molecules_tsv() -> str:
    """One row per bundled molecule: SMILES, canonical SMILES, Murcko
    scaffold key and sorted ring sizes."""
    from fgrkit.chem import canonical_smiles, murcko_scaffold, parse_smiles, scaffold_key
    from fgrkit.datasets import load_bundled_corpus

    rows = ["smiles\tcanonical_smiles\tscaffold_key\tring_sizes"]
    for smiles in load_bundled_corpus():
        mol = parse_smiles(smiles)
        rings = ",".join(str(n) for n in sorted(len(ring) for ring in mol.rings()))
        rows.append(f"{smiles}\t{canonical_smiles(mol)}"
                    f"\t{scaffold_key(murcko_scaffold(mol))}\t{rings}")
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
