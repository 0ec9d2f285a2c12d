"""Bundled data files and deterministic toy dataset builders."""

from __future__ import annotations

import csv
import os
import random
from importlib import resources
from pathlib import Path

from .chem import parse_smiles
from .encode import compute_descriptors
from .smarts import match_exists, parse_smarts

_HYDROXYL = "[OX2H]"

# ring cores with one substitution slot; each yields a distinct Murcko scaffold
_CORES = [
    "c1ccc({0})cc1", "c1ccnc({0})c1", "c1cnc({0})nc1", "c1ccc2ccccc2c1{0}",
    "c1ccc2ncccc2c1{0}", "c1ccc2c(c1)c({0})c[nH]2", "s1ccc({0})c1", "o1ccc({0})c1",
    "[nH]1ccc({0})c1", "n1cc({0})cn1C", "C1CCCCC1{0}", "C1CCCC1{0}",
    "N1CCCCC1{0}", "N1CCN({0})CC1", "O1CCN({0})CC1", "O1CCCC1{0}",
    "C1CC1{0}", "c1ccccc1-c1ccc({0})cc1", "c1ccccc1CCc1ccc({0})cc1",
    "c1ccccc1Cc1ccnc({0})c1", "s1cnc({0})c1", "o1cnc({0})c1",
    "C1CCC({0})CC1", "c1ccc2occc2c1{0}", "n1ccc({0})cc1C",
]

_WITH_OH = ["O", "CO", "CCO", "C(C)O", "C(=O)O", "CC(O)C", "CCCO"]
_WITHOUT_OH = ["F", "Cl", "Br", "OC", "N", "N(C)C", "C#N", "C(=O)OC", "CC",
               "C(F)(F)F", "S(=O)(=O)C", "[N+](=O)[O-]",
               "C=C", "CCC", "C(=O)N"]


def starter_fg_vocab_path() -> Path:
    """Path of the packaged starter FG vocabulary."""
    return Path(str(resources.files("fgrkit").joinpath("data/fg_vocabulary.tsv")))


def bundled_corpus_path() -> Path:
    """Path of the packaged 500-molecule SMILES corpus."""
    return Path(str(resources.files("fgrkit").joinpath("data/corpus_500.smi")))


def load_bundled_corpus() -> list[str]:
    return [line for line in bundled_corpus_path().read_text().splitlines()
            if line.strip()]


def make_hydroxyl_dataset(n: int = 200, seed: int = 0) -> list[tuple[str, int]]:
    """Toy classification set: label = presence of a hydroxyl group.

    Molecules are built over ~25 distinct ring scaffolds so scaffold splits
    produce non-degenerate partitions; labels are verified against the
    actual SMARTS matcher.
    """
    rng = random.Random(seed)
    pattern = parse_smarts(_HYDROXYL)
    rows: list[tuple[str, int]] = []
    seen: set[str] = set()
    i = 0
    while len(rows) < n:
        core = _CORES[i % len(_CORES)]
        i += 1
        want_oh = rng.random() < 0.5
        sub = rng.choice(_WITH_OH if want_oh else _WITHOUT_OH)
        smiles = core.format(sub)
        if smiles in seen:
            continue
        seen.add(smiles)
        mol = parse_smiles(smiles)
        label = int(match_exists(pattern, mol))
        assert label == int(want_oh), f"label construction broke for {smiles}"
        rows.append((smiles, label))
    return rows


def make_regression_dataset(n: int = 200, seed: int = 0,
                            noise: float = 0.15) -> list[tuple[str, float]]:
    """Toy regression set with a descriptor-driven synthetic target."""
    rng = random.Random(seed)
    rows: list[tuple[str, float]] = []
    seen: set[str] = set()
    i = 0
    while len(rows) < n:
        core = _CORES[i % len(_CORES)]
        i += 1
        sub = rng.choice(_WITH_OH + _WITHOUT_OH)
        smiles = core.format(sub)
        if smiles in seen:
            continue
        seen.add(smiles)
        v = compute_descriptors(parse_smiles(smiles))
        target = (1.5 - 0.01 * v[0] - 0.5 * v[5] + 0.8 * v[6]
                  + noise * rng.gauss(0.0, 1.0))
        rows.append((smiles, round(target, 6)))
    return rows


def write_dataset_csv(rows, path, task_names=("target",)) -> None:
    """Write (smiles, value...) rows as the pipeline's CSV format."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["smiles", *task_names])
        for row in rows:
            smiles, *values = row
            writer.writerow([smiles, *values])


def find_esol_csv() -> Path | None:
    """Locate the public ESOL (delaney) CSV if the user supplied it.

    Checked in order: $FGRKIT_ESOL_CSV, then data/esol.csv under the
    current directory and the repository root. Not bundled: the file is
    third-party data that must be fetched separately.
    """
    env = os.environ.get("FGRKIT_ESOL_CSV")
    candidates = [Path(env)] if env else []
    candidates += [Path("data/esol.csv"),
                   Path(__file__).resolve().parents[2] / "data" / "esol.csv"]
    for cand in candidates:
        if cand and cand.is_file():
            return cand
    return None


def load_esol_rows(path) -> list[tuple[str, float]]:
    """Read ESOL either as plain (smiles,target) or the deepchem export."""
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        measured = next((f for f in fields if "measured log solubility" in f), None)
        rows = []
        for record in reader:
            smiles = record.get("smiles") or record.get("SMILES")
            value = record[measured] if measured else record.get("target")
            if smiles and value not in (None, ""):
                rows.append((smiles.strip(), float(value)))
    return rows
