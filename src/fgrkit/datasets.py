"""The SMILES table reader, bundled data and deterministic toy datasets."""

from __future__ import annotations

import csv
import os
import random
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .chem import parse_smiles
from .encode import compute_descriptors
from .errors import DatasetError
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


@dataclass
class SmilesTable:
    """Stripped header (None: empty file), other column names (None: no `smiles`
    column, so one SMILES per line), and kept (SMILES, other cells) rows."""
    header: list[str] | None
    columns: list[str] | None
    rows: list[tuple[str, list[str]]]
    dropped: dict[str, int]


def read_smiles_table(path) -> SmilesTable:
    """A CSV whose header names a `smiles` column (in any case), else a file
    of one SMILES per line. Cells are stripped and blank rows skipped; a row
    that is not UTF-8 is dropped as ``bad_encoding``, and a CSV row wider
    than the header or too short to hold the SMILES cell as ``bad_width``.
    A CSV header that is not UTF-8, or a CSV that the csv module cannot
    split, raises DatasetError."""
    rows, dropped = [], {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            header = None if header is None else [h.strip() for h in header]
            lowered = [h.lower() for h in header or []]
            if "smiles" in lowered:
                try:
                    ",".join(header).encode()
                except UnicodeEncodeError:
                    raise DatasetError("the header is not valid UTF-8") from None
                col, width = lowered.index("smiles"), len(header)
                columns = header[:col] + header[col + 1:]
            else:
                fh.seek(0)
                reader = ([line] for line in fh)
                col, width, columns = 0, 1, None
            for row in reader:
                row = [cell.strip() for cell in row]
                if not any(row):
                    continue
                try:
                    "".join(row).encode()
                    reason = None if col < len(row) <= width else "bad_width"
                except UnicodeEncodeError:
                    reason = "bad_encoding"
                if reason:
                    dropped[reason] = dropped.get(reason, 0) + 1
                else:
                    rows.append((row[col], row[:col] + row[col + 1:]))
        except csv.Error as exc:
            raise DatasetError(f"{path}: {exc}") from None
    return SmilesTable(header, columns, rows, dropped)


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
    """Read ESOL as plain (smiles,target) or the deepchem export (measured
    column); rows with an empty SMILES or a non-numeric target are skipped."""
    table = read_smiles_table(path)
    names = table.columns or []
    target = next((i for i, name in enumerate(names) if "measured log solubility" in name),
                  names.index("target") if "target" in names else len(names))
    rows = []
    for smiles, cells in table.rows:
        try:
            if smiles and target < len(cells):
                rows.append((smiles, float(cells[target])))
        except ValueError:
            continue
    return rows
