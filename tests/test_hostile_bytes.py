"""Every loader survives hostile bytes.

Each loader reads seeded byte mutations (substitute, insert, delete,
truncate) of a small valid file. Each call returns or raises an FgrError;
`fgrkit encode` exits 0 or 1 and raises nothing.
"""

import gzip
import json
import random

import numpy as np
import pytest

from fgrkit.cli import main
from fgrkit.config import load_config
from fgrkit.datasets import load_esol_rows, starter_fg_vocab_path
from fgrkit.encode import load_matrix, save_matrix
from fgrkit.errors import DatasetError, FgrError
from fgrkit.nn import ModelHyper, init_model, load_checkpoint, save_checkpoint
from fgrkit.pipeline import load_dataset
from fgrkit.vocab import load_fg_vocab, load_mfg_vocab, mine_mfg, read_corpus, save_vocab

MUTATIONS = 500
# bytes that CSV, TSV, JSON, SMILES and UTF-8 decoding treat specially
_SPECIAL = b',"\n\r\t .-=#()[]%0123456789Ccnx{}:\x00\x80\xc3\xf2\xff'
_CORPUS = "CCO\nc1ccccc1O\nCC(=O)Nc1ccc(O)cc1\nCCN(CC)CC\nC1CCCCC1\nCC(=O)O\n"


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One to three byte edits of ``data``."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("substitute", "insert", "delete", "truncate"))
        pos = rng.randrange(len(out) + 1)
        byte = rng.choice(_SPECIAL) if rng.random() < 0.7 else rng.randrange(256)
        if op == "insert":
            out.insert(pos, byte)
        elif op == "truncate":
            del out[pos:]
        elif pos < len(out):
            if op == "substitute":
                out[pos] = byte
            else:
                del out[pos]
    return bytes(out)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("hostile")
    (d / "data.csv").write_text("t,smiles\n1,CCO\n0,c1ccccc1\n1,CC(=O)O\n0,CCN\n")
    (d / "esol.csv").write_text("smiles,measured log solubility in mols per litre\n"
                                "CCO,-0.3\nc1ccccc1,-2.1\n")
    starter = starter_fg_vocab_path().read_text().splitlines()
    fg_lines = [line for line in starter if line and not line.startswith("#")][:6]
    (d / "fg.tsv").write_text("# small vocabulary\n" + "\n".join(fg_lines) + "\n")
    (d / "corpus.smi").write_text(_CORPUS)
    (d / "corpus.smi.gz").write_bytes(gzip.compress(_CORPUS.encode(), mtime=0))
    save_vocab(mine_mfg(_CORPUS.splitlines(), eta=1, mvs=20), d / "toy.mfg")
    save_matrix(np.arange(12.0).reshape(3, 4), d / "matrix.bin", {"fg": "abc"})
    state = init_model(5, 1, ModelHyper(l=4), seed=0)
    state.fingerprints = {"mfg": "abc"}
    save_checkpoint(state, d / "model.ckpt", seed=0, epoch=1, config_echo={}, split="012")
    (d / "config.json").write_text(json.dumps(
        {"data": {"path": "data.csv", "task": "classification"},
         "model": {"latent": 8}, "training": {"epochs": 2, "seed": 1}}))
    return d


def _encode(path, files):
    rc = main(["encode", "--data", str(path), "--mfg", str(files / "toy.mfg"),
               "--out", str(path.with_suffix(".bin"))])
    assert rc in (0, 1)


LOADERS = {
    "load_dataset": ("data.csv", lambda p, _: load_dataset(p, "classification")),
    "encode": ("data.csv", _encode),
    "load_esol_rows": ("esol.csv", lambda p, _: load_esol_rows(p)),
    "load_fg_vocab": ("fg.tsv", lambda p, _: load_fg_vocab(p)),
    "load_mfg_vocab": ("toy.mfg", lambda p, _: load_mfg_vocab(p)),
    "mine_mfg": ("corpus.smi", lambda p, _: mine_mfg(read_corpus(p), eta=1, mvs=20)),
    "mine_mfg_gz": ("corpus.smi.gz",
                    lambda p, _: mine_mfg(read_corpus(p), eta=1, mvs=20)),
    "load_matrix": ("matrix.bin", lambda p, _: load_matrix(p)),
    "load_checkpoint": ("model.ckpt",
                        lambda p, _: load_checkpoint(p, {"mfg": "abc"})),
    "load_config": ("config.json", lambda p, _: load_config(p)),
}


@pytest.mark.parametrize("loader", list(LOADERS))
def test_mutated_file_loads_or_raises_typed(files, tmp_path, capsys, loader):
    name, call = LOADERS[loader]
    valid = (files / name).read_bytes()
    call(files / name, files)
    rng = random.Random(f"hostile:{loader}")
    target = tmp_path / name
    for i in range(MUTATIONS):
        data = mutate(valid, rng)
        target.write_bytes(data)
        try:
            call(target, files)
        except FgrError:
            pass
        except Exception as exc:
            pytest.fail(f"{loader} on mutation {i} ({data!r}) raised {exc!r}")
    assert "Traceback" not in capsys.readouterr().err


def test_unsplittable_csv_is_a_dataset_error(tmp_path):
    """A quote left open makes one field run past the csv module's size limit."""
    path = tmp_path / "open_quote.csv"
    path.write_bytes(b'smiles,t\n"' + b"C" * 200_000 + b"\n")
    with pytest.raises(DatasetError, match="field limit"):
        load_dataset(path, "classification")


@pytest.mark.parametrize("argv", [
    ["mine-vocab", "--corpus", ".", "--eta", "2", "--mvs", "10", "--out", "x.mfg"],
    ["encode", "--data", ".", "--mfg", "toy.mfg", "--out", "x.bin"],
    ["train", "--config", "."],
], ids=["mine-vocab", "encode", "train"])
def test_directory_arguments_exit_cleanly(files, capsys, monkeypatch, argv):
    monkeypatch.chdir(files)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("fgrkit: error: ") and "Traceback" not in err
