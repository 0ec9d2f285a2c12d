import json
import shutil

import numpy as np
import pytest

from fgrkit.cli import main
from fgrkit.datasets import make_hydroxyl_dataset, write_dataset_csv
from fgrkit.nn import ModelHyper, init_model, save_checkpoint

from helpers import MIXED_ROWS_CSV


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    rows = make_hydroxyl_dataset(120, seed=0)
    write_dataset_csv(rows, d / "toy.csv", ("has_oh",))
    (d / "corpus.smi").write_text("\n".join(s for s, _ in rows) + "\n")
    cfg = {
        "data": {"path": str(d / "toy.csv"), "task": "classification",
                 "split": "scaffold"},
        "vocab": {"representation": "fgr", "mfg": str(d / "toy.mfg")},
        "model": {"latent": 32},
        "training": {"epochs": 4, "seed": 0,
                     "checkpoint_out": str(d / "model.ckpt"),
                     "metrics_out": str(d / "metrics.json")},
    }
    (d / "config.json").write_text(json.dumps(cfg))
    return d


def run(*argv) -> int:
    return main([str(a) for a in argv])


def reading_verbs(workdir, ckpt, tag, *data) -> list[list]:
    """evaluate, attribute and analyze on ``ckpt``, writing ``tag``-named outputs."""
    return [["evaluate", "--ckpt", ckpt, *data, "--out", workdir / f"{tag}_eval.json"],
            ["attribute", "--ckpt", ckpt, *data, "--method", "feature_ablation",
             "--out", workdir / f"{tag}_attr.tsv"],
            ["analyze", "--ckpt", ckpt, *data, "--report", "alignment",
             "--out", workdir / f"{tag}_align.json"]]


class TestMineVocab:
    def test_mine_and_bytes_deterministic(self, workdir):
        out1 = workdir / "toy.mfg"
        out2 = workdir / "toy2.mfg"
        for out in (out1, out2):
            assert run("mine-vocab", "--corpus", workdir / "corpus.smi",
                       "--eta", 4, "--mvs", 500, "--out", out) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_gz_corpus(self, workdir):
        import gzip
        gz = workdir / "corpus.smi.gz"
        gz.write_bytes(gzip.compress((workdir / "corpus.smi").read_bytes()))
        out = workdir / "gz.mfg"
        assert run("mine-vocab", "--corpus", gz, "--eta", 4, "--mvs", 500,
                   "--out", out) == 0
        assert out.read_bytes() == (workdir / "toy.mfg").read_bytes()

    def test_several_corpus_files_stream_as_one(self, workdir):
        lines = (workdir / "corpus.smi").read_text().splitlines(keepends=True)
        half = len(lines) // 2
        (workdir / "part1.smi").write_text("".join(lines[:half]))
        (workdir / "part2.smi").write_text("".join(lines[half:]))
        out = workdir / "parts.mfg"
        assert run("mine-vocab", "--corpus", workdir / "part1.smi", workdir / "part2.smi",
                   "--eta", 4, "--mvs", 500, "--out", out) == 0
        assert out.read_bytes() == (workdir / "toy.mfg").read_bytes()

    def test_undecodable_line_skipped(self, workdir, capsys):
        bad = workdir / "bad_byte.smi"
        bad.write_bytes((workdir / "corpus.smi").read_bytes() + b"CC[C\xf2]O\n")
        out = workdir / "bad_byte.mfg"
        assert run("mine-vocab", "--corpus", bad, "--eta", 4, "--mvs", 500,
                   "--out", out) == 0
        assert "skipped_lines=1" in capsys.readouterr().out
        assert out.read_bytes() == (workdir / "toy.mfg").read_bytes()


class TestMineVocabBadInput:
    """Each case exits 1 with a one-line error and no traceback."""

    @pytest.mark.parametrize("case", ["only-bad-bytes", "truncated-gz", "not-gzip",
                                      "eta-zero", "mvs-negative", "directory"])
    def test_exits_cleanly(self, workdir, capsys, case):
        import gzip
        path = workdir / f"{case}.smi"
        eta, mvs = 2, 100
        if case == "only-bad-bytes":
            path.write_bytes(b"C\xf2\nCC\xf2O\n")
        elif case == "truncated-gz":
            path = workdir / f"{case}.smi.gz"
            path.write_bytes(gzip.compress((workdir / "corpus.smi").read_bytes())[:-40])
        elif case == "not-gzip":
            path = workdir / f"{case}.smi.gz"
            path.write_bytes(b"CCO\nCCN\n")
        elif case == "directory":
            path = workdir
        else:
            path.write_text("CCO\nCCN\n")
            eta, mvs = (0, 100) if case == "eta-zero" else (2, -5)
        assert run("mine-vocab", "--corpus", path, "--eta", eta, "--mvs", mvs,
                   "--out", workdir / f"{case}.mfg") == 1
        err = capsys.readouterr().err
        assert err.startswith("fgrkit: error: ") and "Traceback" not in err

    def test_encode_with_undecodable_vocabulary(self, workdir, capsys):
        vocab = workdir / "bad_vocab.mfg"
        vocab.write_bytes((workdir / "toy.mfg").read_bytes() + b"3\tC\xf2\n")
        assert run("encode", "--data", workdir / "toy.csv", "--mfg", vocab,
                   "--out", workdir / "bad_vocab.bin") == 1
        err = capsys.readouterr().err
        assert "fgrkit: error: line" in err and "not valid UTF-8" in err
        assert "Traceback" not in err

    def test_encode_skips_undecodable_smiles(self, workdir, capsys):
        data = workdir / "bad_byte.csv"
        data.write_bytes(b"smiles,t\nCCO,1\nC\xf2C,0\nCCN,1\n")
        assert run("--log", "json-lines", "encode", "--data", data,
                   "--mfg", workdir / "toy.mfg", "--out", workdir / "bad_byte.bin") == 0
        out, err = capsys.readouterr()
        assert (json.loads(out.strip().splitlines()[-1])["skipped"], err) == (1, "")
        for text in [b"C\xf2\n", b"smiles,t\xf2\nCCO,1\n"]:
            data.write_bytes(text)
            assert run("encode", "--data", data, "--mfg", workdir / "toy.mfg",
                       "--out", workdir / "bad_byte.bin") == 1
            err = capsys.readouterr().err
            assert err.startswith("fgrkit: error: ") and "Traceback" not in err

    def test_train_with_undecodable_config(self, workdir, capsys):
        config = workdir / "bad_byte.json"
        config.write_bytes((workdir / "config.json").read_bytes()[:-1] + b', "x": "\xf2"}')
        assert run("train", "--config", config) == 1
        err = capsys.readouterr().err
        assert "fgrkit: error: config is not valid UTF-8" in err and "Traceback" not in err


class TestEncode:
    def test_binary_and_deterministic(self, workdir):
        from fgrkit.datasets import starter_fg_vocab_path
        a, b = workdir / "enc_a.bin", workdir / "enc_b.bin"
        for out in (a, b):
            assert run("encode", "--data", workdir / "toy.csv",
                       "--fg", starter_fg_vocab_path(),
                       "--mfg", workdir / "toy.mfg", "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_plain_lines_skip_unparseable(self, workdir, capsys):
        from fgrkit.datasets import starter_fg_vocab_path
        from fgrkit.encode import load_matrix
        data = workdir / "lines.smi"
        data.write_text("CCO\nc1ccccc1\nC1CC\nCC(=O)O\n")
        out = workdir / "lines.bin"
        assert run("--log", "json-lines", "encode", "--data", data,
                   "--fg", starter_fg_vocab_path(), "--out", out) == 0
        event = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert (event["rows"], event["skipped"]) == (3, 1)
        X, _ = load_matrix(out)
        assert X.shape == (3, event["cols"])

    @pytest.mark.parametrize("text, encoded, unlabelled", [
        (b"smiles,t\nCCO,1\nc1ccccc1,0\n", ["CCO", "c1ccccc1"], []),
        (b'"smiles","t"\nCCO,1\nc1ccccc1,0\n', ["CCO", "c1ccccc1"], []),
        (MIXED_ROWS_CSV, ["CCO", "CCN", "CCC"], ["CCN"]),
    ], ids=["plain", "quoted", "mixed"])
    def test_csv_header_found(self, workdir, capsys, text, encoded, unlabelled):
        """encode keeps the rows load_dataset keeps, in order, with the same
        drop reasons; it reads no labels, so it also keeps a bad-label row."""
        from fgrkit.chem import parse_smiles, tokenize_smiles
        from fgrkit.encode import DESCRIPTOR_LENGTH, encode_records, load_matrix
        from fgrkit.pipeline import load_dataset
        from fgrkit.vocab import load_mfg_vocab
        data, out = workdir / "header.csv", workdir / "header.bin"
        data.write_bytes(text)
        assert run("--log", "json-lines", "encode", "--data", data, "--descriptors",
                   "--mfg", workdir / "toy.mfg", "--out", out) == 0
        event = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        ds = load_dataset(data, "classification")
        reasons = {k: n for k, n in ds.report["drop_reasons"].items() if k != "bad_label"}
        assert (event["drop_reasons"], event["skipped"]) == (reasons, sum(reasons.values()))
        assert [s for s in encoded if s not in unlabelled] == [r.smiles for r in ds.records]
        records = ((parse_smiles(s), tokenize_smiles(s)) for s in encoded)
        X, D = encode_records(records, None, load_mfg_vocab(workdir / "toy.mfg"),
                              DESCRIPTOR_LENGTH)
        assert np.array_equal(load_matrix(out)[0], np.hstack([X, D]))

    def test_tsv_mode(self, workdir):
        out = workdir / "enc.tsv"
        assert run("encode", "--data", workdir / "toy.csv",
                   "--mfg", workdir / "toy.mfg", "--tsv", "--out", out) == 0
        header = out.read_text().splitlines()[0]
        assert "\t" in header


class TestTrainEvaluate:
    def test_train_writes_checkpoint_and_metrics(self, workdir, capsys):
        assert run("--log", "json-lines", "train", "--config",
                   workdir / "config.json") == 0
        assert (workdir / "model.ckpt").is_file()
        assert (workdir / "metrics.json").is_file()
        records = [json.loads(line) for line in
                   capsys.readouterr().out.strip().splitlines()]
        epochs = [r for r in records if "epoch" in r]
        assert len(epochs) == 4
        assert all({"L_e", "L_r", "L_ubc", "L_t", "valid_metric", "wall_time"}
                   <= set(r) for r in epochs)

    def test_checkpoint_bytes_deterministic(self, workdir):
        first = (workdir / "model.ckpt").read_bytes()
        assert run("train", "--config", workdir / "config.json") == 0
        assert (workdir / "model.ckpt").read_bytes() == first

    def test_metrics_bytes_deterministic(self, workdir):
        first = (workdir / "metrics.json").read_bytes()
        assert run("train", "--config", workdir / "config.json") == 0
        assert (workdir / "metrics.json").read_bytes() == first

    def test_evaluate_report(self, workdir):
        out1, out2 = workdir / "eval1.json", workdir / "eval2.json"
        for out in (out1, out2):
            assert run("evaluate", "--ckpt", workdir / "model.ckpt",
                       "--split", "test", "--out", out) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["split"] == "test"
        assert 0.0 <= report["macro"]["roc_auc"] <= 1.0

    def test_seed_override_changes_model(self, workdir):
        alt = workdir / "alt.ckpt"
        assert run("--seed", "7", "train", "--config", workdir / "config.json",
                   "--out", alt) == 0
        assert alt.read_bytes() != (workdir / "model.ckpt").read_bytes()


class TestAttributeAnalyze:
    def test_attribute_outputs(self, workdir):
        a, b = workdir / "attr_a.tsv", workdir / "attr_b.tsv"
        for out in (a, b):
            assert run("attribute", "--ckpt", workdir / "model.ckpt",
                       "--method", "integrated_gradients", "--split", "train",
                       "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (workdir / "attr_a.tsv.json").is_file()
        lines = a.read_text().splitlines()
        assert lines[0] == "label\tkind\tmean_score\tstd\trank"
        assert len(lines) > 1
        summary = json.loads((workdir / "attr_a.tsv.json").read_text())
        assert summary["method"] == "integrated_gradients"
        assert "config_echo" in summary

    def test_attribute_multi_fold_aggregation(self, workdir):
        alt = workdir / "alt.ckpt"
        out = workdir / "attr_folds.tsv"
        assert run("attribute", "--ckpt", workdir / "model.ckpt", alt,
                   "--method", "feature_ablation", "--split", "train",
                   "--out", out) == 0
        summary = json.loads((out.parent / (out.name + ".json")).read_text())
        assert summary["folds"] == 2

    def test_analyze_reports(self, workdir):
        for report in ("alignment", "uniformity"):
            a = workdir / f"{report}_a.json"
            b = workdir / f"{report}_b.json"
            for out in (a, b):
                assert run("analyze", "--ckpt", workdir / "model.ckpt",
                           "--report", report, "--out", out) == 0
            assert a.read_bytes() == b.read_bytes()
        payload = json.loads((workdir / "alignment_a.json").read_text())
        assert payload["report"] == "alignment"
        assert len(payload["scaffolds"]) == 5


class TestScaffoldKeysPerVerb:
    @pytest.fixture
    def counters(self, monkeypatch):
        import fgrkit.pipeline as pipeline
        counts = {"scaffold_key": 0, "encode_dataset": 0}
        for name in counts:
            original = getattr(pipeline, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, counted)
        return counts

    @pytest.mark.parametrize("verb, keys_per_mol", [
        ("train", 1), ("alignment", 1), ("uniformity", 0), ("evaluate", 0), ("attribute", 0)])
    def test_scaffold_keys_per_molecule(self, workdir, counters, verb, keys_per_mol):
        from fgrkit.pipeline import load_dataset
        n = len(load_dataset(workdir / "toy.csv", "classification"))
        ckpt = workdir / "model.ckpt"
        argv = {
            "train": ["train", "--config", workdir / "config.json", "--out", workdir / "keys.ckpt"],
            "evaluate": ["evaluate", "--ckpt", ckpt, "--out", workdir / "keys.json"],
            "attribute": ["attribute", "--ckpt", ckpt, "--method", "feature_ablation",
                          "--out", workdir / "keys.tsv"],
        }.get(verb, ["analyze", "--ckpt", ckpt, "--report", verb, "--out", workdir / "keys.json"])
        assert run(*argv) == 0
        assert counters["scaffold_key"] == keys_per_mol * n

    def test_attribute_loads_shared_data_once(self, workdir, counters):
        from fgrkit.pipeline import load_dataset
        n = len(load_dataset(workdir / "toy.csv", "classification"))
        ckpt = workdir / "model.ckpt"
        assert run("attribute", "--ckpt", ckpt, ckpt, "--method", "feature_ablation",
                   "--out", workdir / "attr_once.tsv") == 0
        assert counters == {"scaffold_key": 0, "encode_dataset": 1}


class TestCheckpointSplit:
    def test_edited_data_refused(self, workdir, capsys):
        data = workdir / "edited.csv"
        shutil.copy(workdir / "toy.csv", data)
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["data"]["path"] = str(data)
        cfg["training"].update(epochs=1, checkpoint_out=str(workdir / "edited.ckpt"),
                               metrics_out=None)
        (workdir / "edited.json").write_text(json.dumps(cfg))
        assert run("train", "--config", workdir / "edited.json") == 0
        header, first, *rows = data.read_text().splitlines()
        smiles, label = first.split(",")
        data.write_text("\n".join([header, f"{smiles},{1 - int(label)}", *rows]) + "\n")
        capsys.readouterr()
        for argv in reading_verbs(workdir, workdir / "edited.ckpt", "edited"):
            assert run(*argv) == 1
            err = capsys.readouterr().err
            assert "fgrkit: error: 'data' fingerprint mismatch" in err
            assert "Traceback" not in err

    def test_copied_data_gives_identical_outputs(self, workdir, tmp_path):
        copy = tmp_path / "copy.csv"
        copy.write_bytes((workdir / "toy.csv").read_bytes())
        for tag, data in (("orig", ()), ("copy", ("--data", copy))):
            for argv in reading_verbs(workdir, workdir / "model.ckpt", tag, *data):
                assert run(*argv) == 0
        for name in ("eval.json", "attr.tsv", "align.json"):
            assert (workdir / f"orig_{name}").read_bytes() == \
                (workdir / f"copy_{name}").read_bytes()
        orig, copied = (json.loads((workdir / f"{tag}_attr.tsv.json").read_text())
                        for tag in ("orig", "copy"))
        assert copied["config_echo"]["data"].pop("path") == str(copy)
        orig["config_echo"]["data"].pop("path")
        assert orig == copied

    def test_version_one_checkpoint_refused(self, workdir, capsys):
        old = workdir / "v1.ckpt"
        _, rest = (workdir / "model.ckpt").read_bytes().split(b"\n", 1)
        old.write_bytes(b"fgr-ckpt v1\n" + rest)
        assert run("evaluate", "--ckpt", old) == 1
        err = capsys.readouterr().err
        assert "fgrkit: error: fgr-ckpt v1 checkpoints are no longer read" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h["params"][0]["shape"].reverse(), "disagree with p, k and hyper"),
        (lambda h: h["hyper"].update(l=str(h["hyper"]["l"])), "must be integers"),
        (lambda h: h.update(split=h["split"][:-1]), "split covers 119 rows, the data has 120"),
    ], ids=["transposed-W_e", "latent-string", "split-one-short"])
    def test_bad_header_refused(self, workdir, capsys, edit, message):
        magic, header, payload = (workdir / "model.ckpt").read_bytes().split(b"\n", 2)
        header = json.loads(header)
        edit(header)
        bad = workdir / "bad_header.ckpt"
        bad.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + payload)
        for argv in reading_verbs(workdir, bad, "bad")[:2]:
            assert run(*argv) == 1
            err = capsys.readouterr().err
            assert "fgrkit: error: " in err and message in err and "Traceback" not in err


class TestErrors:
    def test_unknown_config_key(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({"data": {"path": "x"}, "nonsense": {}}))
        assert run("train", "--config", bad) == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("patch", [
        {"data": {"path": None}},
        {"vocab": {"representation": "mfg", "mfg": None}},
        {"data": {"ratios": [0.5, 0.5]}},
        {"data": {"ratios": [0.8, 0.1, 0.2]}},
        {"data": {"split": "foo"}},
        {"optimizer": {"kind": "adam"}},
        {"training": {"epochs": "x"}},
        {"model": {"latent": "big"}},
        {"optimizer": {"lr": "fast"}},
        {"training": {"batch_size": 0}},
        {"training": {"runs": 0}},
        {"interpret": {"ig_steps": True}},
    ], ids=["no-data-path", "mfg-without-vocab", "two-ratios", "ratio-sum",
            "unknown-split", "unknown-optimizer", "epochs-string", "latent-string",
            "lr-string", "batch-size-zero", "runs-zero", "ig-steps-bool"])
    def test_bad_config_rejected(self, workdir, capsys, patch):
        cfg = {"data": {"path": str(workdir / "toy.csv")},
               "vocab": {"representation": "fgr", "mfg": str(workdir / "toy.mfg")},
               "model": {}, "optimizer": {}, "training": {"epochs": 1}, "interpret": {}}
        for section, values in patch.items():
            cfg[section].update(values)
        bad = workdir / "bad_config.json"
        bad.write_text(json.dumps(cfg))
        assert run("train", "--config", bad) == 1
        err = capsys.readouterr().err
        assert "fgrkit: error:" in err and "Traceback" not in err

    def test_train_drops_rows_of_the_wrong_width(self, workdir, capsys):
        data = workdir / "wide.csv"
        data.write_text((workdir / "toy.csv").read_text() + "CCO,1,2\n")
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["data"]["path"] = str(data)
        cfg["vocab"] = {"representation": "fg"}
        cfg["training"].update(epochs=1, checkpoint_out=str(workdir / "wide.ckpt"),
                               metrics_out=str(workdir / "wide_metrics.json"))
        config = workdir / "wide.json"
        config.write_text(json.dumps(cfg))
        assert run("train", "--config", config) == 0
        err = capsys.readouterr().err
        assert "'bad_width': 1" in err and "Traceback" not in err

    def test_missing_file(self, workdir):
        assert run("evaluate", "--ckpt", workdir / "missing.ckpt") == 1

    def test_truncated_checkpoint(self, workdir, capsys):
        path = workdir / "truncated.ckpt"
        save_checkpoint(init_model(5, 1, ModelHyper(l=4), seed=0), path)
        path.write_bytes(path.read_bytes()[:-3])
        assert run("evaluate", "--ckpt", path) == 1
        err = capsys.readouterr().err
        assert "fgrkit: error:" in err and "Traceback" not in err
