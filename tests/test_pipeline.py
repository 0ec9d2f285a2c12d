import random

import numpy as np
import pytest

from fgrkit.chem import murcko_scaffold, scaffold_key
from fgrkit.config import load_config
from fgrkit.datasets import (
    make_hydroxyl_dataset,
    make_regression_dataset,
    write_dataset_csv,
)
from fgrkit.errors import (
    ConfigError,
    DatasetError,
    DegenerateTask,
    MissingSmilesColumn,
    NoUsableRows,
    VocabMismatch,
)
from fgrkit.metrics import mae, r_squared, rmse, roc_auc
from fgrkit.pipeline import (
    TEST,
    TRAIN,
    VALID,
    Dataset,
    crossvalidate,
    evaluate_state,
    load_dataset,
    make_split,
    random_split,
    scaffold_fold_assignment,
    scaffold_split,
    train,
)

from helpers import MIXED_ROWS_CSV, MIXED_ROWS_DROPS
from oracles import oracle_mae, oracle_r2, oracle_rmse, oracle_roc_auc


@pytest.fixture(scope="module")
def toy_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.csv"
    write_dataset_csv(make_hydroxyl_dataset(200, seed=0), path, ("has_oh",))
    return str(path)


def toy_config(toy_csv, **training):
    cfg = {
        "data": {"path": toy_csv, "task": "classification", "split": "scaffold"},
        "vocab": {"representation": "fg"},
        "model": {"latent": 64},
        "training": {"epochs": 10, "seed": 0, **training},
    }
    return cfg


class TestLoadDataset:
    def test_toy_csv(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("smiles,t1\nCCO,1\nCC,0\nc1ccccc1,1\n")
        ds = load_dataset(p, "classification")
        assert len(ds) == 3 and ds.k == 1
        assert ds.report["rows_kept"] == 3

    def test_bad_smiles_dropped_and_counted(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("smiles,t1\nCCO,1\nnot_a_molecule((,0\nCC,1\n")
        ds = load_dataset(p, "classification")
        assert len(ds) == 2
        assert ds.report["rows_dropped"] == 1
        assert ds.report["drop_reasons"]["bad_smiles"] == 1

    @pytest.mark.parametrize("data, reasons", [
        (b"smiles,t\nCCO,1\nCC,1,2\nCCC,0\n", {"bad_width": 1}),  # more cells than the header
        (b"t,smiles\n1,CCO\n0\n0,CCC\n", {"bad_width": 1}),  # too short to hold the SMILES cell
        (MIXED_ROWS_CSV, MIXED_ROWS_DROPS),  # the same file as TestEncode's "mixed"
    ], ids=["too-wide", "no-smiles-cell", "mixed"])
    def test_bad_width_rows_dropped_and_counted(self, tmp_path, data, reasons):
        p = tmp_path / "d.csv"
        p.write_bytes(data)
        ds = load_dataset(p, "classification")
        assert [r.smiles for r in ds.records] == ["CCO", "CCC"]
        assert ds.report["drop_reasons"] == reasons
        Y, M = ds.target_arrays()
        assert Y.tolist() == [[1.0], [0.0]] and M.tolist() == [[1], [1]]

    def test_non_utf8_rows_dropped_and_counted(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"smiles,t\nCCO,1\nC\xf2C,1\nCC,0\xf2\nCCC,0\n")
        ds = load_dataset(p, "classification")
        assert [r.smiles for r in ds.records] == ["CCO", "CCC"]
        assert ds.report["drop_reasons"] == {"bad_encoding": 2}
        p.write_bytes(b"smiles,t\xf2\nCCO,1\n")
        with pytest.raises(DatasetError, match="UTF-8"):
            load_dataset(p, "classification")

    def test_multitask_blanks_become_mask(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("smiles,a,b\nCCO,1,\nCC,,0\nCCC,1,1\n")
        ds = load_dataset(p, "classification")
        Y, M = ds.target_arrays()
        assert M.tolist() == [[1, 0], [0, 1], [1, 1]]
        assert Y[0, 0] == 1 and Y[1, 1] == 0

    def test_missing_smiles_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("mol,t\nCCO,1\n")
        with pytest.raises(MissingSmilesColumn):
            load_dataset(p, "classification")

    def test_no_usable_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("smiles,t\nzzz((,1\n")
        with pytest.raises(NoUsableRows):
            load_dataset(p, "classification")


class TestSplits:
    def _singleton_dataset(self, n=10):
        # n distinct single-scaffold molecules
        smiles = ["c1ccccc1", "c1ccncc1", "c1cncnc1", "C1CCCCC1", "C1CCCC1",
                  "C1CC1", "c1ccoc1", "c1ccsc1", "C1CCNCC1", "C1CCOC1",
                  "c1ccc2ccccc2c1", "N1CCNCC1"][:n]
        rows = [(s, 1.0) for s in smiles]
        import tempfile, os
        d = tempfile.mkdtemp()
        p = os.path.join(d, "s.csv")
        write_dataset_csv(rows, p)
        return load_dataset(p, "regression")

    def test_ten_singletons_811(self):
        ds = self._singleton_dataset(10)
        split = scaffold_split(ds, (0.8, 0.1, 0.1))
        sizes = [len(split.indices(s)) for s in (TRAIN, VALID, TEST)]
        assert sizes == [8, 1, 1]

    def test_single_scaffold_lands_in_train(self, tmp_path):
        rows = [(f"c1ccccc1{'C' * i}" if i else "c1ccccc1", 1.0) for i in range(8)]
        p = tmp_path / "mono.csv"
        write_dataset_csv(rows, p)
        ds = load_dataset(p, "regression")
        with pytest.warns(UserWarning):
            split = scaffold_split(ds, (0.8, 0.1, 0.1))
        assert len(split.indices(TRAIN)) == len(ds)
        assert len(split.indices(VALID)) == len(split.indices(TEST)) == 0

    def test_partition_disjoint_exhaustive(self, toy_csv):
        ds = load_dataset(toy_csv, "classification")
        for split in (scaffold_split(ds), random_split(ds, seed=0)):
            groups = [split.indices(s) for s in (TRAIN, VALID, TEST)]
            joined = sorted(i for g in groups for i in g)
            assert joined == list(range(len(ds)))

    def test_scaffold_purity(self, toy_csv):
        ds = load_dataset(toy_csv, "classification")
        split = scaffold_split(ds)
        seen: dict[str, set] = {}
        for name in (TRAIN, VALID, TEST):
            for i in split.indices(name):
                key = scaffold_key(murcko_scaffold(ds.records[i].mol))
                seen.setdefault(key, set()).add(name)
        assert all(len(splits) == 1 for splits in seen.values())

    def test_toluene_benzene_never_straddle(self, tmp_path):
        rows = [("Cc1ccccc1", 1.0), ("c1ccccc1", 0.0), ("CCc1ccccc1", 1.0),
                ("c1ccncc1", 0.0), ("C1CC1", 1.0), ("C1CCCCC1", 0.0)]
        p = tmp_path / "tb.csv"
        write_dataset_csv(rows, p)
        ds = load_dataset(p, "regression")
        split = scaffold_split(ds)
        benzene_like = {name for name in (TRAIN, VALID, TEST)
                        for i in split.indices(name) if i in (0, 1, 2)}
        assert len(benzene_like) == 1

    def test_random_split_deterministic_per_seed(self, toy_csv):
        ds = load_dataset(toy_csv, "classification")
        a = random_split(ds, seed=3)
        b = random_split(ds, seed=3)
        c = random_split(ds, seed=4)
        assert np.array_equal(a.assignment, b.assignment)
        assert not np.array_equal(a.assignment, c.assignment)

    def test_random_split_rounding(self, toy_csv):
        ds = load_dataset(toy_csv, "classification")
        split = random_split(ds, (0.8, 0.1, 0.1), seed=0)
        n = len(ds)
        assert len(split.indices(VALID)) == int(np.floor(0.1 * n))
        assert len(split.indices(TEST)) == int(np.floor(0.1 * n))
        assert len(split.indices(TRAIN)) == n - 2 * int(np.floor(0.1 * n))

    @pytest.mark.parametrize("ratios", [(0.5, 0.5), (0.8, 0.1, 0.2), (1.2, -0.1, -0.1),
                                        (float("nan"),) * 3, "abc", None])
    def test_bad_ratios_are_config_errors(self, toy_csv, ratios):
        ds = load_dataset(toy_csv, "classification")
        for split_fn in (scaffold_split, random_split):
            with pytest.raises(ConfigError, match="data.ratios"):
                split_fn(ds, ratios)
        with pytest.raises(ConfigError, match="data.ratios"):
            train(toy_config(toy_csv) | {"data": {"path": toy_csv, "ratios": ratios}})

    def test_non_utf8_config_is_a_config_error(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_bytes(b'{"data": {"path": "d\xf2.csv"}}')
        with pytest.raises(ConfigError, match="UTF-8"):
            load_config(p)

    def test_unknown_split_method(self, toy_csv):
        ds = load_dataset(toy_csv, "classification")
        with pytest.raises(ConfigError):
            make_split(ds, "foo", (0.8, 0.1, 0.1), seed=0)


class TestMetrics:
    def test_spec_auc_example(self):
        assert abs(roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) - 0.75) < 1e-12

    def test_perfect_and_constant(self):
        assert roc_auc([0.1, 0.2, 0.9, 0.8], [0, 0, 1, 1]) == 1.0
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_degenerate(self):
        with pytest.raises(DegenerateTask):
            roc_auc([0.1, 0.2], [1, 1])

    def test_auc_matches_concordance_oracle(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(2, 50)
            labels = [rng.randint(0, 1) for _ in range(n)]
            if len(set(labels)) < 2:
                continue
            scores = [rng.choice([0.1, 0.25, 0.5, 0.5, 0.75, 0.9]) for _ in range(n)]
            assert abs(roc_auc(scores, labels) - oracle_roc_auc(scores, labels)) < 1e-12

    def test_regression_metrics_match_direct_formulas(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randint(2, 40)
            pred = [rng.uniform(-3, 3) for _ in range(n)]
            true = [rng.uniform(-3, 3) for _ in range(n)]
            assert abs(rmse(pred, true) - oracle_rmse(pred, true)) < 1e-12
            assert abs(mae(pred, true) - oracle_mae(pred, true)) < 1e-12
            assert abs(r_squared(pred, true) - oracle_r2(pred, true)) < 1e-12


class TestTraining:
    def test_toy_task_learns(self, toy_csv):
        res = train(toy_config(toy_csv, epochs=15))
        report = evaluate_state(res.state, res.enc, res.split.indices(TRAIN),
                                res.dataset.task_names, TRAIN)
        assert report.macro["roc_auc"] >= 0.99

    def test_alpha_beta_zero_components_still_reported(self, toy_csv):
        cfg = toy_config(toy_csv, epochs=2)
        cfg["model"].update({"alpha": 0.0, "beta": 0.0})
        res = train(cfg)
        rec = res.log[-1]
        assert rec["L_r"] > 0.0 and rec["L_ubc"] >= 0.0
        assert abs(rec["L_t"] - rec["L_e"]) < 1e-12

    def test_determinism_identical_logs(self, toy_csv):
        cfg = toy_config(toy_csv, epochs=4)
        a, b = train(cfg), train(cfg)
        strip = lambda log: [{k: v for k, v in r.items() if k != "wall_time"}
                             for r in log]
        assert strip(a.log) == strip(b.log)
        for name in a.state.param_names():
            assert np.array_equal(a.state.params()[name], b.state.params()[name])

    def test_monotone_sanity_improvement(self, toy_csv):
        cfg = toy_config(toy_csv, epochs=12)
        cfg["optimizer"] = {"kind": "sgd", "lr": 0.002, "momentum": 0.0}
        res = train(cfg)
        assert res.log[-1]["valid_metric"] > res.log[0]["valid_metric"]

    def test_regression_pipeline_learns(self, tmp_path):
        p = tmp_path / "reg.csv"
        write_dataset_csv(make_regression_dataset(200, seed=3), p)
        cfg = {
            "data": {"path": str(p), "task": "regression", "split": "scaffold"},
            "vocab": {"representation": "fg"},
            "model": {"latent": 32, "use_descriptors": True},
            "optimizer": {"kind": "sam", "lr": 0.02},
            "training": {"epochs": 25, "seed": 1},
        }
        res = train(cfg)
        test_report = evaluate_state(res.state, res.enc, res.split.indices(TEST),
                                     res.dataset.task_names, TEST)
        # synthetic target spans ~4 units; learning must beat a wide band
        assert test_report.macro["rmse"] < 1.0

    def test_vocab_mismatch_refused(self, toy_csv):
        from fgrkit.nn import check_fingerprints
        res = train(toy_config(toy_csv, epochs=1))
        res.state.fingerprints = {"fg": "bogus"}
        with pytest.raises(VocabMismatch):
            check_fingerprints(res.state.fingerprints, res.enc.fingerprints)

    def test_divergence_aborts_with_diagnostics(self, toy_csv, capsys):
        from fgrkit.errors import NonFiniteGradient
        cfg = toy_config(toy_csv, epochs=3)
        cfg["optimizer"] = {"kind": "sgd", "lr": 1e30, "momentum": 0.0}
        with pytest.raises(NonFiniteGradient):
            train(cfg)
        err = capsys.readouterr().err
        assert "training diverged at epoch" in err
        assert "max|theta|" in err


class TestEsolLoader:
    def test_deepchem_export_format(self, tmp_path):
        from fgrkit.datasets import load_esol_rows
        p = tmp_path / "delaney-processed.csv"
        p.write_text(
            "Compound ID,ESOL predicted log solubility in mols per litre,"
            "Minimum Degree,Molecular Weight,Number of H-Bond Donors,"
            "Number of Rings,Number of Rotatable Bonds,Polar Surface Area,"
            "measured log solubility in mols per litre,smiles\n"
            "Amigdalin,-0.974,1,457.432,7,3,7,202.32,-0.77,OCC3OC(OCC2OC(OC(C#N)"
            "c1ccccc1)C(O)C(O)C2O)C(O)C(O)C3O\n"
            "Fenfuram,-2.885,1,201.225,1,2,2,42.24,-3.3,Cc1occc1C(=O)Nc2ccccc2\n")
        rows = load_esol_rows(p)
        assert rows == [
            ("OCC3OC(OCC2OC(OC(C#N)c1ccccc1)C(O)C(O)C2O)C(O)C(O)C3O", -0.77),
            ("Cc1occc1C(=O)Nc2ccccc2", -3.3)]
        # the measured column, not the predicted one, is the target
        assert rows[0][1] != -0.974

    def test_plain_two_column_format(self, tmp_path):
        from fgrkit.datasets import load_esol_rows
        p = tmp_path / "esol.csv"
        p.write_text("smiles,target\nCCO,-0.3\nc1ccccc1,-2.1\n")
        assert load_esol_rows(p) == [("CCO", -0.3), ("c1ccccc1", -2.1)]

    @pytest.mark.parametrize("row", [
        b"CC,-1.0,2", b",-1.0", b"CC,", b"CC,high", b"C\xf2C,-1.0", b"CC,-1.\xf2"],
        ids=["too-wide", "empty-smiles", "empty-target", "non-numeric-target",
             "non-utf8-smiles", "non-utf8-target"])
    def test_unusable_rows_skipped(self, tmp_path, row):
        from fgrkit.datasets import load_esol_rows
        p = tmp_path / "esol.csv"
        p.write_bytes(b"smiles,target\nCCO,-0.3\n" + row + b"\nc1ccccc1,-2.1\n")
        assert load_esol_rows(p) == [("CCO", -0.3), ("c1ccccc1", -2.1)]

    def test_high_ring_closure_digits_parse(self):
        # deepchem ESOL SMILES reuse digits up to 4-5 levels deep
        from fgrkit.chem import parse_smiles
        mol = parse_smiles(
            "OCC3OC(OCC2OC(OC(C#N)c1ccccc1)C(O)C(O)C2O)C(O)C(O)C3O")
        assert mol.num_atoms == 32
        assert len(mol.rings()) == 3


class TestCrossValidation:
    def test_folds_partition_and_scaffold_purity(self, toy_csv):
        ds = load_dataset(toy_csv, "classification")
        folds = scaffold_fold_assignment(ds, 5)
        joined = sorted(i for fold in folds for i in fold)
        assert joined == list(range(len(ds)))
        key_to_fold: dict[str, set[int]] = {}
        for fi, fold in enumerate(folds):
            for i in fold:
                key = scaffold_key(murcko_scaffold(ds.records[i].mol))
                key_to_fold.setdefault(key, set()).add(fi)
        assert all(len(v) == 1 for v in key_to_fold.values())

    def test_crossvalidate_reports(self, toy_csv):
        cfg = toy_config(toy_csv, epochs=4)
        result = crossvalidate(cfg, folds=3)
        assert len(result.fold_results) == 3
        assert len(result.fold_metrics) == 3
        assert "roc_auc" in result.aggregate
        assert 0.0 <= result.aggregate["roc_auc"]["mean"] <= 1.0
        assert result.aggregate["roc_auc"]["std"] >= 0.0

    def test_fold_split_is_the_split_it_trained_on(self, toy_csv):
        result = crossvalidate(toy_config(toy_csv, epochs=1), folds=3)
        for i, fold_result in enumerate(result.fold_results):
            split = fold_result.split
            assert split.indices(TEST) == result.folds[i]
            assert split.indices(VALID) == result.folds[(i + 1) % 3]
            assert split.indices(TRAIN) == result.folds[(i + 2) % 3]

    def test_crossvalidate_deterministic(self, toy_csv):
        cfg = toy_config(toy_csv, epochs=2)
        a = crossvalidate(cfg, folds=3)
        b = crossvalidate(cfg, folds=3)
        assert a.aggregate == b.aggregate
        assert a.folds == b.folds
