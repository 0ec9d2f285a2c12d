"""Dataset ingestion, scaffold/random splits, training loop and evaluation.

Training is deterministic for a fixed (seed, config, data) triple: epoch
shuffles come from one seeded generator, batches are contiguous slices of
the shuffled order, and the best-validation parameters are checkpointed.
Wall-clock entries appear in log records only; artifact files contain no
timing, so repeated runs are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chem import Molecule, encoder_input, murcko_scaffold, scaffold_key
from .config import check_ratios, resolve_config, validate_for_training
from .datasets import read_smiles_table, starter_fg_vocab_path
from .encode import encode_records, feature_columns
from .errors import (
    ConfigError,
    DatasetError,
    DegenerateTask,
    FgrError,
    MissingSmilesColumn,
    NonFiniteGradient,
    NoUsableRows,
)
from .metrics import mae, r_squared, rmse, roc_auc
from .nn import (
    Batch,
    CLASSIFICATION,
    ModelHyper,
    ModelState,
    REGRESSION,
    forward_encoder,
    init_model,
    predict_head,
    sam_step,
    total_loss,
)
from .vocab import FGVocabulary, MFGVocabulary, load_fg_vocab, load_mfg_vocab

TRAIN, VALID, TEST = "train", "valid", "test"
_SPLIT_ID = {TRAIN: 0, VALID: 1, TEST: 2}


@dataclass
class DataRecord:
    smiles: str
    mol: Molecule
    tokens: list[str]
    targets: list[float | None]


@dataclass
class Dataset:
    records: list[DataRecord]
    task_names: list[str]
    task_kind: str
    report: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.task_names)

    def __len__(self) -> int:
        return len(self.records)

    @cached_property
    def scaffold_groups(self) -> list[tuple[str, list[int]]]:
        """(scaffold key, record indices) pairs, largest group first, ties
        broken by key; computed once per dataset."""
        groups: dict[str, list[int]] = {}
        for i, rec in enumerate(self.records):
            groups.setdefault(scaffold_key(murcko_scaffold(rec.mol)), []).append(i)
        return sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))

    @cached_property
    def fingerprint(self) -> str:
        """sha256 of the task names and each kept row's SMILES and targets."""
        rows = [[rec.smiles, rec.targets] for rec in self.records]
        return hashlib.sha256(json.dumps([self.task_names, rows]).encode()).hexdigest()

    def target_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(Y, M): targets with zeros at gaps, and the presence mask."""
        n, k = len(self.records), self.k
        Y = np.zeros((n, k))
        M = np.zeros((n, k))
        for i, rec in enumerate(self.records):
            for j, value in enumerate(rec.targets):
                if value is not None:
                    Y[i, j] = value
                    M[i, j] = 1.0
        return Y, M


def load_dataset(path, task_kind: str) -> Dataset:
    """CSV with a `smiles` column; remaining columns are tasks, empty cells
    are missing labels. Rows that `read_smiles_table` drops, and rows with a
    non-numeric label or an unparseable SMILES, are dropped and counted."""
    if task_kind not in (CLASSIFICATION, REGRESSION):
        raise DatasetError(f"unknown task kind {task_kind!r}")
    table = read_smiles_table(path)
    if table.header is None:
        raise NoUsableRows("empty file")
    if table.columns is None:
        raise MissingSmilesColumn(f"no `smiles` column in {table.header}")
    if not table.columns:
        raise DatasetError("no task columns")
    records: list[DataRecord] = []
    dropped = dict(table.dropped)
    for smiles, cells in table.rows:
        try:
            targets = [float(cell) if cell else None for cell in cells]
            mol, tokens = encoder_input(smiles)
        except (ValueError, FgrError) as exc:
            reason = "bad_label" if isinstance(exc, ValueError) else "bad_smiles"
            dropped[reason] = dropped.get(reason, 0) + 1
            continue
        targets += [None] * (len(table.columns) - len(targets))
        records.append(DataRecord(smiles=smiles, mol=mol, tokens=tokens, targets=targets))
    if not records:
        raise NoUsableRows(f"no usable rows in {path}")
    report = {"rows_kept": len(records), "rows_dropped": sum(dropped.values()),
              "drop_reasons": dropped}
    return Dataset(records=records, task_names=table.columns, task_kind=task_kind,
                   report=report)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

@dataclass
class SplitAssignment:
    assignment: np.ndarray  # record index -> {0 train, 1 valid, 2 test}

    def indices(self, split: str) -> list[int]:
        sid = _SPLIT_ID[split]
        return [int(i) for i in np.nonzero(self.assignment == sid)[0]]


def scaffold_split(ds: Dataset, ratios=(0.8, 0.1, 0.1)) -> SplitAssignment:
    """Whole scaffold groups go to the first split still under capacity,
    in train -> valid -> test order; groups are taken largest first."""
    ratios = check_ratios(ratios)
    n = len(ds)
    caps = [int(np.floor(ratios[0] * n)), int(np.floor(ratios[1] * n))]
    caps.append(n - caps[0] - caps[1])
    assignment = np.full(n, 2, dtype=np.int8)
    sizes = [0, 0, 0]
    for _, members in ds.scaffold_groups:
        for sid in range(3):
            if sizes[sid] < caps[sid]:
                break
        else:
            sid = 2
        assignment[members] = sid
        sizes[sid] += len(members)
    if sizes[1] == 0 or sizes[2] == 0:
        warnings.warn("scaffold split left an empty valid or test set "
                      f"(sizes {sizes}); scaffolds are too concentrated")
    return SplitAssignment(assignment)


def random_split(ds: Dataset, ratios=(0.8, 0.1, 0.1), seed: int = 0) -> SplitAssignment:
    """Seeded shuffle then contiguous slicing (floor sizes, remainder to train)."""
    ratios = check_ratios(ratios)
    n = len(ds)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_valid = int(np.floor(ratios[1] * n))
    n_test = int(np.floor(ratios[2] * n))
    n_train = n - n_valid - n_test
    assignment = np.empty(n, dtype=np.int8)
    assignment[order[:n_train]] = 0
    assignment[order[n_train:n_train + n_valid]] = 1
    assignment[order[n_train + n_valid:]] = 2
    return SplitAssignment(assignment)


def make_split(ds: Dataset, method: str, ratios, seed: int) -> SplitAssignment:
    if method == "scaffold":
        return scaffold_split(ds, ratios)
    if method == "random":
        return random_split(ds, ratios, seed)
    raise ConfigError(f"unknown split method {method!r}")


# ---------------------------------------------------------------------------
# encoding cache
# ---------------------------------------------------------------------------

@dataclass
class EncodedDataset:
    X: np.ndarray                  # (n, p) float64 multi-hot
    D: np.ndarray | None           # (n, d) L2-normalized descriptors
    Y: np.ndarray
    M: np.ndarray
    feature_labels: list[str]
    feature_kinds: list[str]       # FG | MFG | DESC per model input column
    fingerprints: dict[str, str]


def encode_dataset(ds: Dataset, fg: FGVocabulary | None, mfg: MFGVocabulary | None,
                   use_descriptors: bool, descriptor_length: int) -> EncodedDataset:
    """Multi-hot (and descriptor) cache computed once per record."""
    length = descriptor_length if use_descriptors else 0
    labels, kinds, fingerprints = feature_columns(fg, mfg, length)
    fingerprints["data"] = ds.fingerprint
    X, D = encode_records(((rec.mol, rec.tokens) for rec in ds.records), fg, mfg, length)
    Y, M = ds.target_arrays()
    return EncodedDataset(X=X, D=D, Y=Y, M=M, feature_labels=labels,
                          feature_kinds=kinds, fingerprints=fingerprints)


def load_encoded(config: dict) -> tuple[dict, Dataset, EncodedDataset]:
    """(resolved config, dataset, encoding): validates the config, then loads
    the dataset and its vocabularies and encodes every row."""
    cfg = resolve_config(config)
    validate_for_training(cfg)
    ds = load_dataset(cfg["data"]["path"], cfg["data"]["task"])
    rep = cfg["vocab"]["representation"]
    fg = mfg = None
    if rep in ("fg", "fgr"):
        path = cfg["vocab"]["fg"] or starter_fg_vocab_path()
        fg = load_fg_vocab(path, skip_invalid=cfg["vocab"]["skip_invalid"])
    if rep in ("mfg", "fgr"):
        mfg = load_mfg_vocab(cfg["vocab"]["mfg"])
    enc = encode_dataset(ds, fg, mfg, cfg["model"]["use_descriptors"],
                         cfg["model"]["descriptor_length"])
    return cfg, ds, enc


# ---------------------------------------------------------------------------
# metrics over splits
# ---------------------------------------------------------------------------

@dataclass
class MetricsReport:
    split: str
    kind: str
    per_task: dict[str, dict[str, float]]
    macro: dict[str, float]
    skipped_tasks: list[str]
    seed: int = 0

    def primary(self) -> float:
        return self.macro["roc_auc"] if self.kind == CLASSIFICATION else self.macro["rmse"]


def compute_metrics(Yhat: np.ndarray, Y: np.ndarray, M: np.ndarray,
                    task_names: list[str], kind: str, split: str = "",
                    seed: int = 0) -> MetricsReport:
    per_task: dict[str, dict[str, float]] = {}
    skipped: list[str] = []
    for j, name in enumerate(task_names):
        mask = M[:, j] == 1.0
        if mask.sum() == 0:
            skipped.append(name)
            continue
        y, yhat = Y[mask, j], Yhat[mask, j]
        if kind == CLASSIFICATION:
            if len(set(y.tolist())) < 2:
                skipped.append(name)
                continue
            per_task[name] = {"roc_auc": roc_auc(yhat, y)}
        else:
            entry = {"rmse": rmse(yhat, y), "mae": mae(yhat, y)}
            try:
                entry["r2"] = r_squared(yhat, y)
            except DegenerateTask:
                pass
            per_task[name] = entry
    if not per_task:
        raise DegenerateTask(f"no evaluable tasks on split {split!r}")
    keys = sorted({k for v in per_task.values() for k in v})
    macro = {k: float(np.mean([v[k] for v in per_task.values() if k in v]))
             for k in keys}
    return MetricsReport(split=split, kind=kind, per_task=per_task, macro=macro,
                         skipped_tasks=skipped, seed=seed)


def evaluate_state(state: ModelState, enc: EncodedDataset, indices: list[int],
                   task_names: list[str], split: str, seed: int = 0) -> MetricsReport:
    if not indices:
        raise DegenerateTask(f"split {split!r} is empty")
    X = enc.X[indices]
    D = enc.D[indices] if enc.D is not None and state.hyper.use_descriptors else None
    Z = forward_encoder(X, state)
    Yhat = predict_head(Z, D, state)
    return compute_metrics(Yhat, enc.Y[indices], enc.M[indices], task_names,
                           state.hyper.task, split=split, seed=seed)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    state: ModelState            # best-validation parameters
    log: list[dict]
    best_epoch: int
    split: SplitAssignment
    enc: EncodedDataset
    dataset: Dataset


def _batches(order: np.ndarray, size: int):
    for start in range(0, len(order), size):
        yield order[start:start + size]


def _dump_divergence(state: ModelState, batch: Batch, batch_idx: np.ndarray,
                     epoch: int) -> None:
    """Diagnostics to stderr before a NonFiniteGradient abort."""
    import sys

    print(f"fgrkit: training diverged at epoch {epoch}, "
          f"batch records {batch_idx.tolist()}", file=sys.stderr)
    for name, value in state.params().items():
        finite = bool(np.all(np.isfinite(value)))
        peak = float(np.max(np.abs(value[np.isfinite(value)]))) \
            if np.any(np.isfinite(value)) else float("nan")
        print(f"fgrkit:   {name}: finite={finite} max|theta|={peak:.3e}",
              file=sys.stderr)
    print(f"fgrkit:   batch X sum={float(batch.X.sum())} "
          f"mask sum={float(batch.M.sum())}", file=sys.stderr)


def train(config: dict) -> TrainResult:
    """End-to-end training per the resolved config; see config.DEFAULT_CONFIG."""
    cfg, ds, enc = load_encoded(config)
    seed = int(cfg["training"]["seed"])
    split = make_split(ds, cfg["data"]["split"], tuple(cfg["data"]["ratios"]), seed)
    return train_encoded(cfg, ds, enc, split, seed)


def train_encoded(cfg: dict, ds: Dataset, enc: EncodedDataset,
                  split: SplitAssignment, seed: int) -> TrainResult:
    """Training loop over a pre-encoded dataset (shared by train and CV)."""
    hyper = ModelHyper(
        l=int(cfg["model"]["latent"]),
        tied=bool(cfg["model"]["tied"]),
        alpha_t=float(cfg["model"]["alpha_t"]),
        gamma=float(cfg["model"]["gamma"]),
        alpha=float(cfg["model"]["alpha"]),
        beta=float(cfg["model"]["beta"]),
        task=cfg["data"]["task"],
        use_descriptors=bool(cfg["model"]["use_descriptors"]),
        descriptor_dim=(int(cfg["model"]["descriptor_length"])
                        if cfg["model"]["use_descriptors"] else 0),
    )
    train_idx = np.array(split.indices(TRAIN), dtype=int)
    valid_idx = split.indices(VALID)
    if len(train_idx) == 0:
        raise DatasetError("empty training split")

    p = enc.X.shape[1]
    k = enc.Y.shape[1]
    state = init_model(p, k, hyper, seed=seed, fingerprints=enc.fingerprints)
    rng = np.random.default_rng(seed + 1)
    velocities: dict[str, np.ndarray] = {}

    opt = cfg["optimizer"]
    # SGD is SAM without the perturbation: sam_step with rho = 0 is sgd_step
    rho = float(opt["rho"]) if opt["kind"] == "sam" else 0.0
    epochs = int(cfg["training"]["epochs"])
    batch_size = int(cfg["training"]["batch_size"])
    task_names = ds.task_names

    def subset_batch(idx: np.ndarray) -> Batch:
        D = enc.D[idx] if enc.D is not None and hyper.use_descriptors else None
        return Batch(X=enc.X[idx], Y=enc.Y[idx], M=enc.M[idx], D=D)

    log: list[dict] = []
    best_metric: float | None = None
    best_epoch = 0
    best_params = {n: v.copy() for n, v in state.params().items()}
    higher_better = hyper.task == CLASSIFICATION

    for epoch in range(1, epochs + 1):
        t0 = time.perf_counter()
        order = train_idx[rng.permutation(len(train_idx))]
        for batch_idx in _batches(order, batch_size):
            batch = subset_batch(batch_idx)
            try:
                state = sam_step(state, batch, lr=float(opt["lr"]), rho=rho,
                                 momentum=float(opt["momentum"]),
                                 velocities=velocities)
            except NonFiniteGradient:
                _dump_divergence(state, batch, batch_idx, epoch)
                raise
        _, parts = total_loss(subset_batch(train_idx), state)
        record = {"epoch": epoch, **{k_: float(v) for k_, v in parts.items()}}
        try:
            watch_idx = valid_idx if valid_idx else list(train_idx)
            metric = evaluate_state(state, enc, watch_idx, task_names,
                                    VALID if valid_idx else TRAIN, seed).primary()
        except DegenerateTask:
            metric = float("nan")
        record["valid_metric"] = float(metric)
        record["wall_time"] = time.perf_counter() - t0
        log.append(record)
        if not np.isnan(metric):
            better = (best_metric is None
                      or (metric > best_metric if higher_better else metric < best_metric))
            if better:
                best_metric = metric
                best_epoch = epoch
                best_params = {n: v.copy() for n, v in state.params().items()}

    if best_metric is None:
        # no epoch produced an evaluable watch metric; keep the final state
        best_state, best_epoch = state, epochs
    else:
        best_state = state.with_params(best_params)
    return TrainResult(state=best_state, log=log, best_epoch=best_epoch,
                       split=split, enc=enc, dataset=ds)


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------

def scaffold_fold_assignment(ds: Dataset, folds: int) -> list[list[int]]:
    """Scaffold-grouped folds: each group lands in the currently smallest
    fold (ties to the lowest index); no scaffold key spans folds."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    assignment: list[list[int]] = [[] for _ in range(folds)]
    for _, members in ds.scaffold_groups:
        target = min(range(folds), key=lambda f: (len(assignment[f]), f))
        assignment[target].extend(members)
    return [sorted(fold) for fold in assignment]


@dataclass
class CrossValidationResult:
    fold_results: list[TrainResult]
    fold_metrics: list[MetricsReport]
    aggregate: dict[str, dict[str, float]]  # metric -> {mean, std}
    folds: list[list[int]]


def crossvalidate(config: dict, folds: int) -> CrossValidationResult:
    """Scaffold-grouped K-fold: fold i tests, fold (i+1) % K validates,
    the rest trains; reports mean±std of the test metrics."""
    cfg, ds, enc = load_encoded(config)
    fold_sets = scaffold_fold_assignment(ds, folds)
    seed = int(cfg["training"]["seed"])

    results: list[TrainResult] = []
    reports: list[MetricsReport] = []
    for i in range(folds):
        assignment = np.full(len(ds), _SPLIT_ID[TRAIN], dtype=np.int8)
        assignment[fold_sets[(i + 1) % folds]] = _SPLIT_ID[VALID]
        assignment[fold_sets[i]] = _SPLIT_ID[TEST]
        split = SplitAssignment(assignment)
        result = train_encoded(cfg, ds, enc, split, seed=seed + i)
        report = evaluate_state(result.state, enc, split.indices(TEST), ds.task_names,
                                TEST, seed=seed + i)
        results.append(result)
        reports.append(report)

    keys = sorted({k for r in reports for k in r.macro})
    aggregate = {}
    for key in keys:
        values = [r.macro[key] for r in reports if key in r.macro]
        aggregate[key] = {"mean": float(np.mean(values)),
                          "std": float(np.std(values))}
    return CrossValidationResult(fold_results=results, fold_metrics=reports,
                                 aggregate=aggregate, folds=fold_sets)
