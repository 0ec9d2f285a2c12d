"""fgrkit command-line interface.

Subcommands: mine-vocab, encode, train, evaluate, attribute, analyze.
Every artifact file written here is byte-deterministic for a fixed seed;
wall-clock timing appears only in log records on stdout/stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain

import numpy as np

from . import __version__
from .attribution import METHODS, aggregate_attributions, attribute_dataset, model_inputs
from .chem import encoder_input
from .config import load_config, resolve_config, validate_for_training
from .datasets import read_smiles_table
from .encode import (
    DESCRIPTOR_LENGTH,
    encode_records,
    feature_columns,
    save_matrix,
    save_matrix_tsv,
)
from .errors import CheckpointError, DegenerateTask, FgrError
from .nn import check_fingerprints, load_checkpoint, save_checkpoint
from .pipeline import (
    TEST,
    TRAIN,
    VALID,
    SplitAssignment,
    evaluate_state,
    load_encoded,
    make_split,
    train_encoded,
)
from .repquality import alignment_report, uniformity_report
from .vocab import load_fg_vocab, load_mfg_vocab, mine_mfg, read_corpus, save_vocab


def _emit(record: dict, fmt: str, stream=None) -> None:
    stream = stream or sys.stdout
    if fmt == "json-lines":
        stream.write(json.dumps(record, sort_keys=True) + "\n")
    else:
        stream.write(" ".join(f"{k}={_fmt_value(v)}" for k, v in record.items()) + "\n")
    stream.flush()


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return format(v, ".6g")
    return str(v)


def _write_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_mine_vocab(args) -> int:
    lines = chain.from_iterable(read_corpus(path) for path in args.corpus)
    vocab = mine_mfg(lines, eta=args.eta, mvs=args.mvs)
    save_vocab(vocab, args.out)
    _emit({"event": "mined", "entries": vocab.size,
           "merged": len(vocab.merged_entries),
           "skipped_lines": vocab.skipped_lines,
           "corpus_fingerprint": vocab.corpus_fingerprint}, args.log)
    return 0


def cmd_encode(args) -> int:
    fg = load_fg_vocab(args.fg, skip_invalid=args.skip_invalid) if args.fg else None
    mfg = load_mfg_vocab(args.mfg) if args.mfg else None
    length = DESCRIPTOR_LENGTH if args.descriptors else 0
    labels, _, fingerprints = feature_columns(fg, mfg, length)
    table = read_smiles_table(args.data)
    dropped = dict(table.dropped)

    def records():
        for smiles, _ in table.rows:
            try:
                yield encoder_input(smiles)
            except FgrError:
                dropped["bad_smiles"] = dropped.get("bad_smiles", 0) + 1

    X, D = encode_records(records(), fg, mfg, length)
    if not len(X):
        raise FgrError("no encodable molecules in input")
    if D is not None:
        X = np.hstack([X, D])
    if args.tsv:
        save_matrix_tsv(X, args.out, labels)
    else:
        save_matrix(X, args.out, fingerprints)
    _emit({"event": "encoded", "rows": X.shape[0], "cols": X.shape[1],
           "skipped": sum(dropped.values()), "drop_reasons": dropped}, args.log)
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["training"]["seed"] = args.seed
    if args.out:
        cfg["training"]["checkpoint_out"] = args.out
    cfg, ds, enc = load_encoded(cfg)
    _emit({"event": "dataset", **ds.report}, args.log, sys.stderr)
    runs = int(cfg["training"]["runs"])
    base_seed = int(cfg["training"]["seed"])
    ckpt_path = cfg["training"]["checkpoint_out"]
    metrics_path = cfg["training"]["metrics_out"]
    all_metrics = []
    for run in range(runs):
        seed = base_seed + run
        split = make_split(ds, cfg["data"]["split"], tuple(cfg["data"]["ratios"]), seed)
        result = train_encoded(cfg, ds, enc, split, seed)
        for record in result.log:
            _emit({"run": run, **record}, args.log)
        test_idx = split.indices(TEST)
        report = None
        if test_idx:
            try:
                report = evaluate_state(result.state, enc, test_idx,
                                        ds.task_names, TEST, seed)
                all_metrics.append(report.primary())
            except DegenerateTask as exc:
                _emit({"event": "test_metrics_skipped", "run": run,
                       "reason": str(exc)}, args.log, sys.stderr)
        if ckpt_path:
            path = ckpt_path if runs == 1 else _indexed_path(ckpt_path, run)
            save_checkpoint(result.state, path, seed=seed, epoch=result.best_epoch,
                            config_echo=cfg, split="".join(map(str, split.assignment)))
            _emit({"event": "checkpoint", "run": run, "path": str(path),
                   "best_epoch": result.best_epoch}, args.log)
        if report is not None:
            _emit({"event": "test_metrics", "run": run, "seed": seed,
                   **{f"macro_{k}": v for k, v in report.macro.items()}}, args.log)
    if metrics_path and all_metrics:
        payload = {"runs": runs, "seed": base_seed,
                   "primary_metric": ("roc_auc" if cfg["data"]["task"] == "classification"
                                      else "rmse"),
                   "values": all_metrics,
                   "mean": float(np.mean(all_metrics)),
                   "std": float(np.std(all_metrics))}
        _write_json(payload, metrics_path)
    return 0


def _indexed_path(path: str, run: int) -> str:
    if "." in path.rsplit("/", 1)[-1]:
        stem, ext = path.rsplit(".", 1)
        return f"{stem}.run{run}.{ext}"
    return f"{path}.run{run}"


def _load_ckpt_with_data(ckpt_path, data_path, loaded=None):
    """(state, header, split, cfg, ds, enc) of a checkpoint and the data it trained
    on; an earlier ``loaded`` (cfg, ds, enc) is reused when its data, vocab
    and model sections equal the checkpoint's."""
    state, header = load_checkpoint(ckpt_path)
    cfg = resolve_config(header["config_echo"])
    if data_path:
        cfg["data"]["path"] = data_path
    validate_for_training(cfg)
    if loaded is None or any(loaded[0][s] != cfg[s] for s in ("data", "vocab", "model")):
        loaded = load_encoded(cfg)
    _, ds, enc = loaded
    check_fingerprints(state.fingerprints, enc.fingerprints)
    split = SplitAssignment(np.array(list(header["split"]), dtype=np.int8))
    if len(split.assignment) != len(ds):
        raise CheckpointError(f"the checkpoint's split covers {len(split.assignment)} "
                              f"rows, the data has {len(ds)}")
    return state, header, split, cfg, ds, enc


def cmd_evaluate(args) -> int:
    state, header, split, _, ds, enc = _load_ckpt_with_data(args.ckpt, args.data)
    indices = split.indices(args.split)
    report = evaluate_state(state, enc, indices, ds.task_names, args.split,
                            seed=header["seed"])
    payload = {
        "split": args.split,
        "kind": report.kind,
        "n": len(indices),
        "macro": report.macro,
        "per_task": report.per_task,
        "skipped_tasks": report.skipped_tasks,
        "seed": report.seed,
    }
    _write_json(payload, args.out)
    return 0


def cmd_attribute(args) -> int:
    reports = []
    loaded = None
    for ckpt_path in args.ckpt:
        state, header, split, cfg, ds, enc = _load_ckpt_with_data(ckpt_path, args.data, loaded)
        loaded = cfg, ds, enc
        indices = split.indices(args.split)
        if not indices:
            raise FgrError(f"split {args.split!r} is empty")
        U = model_inputs(state, enc.X[indices],
                         enc.D[indices] if enc.D is not None else None)
        labels = enc.feature_labels
        kinds = enc.feature_kinds
        icfg = cfg["interpret"]
        seed = args.seed if args.seed is not None else header["seed"]
        reports.append(attribute_dataset(
            state, U, enc.Y[indices], enc.M[indices], args.method, labels, kinds,
            task=args.task, seed=seed, ig_steps=int(icfg["ig_steps"]),
            shap_samples=int(icfg["shap_samples"]),
            shap_noise=float(icfg["shap_noise"])))
    final = aggregate_attributions(reports) if len(reports) > 1 else reports[0]
    top_k = int(cfg["interpret"]["top_k"])
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("label\tkind\tmean_score\tstd\trank\n")
        for row in final.top_k(top_k):
            fh.write(f"{row['label']}\t{row['kind']}\t{row['mean']:.12g}"
                     f"\t{row['std']:.12g}\t{row['rank']}\n")
    summary = {
        "method": final.method,
        "task": final.task,
        "folds": final.folds,
        "records": [r.meta.get("records") for r in reports],
        "split": args.split,
        "top": final.top_k(top_k),
        "config_echo": cfg,
    }
    _write_json(summary, args.out + ".json")
    _emit({"event": "attributed", "method": final.method, "folds": final.folds,
           "out": args.out}, args.log)
    return 0


def cmd_analyze(args) -> int:
    state, *_, ds, enc = _load_ckpt_with_data(args.ckpt, args.data)
    if args.report == "alignment":
        payload = alignment_report(state, ds, enc, top_s=args.top_scaffolds)
    else:
        payload = uniformity_report(state, enc, bandwidth=args.bandwidth)
    payload = {"report": args.report, **payload}
    _write_json(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgrkit",
        description="Functional-group molecular representations: vocabulary "
                    "mining, encoding, training, attribution, diagnostics.")
    parser.add_argument("--version", action="version", version=f"fgrkit {__version__}")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the configured random seed")
    parser.add_argument("--log", choices=["text", "json-lines"], default="text",
                        help="log record format")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine-vocab", help="mine an MFG vocabulary from SMILES")
    p.add_argument("--corpus", required=True, nargs="+",
                   help="newline-delimited SMILES file(s), optionally .gz")
    p.add_argument("--eta", required=True, type=int, help="minimum merge frequency")
    p.add_argument("--mvs", required=True, type=int, help="maximum vocabulary size")
    p.add_argument("--out", required=True, help="output vocabulary path")
    p.set_defaults(func=cmd_mine_vocab)

    p = sub.add_parser("encode", help="encode molecules into a feature matrix")
    p.add_argument("--data", required=True, help="CSV with smiles column, or SMILES lines")
    p.add_argument("--fg", default=None, help="FG vocabulary path")
    p.add_argument("--mfg", default=None, help="MFG vocabulary path")
    p.add_argument("--out", required=True)
    p.add_argument("--tsv", action="store_true", help="write TSV instead of binary")
    p.add_argument("--descriptors", action="store_true",
                   help="append normalized descriptor columns")
    p.add_argument("--skip-invalid", action="store_true",
                   help="tolerate unparseable FG vocabulary lines")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="checkpoint path override")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", default=None, help="dataset CSV (default: from config echo)")
    p.add_argument("--split", choices=[TRAIN, VALID, TEST], default=TEST)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("attribute", help="feature attribution for checkpoints")
    p.add_argument("--ckpt", required=True, nargs="+",
                   help="one or more (fold) checkpoints to average")
    p.add_argument("--data", default=None)
    p.add_argument("--method", required=True, choices=list(METHODS))
    p.add_argument("--split", choices=[TRAIN, VALID, TEST], default=TEST)
    p.add_argument("--task", type=int, default=0)
    p.add_argument("--out", required=True, help="TSV output path (+ .json summary)")
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("analyze", help="representation-quality reports")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", default=None)
    p.add_argument("--report", choices=["alignment", "uniformity"], required=True)
    p.add_argument("--top-scaffolds", type=int, default=5)
    p.add_argument("--bandwidth", type=float, default=0.2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FgrError, OSError) as exc:
        print(f"fgrkit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
