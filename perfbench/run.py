"""fgrkit benchmark: the CLI pipeline on seeded, generated inputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload {mine,featurize,model} --seed N \
        --seconds S --trace {0,1}

Every workload runs the same closed loop of CLI verbs, one at a time in one
worker process: mine-vocab, encode, train, the four attribute methods and
the two analyze reports. The workloads differ in which stage gets the large
input, so each stresses a different layer (see the workloads' "why" in
BENCHMARK.json). With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced round.
The line before it is a record of the environment, the input properties,
every check and the sha256 of every input and artifact.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Input sizes per workload; why each workload exists is in BENCHMARK.json.
WORKLOADS = {
    "mine": {"mine_lines": 3000, "mine_eta": 5, "encode_mols": 30, "model_mols": 60},
    "featurize": {"mine_lines": 500, "mine_eta": 20, "encode_mols": 160, "model_mols": 60},
    "model": {"mine_lines": 500, "mine_eta": 20, "encode_mols": 30, "model_mols": 100},
}
# The MFG vocabulary that encode and the model use is mined during set-up
# from its own corpus. eta=2 over 1500 lines would give p of about 1500 with
# a few percent spread across seeds; the cap fixes p so that model costs do
# not vary with the seed.
SETUP_VOCAB_LINES = 1500
SETUP_VOCAB_ETA = 2
SETUP_VOCAB_P = 1200
MVS = 30000
# Model molecules come in scaffold series of this many analogs, so every
# seed's scaffold split has the same shape.
SERIES = 4
SETUP_REPEATS = 3
LATENT = 512
EPOCHS = 5
METHODS = {"ig": "integrated_gradients", "shap": "gradient_shap",
           "ablation": "feature_ablation", "permutation": "feature_permutation"}
REPORTS = ("alignment", "uniformity")
# A traced run times every verb untraced and traced, in at least this many
# pairs; the tracing overhead is a median over pairs.
TRACED_MIN_ROUNDS = 4
WORKER_TIMEOUT_S = 160
INPUT_FILES = ("corpus.smi", "fg.tsv", "setup.mfg", "encode.csv", "model.csv", "train.json")


def _sizes(workload: str, scale: float) -> dict:
    w = WORKLOADS[workload]
    return {"mine_lines": max(200, round(w["mine_lines"] * scale)),
            "mine_eta": w["mine_eta"],
            "encode_mols": max(10, round(w["encode_mols"] * scale)),
            "model_mols": SERIES * max(10, round(w["model_mols"] * scale / SERIES)),
            "vocab_lines": max(150, round(SETUP_VOCAB_LINES * scale))}


def _seeds(seed: int) -> dict:
    return {k: f"{seed}:{k}" for k in ("mine", "vocab", "encode", "model")}


# ---------------------------------------------------------------------------
# set-up: generated inputs and the set-up vocabulary
# ---------------------------------------------------------------------------

def write_inputs(out: Path, sizes: dict, seeds: dict) -> dict:
    """Write the generated inputs of one run into ``out``; returns what checks need.

    The set-up vocabulary (setup.mfg) is left to ``mine_setup_vocab``.
    """
    import corpus
    from fgrkit.datasets import starter_fg_vocab_path

    out.mkdir(parents=True)
    mine = [m.smiles for m in corpus.generate(sizes["mine_lines"], seeds["mine"])]
    (out / "corpus.smi").write_text("\n".join(mine) + "\n")
    vocab_lines = [m.smiles for m in corpus.generate(sizes["vocab_lines"], seeds["vocab"])]
    shutil.copyfile(starter_fg_vocab_path(), out / "fg.tsv")
    encode = corpus.generate(sizes["encode_mols"], seeds["encode"])
    (out / "encode.csv").write_text("smiles\n" + "".join(m.smiles + "\n" for m in encode))
    model = corpus.generate_series(sizes["model_mols"] // SERIES, SERIES, seeds["model"])
    (out / "model.csv").write_text(
        "smiles,hydroxyl\n" + "".join(f"{m.smiles},{m.hydroxyl}\n" for m in model))
    config = {
        "data": {"path": "model.csv", "task": "classification", "split": "scaffold"},
        "vocab": {"representation": "mfg", "mfg": "setup.mfg"},
        "model": {"latent": LATENT, "use_descriptors": True},
        "training": {"epochs": EPOCHS, "seed": 0, "checkpoint_out": "out/model.ckpt"},
    }
    (out / "train.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    (out / "out").mkdir()
    return {"mine": mine, "vocab": vocab_lines, "encode": encode, "model": model}


def mine_setup_vocab(lines: list[str], path: Path) -> None:
    """The program's set-up work, which setup_s times: mine and save setup.mfg."""
    from fgrkit.vocab import mine_mfg, save_vocab

    save_vocab(mine_mfg(lines, eta=SETUP_VOCAB_ETA, mvs=SETUP_VOCAB_P), path)


def plan_verbs(sizes: dict) -> tuple[list, list]:
    verbs = [
        ("mine", ["mine-vocab", "--corpus", "corpus.smi", "--eta", str(sizes["mine_eta"]),
                  "--mvs", str(MVS), "--out", "out/mined.mfg"]),
        ("encode", ["encode", "--data", "encode.csv", "--fg", "fg.tsv", "--mfg", "setup.mfg",
                    "--descriptors", "--out", "out/X.bin"]),
        ("train", ["train", "--config", "train.json"]),
    ]
    for short, method in METHODS.items():
        verbs.append((f"attribute_{short}", ["attribute", "--ckpt", "out/model.ckpt",
                                              "--method", method,
                                              "--out", f"out/attr_{short}.tsv"]))
    for report in REPORTS:
        verbs.append((f"analyze_{report}", ["analyze", "--ckpt", "out/model.ckpt",
                                            "--report", report,
                                            "--out", f"out/{report}.json"]))
    artifacts = ["out/mined.mfg", "out/X.bin", "out/model.ckpt"]
    artifacts += [f"out/attr_{s}.tsv{ext}" for s in METHODS for ext in ("", ".json")]
    artifacts += [f"out/{r}.json" for r in REPORTS]
    return verbs, artifacts


# ---------------------------------------------------------------------------
# output checks; each one is an operation that can fail
# ---------------------------------------------------------------------------

_US = "\x1f"  # token separator that no SMILES token contains


def check_outputs(work: Path, inputs: dict, sizes: dict, seed: int) -> dict:
    """{check name: None if it passed, else what was wrong}."""
    import numpy as np

    import corpus
    from fgrkit.chem import tokenize_smiles
    from fgrkit.encode import DESCRIPTOR_LENGTH, load_matrix
    from fgrkit.nn import load_checkpoint
    from fgrkit.vocab import load_fg_vocab, load_mfg_vocab

    rng = random.Random(f"{seed}:checks")
    fg = load_fg_vocab(work / "fg.tsv")
    setup_mfg = load_mfg_vocab(work / "setup.mfg")
    results = {}

    def check(name, fn):
        try:
            problem = fn()
        except Exception as exc:  # a crashing check is a failed check
            problem = f"{type(exc).__name__}: {exc}"
        results[name] = problem

    def inputs_parse():
        mine = inputs["mine"]
        sample = rng.sample(mine, min(len(mine), 2000))
        smiles = sample + [m.smiles for m in inputs["encode"] + inputs["model"]]
        problems = corpus.verify(smiles)
        return "; ".join(problems[:3]) or None

    def mined_vocab():
        vocab = load_mfg_vocab(work / "out/mined.mfg")
        lines = inputs["mine"]
        if (vocab.eta, vocab.mvs) != (sizes["mine_eta"], MVS):
            return f"header eta/mvs {vocab.eta}/{vocab.mvs}"
        if vocab.corpus_fingerprint != hashlib.sha256("\n".join(lines).encode()).hexdigest():
            return "corpus fingerprint differs from the generated corpus"
        if not vocab.merged_entries or vocab.size > MVS:
            return f"{len(vocab.merged_entries)} merged entries, size {vocab.size}"
        text = "\n".join(lines)
        absent = [e.text for e in vocab.merged_entries if e.text not in text]
        return f"merged entries absent from corpus: {absent[:3]}" if absent else None

    def matrix():
        X, header = load_matrix(work / "out/X.bin")
        want = (sizes["encode_mols"], fg.size + setup_mfg.size + DESCRIPTOR_LENGTH)
        if X.shape != want:
            return f"shape {X.shape}, expected {want}"
        if header["fingerprints"] != {"fg": fg.fingerprint, "mfg": setup_mfg.fingerprint}:
            return "vocabulary fingerprints differ"
        return None

    def planted_fg_bits():
        X, _ = load_matrix(work / "out/X.bin")
        names = fg.names
        unset = [f"{m.smiles} ({m.plant_group})" for i, m in enumerate(inputs["encode"])
                 if X[i, names.index(m.plant_group)] != 1.0]
        return f"{len(unset)} planted groups unset, e.g. {unset[:3]}" if unset else None

    def mfg_bits_naive():
        # An entry is present iff its tokens occur contiguously: a substring
        # test over separator-joined tokens, independent of the encoder's index.
        X, _ = load_matrix(work / "out/X.bin")
        patterns = [_US + _US.join(e.tokens) + _US for e in setup_mfg.entries]
        for i, m in enumerate(inputs["encode"]):
            text = _US + _US.join(tokenize_smiles(m.smiles)) + _US
            want = np.array([1.0 if p in text else 0.0 for p in patterns])
            wrong = np.nonzero(X[i, fg.size:fg.size + len(patterns)] != want)[0]
            if len(wrong):
                entry = setup_mfg.entries[wrong[0]].text
                return f"row {i} ({m.smiles}) entry {entry!r}: bit differs from naive check"
        return None

    def checkpoint():
        state, header = load_checkpoint(work / "out/model.ckpt",
                                        {"mfg": setup_mfg.fingerprint})
        if state.fingerprints.get("mfg") != setup_mfg.fingerprint:
            return "checkpoint mfg fingerprint missing"
        if (state.p, state.k, state.hyper.l) != (setup_mfg.size, 1, LATENT):
            return f"p, k, l = {state.p}, {state.k}, {state.hyper.l}"
        if state.W_e.shape != (LATENT, setup_mfg.size) or not np.all(np.isfinite(state.W_e)):
            return f"W_e shape {state.W_e.shape} or non-finite"
        return None

    labels = {e.text for e in setup_mfg.entries}

    def attribution(short):
        def run():
            path = work / f"out/attr_{short}.tsv"
            rows = path.read_text().splitlines()
            if rows[0] != "label\tkind\tmean_score\tstd\trank" or len(rows) != 26:
                return f"{len(rows)} lines, header {rows[0]!r}"
            for row in rows[1:]:
                label, kind, score, _, _ = row.split("\t")
                if kind not in ("MFG", "DESC") or (kind == "MFG" and label not in labels):
                    return f"unknown feature {label!r} ({kind})"
                if not math.isfinite(float(score)):
                    return f"non-finite score for {label!r}"
            summary = json.loads((work / f"out/attr_{short}.tsv.json").read_text())
            return None if summary["method"] == METHODS[short] else "summary method differs"
        return run

    def analysis(report):
        def run():
            payload = json.loads((work / f"out/{report}.json").read_text())
            if report == "alignment":
                ok = len(payload["scaffolds"]) == 5 and math.isfinite(payload["dbi_latent"])
            else:
                ok = (len(payload["grid"]) == len(payload["density"]) > 0
                      and all(math.isfinite(v) for v in payload["density"]))
            return None if ok else f"{report} report malformed"
        return run

    check("inputs_parse", inputs_parse)
    check("mined_vocab_reloads", mined_vocab)
    check("matrix_reloads", matrix)
    check("planted_fg_bits", planted_fg_bits)
    check("mfg_bits_naive", mfg_bits_naive)
    check("checkpoint_reloads", checkpoint)
    for short in METHODS:
        check(f"attribution_{short}", attribution(short))
    for report in REPORTS:
        check(f"analysis_{report}", analysis(report))
    return results


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _git_sha() -> str | None:
    """HEAD of the repository, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_worker(work_root: Path, work: Path, plan: dict) -> dict | None:
    """Run the timed verbs in a fresh process; None if it did not finish."""
    (work_root / "plan.json").write_text(json.dumps(plan))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work_root / "plan.json"),
             str(work_root / "result.json")],
            cwd=work, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads((work_root / "result.json").read_text())


def _end_to_end(result: dict, sizes: dict, setup_times: list, ok_frac: float) -> dict:
    def verb_s(name):
        return statistics.median(r["verbs"][name]["s"] for r in result["rounds"])

    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ops_ok_frac": (ok_frac, "frac"),
        "mine_mols_per_s": (sizes["mine_lines"] / verb_s("mine"), "mol/s"),
        "encode_mols_per_s": (sizes["encode_mols"] / verb_s("encode"), "mol/s"),
        "train_s": (verb_s("train"), "s"),
    }
    for short in METHODS:
        metrics[f"attribute_{short}_s"] = (verb_s(f"attribute_{short}"), "s")
    for report in REPORTS:
        metrics[f"analyze_{report}_s"] = (verb_s(f"analyze_{report}"), "s")
    return metrics


def _input_properties(work: Path, inputs: dict) -> dict:
    import corpus
    from fgrkit.vocab import load_mfg_vocab

    return {
        "mine_corpus": corpus.input_properties(inputs["mine"], scaffolds=False),
        "encode_set": corpus.input_properties([m.smiles for m in inputs["encode"]]),
        "model_set": corpus.input_properties([m.smiles for m in inputs["model"]]),
        "setup_mfg_width_p": load_mfg_vocab(work / "setup.mfg").size,
        "mined_mfg_width_p": (load_mfg_vocab(work / "out/mined.mfg").size
                              if (work / "out/mined.mfg").is_file() else None),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply input sizes (the smoke test uses a small scale)")
    args = parser.parse_args(argv)

    if not (SRC / "fgrkit" / "__init__.py").is_file():
        print(f"perfbench: fgrkit sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    # BLAS threads are pinned to the CPUs this process may use, before numpy
    # loads; the worker inherits the environment.
    nproc = len(os.sched_getaffinity(0))
    blas_env = {k: str(nproc) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")}
    os.environ.update(blas_env)
    sys.path.insert(0, str(SRC))
    import numpy as np

    sizes = _sizes(args.workload, args.scale)
    seeds = _seeds(args.seed)
    work_root = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # Generating the inputs is the benchmark's own work and is not timed;
        # setup_s times only the program's set-up work, repeated.
        work = work_root / "inputs"
        inputs = write_inputs(work, sizes, seeds)
        setup_times, setup_digests = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            mine_setup_vocab(inputs["vocab"], work / "setup.mfg")
            setup_times.append(time.perf_counter() - t0)
            setup_digests.append(_sha256(work / "setup.mfg"))
        input_digests = {f: _sha256(work / f) for f in INPUT_FILES}

        verbs, artifacts = plan_verbs(sizes)
        result = _run_worker(work_root, work, {
            "src": str(SRC), "verbs": verbs, "artifacts": artifacts,
            "seconds": args.seconds, "trace": bool(args.trace),
            "min_rounds": TRACED_MIN_ROUNDS if args.trace else 1,
            "model_mols": sizes["model_mols"], "log": str(work_root / "verbs.log")})
        if result is None:
            return 1

        rounds = result["rounds"]
        checked = [result["warmup"]] + rounds
        verb_runs = [(name, v) for r in checked for key in ("verbs", "traced_verbs")
                     for name, v in r.get(key, {}).items()]
        verb_failures = [f"{name}: rc={v['rc']}" for name, v in verb_runs if v["rc"] != 0]
        checks = {"setup_identical": None if len(set(setup_digests)) == 1
                  else "repeated set-ups wrote different bytes",
                  "rounds_identical": None if all(
                      r["digests"] == rounds[0]["digests"] for r in checked)
                  and None not in rounds[0]["digests"].values()
                  else "artifacts missing or differ between rounds"}
        checks.update(check_outputs(work, inputs, sizes, args.seed))
        if args.trace:
            missing = result["coverage_missing"]
            checks["trace_coverage"] = f"no calls recorded for {missing}" if missing else None
        attempted = len(verb_runs) + len(checks)
        failed = len(verb_failures) + sum(1 for v in checks.values() if v is not None)
        if verb_failures:
            log = (work_root / "verbs.log").read_text()
            print(f"perfbench: failed verbs {verb_failures}\n{log[-4000:]}", file=sys.stderr)
        for name, problem in checks.items():
            if problem is not None:
                print(f"perfbench: check {name} failed: {problem}", file=sys.stderr)

        record = {
            "workload": args.workload,
            "why": why[args.workload],
            "environment": {
                "git_sha": _git_sha(), "python": sys.version.split()[0],
                "numpy": np.__version__, "nproc": nproc, "blas_threads": blas_env,
                "seed": args.seed, "input_seeds": seeds, "sizes": sizes,
                "seconds": args.seconds, "rounds": len(result["rounds"]),
                "load": "closed loop, one client: each verb starts after the last returns",
            },
            "inputs": _input_properties(work, inputs),
            "setup_s_samples": setup_times,
            "verb_s": {name: [r["verbs"][name]["s"] for r in result["rounds"]]
                       for name, _ in verbs},
            "warmup_verb_s": {name: v["s"] for name, v in result["warmup"]["verbs"].items()},
            "checks": checks,
            "input_sha256": input_digests,
            "artifact_sha256": rounds[0]["digests"],
        }
        if args.trace:
            record["traced_verb_s"] = {name: [r["traced_verbs"][name]["s"] for r in rounds]
                                       for name, _ in verbs}
            record["spans"] = result["spans"]
            record["trace_overhead_per_verb"] = result["trace_overhead_per_verb"]
            metrics = dict(result["layers"])
            metrics["trace_overhead_frac"] = (result["trace_overhead_frac"], "frac")
        else:
            metrics = _end_to_end(result, sizes, setup_times, 1.0 - failed / attempted)
        print(json.dumps(record, sort_keys=True))
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": {k: {"value": v, "unit": u}
                                      for k, (v, u) in metrics.items()}}))
        return 0
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.parent.rmdir()  # only if no other run is using it


if __name__ == "__main__":
    sys.exit(main())
