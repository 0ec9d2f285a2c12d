"""Span recorder that wraps fgrkit's layer functions from outside the package.

The wrapped functions are the public functions at each layer's boundary
(LAYERS); other public helpers run inside their caller's span, so that, for
example, ``scaffold_key`` keeps the canonical emission it delegates to.
fgrkit modules import each other's functions by name, so a function is
looked up in the namespace of the module that calls it. The tracer
therefore replaces every binding of a wrapped function, in every loaded
fgrkit module, with one shared wrapper; ``smarts.match_exists`` is traced
through ``encode.match_exists``, ``nn.compute_gradients`` through both
``nn`` and ``pipeline``, and so on. Spans nest on a stack, and a function's
self time is its duration minus the time of the wrapped calls inside it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time

# Layers the benchmark reports, as <module>: [boundary functions]. Every
# workload runs every CLI verb, so each function here must record calls on
# every workload. The end-to-end metrics each layer should move:
#   chem         mine_mols_per_s (tokenize only); train_s, attribute_*_s and
#                analyze_alignment_s (scaffold split, alignment clusters)
#   smarts       encode_mols_per_s
#   encode       encode_mols_per_s; every model verb (encode_mfg)
#   vocab        mine_mols_per_s; setup_s (the set-up vocabulary)
#   pipeline     train_s, attribute_*_s, analyze_*_s
#   nn           train_s
#   attribution  the matching attribute_*_s
#   repquality   analyze_*_s
#   cli          the verb's own time: CSV read and artifact writes
# The stage that a workload enlarges shows the move; on the others the
# prediction is no change beyond that stage's smaller share.
LAYERS = {
    "chem": ["parse_smiles", "tokenize_smiles", "murcko_scaffold", "scaffold_key"],
    "smarts": ["match_exists"],
    "encode": ["encode_fg", "encode_mfg", "compute_descriptors", "save_matrix"],
    "vocab": ["mine_mfg", "save_vocab", "load_mfg_vocab", "load_fg_vocab"],
    "pipeline": ["load_dataset", "make_split", "encode_dataset", "train_encoded",
                 "evaluate_state"],
    "nn": ["compute_gradients", "sam_step", "total_loss", "save_checkpoint",
           "load_checkpoint"],
    "attribution": ["integrated_gradients", "gradient_shap", "feature_ablation",
                    "feature_permutation"],
    "repquality": ["davies_bouldin", "project_2d", "uniformity_profile",
                   "alignment_report"],
    "cli": ["cmd_mine_vocab", "cmd_encode", "cmd_train", "cmd_attribute",
            "cmd_analyze"],
}


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "hits", "samples", "work")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.hits = 0          # match_exists calls that returned True
        self.samples = []      # encode_fg per-molecule durations (s)
        self.work = 0.0        # merges, computed FLOPs or encoded rows


def _gradient_flops(args) -> float:
    """Matmul FLOPs of one compute_gradients call, from the array shapes."""
    batch, state = args[0], args[1]
    n, p = batch.X.shape
    hyper = state.hyper
    head_in = hyper.l + (hyper.descriptor_dim if hyper.use_descriptors else 0)
    flops = 10.0 * n * p * hyper.l + 6.0 * n * head_in * state.k
    if hyper.beta != 0.0 and n >= 2:
        flops += 4.0 * n * hyper.l * hyper.l
    return flops


def _record(name, stat, args, result, dt):
    if name == "smarts.match_exists":
        stat.hits += bool(result)
    elif name == "encode.encode_fg":
        stat.samples.append(dt)
    elif name == "nn.compute_gradients":
        stat.work += _gradient_flops(args)
    elif name == "vocab.mine_mfg":
        stat.work += len(result.merge_log)
    elif name == "pipeline.encode_dataset":
        stat.work += result.X.shape[0]


class Tracer:
    """Wraps the LAYERS functions while installed; stats add up across installs."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - child
            _record(name, stat, args, result, dt)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if (n == "fgrkit" or n.startswith("fgrkit.")) and m is not None]
        wrappers = {}
        for short, names in LAYERS.items():
            mod = sys.modules[f"fgrkit.{short}"]
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None:  # renamed or removed: reported by missing()
                    self.stats.setdefault(f"{short}.{name}", _Stat())
                    continue
                wrappers[fn] = self._wrap(f"{short}.{name}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def summary(self, rounds: int) -> dict:
        """Per-round calls, self_s and total_s of every wrapped function."""
        return {name: {"calls": s.calls / rounds, "self_s": s.self_s / rounds,
                       "total_s": s.total_s / rounds}
                for name, s in sorted(self.stats.items())}

    def missing(self) -> list[str]:
        """Listed layer functions that recorded no call."""
        return [name for name, s in self.stats.items() if s.calls == 0]

    def layer_metrics(self, model_mols: int, rounds: int) -> dict:
        """The per-layer metrics, as {name: (value, unit)}, per traced round.

        ``model_mols`` is the size of the model dataset, the base of the
        per-molecule ratios (every model verb loads and encodes it again).
        """
        out = {}
        for mod, fns in LAYERS.items():
            for fn in fns:
                s = self.stats[f"{mod}.{fn}"]
                if mod != "cli":
                    out[f"{mod}.{fn}.calls"] = (s.calls / rounds, "count")
                out[f"{mod}.{fn}.self_s"] = (s.self_s / rounds, "s")

        def ratio(a, b):
            return a / b if b else 0.0

        out["chem.scaffold_key.calls_per_mol"] = (
            ratio(self.stats["chem.scaffold_key"].calls / rounds, model_mols), "calls/mol")
        m = self.stats["smarts.match_exists"]
        out["smarts.match_exists.hit_frac"] = (ratio(m.hits, m.calls), "frac")
        samples = self.stats["encode.encode_fg"].samples
        if len(samples) >= 2:
            cuts = statistics.quantiles(samples, n=100, method="inclusive")
            p50, p99 = statistics.median(samples), cuts[98]
        else:
            p50 = p99 = samples[0] if samples else 0.0
        out["encode.encode_fg.p50_ms"] = (1e3 * p50, "ms")
        out["encode.encode_fg.p99_ms"] = (1e3 * p99, "ms")
        mine = self.stats["vocab.mine_mfg"]
        out["vocab.mine_mfg.merges"] = (mine.work / rounds, "count")
        out["vocab.mine_mfg.merges_per_s"] = (ratio(mine.work, mine.total_s), "1/s")
        out["pipeline.encode_dataset.rows_per_mol"] = (
            ratio(self.stats["pipeline.encode_dataset"].work / rounds, model_mols), "rows/mol")
        grads = self.stats["nn.compute_gradients"]
        out["nn.compute_gradients.gflop"] = (grads.work / rounds / 1e9, "GFLOP-computed")
        out["nn.compute_gradients.gflops_per_s"] = (
            ratio(grads.work / 1e9, grads.total_s), "GFLOP/s-computed")
        return out
