"""Timed part of one benchmark run, in a fresh process.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json

The plan lists CLI verbs (argv lists for ``fgrkit.cli.main``) and the
artifacts they write. The worker runs the verbs in order, in-process and
one at a time (a closed loop with one client). After one warm-up round it
repeats that round until ``seconds`` have passed, and at least
``min_rounds`` times. With ``trace`` set, every verb runs twice in a timed
round, untraced and traced, in an order that alternates between rounds.
Verb output goes to the plan's log file.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import statistics
import sys
import time
import traceback
from pathlib import Path


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_verb(cli, argv: list, log) -> dict:
    # Each verb starts from a collected heap, as it would in a fresh CLI
    # process, so that no verb pays for the garbage of the one before.
    gc.collect()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc = cli.main(argv)
    except Exception:  # a crashing verb is a failed operation, not a crashed bench
        traceback.print_exc(file=log)
        rc = "exception"
    log.flush()
    return {"s": time.perf_counter() - t0, "rc": rc}


def run_round(cli, plan: dict, log, tracer=None, traced_first=False) -> dict:
    """One pass over the verbs; with a tracer, each verb runs untraced and traced."""
    runs = {"verbs": {}}
    kinds = ["verbs"]
    if tracer is not None:
        # The two runs of a verb follow each other at once, so that drift in
        # machine speed between them stays small; their order alternates
        # between rounds, so that whichever runs second gains nothing.
        runs["traced_verbs"] = {}
        kinds = ["traced_verbs", "verbs"] if traced_first else ["verbs", "traced_verbs"]
    for name, argv in plan["verbs"]:
        for kind in kinds:
            with tracer.installed() if kind == "traced_verbs" else contextlib.nullcontext():
                runs[kind][name] = run_verb(cli, argv, log)
    runs["digests"] = {a: (sha256(a) if Path(a).is_file() else None)
                       for a in plan["artifacts"]}
    return runs


def peak_rss_mb() -> float:
    """This process's own peak RSS.

    VmHWM belongs to the address space, which starts afresh at exec; the
    getrusage maximum instead carries over the parent's peak at fork.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, plan["src"])
    from fgrkit import cli

    result: dict = {"rounds": []}
    tracer = None
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    rounds = result["rounds"]
    with open(plan["log"], "a", encoding="utf-8") as log:
        # The first round pays one-off costs, such as first calls and heap
        # growth, that later rounds do not; it is checked but not timed.
        result["warmup"] = run_round(cli, plan, log)
        deadline = time.perf_counter() + plan["seconds"]
        # A traced run ends on an even count, with as many rounds of each order.
        while (len(rounds) < plan["min_rounds"] or time.perf_counter() < deadline
               or (tracer is not None and len(rounds) % 2)):
            rounds.append(run_round(cli, plan, log, tracer, traced_first=len(rounds) % 2 == 1))
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        # Per verb, the median over rounds of traced minus untraced time: the
        # two runs of a pair are adjacent, so drift in machine speed mostly
        # cancels, and the median discards pairs that a change of speed split.
        extra, base = {}, {}
        for name, _ in plan["verbs"]:
            pairs = [(r["verbs"][name]["s"], r["traced_verbs"][name]["s"]) for r in rounds]
            extra[name] = statistics.median(t - u for u, t in pairs)
            base[name] = statistics.median(u for u, _ in pairs)
        result["trace_overhead_per_verb"] = {n: extra[n] / base[n] for n in extra}
        result["trace_overhead_frac"] = sum(extra.values()) / sum(base.values())
        result["layers"] = tracer.layer_metrics(plan["model_mols"], len(rounds))
        result["spans"] = tracer.summary(len(rounds))
        result["coverage_missing"] = tracer.missing()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
