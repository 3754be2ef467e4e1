"""Benchmark for nullbayes: query rewriting and imputation, end to end.

    python3 perfbench/run.py --workload rewrite-car50k --seed 0 --seconds 15 --trace 0
    python3 perfbench/smoke.py    # every workload at tiny size, both modes

Run from the repository root.  Each call runs one workload (see
workloads.py) in one fresh process, as a closed loop with one client: the
next operation starts when the previous one returns.

The process first sets up: it generates the workload's data and learns every
model, ``setups`` times.  ``setup_s`` is the time from the start of the
process (after it re-executes itself with the pinned environment) to the
first operation, imports included, with the median set-up standing in for
the repeated ones.  Then it runs
operations for ``--seconds`` seconds, sharing that time between the
operation families by the workload's weights.  Each family cycles through
its operations in the order ``--seed`` gives and always finishes the pass it
is in, so every operation of a family runs equally often.  Quality figures
come from the first pass, so they cover the same operations in every run.
Rewriting latency percentiles are over every successful call; imputation
rates divide a pass's rows by the sum of its operations' mean times.

Every end-to-end time is scaled to reference machine speed: untraced runs
sample a fixed kernel throughout (see speed.py).  ``setup_s`` is divided by
the slowdown the samples show over the set-up, and each call's time by the
slowdown over that call (see ``Runner.scaled``).  The record keeps the wall
and the scaled times.

Every operation's output is reduced to a digest and compared with
``reference.json`` (see record.py).  Rewriting answers must also satisfy the
query that fetched them and be absent from its base result, and on the car
network a sample of exact imputations is checked against the enumerated
joint.  A mismatch counts the operation as failed and makes the run
incorrect; an operation that raises anything but a decline counts as
failed too.  The operations known to raise (``afd`` on a conjunction, see
workloads.py) are not timed: they run once after the timed loop, and the
record keeps their outcome under ``known_failures``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
pass twice untraced, then wraps the library's layers (see tracing.py) and
runs as above, and prints per-layer metrics over the traced first pass with
the tracing overhead: one pass's best traced minus best untraced time.
Both modes write a record with the environment, the workload's properties
and every operation's time, plus every span and count when tracing, to
``perfbench/out/``.  The last line of standard output is the result as
JSON.
"""

from __future__ import annotations

import os
import sys
import time

# single-threaded BLAS and fixed string hashing, set before numpy loads
_PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in _PINNED_ENV.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **_PINNED_ENV})

import speed

SPEED = speed.Speedometer()
_START = SPEED.mark()
if __name__ == "__main__":
    SPEED.start()

import argparse
import contextlib
import gc
import json
import platform
import resource
import statistics
import warnings
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

END_TO_END = {
    "setup_s": "s",
    "rewrite_p50_ms": "ms",
    "rewrite_p90_ms": "ms",
    "impute_exact_rows_per_s": "rows/s",
    "impute_gibbs_rows_per_s": "rows/s",
    "impute_afd_rows_per_s": "rows/s",
    "rewrite_precision": "ratio",
    "rewrite_recall": "ratio",
    "impute_exact_cell_accuracy": "ratio",
    "impute_gibbs_cell_accuracy": "ratio",
    "impute_afd_cell_accuracy": "ratio",
    "peak_rss_mb": "MB",
    "op_success_ratio": "ratio",
}

_METHODS = ("bn-all-mb", "bn-beam", "afd", "afd-all-attributes", "afd-highest-confidence")
PER_LAYER = {
    "tabular.load_csv_s": "s",
    "tabular.inject_nulls_s": "s",
    "harness.split_table_s": "s",
    "bayesnet.sample_rows_s": "s",
    "bayesnet.learn_structure_s": "s",
    "bayesnet.fit_parameters_s": "s",
    "afd.mine_afds_s": "s",
    "afd.rules_mined": "count",
    "afd.fit_naive_bayes_s": "s",
    "tabular.select_calls": "count",
    "tabular.select_s": "s",
    "tabular.rows_examined_per_match": "ratio",
    "tabular.project_distinct_s": "s",
    "source.answer_calls": "count",
    "source.answer_s": "s",
    "source.rows_scanned": "count",
    "source.rows_returned": "count",
    "source.useful_row_ratio": "ratio",
    "source.budget_refusals": "count",
    "inference.posterior_exact_calls": "count",
    "inference.posterior_exact_s": "s",
    "inference.posterior_gibbs_calls": "count",
    "inference.posterior_gibbs_s": "s",
    "inference.gibbs_sweeps": "count",
    "imputation.impute_table_self_s": "s",
    "imputation.rows_incomplete": "count",
    "imputation.distinct_keys": "count",
    "imputation.repeat_share": "ratio",
    "afd.afd_impute_tuple_self_s": "s",
    "afd.best_afds_calls": "count",
    "afd.best_afds_s": "s",
    "afd.nb_posterior_calls": "count",
    "afd.nb_posterior_s": "s",
    "afd.unpredictable_cells": "count",
    "rewriting.self_s": "s",
    **{f"rewriting.{m}.p50_ms": "ms" for m in _METHODS},
    "rewriting.issued_queries": "count",
    "rewriting.answers": "count",
    "rewriting.declined_ops": "count",
    "rewriting.truncated_ops": "count",
    "rewriting.uncertain_relevant": "count",
    "trace.unattributed_share": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def _import_library():
    """Import nullbayes from this checkout's ``src``; exit with an error if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import nullbayes
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import nullbayes from {src}: {exc}")
    if not Path(nullbayes.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: nullbayes was imported from {nullbayes.__file__}, not {src}")


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **{k: os.environ.get(k) for k in _PINNED_ENV},
    }


class Runner:
    """Runs operations, times them, and checks every output."""

    def __init__(self, env, reference: dict, tracer=None):
        import workloads

        self.wl = workloads
        self.env = env
        self.reference = reference
        self.tracer = tracer
        self.probs = workloads.joint_probs(env)
        self.records: list[tuple] = []  # (op, outcome status, seconds, first pass)
        self.first: dict[str, dict] = {}  # op key -> summary, from the first pass
        self.first_ops: set[int] = set()  # tracer op ids of the first pass
        self.failed = 0
        self.mismatched: list[str] = []
        self.ticks: list[list[float]] = []  # kernel samples taken during each record's call

    def run(self, op, first: bool) -> float:
        tracer = self.tracer
        if tracer is None:
            t0 = SPEED.mark()
            outcome = self.wl.execute(self.env, op, _no_span)
            seconds = SPEED.elapsed(t0)
            self.ticks.append(SPEED.since(t0))
        else:
            tracer.op_id = tracer.next_op
            tracer.next_op += 1
            if first:
                self.first_ops.add(tracer.op_id)
            t0 = time.perf_counter()
            with tracer.span("op"):
                outcome = self.wl.execute(self.env, op, tracer.span)
            seconds = time.perf_counter() - t0
            self.ticks.append([])
            tracer.op_id = -1
        good = self.check(op, outcome)
        self.records.append((op, outcome.status, seconds, first))
        if first:
            summary = self.wl.summarize(self.env, op, outcome, self.probs)
            summary["good"] = good and not summary.get("oracle_bad")
            self.first[op.key] = summary
        return seconds

    def check(self, op, outcome) -> bool:
        wl = self.wl
        good = wl.matches_reference(wl.digest(op, outcome), self.reference.get(op.key))
        if good and outcome.status == "ok" and op.family == "rewrite":
            good = wl.rewrite_violations(self.env, outcome) == 0
        if not good:
            self.mismatched.append(op.key)
        self.failed += not good or outcome.status == "failed"
        return good

    def loop(self, passes: dict, weights: dict, seconds: float) -> None:
        """Share ``seconds`` of operation time between the families by weight.

        Each family cycles through its pass; past the deadline only families
        with an unfinished pass go on, so every operation of a family runs
        equally often.
        """
        families = [f for f in passes if passes[f]]
        spent = dict.fromkeys(families, 0.0)
        done = dict.fromkeys(families, 0)
        start = time.perf_counter()
        while True:
            pending = [f for f in families if done[f] == 0 or done[f] % len(passes[f])]
            late = time.perf_counter() - start >= seconds
            if late and not pending:
                return
            family = min(pending if late else families, key=lambda f: spent[f] / weights[f])
            ops = passes[family]
            op = ops[done[family] % len(ops)]
            first = done[family] < len(ops)
            done[family] += 1
            spent[family] += self.run(op, first)

    def slowdowns(self) -> dict[str, float]:
        """Each family's slowdown over all its calls."""
        ticks = defaultdict(list)
        for (op, *_), taken in zip(self.records, self.ticks):
            ticks[op.family] += taken
        return {f: speed.slowdown(ticks[f]) for f in self.env.ops}

    def scaled(self) -> list[tuple]:
        """(op, status, seconds at reference speed) of every call.

        A call's time is divided by the slowdown the kernel samples taken
        during it show, or by its family's when none fell in it: the
        machine's speed changes within a run, from call to call.
        """
        family = self.slowdowns()
        return [
            (op, status, s / (speed.slowdown(taken) if taken else family[op.family]))
            for (op, status, s, _), taken in zip(self.records, self.ticks)
        ]

    def summaries(self, family: str) -> list[dict]:
        return [self.first[op.key] for op in self.env.ops[family]]


@contextlib.contextmanager
def _no_span(_name):
    yield


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_times(calls, family: str, reduce=statistics.fmean) -> list[tuple]:
    """(op, its calls' seconds reduced) of the family's successful operations,
    from (op, status, seconds, ...) records."""
    times: dict = {}
    for op, status, s, *_ in calls:
        if op.family == family and status == "ok":
            times.setdefault(op, []).append(s)
    return [(op, reduce(t)) for op, t in times.items()]


def _total(summaries: list[dict], field: str) -> int:
    return sum(s.get(field, 0) for s in summaries)


def end_to_end(runner: Runner, setup_s: float, wanted: dict) -> dict:
    wl, env = runner.wl, runner.env
    m: dict[str, float] = {"setup_s": setup_s}
    calls = runner.scaled()
    latencies = [s * 1e3 for op, status, s in calls if op.family == "rewrite" and status == "ok"]
    m["rewrite_p50_ms"] = _quantile(latencies, 50)
    m["rewrite_p90_ms"] = _quantile(latencies, 90)
    for engine in wl.ENGINES:
        done = op_times(calls, engine)
        rows = sum(len(env.batches[engine][op.batch]) for op, _ in done)
        m[f"impute_{engine}_rows_per_s"] = rows / sum(s for _, s in done)
    rewrites = runner.summaries("rewrite")
    uncertain = _total(rewrites, "uncertain")
    relevant = _total(rewrites, "relevant")
    relevant_total = sum(
        wanted[op.query] for op in env.ops["rewrite"] if runner.first[op.key]["status"] == "ok"
    )
    m["rewrite_precision"] = relevant / uncertain if uncertain else 0.0
    m["rewrite_recall"] = relevant / relevant_total if relevant_total else 0.0
    for engine in wl.ENGINES:
        done = runner.summaries(engine)
        m[f"impute_{engine}_cell_accuracy"] = _total(done, "hits") / _total(done, "cells")
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    first = runner.first.values()
    m["op_success_ratio"] = sum(s["status"] != "failed" and s["good"] for s in first) / len(first)
    return m


def repeat_stats(env) -> tuple[int, int]:
    """(incomplete rows, distinct (null pattern, evidence) keys) over the exact batches."""
    rows = keys = 0
    for batch in env.batches["exact"]:
        rows += len(batch)
        keys += len({r.cells for r in batch.rows})
    return rows, keys


def properties(runner: Runner, wanted: dict) -> dict:
    """Input properties later optimisations can cite."""
    env = runner.env
    rows, keys = repeat_stats(env)
    rewrites = runner.summaries("rewrite")
    return {
        "imputation.repeat_share": 1 - keys / rows,
        "rewriting.declined_share": sum(s["status"] == "declined" for s in rewrites) / len(rewrites),
        "rewriting.truncated_share": _total(rewrites, "truncated") / len(rewrites),
        "afd.rules_mined": len(env.afds),
        "rewriting.uncertain_relevant": {q.text(): n for q, n in wanted.items()},
    }


def pass_best_s(runner: Runner) -> float:
    """Seconds one pass takes, summed from each successful operation's best time."""
    return sum(s for family in runner.env.ops for _, s in op_times(runner.records, family, min))


def per_layer(runner: Runner, setups: int, untraced: Runner, wanted: dict) -> tuple[dict, dict]:
    tracer, env, wl = runner.tracer, runner.env, runner.wl
    first = runner.first_ops
    secs, calls = tracer.totals(first)
    own = tracer.self_times(first)
    setup_secs, _ = tracer.totals({-1})
    counts = tracer.counted(first)
    rewrites = runner.summaries("rewrite")
    m: dict[str, float] = {}
    for name in (
        "tabular.load_csv", "tabular.inject_nulls", "harness.split_table",
        "bayesnet.sample_rows", "bayesnet.learn_structure", "bayesnet.fit_parameters",
        "afd.mine_afds", "afd.fit_naive_bayes",
    ):
        m[f"{name}_s"] = setup_secs.get(name, 0.0) / setups
    m["afd.rules_mined"] = len(env.afds)
    for name in ("tabular.select", "source.answer", "inference.posterior_exact",
                 "inference.posterior_gibbs", "afd.best_afds", "afd.nb_posterior"):
        m[f"{name}_calls"] = calls.get(name, 0)
        m[f"{name}_s"] = secs.get(name, 0.0)
    m["tabular.rows_examined_per_match"] = counts["tabular.rows_examined"] / max(
        1, counts["tabular.rows_matched"]
    )
    m["tabular.project_distinct_s"] = secs.get("tabular.project_distinct", 0.0)
    for name in ("source.rows_scanned", "source.rows_returned", "source.budget_refusals",
                 "inference.gibbs_sweeps"):
        m[name] = counts[name]
    answers = _total(rewrites, "answers")
    m["source.useful_row_ratio"] = answers / max(1, counts["source.rows_returned"])
    m["imputation.impute_table_self_s"] = own.get("imputation.impute_table", 0.0)
    rows, keys = repeat_stats(env)
    m["imputation.rows_incomplete"] = rows
    m["imputation.distinct_keys"] = keys
    m["imputation.repeat_share"] = 1 - keys / rows
    m["afd.afd_impute_tuple_self_s"] = own.get("afd.afd_impute_tuple", 0.0)
    m["afd.unpredictable_cells"] = _total(runner.summaries("afd"), "unpredictable")
    m["rewriting.self_s"] = sum(s for name, s in own.items() if name.startswith("rewriting."))
    traced = [(op, s) for op, status, s, first in runner.records if first and status == "ok"]
    for method in wl.METHODS:
        times = [s for op, s in traced if op.family == "rewrite" and op.method == method]
        m[f"rewriting.{method}.p50_ms"] = statistics.median(times) * 1e3 if times else 0.0
    m["rewriting.issued_queries"] = _total(rewrites, "issued")
    m["rewriting.answers"] = answers
    m["rewriting.declined_ops"] = sum(s["status"] == "declined" for s in rewrites)
    m["rewriting.truncated_ops"] = _total(rewrites, "truncated")
    m["rewriting.uncertain_relevant"] = sum(wanted.values())
    op_s = secs.get("op", 0.0)
    # time inside an op that no span below its entry call covers
    entry = ("op", "imputation.impute_table", "afd.afd_impute_tuple",
             *(f"rewriting.{method}" for method in wl.METHODS))
    unattributed = sum(own.get(name, 0.0) for name in entry)
    m["trace.unattributed_share"] = unattributed / op_s if op_s else 0.0
    traced_s, untraced_s = pass_best_s(runner), pass_best_s(untraced)
    m["trace.overhead_s"] = traced_s - untraced_s
    m["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    layers = {"self_s": own, "inclusive_s": secs, "calls": calls, "counts": dict(counts)}
    return m, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for a quick smoke check")
    args = parser.parse_args(argv)

    if args.trace:
        SPEED.stop()  # per-layer times are wall times
    _import_library()
    import numpy as np
    import tracing
    import workloads as wl

    spec = wl.WORKLOADS.get(args.workload)
    if spec is None:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(wl.WORKLOADS)}")
    warnings.simplefilter("ignore")  # the library warns on empty rewrite candidates
    with open(BENCH_DIR / "reference.json", encoding="utf-8") as fh:
        # a missing entry fails every operation's output check
        reference = json.load(fh).get(args.size, {}).get(spec.name, {})
    OUT_DIR.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    call = tracer.call if tracer else wl._plain

    # set-up time: from the start of this process (after the environment
    # re-exec) to the first operation, with the median of the set-ups
    before_s = SPEED.elapsed(_START)
    setup_times = []
    for _ in range(spec.setups):
        gc.collect()
        t0 = SPEED.mark()
        env = wl.set_up(spec, args.size == "tiny", call, str(OUT_DIR))
        setup_times.append(SPEED.elapsed(t0))
    gc.collect()
    t0 = SPEED.mark()
    rng = np.random.default_rng(args.seed)
    passes = {f: [ops[i] for i in rng.permutation(len(ops))] for f, ops in env.ops.items()}
    runner = Runner(env, reference, tracer)
    after_s = SPEED.elapsed(t0)
    setup_slowdown = speed.slowdown(SPEED.since(_START))
    setup_s = (before_s + statistics.median(setup_times) + after_s) / setup_slowdown

    runners = []
    if tracer:
        # the pass twice untraced first: the baseline for the tracing overhead
        warm = Runner(env, reference)
        runners.append(warm)
        for first in (True, False):
            for ops in passes.values():
                for op in ops:
                    warm.run(op, first)
        saved = tracing.install(tracer, env.source)
    runners.append(runner)
    try:
        runner.loop(passes, spec.weights, args.seconds)
    finally:
        SPEED.stop()
        if tracer:
            tracing.uninstall(saved)

    known_failures = {}
    for op in env.probes:
        outcome = wl.execute(env, op, _no_span)
        known_failures[op.key] = f"{outcome.status}:{outcome.error}"

    wanted = {q: wl.relevant_total(env, q) for q in {op.query for op in env.ops["rewrite"]}}
    if tracer:
        metrics, layers = per_layer(runner, spec.setups, warm, wanted)
        units = PER_LAYER
    else:
        metrics, layers = end_to_end(runner, setup_s, wanted), None
        units = END_TO_END
    mismatched = sorted({key for r in runners for key in r.mismatched})
    summaries = [s for r in runners for s in r.first.values()]
    oracle_checked = _total(summaries, "oracle_checked")
    oracle_bad = _total(summaries, "oracle_bad")
    props = properties(runner, wanted)
    record = {
        "workload": spec.name,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "properties": props,
        "setup_s": {"before": before_s, "set_up": setup_times, "after": after_s},
        "slowdown": {"setup": setup_slowdown, **runner.slowdowns(),
                     "kernel_samples": len(SPEED.samples)},
        "oracle_rows_checked": oracle_checked,
        "oracle_mismatches": oracle_bad,
        "mismatched_ops": mismatched,
        "known_failures": known_failures,
        # key, status, wall seconds, first pass, seconds at reference speed
        "ops": [
            [op.key, status, s, first, scaled]
            for r in runners
            for (op, status, s, first), (*_, scaled) in zip(r.records, r.scaled())
        ],
        "metrics": metrics,
        "layers": layers,
        "trace_spans": tracer.to_json() if tracer else None,
    }
    stem = f"{spec.name}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.size == "tiny" else "")
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    attempted = sum(len(r.records) for r in runners)
    failed = sum(r.failed for r in runners)
    by_family = {f: sum(op.family == f for op, *_ in runner.records) for f in env.ops}
    print(f"workload {spec.name} seed {args.seed} ({args.size} size)")
    print("environment " + json.dumps(record["environment"]))
    print("properties " + json.dumps(props))
    print(f"ops attempted {attempted} {by_family}, failed {failed}, "
          f"output mismatches {len(mismatched)}, "
          f"oracle rows checked {oracle_checked} (mismatches {oracle_bad})")
    print("known failures, untimed " + json.dumps(known_failures))
    if not tracer:
        print("machine slowdown vs reference " + json.dumps(record["slowdown"]))
    if layers:
        print("self time by layer over the traced first pass:")
        for name, s in sorted(layers["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:32s} {s:10.4f} s  {layers['calls'].get(name, 0):8d} calls")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:.6g} {units[name]}")
    result = {
        "correct": not mismatched and oracle_bad == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        SPEED.stop()  # no tick may land after the handler is gone, on any way out
