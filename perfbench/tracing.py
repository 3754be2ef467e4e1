"""Spans and counters recorded from the benchmark's side.

``install`` wraps the names the library's callers bind (for example
``nullbayes.rewriting.select`` and ``AutonomousSource.answer``) so that
every call opens a span under whichever span is open, giving
op -> layer -> sub-layer nesting, and counts the rows each scan examines.
Nothing in the library's code changes; the wrappers are removed again by
``uninstall``.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from operator import itemgetter

import nullbayes.afd
import nullbayes.imputation
import nullbayes.rewriting
from nullbayes import AutonomousSource, NaiveBayesModel, QueryBudgetError, Table


class Tracer:
    """Spans (name, start, end, parent span, op id) and named counts, in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.counts: Counter = Counter()  # (op id, name) -> count
        self.op_id = -1  # -1 marks set-up work
        self.next_op = 0
        self._stack = [-1]

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.op_ids.append(self.op_id)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.op_id, name)] += n

    def counted(self, op_ids) -> Counter:
        """Counts summed over the given op ids."""
        out: Counter = Counter()
        for (op, name), n in self.counts.items():
            if op in op_ids:
                out[name] += n
        return out

    @contextmanager
    def span(self, name: str):
        i = self.begin(name)
        try:
            yield
        finally:
            self.end(i)

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def self_times(self, op_ids=None) -> dict[str, float]:
        """Seconds per span name not covered by a child span."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            if op_ids is None or self.op_ids[i] in op_ids:
                out[name] += self.ends[i] - self.starts[i] - child[i]
        return dict(out)

    def totals(self, op_ids=None) -> tuple[dict[str, float], dict[str, int]]:
        """Inclusive seconds and call count per span name."""
        secs: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, name in enumerate(self.names):
            if op_ids is None or self.op_ids[i] in op_ids:
                secs[name] += self.ends[i] - self.starts[i]
                calls[name] += 1
        return dict(secs), dict(calls)

    def to_json(self) -> dict:
        t0 = self.starts[0] if self.starts else 0.0
        return {
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [n, round(s - t0, 9), round(e - t0, 9), p, o]
                for n, s, e, p, o in zip(
                    self.names, self.starts, self.ends, self.parents, self.op_ids
                )
            ],
            "counts": [[op, name, n] for (op, name), n in sorted(self.counts.items())],
        }


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result, *args, **kwargs)
        return result

    return traced


def _counted_rows(scans: list) -> type:
    """A tuple type for a table's rows that logs how many rows each scan draws.

    Every iteration appends an ``itertools.count`` to ``scans``; ``zip``
    stops at the last row before drawing from it, so its next value is the
    number of rows the scan drew.  The counting runs in C, so a scan costs
    little more than before.
    """

    class CountedRows(tuple):
        __slots__ = ()

        def __iter__(self):
            drawn = itertools.count()
            scans.append(drawn)
            return map(itemgetter(0), zip(tuple.__iter__(self), drawn))

    return CountedRows


def install(tracer: Tracer, source: Table) -> list[tuple[object, str, object]]:
    """Wrap the library's internal call sites; returns what ``uninstall`` restores.

    ``source`` is the table behind every ``AutonomousSource``.  Its rows, and
    those of every table passed to ``select``, are swapped for a tuple that
    counts the rows each scan draws, so ``source.rows_scanned`` and
    ``tabular.rows_examined`` are the rows the library actually examined.
    """
    count = tracer.count
    saved: list[tuple[object, str, object]] = []
    scans: list = []
    rows_type = _counted_rows(scans)

    def count_scans(table: Table) -> None:
        if type(table.rows) is not rows_type:
            saved.append((table, "rows", table.rows))
            table.rows = rows_type(table.rows)

    def rows_drawn(since: int) -> int:
        n = sum(next(drawn) for drawn in scans[since:])
        del scans[since:]
        return n

    select = nullbayes.rewriting.select

    @functools.wraps(select)
    def traced_select(table, query, *args, **kwargs):
        count_scans(table)
        since = len(scans)
        with tracer.span("tabular.select"):
            rows = select(table, query, *args, **kwargs)
        count("tabular.rows_examined", rows_drawn(since))
        count("tabular.rows_matched", len(rows))
        return rows

    def after_gibbs(_dist, *args, **kwargs):
        count("inference.gibbs_sweeps", kwargs["samples"] + kwargs["burn_in"])

    answer = AutonomousSource.answer

    @functools.wraps(answer)
    def traced_answer(self, query):
        since = len(scans)
        with tracer.span("source.answer"):
            try:
                rows = answer(self, query)
            except QueryBudgetError:
                count("source.budget_refusals")
                raise
        count("source.rows_scanned", rows_drawn(since))
        count("source.rows_returned", len(rows))
        return rows

    patches = [
        (nullbayes.rewriting, "select", traced_select),
        (nullbayes.rewriting, "project_distinct",
         _wrap(tracer, "tabular.project_distinct", nullbayes.rewriting.project_distinct)),
        (nullbayes.rewriting, "posterior_exact",
         _wrap(tracer, "inference.posterior_exact", nullbayes.rewriting.posterior_exact)),
        (nullbayes.rewriting, "best_afds", _wrap(tracer, "afd.best_afds", nullbayes.rewriting.best_afds)),
        (nullbayes.imputation, "posterior_exact",
         _wrap(tracer, "inference.posterior_exact", nullbayes.imputation.posterior_exact)),
        (nullbayes.imputation, "posterior_gibbs",
         _wrap(tracer, "inference.posterior_gibbs", nullbayes.imputation.posterior_gibbs, after_gibbs)),
        (nullbayes.afd, "best_afds", _wrap(tracer, "afd.best_afds", nullbayes.afd.best_afds)),
        (NaiveBayesModel, "posterior", _wrap(tracer, "afd.nb_posterior", NaiveBayesModel.posterior)),
        (AutonomousSource, "answer", traced_answer),
    ]
    for owner, attr, wrapper in patches:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)
    count_scans(source)
    return saved


def uninstall(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
