"""Repeatable retrieval and imputation experiments.

The rewriting experiment hides a fresh copy of the data behind a
query-only source, nulls out the queried attributes on part of it, runs
each rewriting method, and measures cumulative precision/recall over the
uncertain answers (tuples whose constrained cells are null in the source
but whose held-back ground truth is known).  The imputation experiment
sweeps evidence incompleteness and measures how well each method restores
nulled target cells.  Every random choice is derived from the experiment
seed, so runs repeat exactly.
"""

from __future__ import annotations

import math
import time
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .afd import (
    Afd,
    NoRuleError,
    NotApplicableError,
    afd_impute_tuple,
    fit_naive_bayes,
    mine_afds,
)
from .bayesnet import BayesNet, StructureSearchConfig, fit_parameters, learn_structure, sample_rows
from .imputation import GibbsParams, _graded, impute_table
from .rewriting import REWRITING_METHODS, RewritingResult, run_method
from .source import AutonomousSource
from .synth import car_demo_net
from .tabular import (
    SelectionQuery,
    Table,
    _check_count,
    _check_scale,
    discretize,
    inject_nulls,
    load_csv,
    parse_discretize_rules,
)

__all__ = [
    "ExperimentConfig",
    "PrPoint",
    "PrCurve",
    "ImputationRun",
    "load_config",
    "parse_config",
    "split_table",
    "run_rewriting_experiment",
    "run_imputation_experiment",
    "pr_csv_lines",
    "imputation_csv_lines",
    "format_timing_table",
]

IMPUTATION_METHODS = ("afd", "bn-exact", "bn-gibbs")

# fixed offsets for deriving independent rng streams from one experiment seed
_S_DATA, _S_SPLIT, _S_QUERY_NULLS, _S_TARGET_NULLS, _S_LEVEL_NULLS = 0, 1, 2, 3, 4


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; parsed from flat ``key = value`` text."""

    mode: str = "rewriting"
    dataset: str | None = None  # CSV path; None means the synthetic car table
    null_token: str = ""
    synthetic_rows: int = 5000
    discretize_rules: dict[str, int] = field(default_factory=dict)
    train_fraction: float = 0.15
    test_null_fraction: float = 0.5
    seeds: tuple[int, ...] = (0,)
    queries: tuple[SelectionQuery, ...] = ()
    methods: tuple[str, ...] = ()
    top_k: int = 10
    alpha: float = 0.0
    beam_width: int = 5
    beam_depth: int = 2
    query_limit: int | None = None
    targets: tuple[str, ...] = ()
    levels: tuple[int, ...] = (0, 10, 20, 30, 40, 50, 60, 70, 80, 90)
    gibbs_samples: int = 250
    gibbs_burn_in: int = 100
    max_parents: int = 2
    restarts: int = 3
    max_iterations: int = 200
    score: str = "bic"
    ess: float = 1.0
    pseudo_count: float = 1.0
    afd_max_lhs: int = 2
    afd_min_confidence: float = 0.0

    def effective_methods(self) -> tuple[str, ...]:
        if self.methods:
            return self.methods
        return REWRITING_METHODS[:3] if self.mode == "rewriting" else IMPUTATION_METHODS

    def validate(self) -> None:
        if self.mode not in ("rewriting", "imputation"):
            raise ValueError(f"unknown mode {self.mode!r}")
        known = REWRITING_METHODS if self.mode == "rewriting" else IMPUTATION_METHODS
        for m in self.effective_methods():
            if m not in known:
                raise ValueError(f"unknown method {m!r} for mode {self.mode!r}")
        if not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction must be in (0, 1)")
        if not 0 <= self.test_null_fraction <= 1:
            raise ValueError("test_null_fraction must be in [0, 1]")
        if self.mode == "rewriting" and not self.queries:
            raise ValueError("rewriting mode needs at least one query")
        if self.mode == "imputation" and not self.targets:
            raise ValueError("imputation mode needs target attributes")
        for level in self.levels:
            if not 0 <= level <= 100:
                raise ValueError("levels are percentages in 0..100")
            _check_count("levels", level)
        for seed in self.seeds:
            _check_count("seeds", seed)
        for key in ("queries", "seeds", "methods", "targets", "levels"):
            entries = getattr(self, key)
            if len(set(entries)) != len(entries):
                raise ValueError(f"{key} lists an entry twice")
        for key in ("seeds", "levels"):
            if not getattr(self, key):
                raise ValueError(f"{key} must not be empty")
        # every count is an integer, named by its key; GibbsParams and
        # StructureSearchConfig bound the ranges of those they are passed
        least = {"synthetic_rows": 0, "top_k": 1, "beam_width": 1, "beam_depth": 1, "afd_max_lhs": 1}
        for key, hint in get_type_hints(ExperimentConfig).items():
            if hint is int:
                _check_count(key, getattr(self, key), least.get(key, -math.inf))
        if self.query_limit is not None:  # the base query spends one
            _check_count("query_limit", self.query_limit, 1)
        GibbsParams(self.gibbs_samples, self.gibbs_burn_in)
        StructureSearchConfig(
            self.max_parents, self.restarts, self.max_iterations, self.score, self.ess
        )
        _check_scale("pseudo_count", self.pseudo_count)
        if not 0.0 <= self.afd_min_confidence <= 1.0:
            raise ValueError("afd_min_confidence must be in [0, 1]")
        _check_scale("alpha", self.alpha)


def _convert(hint, value: str):
    """``value`` as type ``hint``: a tuple from comma-separated items, and
    None from ``none`` or nothing where ``hint`` allows None."""
    if get_origin(hint) is tuple:
        return tuple(_convert(get_args(hint)[0], v.strip()) for v in value.split(",") if v.strip())
    kinds = get_args(hint) or (hint,)
    if type(None) in kinds and value.lower() in ("", "none"):
        return None
    return kinds[0](value)


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat ``key = value`` lines; ``#`` starts a comment.

    Each value is converted by its ``ExperimentConfig`` field's type, except
    ``query``, which may repeat, and ``discretize`` (the rules).  List
    values (seeds, methods, levels, targets) are comma-separated.  Unknown
    keys are errors.
    """
    hints = get_type_hints(ExperimentConfig)
    values: dict[str, object] = {}
    queries: list[SelectionQuery] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "discretize":
            values["discretize_rules"] = parse_discretize_rules(value)
        elif key == "query" or (key in hints and key not in ("queries", "discretize_rules")):
            try:
                if key == "query":
                    queries.append(SelectionQuery.parse(value))
                else:
                    values[key] = _convert(hints[key], value)
            except ValueError as exc:
                raise ValueError(f"config line {lineno}: {key}: {exc}") from None
        else:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
    cfg = ExperimentConfig(queries=tuple(queries), **values)  # type: ignore[arg-type]
    cfg.validate()
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8-sig") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# shared plumbing


def split_table(table: Table, fraction: float, seed) -> tuple[Table, Table]:
    """Disjoint (train, test) split; train has ceil(fraction * N) rows.

    Both halves keep the full table's schema, so their domains agree, and
    its row order.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    n = len(table)
    k = math.ceil(fraction * n)
    train = np.sort(np.random.default_rng(seed).choice(n, size=k, replace=False))
    return table._take(train), table._take(np.delete(np.arange(n), train))


def _experiment_table(cfg: ExperimentConfig, seed: int, table: Table | None) -> Table:
    if table is not None:
        got = table
    elif cfg.dataset is not None:
        got = load_csv(cfg.dataset, cfg.null_token)
    else:
        got = sample_rows(car_demo_net(), cfg.synthetic_rows, seed=(seed, _S_DATA))
    if cfg.discretize_rules:
        got = discretize(got, cfg.discretize_rules)
    return got


@dataclass(frozen=True)
class _Models:
    net: BayesNet
    afds: tuple[Afd, ...]
    nb: object


def _train_models(cfg: ExperimentConfig, train: Table, seed: int) -> _Models:
    scfg = StructureSearchConfig(
        max_in_degree=cfg.max_parents,
        restarts=cfg.restarts,
        max_iterations=cfg.max_iterations,
        score=cfg.score,
        ess=cfg.ess,
        seed=seed,
    )
    net = fit_parameters(learn_structure(train, scfg), train, cfg.pseudo_count)
    afds = mine_afds(train, cfg.afd_max_lhs, cfg.afd_min_confidence)
    nb = fit_naive_bayes(train)
    return _Models(net, afds, nb)


# ---------------------------------------------------------------------------
# rewriting experiment


@dataclass(frozen=True)
class PrPoint:
    query_index: int  # 1-based position in the issued sequence
    precision: float
    recall: float


@dataclass(frozen=True)
class PrCurve:
    method: str
    query: SelectionQuery
    seed: int
    points: tuple[PrPoint, ...]
    relevant_total: int
    truncated: bool


def _curve_points(
    result: RewritingResult, query: SelectionQuery, wanted: np.ndarray
) -> tuple[PrPoint, ...]:
    # wanted: a mask over the source table, True at the uncertain relevant
    # tuples.  The retrieved tuples are read at their source positions, with
    # no answer objects: uncertain where a constrained code is null (-1),
    # relevant where wanted, each counted at its issuing step
    table, at, step, issued = result._retrieved
    q_idx = [table.schema.index(a) for a in query.attributes]
    uncertain = (table._column_codes()[np.ix_(q_idx, at)] < 0).any(axis=0)
    relevant = uncertain & wanted[at]
    u_total, r_total = (
        np.bincount(step[hit], minlength=len(issued)).cumsum().tolist()
        for hit in (uncertain, relevant)
    )
    total = int(np.count_nonzero(wanted))
    return tuple(
        PrPoint(i, r / u if u else 0.0, r / total)
        for i, (u, r) in enumerate(zip(u_total, r_total), start=1)
    )


def run_rewriting_experiment(
    cfg: ExperimentConfig, table: Table | None = None
) -> list[PrCurve]:
    """One PrCurve per (seed, query, method) that produced rewrites.

    Methods that do not apply to a query (no AFD, overlapping determining
    sets, ``afd`` on a conjunction) are skipped with a warning, as are
    queries with no uncertain relevant tuples after null injection.
    """
    cfg.validate()
    if cfg.mode != "rewriting":
        raise ValueError("config mode is not 'rewriting'")
    curves: list[PrCurve] = []
    for seed in cfg.seeds:
        data = _experiment_table(cfg, seed, table)
        for query in cfg.queries:
            query.validate(data.schema)
        train, test = split_table(data, cfg.train_fraction, (seed, _S_SPLIT))
        models = _train_models(cfg, train, seed)
        for qi, query in enumerate(cfg.queries):
            visible = inject_nulls(
                test, query.attributes, cfg.test_null_fraction, (seed, _S_QUERY_NULLS, qi)
            )
            # nulls only hide values (rows keep their order, so a mask over
            # test is one over the source), and the relevant tuples the
            # visible data still matches are certain answers
            wanted = np.zeros(len(test), dtype=bool)
            wanted[test._matching(query)] = True
            wanted[visible._matching(query)] = False
            relevant = int(np.count_nonzero(wanted))
            if not relevant:
                warnings.warn(
                    f"seed {seed}: no uncertain relevant tuples for {query.text()!r}; skipped",
                    stacklevel=2,
                )
                continue
            ratio = len(visible) / len(train)
            for method in cfg.effective_methods():
                source = AutonomousSource(visible, cfg.query_limit)
                try:
                    result = run_method(
                        method, models, train, source, query, cfg.top_k, cfg.alpha, ratio,
                        cfg.beam_width, cfg.beam_depth,
                    )
                except (NoRuleError, NotApplicableError) as exc:
                    warnings.warn(
                        f"seed {seed}: {method} skipped for {query.text()!r}: {exc}",
                        stacklevel=2,
                    )
                    continue
                points = _curve_points(result, query, wanted)
                curves.append(PrCurve(method, query, seed, points, relevant, result.truncated))
    return curves


# ---------------------------------------------------------------------------
# imputation experiment


@dataclass(frozen=True)
class ImputationRun:
    method: str
    level: int  # evidence incompleteness, percent
    seed: int
    cell_accuracy: float
    tuple_accuracy: float
    cells: int
    seconds: float


def _target_accuracy(imputed: Table, test: Table, targets: Sequence[str]):
    """Cell and tuple accuracy of ``imputed``'s target cells against ``test``,
    whose rows it holds in the same order, and the number of cells scored;
    a cell whose truth is null is not scored."""
    at = [test.schema.index(t) for t in targets]
    truth = test._column_codes()[at]
    scored, hits, rows, row_hits = _graded(imputed._column_codes()[at], truth, True)
    cells = int(scored.sum())
    if cells == 0:
        raise ValueError("no scoreable target cells; is the ground truth all null?")
    return int(hits.sum()) / cells, int(row_hits.sum()) / int(rows.sum()), cells


def run_imputation_experiment(
    cfg: ExperimentConfig, table: Table | None = None
) -> list[ImputationRun]:
    """Sweep evidence incompleteness and measure target restoration.

    Target attributes are nulled in every test tuple.  At level L each
    non-target attribute is independently nulled in L percent of the test
    tuples.  Accuracy is per target cell and per tuple (all targets
    correct), against the held-back ground truth.
    """
    cfg.validate()
    if cfg.mode != "imputation":
        raise ValueError("config mode is not 'imputation'")
    runs: list[ImputationRun] = []
    for seed in cfg.seeds:
        data = _experiment_table(cfg, seed, table)
        for target in cfg.targets:
            data.schema.index(target)
        train, test = split_table(data, cfg.train_fraction, (seed, _S_SPLIT))
        models = _train_models(cfg, train, seed)
        hidden = inject_nulls(test, cfg.targets, 1.0, (seed, _S_TARGET_NULLS))
        evidence_attrs = [a for a in data.schema.attributes if a not in cfg.targets]
        for li, level in enumerate(cfg.levels):
            visible = hidden
            if level:
                for ai, attr in enumerate(evidence_attrs):
                    visible = inject_nulls(
                        visible, [attr], level / 100.0, (seed, _S_LEVEL_NULLS, li, ai)
                    )
            for method in cfg.effective_methods():
                t0 = time.perf_counter()
                if method == "afd":
                    rows = [
                        afd_impute_tuple(models.afds, models.nb, row)[0]
                        for row in visible.rows
                    ]
                    imputed = Table(data.schema, rows)
                else:  # "bn-exact" or "bn-gibbs"; the exact engine ignores the params
                    params = GibbsParams(
                        cfg.gibbs_samples, cfg.gibbs_burn_in, seed=seed * 1000 + li
                    )
                    imputed, _ = impute_table(models.net, visible, method[3:], params)
                seconds = time.perf_counter() - t0
                cell_acc, tuple_acc, cells = _target_accuracy(imputed, test, cfg.targets)
                runs.append(
                    ImputationRun(method, level, seed, cell_acc, tuple_acc, cells, seconds)
                )
    return runs


# ---------------------------------------------------------------------------
# rendering


def pr_csv_lines(curve: PrCurve) -> list[str]:
    lines = ["method,query_index,precision,recall"]
    for p in curve.points:
        lines.append(f"{curve.method},{p.query_index},{p.precision:.10g},{p.recall:.10g}")
    return lines


def imputation_csv_lines(runs: Sequence[ImputationRun]) -> list[str]:
    lines = ["method,level,seed,cell_accuracy,tuple_accuracy,cells"]
    for r in runs:
        lines.append(
            f"{r.method},{r.level},{r.seed},{r.cell_accuracy:.10g},"
            f"{r.tuple_accuracy:.10g},{r.cells}"
        )
    return lines


def format_timing_table(runs: Sequence[ImputationRun]) -> str:
    """Mean wall-clock seconds per method, one row per incompleteness level."""
    methods: list[str] = []
    for r in runs:
        if r.method not in methods:
            methods.append(r.method)
    levels = sorted({r.level for r in runs})
    header = ["incomplete%"] + [f"{m}(s)" for m in methods]
    widths = [max(12, len(h) + 2) for h in header]
    out = ["".join(h.ljust(w) for h, w in zip(header, widths))]
    for level in levels:
        cells = [str(level)]
        for m in methods:
            vals = [r.seconds for r in runs if r.level == level and r.method == m]
            cells.append(f"{sum(vals) / len(vals):.2f}" if vals else "-")
        out.append("".join(c.ljust(w) for c, w in zip(cells, widths)))
    return "\n".join(out)
