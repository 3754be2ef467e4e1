"""Command-line front end.

Subcommands: ``learn`` (fit a model from CSV), ``impute`` (complete a CSV
with a saved model), ``rewrite`` (run one rewriting strategy against a
source CSV), ``mine-afd`` (write dependency rules), and ``eval`` (run a
config-driven experiment).  Output files are byte-identical across runs
with equal inputs and seeds; wall-clock timings only ever go to stderr.

Exit codes: 0 success, 1 usage error, 2 data or model error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from functools import cached_property

from . import harness
from .afd import (
    NoRuleError,
    NotApplicableError,
    fit_naive_bayes,
    load_afds,
    mine_afds,
    save_afds,
)
from .bayesnet import (
    ModelFormatError,
    StructureSearchConfig,
    fit_parameters,
    learn_structure,
    load_model,
    save_model,
)
from .imputation import GibbsParams, impute_table
from .rewriting import REWRITING_METHODS, run_method
from .source import AutonomousSource, QueryBudgetError
from .tabular import (
    ParseError,
    SelectionQuery,
    Table,
    align_table,
    discretize,
    load_csv,
    save_csv,
    parse_discretize_rules,
)

__all__ = ["main"]

_DATA_ERRORS = (
    ParseError,
    ModelFormatError,
    NoRuleError,
    NotApplicableError,
    QueryBudgetError,
    ValueError,
    KeyError,
    OSError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nullbayes", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="fit a Bayes net from a CSV file")
    p.add_argument("--train", required=True, help="training CSV")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--null-token", default="", help="cell text meaning missing")
    p.add_argument("--discretize", default="", help="e.g. 'Mileage:5000,Price:5000'")
    p.add_argument("--max-parents", type=int, default=2)
    p.add_argument("--restarts", type=int, default=3)
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--score", choices=("bic", "bdeu"), default="bic")
    p.add_argument("--ess", type=float, default=1.0)
    p.add_argument("--pseudo-count", type=float, default=1.0)
    p.add_argument("--time-limit", type=float, default=None, help="seconds")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("impute", help="fill a CSV's missing cells with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="CSV with missing cells")
    p.add_argument("--out", required=True, help="completed CSV to write")
    p.add_argument("--null-token", default="")
    p.add_argument("--engine", choices=("exact", "gibbs"), default="exact")
    p.add_argument("--samples", type=int, default=250)
    p.add_argument("--burn-in", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--independent", action="store_true",
                   help="per-attribute marginal argmax instead of joint argmax")
    p.add_argument("--truth", default=None, help="ground-truth CSV for accuracy")
    p.add_argument("--report", default=None, help="write counts/accuracy here")
    p.set_defaults(func=_cmd_impute)

    p = sub.add_parser("rewrite", help="retrieve likely answers hidden by nulls")
    p.add_argument("--query", required=True, help="e.g. 'Body=sedan & Make=bmw'")
    p.add_argument("--source", required=True, help="CSV answering the queries")
    p.add_argument("--sample", required=True, help="CSV sample used for estimates")
    p.add_argument("--method", default="bn-all-mb", choices=REWRITING_METHODS)
    p.add_argument("--model", default=None, help="saved model (bn-* methods)")
    p.add_argument("--rules", default=None, help="mined AFD file (afd* methods)")
    p.add_argument("--null-token", default="")
    p.add_argument("--k", type=int, default=10, help="queries to issue")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beam-width", type=int, default=5)
    p.add_argument("--beam-depth", type=int, default=2)
    p.add_argument("--query-limit", type=int, default=None)
    p.add_argument("--ratio", type=float, default=None,
                   help="source/sample size ratio; default measures it directly")
    p.add_argument("--out", default=None, help="write extended answers CSV here")
    p.set_defaults(func=_cmd_rewrite)

    p = sub.add_parser("mine-afd", help="mine approximate functional dependencies")
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--null-token", default="")
    p.add_argument("--max-lhs", type=int, default=2)
    p.add_argument("--min-confidence", type=float, default=0.0)
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("eval", help="run a config-driven experiment")
    p.add_argument("--config", required=True, help="key = value experiment file")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_eval)
    return parser


def _read(path: str, parse):
    """``parse`` of the UTF-8 text of the file at ``path``, less a leading
    byte-order mark; a ValueError in reading or parsing it names the file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return parse(fh.read())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _cmd_learn(args) -> int:
    table = load_csv(args.train, args.null_token)
    if args.discretize:
        table = discretize(table, parse_discretize_rules(args.discretize))
    cfg = StructureSearchConfig(
        max_in_degree=args.max_parents,
        restarts=args.restarts,
        max_iterations=args.iterations,
        score=args.score,
        ess=args.ess,
        seed=args.seed,
        time_limit=args.time_limit,
    )
    net = fit_parameters(learn_structure(table, cfg), table, args.pseudo_count)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(save_model(net))
    for attr in net.schema.attributes:
        ps = net.parents[attr]
        print(f"{attr} <- {', '.join(ps) if ps else '(root)'}")
    return 0


def _cmd_impute(args) -> int:
    net = _read(args.model, load_model)
    table = align_table(load_csv(args.data, args.null_token), net.schema)
    truth = None
    if args.truth:
        truth = align_table(load_csv(args.truth, args.null_token), net.schema)
    gibbs = GibbsParams(args.samples, args.burn_in, args.seed)
    completed, report = impute_table(
        net, table, engine=args.engine, gibbs=gibbs,
        joint=not args.independent, truth=truth,
    )
    save_csv(completed, args.out, args.null_token)
    lines = [
        f"tuples: {report.tuples_total}",
        f"tuples_imputed: {report.tuples_imputed}",
        f"cells_imputed: {sum(report.cells_imputed.values())}",
    ]
    for attr, n in report.cells_imputed.items():
        lines.append(f"cells_imputed[{attr}]: {n}")
    if report.cell_accuracy is not None:
        lines.append(f"cell_accuracy: {report.cell_accuracy:.10g}")
        lines.append(f"tuple_accuracy: {report.tuple_accuracy:.10g}")
        for attr, acc in (report.attribute_accuracy or {}).items():
            lines.append(f"accuracy[{attr}]: {acc:.10g}")
        for combo, acc in (report.combination_accuracy or {}).items():
            lines.append(f"accuracy[{','.join(combo)}]: {acc:.10g}")
    text = "\n".join(lines) + "\n"
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"imputation took {report.duration_seconds:.2f}s", file=sys.stderr)
    return 0


class _RewriteModels:
    """The models ``rewrite`` reads, each loaded when its method first asks."""

    def __init__(self, args, sample: Table):
        self.args = args
        self.sample = sample

    @cached_property
    def net(self):
        if not self.args.model:
            raise ValueError(f"{self.args.method} needs --model")
        net = _read(self.args.model, load_model)
        align_table(self.sample, net.schema)  # refuses a sample the model cannot read
        return net

    @cached_property
    def afds(self):
        if not self.args.rules:
            raise ValueError(f"{self.args.method} needs --rules")
        return _read(self.args.rules, load_afds)

    @cached_property
    def nb(self):
        return fit_naive_bayes(self.sample)


def _cmd_rewrite(args) -> int:
    query = SelectionQuery.parse(args.query)
    sample = load_csv(args.sample, args.null_token)
    source_table = load_csv(args.source, args.null_token)
    if args.ratio is None:
        args.ratio = len(source_table) / len(sample)
    source = AutonomousSource(source_table, args.query_limit)
    result = run_method(
        args.method, _RewriteModels(args, sample), sample, source, query, args.k, args.alpha,
        args.ratio, args.beam_width, args.beam_depth,
    )

    print(f"base: {len(result.base)} certain answers")
    header = f"{'#':>2}  {'precision':>9}  {'selectivity':>11}  {'recall':>9}  {'f-measure':>9}  query"
    print(header)
    for i, rq in enumerate(result.issued, start=1):
        s = rq.score
        print(
            f"{i:>2}  {s.precision:>9.4f}  {s.selectivity:>11.2f}  "
            f"{s.recall:>9.4f}  {s.f_measure:>9.4f}  {rq.text()}"
        )
    if result.truncated:
        print("(query budget exhausted; results truncated)")
    print(f"extended: {len(result.answers)} additional tuples")

    if args.out:
        schema = source_table.schema
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(schema.attributes) + ["relevance"])
            for ans in result.answers:
                cells = [args.null_token if c is None else c for c in ans.row.cells]
                writer.writerow(cells + [f"{ans.relevance:.10g}"])
    return 0


def _cmd_mine(args) -> int:
    table = load_csv(args.train, args.null_token)
    afds = mine_afds(table, args.max_lhs, args.min_confidence)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(save_afds(afds))
    print(f"mined {len(afds)} rules over {len(table.schema.attributes)} attributes")
    return 0


def _cmd_eval(args) -> int:
    cfg = harness.load_config(args.config)
    # made after the run, which refuses unknown query and target attributes
    if cfg.mode == "rewriting":
        curves = harness.run_rewriting_experiment(cfg)
        os.makedirs(args.out_dir, exist_ok=True)
        by_query = {q: i for i, q in enumerate(cfg.queries)}
        for curve in curves:
            name = f"curve_{curve.method}_q{by_query[curve.query]}_s{curve.seed}.csv"
            path = os.path.join(args.out_dir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(harness.pr_csv_lines(curve)) + "\n")
            print(f"wrote {name} ({len(curve.points)} points)")
    else:
        runs = harness.run_imputation_experiment(cfg)
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(args.out_dir, "imputation.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(harness.imputation_csv_lines(runs)) + "\n")
        print(f"wrote imputation.csv ({len(runs)} runs)")
        print(harness.format_timing_table(runs), file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return 0 if not exc.code else 1
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        # a KeyError's str() is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
