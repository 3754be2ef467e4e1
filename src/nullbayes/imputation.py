"""Filling missing cells with most-probable values.

The default strategy imputes all of a tuple's missing attributes at once:
one joint posterior given the observed cells, then the single most probable
combination.  The "independent" strategy takes each attribute's marginal
argmax separately; it is kept for comparison because it can produce
mutually inconsistent combinations that the joint argmax never does.

Both engines share one path over the table's int-coded column matrix: the
columns of the incomplete rows are filled in place, by exact inference (one
posterior per distinct Markov-blanket component and blanket values) or by
Gibbs sampling (one chain per row), then decoded to labels once per call.
Both multiply out one Markov-blanket plan per DAG and component
(``bayesnet._blanket_plan``): a Gibbs full conditional is the posterior of
a component of one variable.  A chain starts from the row's codes and
splits by the same components: a missing cell whose blanket is all
observed draws every kept state in one ``np.searchsorted``, and the fill is
read off the kept states' int array.  ``impute_tuple`` runs that path on a
one-row table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .bayesnet import BayesNet, _blanket_plan, _components
from .inference import _blanket_product, _check_chain, _cpt_views, _lex_argmax, _normalized
from .inference import _refuse_impossible
# posterior_exact is not called here, but perfbench/tracing.py patches this name
from .inference import posterior_exact, posterior_gibbs  # noqa: F401
from .tabular import Row, Table, _bulk_build, _check_count, _decode, _radix_key

__all__ = ["GibbsParams", "ImputationReport", "impute_tuple", "impute_table"]


@dataclass(frozen=True)
class GibbsParams:
    samples: int = 250
    burn_in: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        _check_chain(self.samples, self.burn_in)
        _check_count("seed", self.seed)


@dataclass(frozen=True)
class ImputationReport:
    """Counts and (when ground truth is given) accuracy of one imputation run.

    ``cell_accuracy`` is the fraction of imputed cells that match the truth;
    ``tuple_accuracy`` the fraction of imputed tuples with every imputed cell
    correct.  ``attribute_accuracy`` breaks cells out per attribute and
    ``combination_accuracy`` breaks all-cells-correct out per missing-attribute
    combination.  Cells whose ground truth is null are ungradeable and appear
    in no denominator.  Accuracies are None without ground truth; with it,
    ``cell_accuracy`` and ``tuple_accuracy`` are None when no imputed cell
    could be graded (and the breakdowns are empty).
    """

    tuples_total: int
    tuples_imputed: int
    cells_imputed: dict[str, int]
    cell_accuracy: float | None
    tuple_accuracy: float | None
    attribute_accuracy: dict[str, float] | None
    combination_accuracy: dict[tuple[str, ...], float] | None
    duration_seconds: float


def _check_engine(engine: str) -> None:
    if engine not in ("exact", "gibbs"):
        raise ValueError(f"unknown engine {engine!r}")


def _null_patterns(attrs: tuple[str, ...], missing: np.ndarray):
    """The distinct missing sets among the columns of ``missing`` (``(d, n)``
    booleans), and the index of each column's set."""
    packed = np.packbits(missing, axis=0)
    _, first, pattern = np.unique(
        _radix_key(packed, (256,) * len(packed)), return_index=True, return_inverse=True
    )
    return [tuple(compress(attrs, column)) for column in missing[:, first].T.tolist()], pattern


def _impute_exact(net: BayesNet, joint: bool, codes: np.ndarray, patterns, pattern) -> None:
    """Fill the -1 cells of ``codes`` (``(d, n)``) with exact MAP values;
    ``pattern`` numbers each column's missing set in ``patterns``.  With the
    other cells observed, P(missing | row) is the product over the missing
    set's moral-graph components C of P(C | C's blanket): each C is filled
    from its own ``_blanket_plan``, once per distinct blanket key."""
    by_pattern = np.split(np.argsort(pattern, kind="stable"), np.cumsum(np.bincount(pattern))[:-1])
    rows_of: dict = {}  # component -> its columns per pattern
    for missing, rows in zip(patterns, by_pattern):
        for component in _components(net._families, missing):
            rows_of.setdefault(component, []).append(rows)
    for component, parts in rows_of.items():
        _, at, blanket, radix, factors = _blanket_plan(net._families, net.schema.sizes, component)
        rows = np.concatenate(parts)
        _, first, inverse = np.unique(
            _radix_key(codes[blanket, rows], radix), return_index=True, return_inverse=True
        )
        views = _cpt_views(net, factors)
        fills = []
        for row_codes in codes[:, rows[first]].T.tolist():
            probs = _normalized(_blanket_product(views, row_codes))
            axes = range(probs.ndim)
            fills.append(_lex_argmax(probs) if joint else [
                _lex_argmax(probs.sum(axis=tuple(j for j in axes if j != k)))[0] for k in axes
            ])
        codes[at, rows] = np.array(fills, dtype=codes.dtype)[inverse].T


def _shares(keys, hits: np.ndarray, totals: np.ndarray) -> dict:
    # hits / total per key with a non-zero total, in key order
    return {k: h / n for k, h, n in sorted(zip(keys, hits.tolist(), totals.tolist())) if n}


def _impute_gibbs(net, rows, codes, missing, gibbs: GibbsParams, joint: bool, seed_of) -> None:
    """Fill the -1 cells of ``codes`` (``(d, n)``, one column per row of
    ``rows``; ``missing`` marks them) with Gibbs MAP values.  Each row gets
    one chain over all its missing cells, seeded by ``seed_of(row)``; the
    chain does not depend on its targets, so marginal mode counts each
    attribute's values in it.  The most frequent kept state (or value), ties
    to the smallest, is map_assignment of the sampled posterior, found
    without an array over the joint: ``_radix_key`` ranks the kept states in
    lexicographic order, so ``np.unique``'s first most frequent key is the
    smallest."""
    attrs = net.schema.attributes
    sizes = net.schema.sizes
    memo: dict = {}  # the chains' splits and full conditionals, for this call
    fills: list[int] = []
    for row, state, column in zip(rows, codes.T.tolist(), missing.T.tolist()):
        kept = posterior_gibbs(
            net, tuple(compress(attrs, column)), samples=gibbs.samples,
            burn_in=gibbs.burn_in, seed=seed_of(row), _memo=memo, _codes=state,
        )
        if joint:
            _, first, counts = np.unique(
                _radix_key(kept.T, compress(sizes, column)), return_index=True, return_counts=True
            )
            fills.extend(kept[first[counts.argmax()]].tolist())
        else:
            fills.extend(int(np.bincount(values).argmax()) for values in kept.T)
    codes.T[missing.T] = fills  # row by row, each row's cells in attribute order


def _impute(net: BayesNet, table: Table, engine: str, gibbs: GibbsParams, joint: bool, seed_of):
    """The tail of both engines over ``table``'s code matrix: the output rows,
    the positions of the incomplete rows, their filled codes and their
    missing mask (``(d, n)`` each).  Impossible evidence is refused after
    the engine runs, so that an engine's own refusal comes first."""
    schema = table.schema
    codes = table._column_codes()
    incomplete = (codes < 0).any(axis=0).nonzero()[0]
    evidence = codes[:, incomplete]
    filled, missing = evidence.copy(), evidence < 0
    rows, positions = list(table.rows), incomplete.tolist()
    if engine == "exact":
        _impute_exact(net, joint, filled, *_null_patterns(schema.attributes, missing))
    else:
        _impute_gibbs(net, [rows[i] for i in positions], filled, missing, gibbs, joint, seed_of)
    _refuse_impossible(net, evidence)
    with _bulk_build():
        for i, cells in zip(positions, _decode(schema, filled, range(len(schema.attributes)))):
            rows[i] = Row(rows[i].id, cells)
    return rows, incomplete, filled, missing


def _graded(filled: np.ndarray, truth: np.ndarray, cells):
    """The ``cells`` (a mask, or True for all) of the ``filled`` codes graded
    against the ``truth`` codes, all ``(d, n)``: the scored cells (not those
    of a null truth), the hits, the columns scored and the columns all hit."""
    scored = cells & (truth >= 0)
    hits = scored & (filled == truth)
    graded = scored.any(axis=0)
    return scored, hits, graded, graded & (hits == scored).all(axis=0)


def _accuracies(table: Table, truth: Table, truth_at: dict, incomplete, filled, missing):
    """Cell, tuple, attribute and combination accuracy of the ``filled``
    codes of ``table``'s ``incomplete`` rows at their ``missing`` cells
    against ``truth``; cells whose truth is null are not graded, and with no
    graded cell the cell and tuple accuracy are None."""
    attrs = table.schema.attributes
    at = [truth_at[table.rows[i].id] for i in incomplete.tolist()]
    scored, hits, graded, right = _graded(filled, truth._column_codes()[:, at], missing)
    cells_scored, tuples_scored = int(scored.sum()), int(graded.sum())
    patterns, pattern = _null_patterns(attrs, missing)
    return (
        int(hits.sum()) / cells_scored if cells_scored else None,
        int(right.sum()) / tuples_scored if tuples_scored else None,
        _shares(attrs, hits.sum(axis=1), scored.sum(axis=1)),
        _shares(
            patterns,
            np.bincount(pattern[right], minlength=len(patterns)),
            np.bincount(pattern[graded], minlength=len(patterns)),
        ),
    )


def impute_tuple(
    net: BayesNet,
    row: Row,
    engine: str = "exact",
    gibbs: GibbsParams | None = None,
    joint: bool = True,
) -> Row:
    """Return ``row`` with missing cells filled by MAP assignment.

    With ``joint`` (the default) the fill is the argmax of the joint
    posterior over all missing attributes; otherwise each missing attribute
    is filled with its own marginal argmax.  Non-null cells are never
    altered; a complete row is returned unchanged.  Both engines run
    ``impute_table``'s path on a one-row table, so a row that does not fit
    the network's schema raises ``ValueError``; the Gibbs chain is seeded by
    the base seed alone.
    """
    _check_engine(engine)
    g = gibbs or GibbsParams()
    return _impute(net, Table(net.schema, [row]), engine, g, joint, lambda _: g.seed)[0][0]


def impute_table(
    net: BayesNet,
    table: Table,
    engine: str = "exact",
    gibbs: GibbsParams | None = None,
    joint: bool = True,
    truth: Table | None = None,
) -> tuple[Table, ImputationReport]:
    """Impute every incomplete tuple of ``table``.

    Both engines fill the incomplete rows' columns of the table's code
    matrix.  The exact engine groups them by null pattern, splits each
    pattern into its components in the moral graph and computes one
    posterior per distinct (component, observed blanket values) key; the
    components and their blanket plans are cached per DAG, holding no CPTs.
    The Gibbs engine runs one chain per incomplete tuple, seeded by (base
    seed, tuple id), making results independent of processing order; its
    chains read the same plans and share one memo, kept for this call, of
    what depends on the CPTs: CPT views, full conditionals and chain splits.
    ``truth`` must have the same schema and row ids; accuracy is measured
    over imputed cells only, and cells whose ground truth is itself null
    are left out of every denominator (a tuple counts as correct when all
    its gradeable cells match).
    """
    _check_engine(engine)
    if table.schema != net.schema:
        raise ValueError("table schema does not match the network")
    if truth is not None and truth.schema != table.schema:
        raise ValueError("ground-truth schema does not match the table")
    truth_at = None if truth is None else {r.id: k for k, r in enumerate(truth.rows)}
    if truth is not None:
        for row in table.rows:
            if row.id not in truth_at:
                raise ValueError(f"ground truth is missing row id {row.id}")

    t0 = time.perf_counter()
    g = gibbs or GibbsParams()
    rows, *tail = _impute(net, table, engine, g, joint, lambda row: (g.seed, row.id))
    out = Table(table.schema, rows)
    incomplete, _, missing = tail
    accuracies = (None,) * 4 if truth is None else _accuracies(table, truth, truth_at, *tail)
    counts = zip(table.schema.attributes, missing.sum(axis=1).tolist())
    report = ImputationReport(
        len(table.rows), len(incomplete), {a: n for a, n in sorted(counts) if n}, *accuracies,
        time.perf_counter() - t0,
    )
    return out, report
