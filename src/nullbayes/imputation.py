"""Filling missing cells with most-probable values.

The default strategy imputes all of a tuple's missing attributes at once:
one joint posterior given the observed cells, then the single most probable
combination.  The "independent" strategy takes each attribute's marginal
argmax separately; it is kept for comparison because it can produce
mutually inconsistent combinations that the joint argmax never does.

Both engines share one path over the table's int-coded column matrix: the
columns of the incomplete rows are filled in place, by exact inference (each
missing cell keyed in one pass by its Markov-blanket component and blanket
codes, one sort, one posterior per distinct key) or by Gibbs sampling (one
chain per row); the output table decodes the filled codes on first read.
Both multiply out one Markov-blanket plan per network and component, kept
across calls in one memo entry for both (``inference._entry``): a Gibbs
full conditional is the posterior of a component of one variable.  A chain
starts from the row's codes and splits by the same components: a missing
cell whose blanket is all observed draws every kept state in one
``np.searchsorted``, and the fill is read off the kept states' int array.
``impute_tuple`` runs that path on a one-row table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .bayesnet import BayesNet, _components
from .inference import _check_chain, _entry, _lex_argmax, _normalized, _product
from .inference import _refuse_impossible
# posterior_exact is not called here, but perfbench/tracing.py patches this name
from .inference import posterior_exact, posterior_gibbs  # noqa: F401
from .tabular import Row, Table, _check_count, _radix_key

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


def _groups(keys: np.ndarray):
    """Each key's index among the sorted distinct keys, a position of each; one unstable sort."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    first = np.empty(len(distinct), np.intp)
    first[inverse] = np.arange(len(keys))
    return inverse, first


def _null_patterns(attrs: tuple[str, ...], missing: np.ndarray):
    """The distinct missing sets among the columns of ``missing`` (``(d, n)``
    booleans), and the index of each column's set."""
    packed = np.packbits(missing, axis=0)
    pattern, first = _groups(_radix_key(packed, (256,) * len(packed)))
    return [tuple(compress(attrs, column)) for column in missing[:, first].T.tolist()], pattern


def _impute_exact(net: BayesNet, joint: bool, codes: np.ndarray, patterns, pattern) -> None:
    """Fill the -1 cells of ``codes`` (``(d, n)``, one at least) with exact MAP
    values; ``pattern`` numbers each column's missing set in ``patterns``.  The
    posterior is the product over the set's moral-graph components C of P(C |
    C's blanket), each computed from C's plan once per blanket key not in C's
    memo entry (fills by ``joint`` and blanket codes).  All missing cells are
    keyed in one pass, by C's slot and their column's blanket codes padded with
    a cell of C (-1, a constant digit); one sort groups them, any cell serves
    its group (the product reads only blanket cells) and takes its place in C."""
    d, n = codes.shape
    number = {}  # each component's slot, first seen first
    slots, places = [0] * (len(patterns) * d), [0] * (len(patterns) * d)  # by pattern, attribute
    for p, missing in enumerate(patterns):
        for c in _components(net._families, missing):
            s = number.setdefault(c, len(number))
            for k, a in enumerate(_entry(net, c)[2]):
                slots[p * d + a], places[p * d + a] = s, k
    entries = [_entry(net, c) for c in number]
    cells = np.flatnonzero(codes < 0)
    attr, column = np.divmod(cells, n)
    where = (pattern * d)[column] + attr
    slot, place = np.array(slots)[where], np.array(places)[where]
    width = max(len(e[3]) for e in entries)
    rows = np.array([e[3] + e[2][:1] * (width - len(e[3])) for e in entries], np.intp)
    radix = (np.array(net.schema.sizes)[rows].max(axis=0) + 1).tolist()  # pads only widen it
    digits = np.take(codes, (rows * n)[slot].T + column)
    inverse, first = _groups(_radix_key(np.vstack((slot, digits + 1)), (len(entries), *radix)))
    fills, starts = [], []  # the distinct keys' fills, end to end
    distinct = (a.tolist() for a in (slot[first], column[first], digits[:, first].T))
    for s, row, observed in zip(*distinct):
        views, known, _, blanket, _ = entries[s]
        key = (joint, *observed[: len(blanket)])
        if key not in known:
            probs = _normalized(_product(views, codes[:, row].tolist()))
            axes = range(probs.ndim)
            known[key] = _lex_argmax(probs) if joint else [
                _lex_argmax(probs.sum(axis=tuple(j for j in axes if j != k)))[0] for k in axes
            ]
        starts.append(len(fills))
        fills.extend(known[key])
    np.put(codes, cells, np.array(fills, dtype=codes.dtype)[np.array(starts)[inverse] + place])


def _shares(keys, hits: np.ndarray, totals: np.ndarray) -> dict:
    # hits / total per key with a non-zero total, in key order
    return {k: h / n for k, h, n in sorted(zip(keys, hits.tolist(), totals.tolist())) if n}


def _impute_gibbs(net, ids, codes, missing, gibbs: GibbsParams, joint: bool, seed_of) -> None:
    """Fill the -1 cells of ``codes`` (``(d, n)``, one column per row id in
    ``ids``; ``missing`` marks them) with Gibbs MAP values.  Each row gets
    one chain over all its missing cells, seeded by ``seed_of(row id)``; the
    chain does not depend on its targets, so marginal mode counts each
    attribute's values in it.  The most frequent kept state (or value), ties
    to the smallest, is map_assignment of the sampled posterior, found
    without an array over the joint: ``_radix_key`` ranks the kept states in
    lexicographic order, so ``np.unique``'s first most frequent key is the
    smallest."""
    attrs = net.schema.attributes
    sizes = net.schema.sizes
    fills: list[int] = []
    for row_id, state, column in zip(ids, codes.T.tolist(), missing.T.tolist()):
        kept = posterior_gibbs(
            net, tuple(compress(attrs, column)), samples=gibbs.samples,
            burn_in=gibbs.burn_in, seed=seed_of(row_id), _codes=state,
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
    """The tail of both engines over ``table``'s code matrix: the output
    table (built from the filled code matrix, its rows on first read), the
    positions of the incomplete rows, their filled codes and their missing
    mask (``(d, n)`` each).  Impossible evidence is refused after the engine
    runs, so that an engine's own refusal comes first."""
    codes = table._column_codes()
    incomplete = (codes < 0).any(axis=0).nonzero()[0]
    evidence = codes[:, incomplete]
    filled, missing = evidence.copy(), evidence < 0
    if engine == "gibbs":
        ids = table._id_column()[incomplete].tolist()
        _impute_gibbs(net, ids, filled, missing, gibbs, joint, seed_of)
    elif len(incomplete):
        _impute_exact(net, joint, filled, *_null_patterns(table.schema.attributes, missing))
    _refuse_impossible(net, evidence)
    out = codes.copy()
    out[:, incomplete] = filled
    return Table._of(table.schema, table._id_column(), out), incomplete, filled, missing


def _graded(filled: np.ndarray, truth: np.ndarray, cells):
    """The ``cells`` (a mask, or True for all) of the ``filled`` codes graded
    against the ``truth`` codes, all ``(d, n)``: the scored cells (not those
    of a null truth), the hits, the columns scored and the columns all hit."""
    scored = cells & (truth >= 0)
    hits = scored & (filled == truth)
    graded = scored.any(axis=0)
    return scored, hits, graded, graded & (hits == scored).all(axis=0)


def _accuracies(table: Table, truth: Table, incomplete, filled, missing):
    """Cell, tuple, attribute and combination accuracy of the ``filled``
    codes of ``table``'s ``incomplete`` rows at their ``missing`` cells
    against ``truth``; cells whose truth is null are not graded, and with no
    graded cell the cell and tuple accuracy are None."""
    attrs = table.schema.attributes
    truth_ids = truth._id_column()
    order = np.argsort(truth_ids)  # truth holds every id (impute_table checks)
    at = order[np.searchsorted(truth_ids, table._id_column()[incomplete], sorter=order)]
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
    out, incomplete, *_ = _impute(net, Table(net.schema, [row]), engine, g, joint, lambda _: g.seed)
    return out.rows[0] if len(incomplete) else row


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
    matrix.  The exact engine splits each null pattern into its moral-graph
    components, keys every missing cell by its component and blanket codes
    in one pass, groups the keys with one sort and computes one posterior per
    distinct key; components are cached per DAG, plans built once per net.
    The Gibbs engine runs one chain per incomplete tuple, seeded by (base
    seed, tuple id as an unsigned 64-bit value, so a negative id seeds one
    too), making results independent of processing order; its chains read
    the same plans.  What depends on the CPTs (CPT views, full conditionals
    and exact fills) is kept on ``net`` across calls, so a repeated key
    costs a lookup.
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
    if truth is not None:
        ids = table._id_column()
        absent = ids[~np.isin(ids, truth._id_column())]
        if len(absent):
            raise ValueError(f"ground truth is missing row id {absent[0]}")

    t0 = time.perf_counter()
    g = gibbs or GibbsParams()
    out, *tail = _impute(net, table, engine, g, joint, lambda row_id: (g.seed, row_id % 2**64))
    incomplete, _, missing = tail
    accuracies = (None,) * 4 if truth is None else _accuracies(table, truth, *tail)
    counts = zip(table.schema.attributes, missing.sum(axis=1).tolist())
    report = ImputationReport(
        len(table), len(incomplete), {a: n for a, n in sorted(counts) if n}, *accuracies,
        time.perf_counter() - t0,
    )
    return out, report
