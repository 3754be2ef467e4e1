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
A chain starts from the row's codes and splits by the same components: a
missing cell whose blanket is all observed draws every kept state in one
``np.searchsorted``, and the fill is read off the kept states' int array.
``impute_tuple`` runs that path on a one-row table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

import numpy as np

from .bayesnet import BayesNet, _blanket, _components
from .inference import ImpossibleEvidenceError, _check_chain, _getter, _lex_argmax
# posterior_exact is not called here, but perfbench/tracing.py patches this name
from .inference import posterior_exact, posterior_gibbs  # noqa: F401
from .tabular import Row, Table

__all__ = ["GibbsParams", "ImputationReport", "impute_tuple", "impute_table"]


@dataclass(frozen=True)
class GibbsParams:
    samples: int = 250
    burn_in: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        _check_chain(self.samples, self.burn_in)
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class ImputationReport:
    """Counts and (when ground truth is given) accuracy of one imputation run.

    ``cell_accuracy`` is the fraction of imputed cells that match the truth;
    ``tuple_accuracy`` the fraction of imputed tuples with every imputed cell
    correct.  ``attribute_accuracy`` breaks cells out per attribute and
    ``combination_accuracy`` breaks all-cells-correct out per missing-attribute
    combination.  Cells whose ground truth is null are ungradeable and appear
    in no denominator.  Accuracies are None without ground truth.
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


@lru_cache(maxsize=1024)
def _exact_plan(families, sizes: tuple[int, ...], missing: tuple[str, ...]):
    """The components C of ``missing`` in the moral graph of ``families`` (a
    net's ``_families``) over domains of ``sizes``.

    With every other cell observed, P(missing | row) is the product over C
    of P(C | C's blanket): C's and C's children's CPTs, sliced at observed
    cells.  Per C: its positions as a tuple and a column index, its
    blanket's as a column index and their sizes, and per CPT its attribute,
    transpose to (observed axes, C's axes), getter of the observed codes
    from the blanket's, and shape broadcasting it over C's axes.
    """
    pos = {vs[-1]: i for i, vs in enumerate(families)}
    plans = []
    for members in _components(families, missing):
        group = set(members)
        touching, outside = _blanket(families, group)
        blanket = sorted(pos[v] for v in outside)
        factors = []
        for vs in touching:
            seen = [k for k, v in enumerate(vs) if v not in group]
            inside = sorted(set(range(len(vs))) - set(seen), key=lambda k: members.index(vs[k]))
            shape = tuple(sizes[pos[a]] if a in vs else 1 for a in members)
            observed = _getter([blanket.index(pos[vs[k]]) for k in seen])
            factors.append((vs[-1], tuple(seen + inside), observed, shape))
        at, column = tuple(pos[a] for a in members), np.array(blanket, dtype=np.intp)[:, None]
        plans.append((at, np.array(at)[:, None], column, tuple(sizes[b] for b in blanket), factors))
    return tuple(plans)


def _posterior(factors, codes: list[int]):
    """P(C | blanket ``codes``), one axis per member, from the plan's factors
    with each CPT transposed."""
    values = 1.0
    for cpt, observed, shape in factors:
        values = values * cpt[observed(codes)].reshape(shape)
    z = float(values.sum())
    if z <= 0.0:
        raise ImpossibleEvidenceError("impossible evidence: zero probability")
    return values / z


def _radix_key(codes: np.ndarray, sizes) -> np.ndarray:
    """One int64 per column of ``codes`` (row i in ``range(sizes[i])``), equal
    where the columns are: mixed radix, first row most significant, re-ranked
    by ``np.unique`` only where the next digit could overflow."""
    key = np.zeros(codes.shape[1], dtype=np.int64)
    radix = 1
    for row, size in zip(codes, sizes):
        if radix * size >= 2**63:
            seen, key = np.unique(key, return_inverse=True)
            radix = len(seen)
        key = key * size + row
        radix *= size
    return key


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
    ``pattern`` numbers each column's missing set in ``patterns``."""
    schema = net.schema
    sizes = tuple(len(schema.domains[a]) for a in schema.attributes)
    # a zero in a fully observed family's CPT is the other way evidence can
    # be impossible; families touching the missing set enter the posteriors
    zeros = [
        (set(vs), np.array([schema._index[v] for v in vs])[:, None], net.cpts[vs[-1]])
        for vs in net._families
        if not net.cpts[vs[-1]].all()
    ]
    by_pattern = np.split(np.argsort(pattern, kind="stable"), np.cumsum(np.bincount(pattern))[:-1])
    rows_of: dict = {}  # component -> (plan, its columns per pattern)
    for missing, rows in zip(patterns, by_pattern):
        for family, at, cpt in zeros:
            if family.isdisjoint(missing) and not cpt[tuple(codes[at, rows])].all():
                raise ImpossibleEvidenceError("impossible evidence: zero probability")
        for plan in _exact_plan(net._families, sizes, missing):
            rows_of.setdefault(plan[0], (plan, []))[1].append(rows)
    for (_, members, blanket, radix, factors), parts in rows_of.values():
        rows = np.concatenate(parts)
        observed = codes[blanket, rows]
        _, first, inverse = np.unique(
            _radix_key(observed, radix), return_index=True, return_inverse=True
        )
        views = [(net.cpts[a].transpose(order), get, shape) for a, order, get, shape in factors]
        fills = []
        for key_codes in observed[:, first].T.tolist():
            probs = _posterior(views, key_codes)
            axes = range(probs.ndim)
            fills.append(_lex_argmax(probs) if joint else [
                _lex_argmax(probs.sum(axis=tuple(j for j in axes if j != k)))[0] for k in axes
            ])
        codes[members, rows] = np.array(fills, dtype=codes.dtype)[inverse].T


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
    sizes = [len(net.schema.domains[a]) for a in attrs]
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
    missing mask (``(d, n)`` each)."""
    schema = table.schema
    codes = table._column_codes()
    incomplete = (codes < 0).any(axis=0).nonzero()[0]
    filled = codes[:, incomplete]
    missing = filled < 0
    rows, positions = list(table.rows), incomplete.tolist()
    if engine == "exact":
        _impute_exact(net, joint, filled, *_null_patterns(schema.attributes, missing))
    else:
        _impute_gibbs(net, [rows[i] for i in positions], filled, missing, gibbs, joint, seed_of)
    labels, offsets = schema._code_labels
    for i, cells in zip(positions, zip(*labels[filled + offsets].tolist())):
        rows[i] = Row(rows[i].id, cells)
    return rows, incomplete, filled, missing


def _accuracies(table: Table, truth: Table, truth_at: dict, incomplete, filled, missing):
    """Cell, tuple, attribute and combination accuracy of the ``filled``
    codes of ``table``'s ``incomplete`` rows at their ``missing`` cells
    against ``truth``; cells whose truth is null are not graded."""
    attrs = table.schema.attributes
    at = [truth_at[table.rows[i].id] for i in incomplete.tolist()]
    actual = truth._column_codes()[:, at]
    scored = missing & (actual >= 0)  # the gradeable imputed cells
    hits = scored & (filled == actual)
    graded = scored.any(axis=0)
    right = graded & (hits == scored).all(axis=0)
    cells_scored, tuples_scored = int(scored.sum()), int(graded.sum())
    patterns, pattern = _null_patterns(attrs, missing)
    return (
        int(hits.sum()) / cells_scored if cells_scored else 1.0,
        int(right.sum()) / tuples_scored if tuples_scored else 1.0,
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
    posterior per distinct (component, observed blanket values) key;
    components and their CPT layouts sit in a bounded cross-call cache keyed
    by DAG, domain sizes and missing set, and holding no CPTs.  The Gibbs
    engine runs one chain per incomplete tuple, seeded by (base seed, tuple
    id), making results independent of processing order; its chains share
    one memo of full conditionals and chain splits, kept for this call.
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
