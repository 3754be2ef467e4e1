"""Filling missing cells with most-probable values.

The default strategy imputes all of a tuple's missing attributes at once:
one joint posterior given the observed cells, then the single most probable
combination.  The "independent" strategy takes each attribute's marginal
argmax separately; it is kept for comparison because it can produce
mutually inconsistent combinations that the joint argmax never does.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from .bayesnet import BayesNet
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


def _missing_attrs(net: BayesNet, row: Row) -> tuple[str, ...]:
    return tuple(a for a, c in zip(net.schema.attributes, row.cells) if c is None)


def _fill(net: BayesNet, row: Row, missing: tuple[str, ...], combo: tuple[str, ...]) -> Row:
    filled = dict(zip(missing, combo))
    cells = tuple(
        filled[a] if c is None else c for a, c in zip(net.schema.attributes, row.cells)
    )
    return Row(row.id, cells)


def _check_engine(engine: str) -> None:
    if engine not in ("exact", "gibbs"):
        raise ValueError(f"unknown engine {engine!r}")


def _gibbs_combo(net, row, missing, gibbs, joint, seed, memo) -> tuple[str, ...]:
    # one chain over every missing attribute; its free set, initial draw and
    # uniforms do not depend on the targets, so marginal mode counts each
    # attribute's values in the same chain.  The most frequent state (or
    # value), ties to the smallest, is map_assignment of the sampled
    # posterior, found without an array over the joint
    g = gibbs or GibbsParams()
    evidence = {a: c for a, c in zip(net.schema.attributes, row.cells) if c is not None}
    states = posterior_gibbs(
        net, missing, evidence, samples=g.samples, burn_in=g.burn_in, seed=seed,
        _memo=memo, _states=True,
    )
    codes = _mode(states) if joint else [_mode(column) for column in zip(*states)]
    return tuple(net.schema.domain(a)[c] for a, c in zip(missing, codes))


def _mode(values):
    # the most frequent value; max keeps the first, so ties go to the smallest
    counts = Counter(values)
    return max(sorted(counts), key=counts.__getitem__)


class _ExactImputer:
    """Exact MAP fills of rows given as domain codes, for one net and mode.

    With every cell outside a row's missing set M observed, P(M | row)
    factorizes over the components C of M in the moral graph.  P(C | row) is
    the product of the CPTs of C and of C's children, sliced at their
    observed cells, which make up C's Markov blanket.  One instance serves
    one call and memoizes the components of each missing set, the sliced
    CPTs of each component and each component's fill by (C, blanket codes).
    """

    def __init__(self, net: BayesNet, joint: bool):
        self.net, self.joint = net, joint
        self.families = [net.parents[a] + (a,) for a in net.schema.attributes]
        # families whose CPT holds a zero: fully observed, the only other way
        # the evidence can be impossible
        pos = net.schema._index
        self.zeros = [
            (set(vs), net.cpts[vs[-1]], _getter([pos[v] for v in vs]))
            for vs in self.families
            if not net.cpts[vs[-1]].all()
        ]
        self.plans, self.factors, self.fills = {}, {}, {}

    def plan(self, missing: tuple[str, ...]) -> list[tuple[str, ...]]:
        """The components of ``missing`` in the moral graph."""
        if missing not in self.plans:
            groups = {a: {a} for a in missing}
            for vs in self.families:
                merged = set().union(*(groups[v] for v in vs if v in groups))
                for v in merged:
                    groups[v] = merged
            components = {id(g): tuple(a for a in missing if a in g) for g in groups.values()}
            self.plans[missing] = list(components.values())
        return self.plans[missing]

    def component(self, attrs: tuple[str, ...]):
        """A getter of C's blanket codes, and each CPT of C and of C's children
        transposed to (observed axes, C's axes) with a broadcast shape."""
        if attrs not in self.factors:
            pos, own, blanket = self.net.schema._index, [], set()
            for vs in self.families:
                if not any(v in attrs for v in vs):
                    continue
                seen = [k for k, v in enumerate(vs) if v not in attrs]
                inside = sorted(set(range(len(vs))) - set(seen), key=lambda k: attrs.index(vs[k]))
                cpt = self.net.cpts[vs[-1]]
                shape = tuple(cpt.shape[vs.index(a)] if a in vs else 1 for a in attrs)
                own.append((cpt.transpose(seen + inside), _getter([pos[vs[k]] for k in seen]), shape))
                blanket.update(pos[vs[k]] for k in seen)
            self.factors[attrs] = (_getter(sorted(blanket)), own)
        return self.factors[attrs]

    def posterior(self, attrs: tuple[str, ...], codes: list[int]):
        """P(attrs | the row's observed cells): one axis per member of attrs."""
        values = 1.0
        for cpt, observed, shape in self.component(attrs)[1]:
            values = values * cpt[observed(codes)].reshape(shape)
        z = float(values.sum())
        if z <= 0.0:
            raise ImpossibleEvidenceError("impossible evidence: zero probability")
        return values / z

    def fill(self, codes: list[int], missing: tuple[str, ...]) -> tuple[str, ...]:
        if any(cpt[get(codes)] == 0 for vs, cpt, get in self.zeros if vs.isdisjoint(missing)):
            raise ImpossibleEvidenceError("impossible evidence: zero probability")
        filled: dict[str, str] = {}
        for attrs in self.plan(missing):
            key = (attrs, self.component(attrs)[0](codes))
            if key not in self.fills:
                probs = self.posterior(attrs, codes)
                axes = range(probs.ndim)
                idx = _lex_argmax(probs) if self.joint else [
                    _lex_argmax(probs.sum(axis=tuple(j for j in axes if j != k)))[0] for k in axes
                ]
                self.fills[key] = [self.net.schema.domains[a][i] for a, i in zip(attrs, idx)]
            filled.update(zip(attrs, self.fills[key]))
        return tuple(filled[a] for a in missing)


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
    altered; a complete row is returned unchanged.
    """
    _check_engine(engine)
    missing = _missing_attrs(net, row)
    if not missing:
        return row
    if engine == "exact":
        codes = Table(net.schema, [row])._column_codes()[:, 0].tolist()
        combo = _ExactImputer(net, joint).fill(codes, missing)
    else:
        combo = _gibbs_combo(net, row, missing, gibbs, joint, gibbs.seed if gibbs else 0, {})
    return _fill(net, row, missing, combo)


def impute_table(
    net: BayesNet,
    table: Table,
    engine: str = "exact",
    gibbs: GibbsParams | None = None,
    joint: bool = True,
    truth: Table | None = None,
) -> tuple[Table, ImputationReport]:
    """Impute every incomplete tuple of ``table``.

    The exact engine fills each connected component of a tuple's missing
    attributes in the moral graph from its own posterior, memoized by
    (component, observed blanket values).  With the Gibbs engine
    each tuple gets its own chain seeded by (base seed, tuple id), making
    results independent of processing order; its chains share one memo of
    full conditionals, kept for this call.  ``truth`` must have the same
    schema and row ids; accuracy is measured over imputed cells only, and
    cells whose ground truth is itself null are left out of every
    denominator (a tuple counts as correct when all its gradeable cells
    match).
    """
    _check_engine(engine)
    if table.schema != net.schema:
        raise ValueError("table schema does not match the network")
    if truth is not None and truth.schema != table.schema:
        raise ValueError("ground-truth schema does not match the table")
    truth_by_id = {r.id: r for r in truth.rows} if truth is not None else None
    if truth_by_id is not None:
        for row in table.rows:
            if row.id not in truth_by_id:
                raise ValueError(f"ground truth is missing row id {row.id}")

    t0 = time.perf_counter()
    if engine == "exact":
        exact, codes = _ExactImputer(net, joint), table._column_codes().T.tolist()
    memo: dict = {}  # the Gibbs chains' conditionals, shared for this call
    out_rows: list[Row] = []
    cells_imputed: dict[str, int] = {}
    attr_hits: dict[str, int] = {}
    combo_totals: dict[tuple[str, ...], int] = {}
    combo_hits: dict[tuple[str, ...], int] = {}
    attr_scored: dict[str, int] = {}
    tuples_imputed = 0
    tuples_scored = 0
    cell_hits = 0
    cell_total = 0
    tuple_hits = 0
    base_seed = gibbs.seed if gibbs else 0

    for i, row in enumerate(table.rows):
        missing = _missing_attrs(net, row)
        if not missing:
            out_rows.append(row)
            continue
        tuples_imputed += 1
        if engine == "exact":
            combo = exact.fill(codes[i], missing)
        else:
            combo = _gibbs_combo(net, row, missing, gibbs, joint, (base_seed, row.id), memo)
        new_row = _fill(net, row, missing, combo)
        out_rows.append(new_row)

        for attr in missing:
            cells_imputed[attr] = cells_imputed.get(attr, 0) + 1
        if truth_by_id is not None:
            true_row = truth_by_id[row.id]
            scored = 0
            row_hits = 0
            for attr in missing:
                actual = net.schema.value(true_row, attr)
                if actual is None:
                    continue  # no answer to grade against
                scored += 1
                cell_total += 1
                attr_scored[attr] = attr_scored.get(attr, 0) + 1
                if net.schema.value(new_row, attr) == actual:
                    cell_hits += 1
                    row_hits += 1
                    attr_hits[attr] = attr_hits.get(attr, 0) + 1
            if scored:
                tuples_scored += 1
                combo_totals[missing] = combo_totals.get(missing, 0) + 1
                if row_hits == scored:
                    tuple_hits += 1
                    combo_hits[missing] = combo_hits.get(missing, 0) + 1

    duration = time.perf_counter() - t0
    if truth_by_id is not None:
        cell_accuracy = cell_hits / cell_total if cell_total else 1.0
        tuple_accuracy = tuple_hits / tuples_scored if tuples_scored else 1.0
        attribute_accuracy = {
            a: attr_hits.get(a, 0) / n for a, n in sorted(attr_scored.items())
        }
        combination_accuracy = {
            c: combo_hits.get(c, 0) / n for c, n in sorted(combo_totals.items())
        }
    else:
        cell_accuracy = tuple_accuracy = None
        attribute_accuracy = combination_accuracy = None
    report = ImputationReport(
        tuples_total=len(table.rows),
        tuples_imputed=tuples_imputed,
        cells_imputed=dict(sorted(cells_imputed.items())),
        cell_accuracy=cell_accuracy,
        tuple_accuracy=tuple_accuracy,
        attribute_accuracy=attribute_accuracy,
        combination_accuracy=combination_accuracy,
        duration_seconds=duration,
    )
    return Table(table.schema, out_rows), report
