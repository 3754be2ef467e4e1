"""Rewriting selection queries to retrieve tuples the query misses.

A tuple whose constrained attribute is null can never be a certain answer,
yet it may well be relevant.  The functions here learn what the relevant
tuples look like and fetch them with rewritten queries that constrain
*other* attributes:

* ``bn_all_mb``: candidate rewrites are the observed value combinations of
  the constrained attributes' Markov blankets; a Bayes net scores how
  strongly each combination implies the original constraint.
* ``bn_beam``: beam search over single-predicate extensions, so rewrites
  may use fewer attributes than the whole blanket.
* ``afd_rewrite_single`` / ``afd_all_attributes`` / ``afd_highest_confidence``:
  the baseline family, scoring with naive Bayes over each constrained
  attribute's best approximate functional dependency.

All strategies score candidates by expected precision (posterior
probability of the original constraint), expected recall (precision times
estimated result size) and their F-measure.  ``afd_all_attributes``, and
``bn_beam`` among its survivors, select their top ``k`` by precision, so
cross-combinations matching nothing in the sample are not ranked out with
F = 0; the others select by F-measure.  The selected rewrites are issued in
decreasing expected-precision order against the source.  Scores compare at
12 significant digits, so rewrites whose scores agree that far (equal in
exact arithmetic, say, but summed in different orders) go by fewer
predicates, then query text.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .afd import Afd, NaiveBayesModel, NoRuleError, NotApplicableError, best_afds
from .bayesnet import BayesNet, _blanket
from .inference import posterior_exact
from .source import AutonomousSource, QueryBudgetError
from .tabular import Row, SelectionQuery, Table, project_distinct, select
from .tabular import _bulk_build, _check_count, _check_scale, _distinct, _fits_dense, _value_counts

__all__ = [
    "QueryScore",
    "RewrittenQuery",
    "RetrievedAnswer",
    "RewritingResult",
    "BeamConfig",
    "f_measure",
    "expected_precision",
    "expected_selectivity",
    "bn_all_mb",
    "bn_beam",
    "afd_rewrite_single",
    "afd_all_attributes",
    "afd_highest_confidence",
    "REWRITING_METHODS",
    "run_method",
]


@dataclass(frozen=True)
class QueryScore:
    """Expected quality of one rewritten query.

    ``precision`` is the probability that a tuple matching the rewrite
    satisfies the original constraint; ``selectivity`` the estimated number
    of matching tuples in the source; ``recall`` their product (an unscaled
    surrogate: the expected count of relevant retrieved tuples); and
    ``f_measure`` the alpha-weighted combination used for ranking.
    """

    precision: float
    selectivity: float
    recall: float
    f_measure: float


@dataclass(frozen=True)
class RewrittenQuery:
    query: SelectionQuery
    score: QueryScore

    def text(self) -> str:
        return self.query.text()


@dataclass(frozen=True)
class RetrievedAnswer:
    """A tuple fetched by a rewritten query.

    ``relevance`` is the expected precision of the first query that
    retrieved the tuple, usable as its relevance estimate.
    """

    row: Row
    relevance: float
    query: SelectionQuery


class _Retrieved(NamedTuple):
    """Retrieved tuples as positions ``at`` in ``table.rows``, the source's
    table, each with ``step``, its index in ``issued``: the query that
    retrieved it first."""

    table: Table
    at: np.ndarray
    step: np.ndarray
    issued: tuple[RewrittenQuery, ...]

    def answers(self) -> list[RetrievedAnswer]:
        """One ``RetrievedAnswer`` per tuple, in retrieval order, its relevance
        and query read from the issued query at its step."""
        if not len(self.at):
            return []
        steps = self.step.tolist()
        relevance = [rq.score.precision for rq in self.issued]
        query = [rq.query for rq in self.issued]
        rows = self.table._take(self.at).rows
        with _bulk_build():
            return list(map(
                RetrievedAnswer, rows, map(relevance.__getitem__, steps), map(query.__getitem__, steps)
            ))


@dataclass(frozen=True)
class RewritingResult:
    """What one rewriting call retrieved.

    ``base`` is the certain answer to the query, the ``Table`` that
    ``AutonomousSource.answer`` gave, ``issued`` the rewrites sent in issue
    order, ``candidates`` the ones selected for issuing and ``truncated``
    whether a budget refusal stopped the issuing.  ``answers`` lists the
    further tuples retrieved, as ``RetrievedAnswer``s in retrieval order.

    A strategy's result keeps those tuples as their positions in the source
    table, each with the step at which it was first retrieved (an index into
    the issued queries as they were issued; the base answer's tuples are
    never among them), and builds ``answers`` from them on its first read,
    then keeps the list.
    Equality, ``repr`` and pickling read ``answers``; a pickle holds the five
    fields, ``base`` as its schema, ids and codes, never the source table.
    """

    base: Table
    answers: list[RetrievedAnswer]
    issued: list[RewrittenQuery]
    candidates: list[RewrittenQuery]
    truncated: bool

    @classmethod
    def _unread(cls, base, retrieved: _Retrieved, issued, candidates, truncated):
        # every field but answers, which __getattr__ builds from retrieved
        result = object.__new__(cls)
        vars(result).update(
            base=base, issued=issued, candidates=candidates, truncated=truncated,
            _retrieved=retrieved,
        )
        return result

    def __getattr__(self, name: str):
        # reached only for a name the instance lacks: answers before its first read
        if name != "answers" or "_retrieved" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        answers = self._retrieved.answers()
        object.__setattr__(self, "answers", answers)
        return answers

    def __reduce__(self):
        fields = (self.base, self.answers, self.issued, self.candidates, self.truncated)
        return RewritingResult, fields


@dataclass(frozen=True)
class BeamConfig:
    """Beam-search knobs: beam width, predicate depth, ranking alpha, and
    how many surviving queries to issue.  ``bn_beam`` checks ``alpha`` and
    ``top_k`` the way every strategy checks its ``alpha`` and ``k``."""

    width: int = 5
    depth: int = 2
    alpha: float = 0.0
    top_k: int = 10

    def __post_init__(self) -> None:
        _check_count("width", self.width, 1)
        _check_count("depth", self.depth, 1)


def f_measure(precision: float, recall: float, alpha: float) -> float:
    """(1 + alpha) * P * R / (alpha * P + R), and 0 when that denominator is 0.

    alpha = 0 is short-circuited to return the precision exactly (for
    positive recall), so ranking by F then coincides bit-for-bit with
    ranking by precision.
    """
    _check_scale("alpha", alpha)
    if alpha == 0:
        return precision if recall > 0 else 0.0
    denom = alpha * precision + recall
    if denom == 0:
        return 0.0
    return (1 + alpha) * precision * recall / denom


def expected_precision(
    net: BayesNet, original: SelectionQuery, candidate: SelectionQuery
) -> float:
    """P(original's values | candidate's values) under the network.

    The attribute sets must be disjoint.  A candidate that the network
    considers impossible scores 0, and so does one holding a value outside
    the network's domains (a source can hold values the model never saw).
    """
    overlap = set(original.attributes) & set(candidate.attributes)
    if overlap:
        raise ValueError(f"candidate constrains original attributes: {sorted(overlap)}")
    if not len(original) or not len(candidate):
        raise ValueError("original and candidate must both be non-empty")
    values = [v for _, v in original.items]
    try:
        return posterior_exact(net, original.attributes, dict(candidate.items), _at=values)
    except ValueError:  # impossible evidence, or a value outside the domains
        return 0.0


def expected_selectivity(
    sample: Table, candidate: SelectionQuery, ratio: float = 1.0
) -> float:
    """Estimated number of source tuples matching the candidate.

    Counts the certain matches ``select`` finds in the sample and scales by
    ``ratio``, the source-size / sample-size factor (see
    AutonomousSource.estimate_ratio).  A candidate holding a value outside
    the sample's domains matches nothing.
    """
    _check_scale("ratio", ratio)
    try:
        return len(select(sample, candidate)) * ratio
    except ValueError:  # a value outside the sample's domains
        return 0.0


def _rank_key(rq: RewrittenQuery) -> tuple:
    # F desc, precision desc, fewer predicates, text asc
    return (-_tie(rq.score.f_measure), -_tie(rq.score.precision), len(rq.query), rq.text())


def _issue_key(rq: RewrittenQuery) -> tuple:
    return (-_tie(rq.score.precision), len(rq.query), rq.text())


def _tie(score: float) -> float:
    # two posteriors equal in exact arithmetic can differ in their last bits;
    # at 12 significant digits they tie, and the text decides
    return float(f"{score:.12g}")


def _issue(queries, source, base_at) -> tuple[_Retrieved, list[RewrittenQuery], bool]:
    # every answer is taken from the source table at its rows' positions, so
    # the tuples already seen are one boolean array over those positions,
    # starting at ``base_at``: the base answer's positions
    table = source._table
    seen = np.zeros(len(table), dtype=bool)
    seen[base_at] = True
    fresh: list[np.ndarray] = []  # per issued query, the positions it retrieved first
    issued: list[RewrittenQuery] = []
    truncated = False
    for rq in sorted(queries, key=_issue_key):
        try:
            taken = source.answer(rq.query)._taken_at()
        except QueryBudgetError:
            truncated = True
            break
        issued.append(rq)
        # positions are unique within one answer, so only earlier answers can repeat them
        fresh.append(taken[~seen[taken]])
        seen[taken] = True
    at = np.concatenate(fresh) if fresh else np.zeros(0, dtype=np.int64)
    step = np.repeat(np.arange(len(fresh)), list(map(len, fresh)))
    return _Retrieved(table, at, step, tuple(issued)), issued, truncated


def _rewrite(model, sample, source, query, k, alpha, sample_ratio, pick, candidates, key):
    """The pipeline of every strategy.  ``pick(query)`` chooses what it
    rewrites through, or raises if it does not apply; ``candidates`` scores
    what it generates from the base answer with ``score``; the top ``k`` by
    ``key`` are issued.  ``model`` is the Bayes net, or the AFD strategies'
    naive Bayes model, whose candidates pass their precision to ``score``.

    ``score`` counts a candidate's sample matches in the count table of its
    attribute set: ``_value_counts`` over the sample, built on the set's
    first candidate in the call where the set's domain product is at most
    the sample's row count (``_fits_dense``); past that it selects from the
    sample per candidate (``expected_selectivity``).  Either way the count is
    the same int, scaled by the same ratio."""
    _check_count("k", k, 1)
    query.validate(model.schema)
    if not len(query):
        raise ValueError("empty query")
    _check_scale("alpha", alpha)
    if sample_ratio is not None:
        _check_scale("ratio", sample_ratio)
    picked = pick(query)
    if sample_ratio is None:
        sample_ratio = source.estimate_ratio(sample)
    base = source.answer(query)
    precisions: dict[SelectionQuery, float] = {}
    schema = sample.schema
    tables: dict[tuple[str, ...], np.ndarray | None] = {}  # None: too wide for one

    def selectivity(candidate: SelectionQuery) -> float:
        try:  # item by item, as expected_selectivity validates
            at = tuple([schema.code(attr, value) for attr, value in candidate.items])
        except ValueError:  # a value outside the sample's domains
            return 0.0
        attrs = candidate.attributes
        if attrs not in tables:
            idx = [schema.index(attr) for attr in attrs]
            sizes = [schema.sizes[j] for j in idx]
            dense = _fits_dense(sizes, len(sample))
            tables[attrs] = _value_counts(sample._column_codes()[idx], sizes) if dense else None
        counts = tables[attrs]
        if counts is None:
            return expected_selectivity(sample, candidate, sample_ratio)
        return int(counts[at]) * sample_ratio

    def score(candidate: SelectionQuery, precision: float | None = None) -> RewrittenQuery:
        # the net's posterior of the query's values, once per candidate
        p = precisions.get(candidate) if precision is None else precision
        if p is None:
            p = precisions[candidate] = expected_precision(model, query, candidate)
        sel = selectivity(candidate)
        r = p * sel
        return RewrittenQuery(candidate, QueryScore(p, sel, r, f_measure(p, r, alpha)))

    selected = sorted(candidates(picked, base, source.schema, score), key=key)[:k]
    retrieved, issued, truncated = _issue(selected, source, base._taken_at())
    return RewritingResult._unread(base, retrieved, issued, selected, truncated)


def _blanket_attrs(net: BayesNet, query: SelectionQuery) -> list[str]:
    return sorted(_blanket(net._families, set(query.attributes))[1])


def _blanket_candidates(cand_attrs, base, schema, score):
    # bn_all_mb's: every distinct null-free combination over the blanket
    combos = project_distinct(schema, base, cand_attrs) if cand_attrs else []
    if not combos:
        cause = (
            "the base result is empty" if not base
            else "the Markov blanket is empty" if not cand_attrs
            else "no base tuple is null-free on the Markov blanket"
        )
        warnings.warn(f"no rewrite candidates: {cause}", stacklevel=4)  # the strategy's caller
    return [score(SelectionQuery._of(tuple(zip(cand_attrs, c)))) for c in combos]


def _beam_candidates(cfg, cand_attrs, base, schema, score):
    # bn_beam's: the last beam's queries with positive F-measure
    if not base:
        warnings.warn("no rewrite candidates: the base result is empty", stacklevel=4)
        return []
    if not cand_attrs:
        warnings.warn("no rewrite candidates: the Markov blanket is empty", stacklevel=4)
        return []
    codes = base._column_codes()
    beam: list[RewrittenQuery] = []
    for level in range(cfg.depth):
        pool: dict[SelectionQuery, RewrittenQuery] = {rq.query: rq for rq in beam}
        parents = [rq.query for rq in beam] if level else [SelectionQuery()]
        for parent in parents:
            used = set(parent.attributes)
            keep = base._matching(parent)  # the base tuples that match the partial query
            for attr in cand_attrs:
                if attr in used:
                    continue
                j = schema.index(attr)
                for (value,) in _distinct(schema, codes[None, j, keep], [j]):
                    cand = parent.extended(attr, value)
                    if cand not in pool:
                        pool[cand] = score(cand)
        beam = sorted(pool.values(), key=_rank_key)[: cfg.width]
    return [rq for rq in beam if rq.score.f_measure > 0]


def bn_all_mb(
    net: BayesNet,
    sample: Table,
    source: AutonomousSource,
    query: SelectionQuery,
    k: int = 10,
    alpha: float = 0.0,
    sample_ratio: float | None = None,
) -> RewritingResult:
    """Rewriting over full Markov-blanket value combinations.

    The candidate attribute set is the union of the constrained attributes'
    Markov blankets minus the constrained attributes themselves.  Candidates
    are the distinct null-free projections of the base result onto that set;
    the top ``k`` by F-measure are issued in decreasing expected precision.

    With an empty base result there is nothing to project: a warning is
    raised and no rewrites are issued.

    ``sample_ratio`` scales sample match counts up to source-size estimates;
    when None it is measured with one extra probe of the source.
    """
    return _rewrite(
        net, sample, source, query, k, alpha, sample_ratio, partial(_blanket_attrs, net),
        _blanket_candidates, _rank_key,
    )


def bn_beam(
    net: BayesNet,
    sample: Table,
    source: AutonomousSource,
    query: SelectionQuery,
    cfg: BeamConfig | None = None,
    sample_ratio: float | None = None,
) -> RewritingResult:
    """Beam search over rewrites of one to ``cfg.depth`` predicates.

    Level 1 scores every single-predicate query over the candidate
    attributes, keeping the best ``cfg.width``.  Each further level extends
    every kept query by one predicate; the pool keeps the previous level's
    queries, so short rewrites can outrank long ones.  Predicate values are
    the distinct non-null values among base tuples matching the partial
    query.
    After the last level, queries with zero F-measure are dropped and the
    top ``cfg.top_k`` survivors are issued in decreasing expected precision.
    The survivors come from the last beam, which holds at most ``cfg.width``
    queries, so no more than ``cfg.width`` are issued, whatever ``cfg.top_k``
    is: ``BeamConfig(5, 2, 0.0, 20)`` issues 5 at most.
    """
    cfg = cfg or BeamConfig()
    return _rewrite(
        net, sample, source, query, cfg.top_k, cfg.alpha, sample_ratio,
        partial(_blanket_attrs, net), partial(_beam_candidates, cfg),
        _issue_key,
    )


# ---------------------------------------------------------------------------
# AFD baseline strategies


def _afd_rules(afds: Sequence[Afd], query: SelectionQuery, how: str) -> dict[str, Afd]:
    # the rules an AFD strategy rewrites through, by constrained attribute:
    # the one most confident rule, or each attribute's best, whose
    # determining sets must be disjoint ("single" also wants one attribute)
    if how == "single" and len(query) != 1:
        raise NotApplicableError("afd_rewrite_single takes a single-attribute query")
    best = best_afds(afds, exclude=query.attributes)
    if how == "most confident":
        available = [a for a in query.attributes if a in best]
        if not available:
            raise NoRuleError(f"no rule for any of the attributes {list(query.attributes)!r}")
        pick = min(available, key=lambda a: (-best[a].confidence, a))
        return {pick: best[pick]}
    for attr in query.attributes:
        if attr not in best:
            raise NoRuleError(f"no rule for attribute {attr!r}")
    for a, b in itertools.combinations(query.attributes, 2):
        shared = set(best[a].determining) & set(best[b].determining)
        if shared:
            raise NotApplicableError(
                f"not applicable: determining sets of {a!r} and {b!r} share {sorted(shared)}"
            )
    return {attr: best[attr] for attr in query.attributes}


def _nb_precision(model: NaiveBayesModel, attr: str, value: str, candidate: SelectionQuery) -> float:
    try:
        probs = model.posterior(attr, dict(candidate.items))
    except ValueError:  # a candidate value outside the model's domains
        return 0.0
    return float(probs[model.schema.code(attr, value)])


def _afd_candidates(model, query, rules, base, schema, score):
    # per rewritten attribute, the base's distinct combinations over its
    # rule's determining set; a cross-combination's precision is the product
    # of its parts' naive Bayes precisions
    per_attr = []
    for attr, afd in rules.items():
        value = query.value(attr)
        parts = [SelectionQuery._of(tuple(zip(afd.determining, c)))
                 for c in project_distinct(schema, base, afd.determining)]
        per_attr.append([(cand, _nb_precision(model, attr, value, cand)) for cand in parts])
    scored = []
    for parts in itertools.product(*per_attr):
        queries, precisions = zip(*parts)  # one part's query is its own
        cand = SelectionQuery(sum((q.items for q in queries), ())) if queries[1:] else queries[0]
        scored.append(score(cand, math.prod(precisions)))
    return scored


def afd_rewrite_single(
    afds: Sequence[Afd],
    model: NaiveBayesModel,
    sample: Table,
    source: AutonomousSource,
    query: SelectionQuery,
    k: int = 10,
    alpha: float = 0.0,
    sample_ratio: float | None = None,
) -> RewritingResult:
    """Baseline rewriting for a single-attribute query.

    Candidates are the base result's distinct value combinations over the
    constrained attribute's best AFD determining set, scored by the naive
    Bayes probability of the original value.  Top ``k`` by F-measure,
    issued in decreasing expected precision.

    Raises
    ------
    NotApplicableError
        If the query constrains more than one attribute.
    NoRuleError
        If no usable AFD exists for the constrained attribute.
    """
    return _rewrite(
        model, sample, source, query, k, alpha, sample_ratio,
        partial(_afd_rules, afds, how="single"), partial(_afd_candidates, model, query), _rank_key,
    )


def afd_all_attributes(
    afds: Sequence[Afd],
    model: NaiveBayesModel,
    sample: Table,
    source: AutonomousSource,
    query: SelectionQuery,
    k: int = 10,
    alpha: float = 0.0,
    sample_ratio: float | None = None,
) -> RewritingResult:
    """Baseline rewriting that respects every constrained attribute.

    Each constrained attribute is rewritten through its own best AFD; the
    candidates are all cross-combinations, one component per attribute, with
    expected precision the product of the component precisions.  Candidates
    matching nothing in the sample are kept (their selectivity is 0): the
    top ``k`` by expected precision, not F-measure, are issued in decreasing
    expected precision.

    Raises
    ------
    NoRuleError
        If some constrained attribute has no usable AFD.
    NotApplicableError
        If the best AFDs' determining sets overlap.
    """
    return _rewrite(
        model, sample, source, query, k, alpha, sample_ratio,
        partial(_afd_rules, afds, how="every"), partial(_afd_candidates, model, query), _issue_key,
    )


def afd_highest_confidence(
    afds: Sequence[Afd],
    model: NaiveBayesModel,
    sample: Table,
    source: AutonomousSource,
    query: SelectionQuery,
    k: int = 10,
    alpha: float = 0.0,
    sample_ratio: float | None = None,
) -> RewritingResult:
    """Baseline rewriting through the single most confident AFD.

    Only the constrained attribute whose best AFD has the highest confidence
    is rewritten; the other constraints are simply dropped, which buys
    applicability at the cost of precision.

    Raises
    ------
    NoRuleError
        If no constrained attribute has a usable AFD.
    """
    return _rewrite(
        model, sample, source, query, k, alpha, sample_ratio,
        partial(_afd_rules, afds, how="most confident"), partial(_afd_candidates, model, query),
        _rank_key,
    )


# every strategy by the name the harness and the CLI give it
_METHODS = {
    "bn-all-mb": lambda m, beam, *args: bn_all_mb(m.net, *args),
    "bn-beam": lambda m, beam, sample, source, query, k, alpha, ratio: bn_beam(
        m.net, sample, source, query, BeamConfig(*beam, alpha, k), ratio
    ),
    "afd": lambda m, beam, *args: afd_rewrite_single(m.afds, m.nb, *args),
    "afd-all-attributes": lambda m, beam, *args: afd_all_attributes(m.afds, m.nb, *args),
    "afd-highest-confidence": lambda m, beam, *args: afd_highest_confidence(m.afds, m.nb, *args),
}
REWRITING_METHODS = tuple(_METHODS)


def run_method(
    method: str, models, sample: Table, source: AutonomousSource, query: SelectionQuery,
    k: int = 10, alpha: float = 0.0, sample_ratio: float | None = None,
    beam_width: int = 5, beam_depth: int = 2,
) -> RewritingResult:
    """Run the strategy named ``method``, one of ``REWRITING_METHODS``.

    Only what that strategy needs is read from ``models``: ``net`` for the
    ``bn-*`` methods, ``afds`` and ``nb`` (a NaiveBayesModel) for the
    ``afd*`` ones.  ``beam_width`` and ``beam_depth`` are ``bn-beam``'s.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    run = _METHODS[method]
    return run(models, (beam_width, beam_depth), sample, source, query, k, alpha, sample_ratio)
