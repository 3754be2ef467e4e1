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

All strategies rank by F-measure over expected precision (posterior
probability of the original constraint) and expected recall (precision
times estimated result size), then issue the survivors in decreasing
expected-precision order against the source.
"""

from __future__ import annotations

import itertools
import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .afd import Afd, NaiveBayesModel, NoRuleError, NotApplicableError, best_afds
from .bayesnet import BayesNet, markov_blanket
from .inference import posterior_exact
from .source import AutonomousSource, QueryBudgetError
# select is no longer called here, but perfbench/tracing.py patches this name
from .tabular import Row, Schema, SelectionQuery, Table, project_distinct, select  # noqa: F401

__all__ = [
    "QueryScore",
    "RewrittenQuery",
    "RetrievedAnswer",
    "RewritingResult",
    "BeamConfig",
    "f_measure",
    "expected_precision",
    "expected_selectivity",
    "order_and_issue",
    "bn_all_mb",
    "bn_beam",
    "afd_rewrite_single",
    "afd_all_attributes",
    "afd_highest_confidence",
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


@dataclass(frozen=True)
class RewritingResult:
    base: list[Row]
    answers: list[RetrievedAnswer]
    issued: list[RewrittenQuery]
    candidates: list[RewrittenQuery]
    truncated: bool


@dataclass(frozen=True)
class BeamConfig:
    """Beam-search knobs: beam width, predicate depth, ranking alpha, and
    how many surviving queries to issue."""

    width: int = 5
    depth: int = 2
    alpha: float = 0.0
    top_k: int = 10

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")


def f_measure(precision: float, recall: float, alpha: float) -> float:
    """(1 + alpha) * P * R / (alpha * P + R), and 0 when that denominator is 0.

    alpha = 0 is short-circuited to return the precision exactly (for
    positive recall), so ranking by F then coincides bit-for-bit with
    ranking by precision.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
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
    try:
        dist = posterior_exact(net, original.attributes, dict(candidate.items))
    except ValueError:  # impossible evidence, or a value outside the domains
        return 0.0
    return dist.prob([v for _, v in original.items])


def expected_selectivity(
    sample: Table, candidate: SelectionQuery, ratio: float = 1.0
) -> float:
    """Estimated number of source tuples matching the candidate.

    Counts certain matches in the sample and scales by ``ratio``, the
    source-size / sample-size factor (see AutonomousSource.estimate_ratio).
    A candidate holding a value outside the sample's domains matches nothing.
    """
    if ratio < 0:
        raise ValueError("ratio must be >= 0")
    try:
        candidate.validate(sample.schema)
    except ValueError:  # a value outside the sample's domains
        return 0.0
    return int(np.count_nonzero(sample.mask(candidate))) * ratio


class _Scorer:
    """Scores candidates against one original query, caching posteriors."""

    def __init__(self, net, sample, original, alpha, ratio):
        self.net = net
        self.sample = sample
        self.original = original
        self.alpha = alpha
        self.ratio = ratio
        self._cache: dict[SelectionQuery, float] = {}

    def score(self, candidate: SelectionQuery) -> RewrittenQuery:
        p = self._cache.get(candidate)
        if p is None:
            p = expected_precision(self.net, self.original, candidate)
            self._cache[candidate] = p
        sel = expected_selectivity(self.sample, candidate, self.ratio)
        r = p * sel
        return RewrittenQuery(candidate, QueryScore(p, sel, r, f_measure(p, r, self.alpha)))


def _rank_key(rq: RewrittenQuery) -> tuple:
    # F desc, precision desc, fewer predicates, text asc
    return (-rq.score.f_measure, -rq.score.precision, len(rq.query), rq.text())


def _issue_key(rq: RewrittenQuery) -> tuple:
    return (-rq.score.precision, len(rq.query), rq.text())


def order_and_issue(
    queries: Iterable[RewrittenQuery],
    source: AutonomousSource,
    limit: int | None = None,
    exclude_ids: Iterable[int] = (),
) -> tuple[list[RetrievedAnswer], list[RewrittenQuery], bool]:
    """Issue rewritten queries in decreasing expected precision.

    At most ``limit`` queries are sent.  Retrieved tuples are deduplicated
    by id (the first retrieving query wins and provides the relevance
    annotation) and tuples with ids in ``exclude_ids`` are dropped.  A
    budget refusal stops issuing but keeps everything already retrieved;
    the returned flag says whether that happened.
    """
    ordered = sorted(queries, key=_issue_key)
    if limit is not None:
        ordered = ordered[:limit]
    excluded = set(exclude_ids)
    seen: set[int] = set(excluded)
    answers: list[RetrievedAnswer] = []
    issued: list[RewrittenQuery] = []
    truncated = False
    for rq in ordered:
        try:
            rows = source.answer(rq.query)
        except QueryBudgetError:
            truncated = True
            break
        issued.append(rq)
        # ids are unique within one answer, so only earlier answers can repeat them
        fresh = [row for row in rows if row.id not in seen]
        seen.update([row.id for row in fresh])
        precision, query = rq.score.precision, rq.query
        answers.extend([RetrievedAnswer(row, precision, query) for row in fresh])
    return answers, issued, truncated


def _issue(
    base: list[Row], selected: list[RewrittenQuery], source: AutonomousSource, limit: int
) -> RewritingResult:
    answers, issued, truncated = order_and_issue(
        selected, source, limit=limit, exclude_ids=[r.id for r in base]
    )
    return RewritingResult(base, answers, issued, selected, truncated)


def _blanket_attrs(net: BayesNet, query: SelectionQuery) -> list[str]:
    out: set[str] = set()
    for attr in query.attributes:
        out.update(markov_blanket(net, attr))
    return sorted(out - set(query.attributes))


def bn_all_mb(
    net: BayesNet,
    sample: Table,
    source: AutonomousSource,
    query: SelectionQuery,
    k: int = 10,
    alpha: float = 0.0,
    sample_ratio: float | None = None,
    expand_empty_base: bool = False,
) -> RewritingResult:
    """Rewriting over full Markov-blanket value combinations.

    The candidate attribute set is the union of the constrained attributes'
    Markov blankets minus the constrained attributes themselves.  Candidates
    are the distinct null-free projections of the base result onto that set;
    the top ``k`` by F-measure are issued in decreasing expected precision.

    With an empty base result there is nothing to project: by default a
    warning is raised and no rewrites are issued, while ``expand_empty_base``
    falls back to the full cross product of the candidate attributes'
    domains (use only with tiny domains).

    ``sample_ratio`` scales sample match counts up to source-size estimates;
    when None it is measured with one extra probe of the source.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    query.validate(net.schema)
    if not len(query):
        raise ValueError("empty query")
    if sample_ratio is None:
        sample_ratio = source.estimate_ratio(sample)
    base = source.answer(query)
    cand_attrs = _blanket_attrs(net, query)
    combos: list[tuple[str, ...]]
    if not base and expand_empty_base:
        combos = (
            list(itertools.product(*[net.schema.domain(a) for a in cand_attrs]))
            if cand_attrs
            else []
        )
    else:
        combos = project_distinct(source.schema, base, cand_attrs) if cand_attrs else []
    if not combos:
        warnings.warn(
            "no rewrite candidates: "
            + ("the base result is empty" if not base else "the Markov blanket is empty"),
            stacklevel=2,
        )
        return RewritingResult(base, [], [], [], False)
    scorer = _Scorer(net, sample, query, alpha, sample_ratio)
    scored = [scorer.score(SelectionQuery(zip(cand_attrs, c))) for c in combos]
    scored.sort(key=_rank_key)
    selected = scored[:k]
    return _issue(base, selected, source, k)


def bn_beam(
    net: BayesNet,
    sample: Table,
    source: AutonomousSource,
    query: SelectionQuery,
    cfg: BeamConfig | None = None,
    sample_ratio: float | None = None,
    expand_empty_base: bool = False,
) -> RewritingResult:
    """Beam search over rewrites of one to ``cfg.depth`` predicates.

    Level 1 scores every single-predicate query over the candidate
    attributes, keeping the best ``cfg.width``.  Each further level extends
    every kept query by one predicate; the pool keeps the previous level's
    queries, so short rewrites can outrank long ones.  Predicate values are
    the distinct non-null values among base tuples matching the partial
    query (or full domains under ``expand_empty_base`` with an empty base).
    After the last level, queries with zero F-measure are dropped and the
    top ``cfg.top_k`` survivors are issued in decreasing expected precision.
    """
    cfg = cfg or BeamConfig()
    query.validate(net.schema)
    if not len(query):
        raise ValueError("empty query")
    if sample_ratio is None:
        sample_ratio = source.estimate_ratio(sample)
    base = source.answer(query)
    cand_attrs = _blanket_attrs(net, query)
    use_domains = not base and expand_empty_base
    if not base and not use_domains:
        warnings.warn("no rewrite candidates: the base result is empty", stacklevel=2)
        return RewritingResult(base, [], [], [], False)
    if not cand_attrs:
        warnings.warn("no rewrite candidates: the Markov blanket is empty", stacklevel=2)
        return RewritingResult(base, [], [], [], False)

    scorer = _Scorer(net, sample, query, cfg.alpha, sample_ratio)
    schema = source.schema  # base rows are in the source's column order
    cells = [r.cells for r in base]

    def matching(partial: SelectionQuery) -> list[tuple[str | None, ...]]:
        if use_domains or not len(partial):
            return cells
        wanted = {schema.index(a): v for a, v in partial.items}
        key = itemgetter(*wanted)
        target = key(wanted)  # a bare value for one predicate, a tuple for several, as key(c)
        return [c for c in cells if key(c) == target]

    def values_for(rows: list[tuple[str | None, ...]], attr: str) -> Sequence[str]:
        if use_domains:
            return net.schema.domain(attr)
        column = map(itemgetter(schema.index(attr)), rows)
        return [v for v in dict.fromkeys(column) if v is not None]

    beam: list[RewrittenQuery] = []
    for level in range(cfg.depth):
        pool: dict[SelectionQuery, RewrittenQuery] = {rq.query: rq for rq in beam}
        parents = beam if level else [RewrittenQuery(SelectionQuery(), QueryScore(0, 0, 0, 0))]
        for parent in parents:
            used = set(parent.query.attributes)
            rows = matching(parent.query)
            for attr in cand_attrs:
                if attr in used:
                    continue
                for value in values_for(rows, attr):
                    cand = parent.query.extended(attr, value)
                    if cand not in pool:
                        pool[cand] = scorer.score(cand)
        beam = sorted(pool.values(), key=_rank_key)[: cfg.width]

    survivors = [rq for rq in beam if rq.score.f_measure > 0]
    survivors.sort(key=_issue_key)
    selected = survivors[: cfg.top_k]
    return _issue(base, selected, source, cfg.top_k)


# ---------------------------------------------------------------------------
# AFD baseline strategies


class _NbScorer:
    """Like _Scorer but precision comes from per-attribute naive Bayes."""

    def __init__(self, model, sample, alpha, ratio):
        self.model = model
        self.sample = sample
        self.alpha = alpha
        self.ratio = ratio

    def score(self, candidate: SelectionQuery, precision: float) -> RewrittenQuery:
        sel = expected_selectivity(self.sample, candidate, self.ratio)
        r = precision * sel
        return RewrittenQuery(
            candidate, QueryScore(precision, sel, r, f_measure(precision, r, self.alpha))
        )


def _nb_precision(model: NaiveBayesModel, attr: str, value: str, candidate: SelectionQuery) -> float:
    try:
        probs = model.posterior(attr, dict(candidate.items))
    except ValueError:  # a candidate value outside the model's domains
        return 0.0
    return float(probs[model.schema.domain(attr).index(value)])


def _single_candidates(
    afd: Afd,
    model: NaiveBayesModel,
    attr: str,
    value: str,
    base: Sequence[Row],
    schema: Schema,
) -> list[tuple[SelectionQuery, float]]:
    combos = project_distinct(schema, base, afd.determining)
    out = []
    for combo in combos:
        cand = SelectionQuery(zip(afd.determining, combo))
        out.append((cand, _nb_precision(model, attr, value, cand)))
    return out


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
    if len(query) != 1:
        raise NotApplicableError("afd_rewrite_single takes a single-attribute query")
    if k < 1:
        raise ValueError("k must be >= 1")
    query.validate(model.schema)
    attr, value = query.items[0]
    best = best_afds(afds, exclude=query.attributes)
    afd = best.get(attr)
    if afd is None:
        raise NoRuleError(f"no rule for attribute {attr!r}")
    if sample_ratio is None:
        sample_ratio = source.estimate_ratio(sample)
    base = source.answer(query)
    scorer = _NbScorer(model, sample, alpha, sample_ratio)
    candidates = _single_candidates(afd, model, attr, value, base, source.schema)
    scored = [scorer.score(c, p) for c, p in candidates]
    scored.sort(key=_rank_key)
    selected = scored[:k]
    return _issue(base, selected, source, k)


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
    matching nothing in the sample are kept (their selectivity is 0).

    Raises
    ------
    NoRuleError
        If some constrained attribute has no usable AFD.
    NotApplicableError
        If the best AFDs' determining sets overlap.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    query.validate(model.schema)
    best = best_afds(afds, exclude=query.attributes)
    chosen: dict[str, Afd] = {}
    for attr in query.attributes:
        afd = best.get(attr)
        if afd is None:
            raise NoRuleError(f"no rule for attribute {attr!r}")
        chosen[attr] = afd
    for a, b in itertools.combinations(query.attributes, 2):
        shared = set(chosen[a].determining) & set(chosen[b].determining)
        if shared:
            raise NotApplicableError(
                f"not applicable: determining sets of {a!r} and {b!r} share {sorted(shared)}"
            )
    if sample_ratio is None:
        sample_ratio = source.estimate_ratio(sample)
    base = source.answer(query)
    per_attr = [
        _single_candidates(chosen[attr], model, attr, query.value(attr), base, source.schema)
        for attr in query.attributes
    ]
    scorer = _NbScorer(model, sample, alpha, sample_ratio)
    scored = []
    for parts in itertools.product(*per_attr):
        predicates: list[tuple[str, str]] = []
        precision = 1.0
        for cand, p in parts:
            predicates.extend(cand.items)
            precision *= p
        scored.append(scorer.score(SelectionQuery(predicates), precision))
    scored.sort(key=_issue_key)
    selected = scored[:k]
    return _issue(base, selected, source, k)


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
    if k < 1:
        raise ValueError("k must be >= 1")
    query.validate(model.schema)
    best = best_afds(afds, exclude=query.attributes)
    available = [a for a in query.attributes if a in best]
    if not available:
        raise NoRuleError(
            f"no rule for any of the attributes {list(query.attributes)!r}"
        )
    pick = min(available, key=lambda a: (-best[a].confidence, a))
    if sample_ratio is None:
        sample_ratio = source.estimate_ratio(sample)
    base = source.answer(query)
    afd = best[pick]
    scorer = _NbScorer(model, sample, alpha, sample_ratio)
    scored = [
        scorer.score(c, p)
        for c, p in _single_candidates(afd, model, pick, query.value(pick), base, source.schema)
    ]
    scored.sort(key=_rank_key)
    selected = scored[:k]
    return _issue(base, selected, source, k)
