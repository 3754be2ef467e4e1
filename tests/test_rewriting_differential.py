"""Differential tests: the rewriting helpers against their per-row originals.

``project_distinct`` deduplicates the code matrix's columns with one key
each (sliced from the source table's cached matrix for an answer, encoded
for any other rows), ``expected_selectivity`` counts the rows ``select``
finds, ``expected_precision`` reads one entry of the eliminated array,
``rewriting._issue`` dedups answers over source positions, ``bn_beam``
splits the base at the positions ``Table._matching`` finds, and
``NaiveBayesModel.posterior`` reads priors and denominators computed once per
model.  Strategies keep their answers as source positions and build the
``RetrievedAnswer``s on first read, and the harness counts its PR curves at
those positions.  The references below are the versions they replaced, kept
verbatim.  Every output must be equal with ``==`` (or
``np.array_equal``), exceptions included, and whole ``RewritingResult``s of
all five strategies must not change when the references are patched in.
"""

import warnings
from collections import Counter
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nullbayes.harness as harness
import nullbayes.rewriting as rw
import nullbayes.tabular as tabular
from nullbayes import (
    AutonomousSource,
    BayesNet,
    BeamConfig,
    ExperimentConfig,
    NaiveBayesModel,
    QueryBudgetError,
    Row,
    Schema,
    SelectionQuery,
    Table,
    afd_all_attributes,
    afd_highest_confidence,
    afd_rewrite_single,
    align_table,
    bn_all_mb,
    bn_beam,
    expected_selectivity,
    fit_naive_bayes,
    inject_nulls,
    mine_afds,
    expected_precision,
    posterior_exact,
    project_distinct,
    run_rewriting_experiment,
    sample_rows,
    select,
)
from nullbayes.harness import PrPoint
from nullbayes.rewriting import QueryScore, RetrievedAnswer, RewritingResult, RewrittenQuery
from nullbayes.synth import car_demo_net, random_net

from conftest import with_unseen_values

# ---------------------------------------------------------------------------
# the replaced code, verbatim


def _old_project_distinct(schema, rows, attrs):
    idx = [schema.index(a) for a in attrs]
    seen = set()
    out = []
    for row in rows:
        combo = tuple(row.cells[i] for i in idx)
        if any(c is None for c in combo):
            continue
        if combo not in seen:
            seen.add(combo)
            out.append(combo)
    return out


def _old_expected_selectivity(sample, candidate, ratio=1.0):
    if ratio < 0:
        raise ValueError("ratio must be >= 0")
    try:
        matches = select(sample, candidate)
    except ValueError:  # select rejects a value outside the sample's domains
        return 0.0
    return len(matches) * ratio


def _old_expected_precision(net, original, candidate):
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


def _old_rank_key(rq):
    # F desc, precision desc, fewer predicates, text asc
    return (-_old_tie(rq.score.f_measure), -_old_tie(rq.score.precision), len(rq.query), rq.text())


def _old_issue_key(rq):
    return (-_old_tie(rq.score.precision), len(rq.query), rq.text())


def _old_tie(score):
    # two posteriors equal in exact arithmetic can differ in their last bits;
    # at 12 significant digits they tie, and the text decides
    return float(f"{score:.12g}")


def _old_order_and_issue(queries, source, limit=None, exclude_ids=()):
    ordered = sorted(queries, key=_old_issue_key)
    if limit is not None:
        ordered = ordered[:limit]
    excluded = set(exclude_ids)
    seen = set(excluded)
    answers = []
    issued = []
    truncated = False
    for rq in ordered:
        try:
            rows = source.answer(rq.query)
        except QueryBudgetError:
            truncated = True
            break
        issued.append(rq)
        for row in rows:
            if row.id in seen:
                continue
            seen.add(row.id)
            answers.append(RetrievedAnswer(row, rq.score.precision, rq.query))
    return answers, issued, truncated


def _old_posterior(self, target, evidence):
    dom = self.schema.domain(target)
    counts = self._class_counts[target]
    probs = (counts + 1.0) / (counts.sum() + len(dom))
    for attr, value in sorted(evidence.items()):
        if attr == target:
            raise ValueError(f"evidence on the target attribute {target!r}")
        fdom = self.schema.domain(attr)
        if value not in fdom:
            raise ValueError(f"value {value!r} not in domain of {attr!r}")
        pair = self._pair_counts[(attr, target)]
        col = pair[fdom.index(value), :]
        per_class = pair.sum(axis=0)
        probs = probs * (col + 1.0) / (per_class + len(fdom))
    total = probs.sum()
    return probs / total


class _Scorer:
    """Scores candidates against one original query.

    Precision is the Bayes net ``model``'s posterior of the original values
    given the candidate's (cached per candidate), unless the caller passes it
    in: the AFD strategies compute theirs with their naive Bayes ``model``.
    """

    # verbatim but for the ``rw.`` prefixes, so that the reference helpers
    # patched into ``rw`` serve this copy as they served the original

    def __init__(self, model, sample, original, alpha, ratio):
        self.model = model
        self.sample = sample
        self.original = original
        self.alpha = alpha
        self.ratio = ratio
        self._cache: dict[SelectionQuery, float] = {}

    def score(self, candidate: SelectionQuery, precision: float | None = None) -> RewrittenQuery:
        p = self._cache.get(candidate) if precision is None else precision
        if p is None:
            p = self._cache[candidate] = rw.expected_precision(self.model, self.original, candidate)
        sel = rw.expected_selectivity(self.sample, candidate, self.ratio)
        r = p * sel
        return RewrittenQuery(candidate, QueryScore(p, sel, r, rw.f_measure(p, r, self.alpha)))


def _old_bn_beam(net, sample, source, query, cfg=None, sample_ratio=None, expand_empty_base=False):
    cfg = cfg or BeamConfig()
    query.validate(net.schema)
    if not len(query):
        raise ValueError("empty query")
    if sample_ratio is None:
        sample_ratio = source.estimate_ratio(sample)
    base = source.answer(query)
    cand_attrs = rw._blanket_attrs(net, query)
    use_domains = not base and expand_empty_base
    if not base and not use_domains:
        warnings.warn("no rewrite candidates: the base result is empty", stacklevel=2)
        return RewritingResult(base, [], [], [], False)
    if not cand_attrs:
        warnings.warn("no rewrite candidates: the Markov blanket is empty", stacklevel=2)
        return RewritingResult(base, [], [], [], False)

    scorer = _Scorer(net, sample, query, cfg.alpha, sample_ratio)
    schema = source.schema  # base rows are in the source's column order

    def values_for(partial, attr):
        if use_domains:
            return list(net.schema.domain(attr))
        matching = [r for r in base if partial.matches(schema, r)]
        i = schema.index(attr)
        seen = set()
        vals = []
        for r in matching:
            v = r.cells[i]
            if v is not None and v not in seen:
                seen.add(v)
                vals.append(v)
        return vals

    beam = []
    for level in range(cfg.depth):
        pool = {rq.query: rq for rq in beam}
        parents = beam if level else [RewrittenQuery(SelectionQuery(), QueryScore(0, 0, 0, 0))]
        for parent in parents:
            used = set(parent.query.attributes)
            for attr in cand_attrs:
                if attr in used:
                    continue
                for value in values_for(parent.query, attr):
                    cand = parent.query.extended(attr, value)
                    if cand not in pool:
                        pool[cand] = scorer.score(cand)
        beam = sorted(pool.values(), key=_old_rank_key)[: cfg.width]

    survivors = [rq for rq in beam if rq.score.f_measure > 0]
    survivors.sort(key=_old_issue_key)
    selected = survivors[: cfg.top_k]
    # the original called the public issuing function, which the test below patched to this
    answers, issued, truncated = _old_order_and_issue(
        selected, source, limit=cfg.top_k, exclude_ids=[r.id for r in base]
    )
    return RewritingResult(base, answers, issued, selected, truncated)


def _outcome(fn, *args, **kwargs):
    """The value, or the exception's type and message, plus any warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = ("ok", fn(*args, **kwargs))
        except (ValueError, LookupError) as exc:
            value = ("raised", type(exc), str(exc))
    return value, [str(w.message) for w in caught]


# ---------------------------------------------------------------------------
# strategies

_LABELS = ("a", "b", "c")
_UNSEEN = "zz"  # never in a domain
_UNKNOWN_ATTR = "Q"  # never in a schema; sorts after every A<i>


@st.composite
def tables(draw):
    n_attrs = draw(st.integers(1, 4))
    attrs = [f"A{i}" for i in range(n_attrs)]
    domains = {
        a: draw(st.lists(st.sampled_from(_LABELS), min_size=1, max_size=3, unique=True))
        for a in attrs
    }
    n_rows = draw(st.integers(0, 20))
    # few labels per attribute, so projections repeat
    rows = [
        Row(i, tuple(draw(st.one_of(st.none(), st.sampled_from(domains[a]))) for a in attrs))
        for i in draw(st.permutations(range(n_rows)))
    ]
    return Table(Schema(attrs, domains), rows)


def queries(schema, unknown=False):
    """Queries over a subset of the schema, values in or out of the domain."""
    attrs = list(schema.attributes) + ([_UNKNOWN_ATTR] if unknown else [])
    return st.lists(st.sampled_from(attrs), unique=True, max_size=len(attrs)).flatmap(
        lambda chosen: st.tuples(
            *[st.sampled_from(schema.domains.get(a, _LABELS) + (_UNSEEN,)) for a in chosen]
        ).map(lambda values: SelectionQuery(zip(chosen, values)))
    )


# ---------------------------------------------------------------------------
# helpers, one at a time


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_project_distinct_matches_reference(data):
    table = data.draw(tables())
    rows = data.draw(st.lists(st.sampled_from(table.rows), max_size=30)) if len(table) else []
    attrs = data.draw(st.lists(st.sampled_from(table.schema.attributes), max_size=5))
    got = project_distinct(table.schema, rows, attrs)
    assert got == _old_project_distinct(table.schema, rows, attrs)
    assert all(type(combo) is tuple for combo in got)


def test_project_distinct_edge_cases(demo_table):
    schema, rows = demo_table.schema, list(demo_table.rows)
    for attrs in ((), ("Make",), ("Make", "Body"), ("Body", "Make", "Body")):
        for subset in (rows, rows[:1], [], rows * 2):
            got = project_distinct(schema, subset, attrs)
            assert got == _old_project_distinct(schema, subset, attrs)
    assert project_distinct(schema, rows, ()) == [()]
    assert project_distinct(schema, [], ()) == []
    for subset in (rows, []):
        with pytest.raises(KeyError):
            project_distinct(schema, subset, ("Make", "Colour"))


def _encoding():
    """A spy on the cell encoder: its calls show which path a projection took."""
    return mock.patch.object(tabular, "_encode", wraps=tabular._encode)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_project_distinct_of_an_answer_reads_the_code_matrix(data):
    table = data.draw(tables())
    attributes = data.draw(st.permutations(table.schema.attributes))
    table = align_table(table, Schema(attributes, table.schema.domains))
    schema = table.schema
    rows = AutonomousSource(table).answer(data.draw(queries(schema)))
    # repeated attributes, and labels in the domains that no row holds
    attrs = data.draw(st.lists(st.sampled_from(schema.attributes), max_size=5))
    want = _old_project_distinct(schema, rows, attrs)
    with _encoding() as encode:
        for same in (schema, Schema(schema.attributes, schema.domains)):
            assert project_distinct(same, rows, attrs) == want
        assert not encode.called
        for plain in (list(rows), tuple(rows)):
            assert project_distinct(schema, plain, attrs) == want
        assert encode.call_count == 2


def test_project_distinct_of_answers_edge_cases():
    for _, world, attr, value, tables_ in _WORLDS:
        for table in tables_.values():  # plain, permuted, unseen values, empty base
            schema = table.schema
            source = AutonomousSource(table)
            blanket = rw._blanket_attrs(world["net"], SelectionQuery({attr: value}))
            for query in (SelectionQuery({attr: value}), SelectionQuery({attr: _UNSEEN})):
                rows = source.answer(query)
                for attrs in ((), blanket, blanket[::-1] + blanket[:1], schema.attributes):
                    want = _old_project_distinct(schema, rows, attrs)
                    with _encoding() as encode:
                        assert project_distinct(schema, rows, attrs) == want
                    assert not encode.called
                    assert project_distinct(schema, tuple(rows), attrs) == want
                with pytest.raises(KeyError):
                    project_distinct(schema, rows, (attr, _UNKNOWN_ATTR))


_CHANGES = {
    "append": lambda rows: rows.append(rows[0]),
    "extend": lambda rows: rows.extend(rows[:1]),
    "insert": lambda rows: rows.insert(0, rows[-1]),
    "pop": lambda rows: rows.pop(0),
    "remove": lambda rows: rows.remove(rows[0]),
    "reverse": lambda rows: rows.reverse(),
    "sort": lambda rows: rows.sort(key=lambda r: -r.id),
    "setitem": lambda rows: rows.__setitem__(0, rows[-1]),
    "delitem": lambda rows: rows.__delitem__(slice(0, 2)),
    "iadd": lambda rows: rows.__iadd__(rows[:2]),
    "imul": lambda rows: rows.__imul__(2),
    "clear": lambda rows: rows.clear(),
}


@pytest.mark.parametrize("change", _CHANGES)
def test_project_distinct_of_an_answer_changed_in_place(demo_table, change):
    # an answer is a table, which nothing changes; a list of its rows that
    # is changed afterwards is projected from the rows it holds then
    rows = list(AutonomousSource(demo_table).answer(SelectionQuery({"Body": "Sedan"})))
    _CHANGES[change](rows)
    attrs = ("Model", "Year", "Make")
    with _encoding() as encode:
        assert project_distinct(demo_table.schema, rows, attrs) == _old_project_distinct(
            demo_table.schema, rows, attrs
        )
    assert encode.call_count == 1


def test_project_distinct_of_a_table_under_another_schema_encodes_its_rows(demo_table):
    # a label sorted first in every domain shifts every code by one, so an
    # answer's codes are not codes under the wider schema: its rows are encoded
    schema = demo_table.schema
    wider = Schema(schema.attributes, {a: ("000", *schema.domains[a]) for a in schema.attributes})
    rows = AutonomousSource(demo_table).answer(SelectionQuery({"Body": "Sedan"}))
    attrs = ("Model", "Year", "Make")
    with _encoding() as encode:
        assert project_distinct(wider, rows, attrs) == _old_project_distinct(wider, rows, attrs)
    assert encode.call_count == 1


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_expected_selectivity_matches_reference(data):
    table = data.draw(tables())
    candidate = data.draw(queries(table.schema, unknown=True))
    ratio = data.draw(
        st.one_of(
            st.integers(-2, 5),
            st.floats(-2.0, 5.0, allow_nan=False),
            st.sampled_from([0, 1, 1.0, 2.5]),
        )
    )
    got = _outcome(expected_selectivity, table, candidate, ratio)
    want = _outcome(_old_expected_selectivity, table, candidate, ratio)
    assert got == want
    if got[0][0] == "ok":
        assert type(got[0][1]) is type(want[0][1])


def _zeroed(net, seed):
    """``net`` with some CPT entries set to 0 (each row keeps its largest)
    and rows renormalized, so some candidates are impossible."""
    rng = np.random.default_rng(seed)
    cpts = {}
    for attr, cpt in net.cpts.items():
        kept = np.where((rng.random(cpt.shape) < 0.4) & (cpt < cpt.max(axis=-1, keepdims=True)), 0.0, cpt)
        cpts[attr] = kept / kept.sum(axis=-1, keepdims=True)
    return BayesNet(net.schema, net.parents, cpts)


_PRECISION_NETS = [car_demo_net(), random_net(6, max_domain=3, seed=4)]
_PRECISION_NETS += [_zeroed(net, k) for k, net in enumerate(_PRECISION_NETS)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_expected_precision_matches_reference(data):
    net = data.draw(st.sampled_from(_PRECISION_NETS))
    original = data.draw(queries(net.schema))
    candidate = data.draw(queries(net.schema))
    if data.draw(st.booleans()):  # mostly disjoint, so most calls reach the posterior
        candidate = SelectionQuery(
            [(a, v) for a, v in candidate.items if a not in original.attributes]
        )
    got = _outcome(expected_precision, net, original, candidate)
    want = _outcome(_old_expected_precision, net, original, candidate)
    assert got == want
    if got[0][0] == "ok":
        assert type(got[0][1]) is float


def test_expected_selectivity_exception_order(demo_table):
    # validation runs in attribute order: Age < Body < Colour
    unseen_first = SelectionQuery({"Body": _UNSEEN, "Colour": "red"})
    unknown_first = SelectionQuery({"Age": "old", "Body": _UNSEEN})
    for ratio in (1.0, 3):
        assert expected_selectivity(demo_table, unseen_first, ratio) == 0.0
        assert _old_expected_selectivity(demo_table, unseen_first, ratio) == 0.0
        for fn in (expected_selectivity, _old_expected_selectivity):
            with pytest.raises(KeyError):
                fn(demo_table, unknown_first, ratio)
    sedan = SelectionQuery({"Body": "Sedan"})
    for fn in (expected_selectivity, _old_expected_selectivity):
        with pytest.raises(ValueError, match="ratio"):
            fn(demo_table, unseen_first, -1.0)
        with pytest.raises(ValueError, match="ratio"):
            fn(demo_table, sedan, -1)
    assert expected_selectivity(demo_table, sedan, 3) == 12
    assert type(expected_selectivity(demo_table, sedan, 3)) is int


def _issued(queries, source, base_at):
    # the strategies' issuing pass, dropping the tuples at ``base_at``, and
    # the answers built from what it retrieved
    retrieved, issued, truncated = rw._issue(queries, source, np.array(base_at, dtype=np.int64))
    return retrieved.answers(), issued, truncated


def _rewrites(data, schema):
    drawn = data.draw(
        st.lists(st.tuples(queries(schema), st.sampled_from([0.0, 0.25, 0.5, 1.0])), max_size=8)
    )
    return [RewrittenQuery(q, QueryScore(p, 1.0, p, p)) for q, p in dict(drawn).items()]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_issue_matches_reference(data):
    table = data.draw(tables())
    rewrites = _rewrites(data, table.schema)
    limit = data.draw(st.one_of(st.none(), st.integers(0, 6)))
    budget = data.draw(st.one_of(st.none(), st.integers(0, 6)))
    ids = [r.id for r in table.rows]
    exclude = data.draw(st.lists(st.sampled_from(ids), max_size=5)) if ids else []
    got_source, want_source = AutonomousSource(table, budget), AutonomousSource(table, budget)
    # the strategies pass at most k selected; the references slice by ``limit``
    first = sorted(rewrites, key=rw._issue_key)[:limit]
    got = _issued(iter(first), got_source, list(map(ids.index, exclude)))
    want = _old_order_and_issue(rewrites, want_source, limit=limit, exclude_ids=exclude)
    assert got == want
    assert got_source.queries_used == want_source.queries_used


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_nb_posterior_matches_reference(data):
    table = data.draw(tables())
    model = fit_naive_bayes(table)
    attrs = list(table.schema.attributes)
    for _ in range(4):  # several calls per model reuse the cached arrays
        target = data.draw(st.sampled_from(attrs + [_UNKNOWN_ATTR]))
        evidence = data.draw(queries(table.schema, unknown=True))
        got = _outcome(model.posterior, target, dict(evidence.items))
        want = _outcome(_old_posterior, model, target, dict(evidence.items))
        if got[0][0] == "ok":
            assert want[0][0] == "ok"
            assert np.array_equal(got[0][1], want[0][1])
            got[0][1][:] = -1.0  # a caller may write to the result
        else:
            assert got == want


def test_nb_posterior_empty_evidence_is_a_fresh_array(sparse_table):
    model = fit_naive_bayes(sparse_table)
    first = model.posterior("Make", {})
    want = _old_posterior(model, "Make", {})
    assert np.array_equal(first, want)
    first[:] = 0.0
    assert np.array_equal(model.posterior("Make", {}), want)


# ---------------------------------------------------------------------------
# whole strategies, with the references patched in

def _strategies(beam):
    """Every strategy, with ``beam`` standing in for ``bn_beam``."""
    return {
        "bn-all-mb": lambda w, source, q: bn_all_mb(w["net"], w["sample"], source, q, k=6),
        "bn-beam": lambda w, source, q: beam(
            w["net"], w["sample"], source, q, BeamConfig(width=4, depth=3, top_k=6)
        ),
        "bn-beam-wide": lambda w, source, q: beam(
            w["net"], w["sample"], source, q, BeamConfig(width=20, depth=3, top_k=20)
        ),
        "bn-beam-alpha": lambda w, source, q: beam(
            w["net"], w["sample"], source, q, BeamConfig(width=3, alpha=1.0, top_k=4)
        ),
        "afd": lambda w, source, q: afd_rewrite_single(
            w["afds"], w["nb"], w["sample"], source, q, k=6
        ),
        "afd-all-attributes": lambda w, source, q: afd_all_attributes(
            w["afds"], w["nb"], w["sample"], source, q, k=6
        ),
        "afd-highest-confidence": lambda w, source, q: afd_highest_confidence(
            w["afds"], w["nb"], w["sample"], source, q, k=6, alpha=0.5
        ),
    }


def _world(net, n, seed, nulls):
    data = sample_rows(net, n, seed=seed)
    cut = n // 3
    sample = Table(data.schema, data.rows[:cut])
    source = inject_nulls(Table(data.schema, data.rows[cut:]), nulls, 0.4, seed=seed)
    return {
        "net": net,
        "sample": sample,
        "afds": mine_afds(sample),
        "nb": fit_naive_bayes(sample),
        "source": source,
    }


def _worlds():
    car = _world(car_demo_net(), 600, 11, ["Price"])
    rand = _world(random_net(6, max_domain=4, seed=5, max_parents=2), 600, 3, ["A", "B"])
    out = []
    for name, world, attr in (("car", car, "Price"), ("random", rand, "A")):
        source = world["source"]
        i = source.schema.index(attr)
        value = next(r.cells[i] for r in source.rows if r.cells[i] is not None)
        reversed_schema = Schema(reversed(source.schema.attributes), source.schema.domains)
        tables = {
            "plain": source,
            "permuted": align_table(source, reversed_schema),
            "unseen": with_unseen_values(source, attr, value),
            "empty-base": inject_nulls(source, [attr], 1.0, seed=0),
        }
        out.append((name, world, attr, value, tables))
    return out


_WORLDS = _worlds()


def _queries_for(world, attr, value):
    schema = world["source"].schema
    i = schema.index(attr)
    other = next(a for a in sorted(schema.attributes) if a != attr)
    j = schema.index(other)
    second = next(
        r.cells[j] for r in world["source"].rows if r.cells[i] == value and r.cells[j]
    )
    return [SelectionQuery({attr: value}), SelectionQuery({attr: value, other: second})]


def _run_all(strategies, world, table, query, budget):
    out = {}
    for name, run in strategies.items():
        source = AutonomousSource(table, budget)
        out[name] = (_outcome(run, world, source, query), source.queries_used)
    return out


@pytest.mark.parametrize("budget", [None, 4])
@pytest.mark.parametrize("world_name", [w[0] for w in _WORLDS])
def test_strategies_unchanged_with_reference_helpers(world_name, budget, monkeypatch):
    _, world, attr, value, tables = next(w for w in _WORLDS if w[0] == world_name)
    runs = [(t, q) for t in tables.values() for q in _queries_for(world, attr, value)]
    got = [_run_all(_strategies(bn_beam), world, t, q, budget) for t, q in runs]
    monkeypatch.setattr(rw, "project_distinct", _old_project_distinct)
    monkeypatch.setattr(rw, "expected_selectivity", _old_expected_selectivity)
    monkeypatch.setattr(rw, "expected_precision", _old_expected_precision)
    monkeypatch.setattr(NaiveBayesModel, "posterior", _old_posterior)
    want = [_run_all(_strategies(_old_bn_beam), world, t, q, budget) for t, q in runs]
    assert got == want
    results = [value for run in got for (value, _warnings), _used in run.values()]
    assert any(r[0] == "ok" and r[1].answers for r in results), "nothing was retrieved"
    assert any(r[0] == "raised" for r in results), "no strategy declined"
    if budget is not None:
        assert any(r[0] == "ok" and r[1].truncated for r in results), "no run was truncated"


def test_candidates_hold_the_items_the_constructor_makes():
    # strategies build candidates from items already sorted and distinct,
    # past the checking constructor: each must be what that would make
    checked = Counter()
    runs = [(world, t, q) for _, world, attr, value, tables in _WORLDS
            for t in tables.values() for q in _queries_for(world, attr, value)]
    for world, table, query in runs:
        for name, ((outcome, _warnings), _used) in _run_all(
            _strategies(bn_beam), world, table, query, None
        ).items():
            if outcome[0] != "ok":
                continue
            for rq in (*outcome[1].candidates, *outcome[1].issued):
                assert rq.query.items == SelectionQuery(rq.query.items).items
                assert all(type(a) is str and type(v) is str for a, v in rq.query.items)
                checked[name, len(rq.query) > 1] += 1
    assert {name for name, _ in checked} == set(_strategies(bn_beam))
    assert any(many for _, many in checked), "no candidate of two or more predicates"


# ---------------------------------------------------------------------------
# answers built eagerly, one RetrievedAnswer per fetched tuple inside the
# rewriting call, and PR curves counted answer by answer: the code that
# results holding source positions replaced, but for the ``rw.`` prefixes,
# the ``_eager_`` names, ``_eager_answers``, which builds each answer with
# its constructor, and the fetched tuples, told apart by their row ids as
# the answers' rows give them, with no source position read


def _eager_answers(rows, relevance, query):
    return [RetrievedAnswer(row, relevance, query) for row in rows]


def _eager_order_and_issue(queries, source, limit=None, exclude_ids=()):
    rw._check_count("limit", limit, or_none=True)
    ordered = sorted(queries, key=rw._issue_key)
    if limit is not None:
        ordered = ordered[:limit]
    # an id array as it is: iterating one makes a numpy scalar per id
    excluded = np.asarray(exclude_ids if isinstance(exclude_ids, np.ndarray) else list(exclude_ids))
    seen = set(excluded.tolist())  # the ids already fetched or excluded
    answers = []
    issued = []
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
        seen.update(row.id for row in rows)
        answers.extend(_eager_answers(fresh, rq.score.precision, rq.query))
    return answers, issued, truncated


def _eager_rewrite(model, sample, source, query, k, alpha, sample_ratio, pick, candidates, key):
    rw._check_count("k", k, 1)
    query.validate(model.schema)
    if not len(query):
        raise ValueError("empty query")
    rw._check_scale("alpha", alpha)
    if sample_ratio is not None:
        rw._check_scale("ratio", sample_ratio)
    picked = pick(query)
    if sample_ratio is None:
        sample_ratio = source.estimate_ratio(sample)
    base = source.answer(query)
    precisions = {}

    def score(candidate, precision=None):
        # the net's posterior of the query's values, once per candidate
        p = precisions.get(candidate) if precision is None else precision
        if p is None:
            p = precisions[candidate] = rw.expected_precision(model, query, candidate)
        sel = rw.expected_selectivity(sample, candidate, sample_ratio)
        r = p * sel
        return RewrittenQuery(candidate, QueryScore(p, sel, r, rw.f_measure(p, r, alpha)))

    selected = sorted(candidates(picked, base, source.schema, score), key=key)[:k]
    ids = [row.id for row in base]
    answers, issued, truncated = _eager_order_and_issue(selected, source, limit=k, exclude_ids=ids)
    return RewritingResult(base, answers, issued, selected, truncated)


def _eager_curve_points(result, query, schema, wanted):
    # wanted: the ids of the uncertain relevant tuples
    q_idx = [schema.index(a) for a in query.attributes]
    step = {rq.query: i for i, rq in enumerate(result.issued)}
    uncertain = [0] * len(result.issued)  # per issued query
    relevant = [0] * len(result.issued)
    for answer in result.answers:
        if all(answer.row.cells[j] is not None for j in q_idx):
            continue  # certain non-answer: its constrained values are visible
        uncertain[step[answer.query]] += 1
        relevant[step[answer.query]] += answer.row.id in wanted
    points = []
    for i, (u, r) in enumerate(zip(accumulate(uncertain), accumulate(relevant)), start=1):
        points.append(PrPoint(i, r / u if u else 0.0, r / len(wanted)))
    return tuple(points)


def _same_answers(got, want, same_objects=True):
    # equal element for element; from one set of rewrites, built from the
    # very same queries
    assert type(got) is list and got == want
    for g, w in zip(got, want):
        assert type(g) is RetrievedAnswer and type(g.relevance) is type(w.relevance)
        if same_objects:
            assert g.query is w.query


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_issue_matches_the_eager_original(data):
    table = data.draw(tables())
    rewrites = _rewrites(data, table.schema)
    limit = data.draw(st.one_of(st.none(), st.integers(0, 6)))
    budget = data.draw(st.one_of(st.none(), st.integers(0, 6)))
    ids = [r.id for r in table.rows]
    exclude = data.draw(st.lists(st.sampled_from(ids), max_size=6)) if ids else []
    got_source, want_source = AutonomousSource(table, budget), AutonomousSource(table, budget)
    first = sorted(rewrites, key=rw._issue_key)[:limit]
    got = _issued(first, got_source, list(map(ids.index, exclude)))
    want = _eager_order_and_issue(rewrites, want_source, limit=limit, exclude_ids=exclude)
    _same_answers(got[0], want[0])
    assert got[1:] == want[1:]  # issued, truncated
    assert got_source.queries_used == want_source.queries_used


@pytest.mark.parametrize("budget", [None, 3])  # 3: the size probe, the base, one rewrite
@pytest.mark.parametrize("world_name", [w[0] for w in _WORLDS])
def test_strategies_match_the_eager_original(world_name, budget, monkeypatch):
    # every strategy, on every table of the world (an empty base among them),
    # against the pipeline that built its answers inside the call
    _, world, attr, value, tables = next(w for w in _WORLDS if w[0] == world_name)
    runs = [(t, q) for t in tables.values() for q in _queries_for(world, attr, value)]
    got = [_run_all(_strategies(bn_beam), world, t, q, budget) for t, q in runs]
    monkeypatch.setattr(rw, "_rewrite", _eager_rewrite)
    want = [_run_all(_strategies(bn_beam), world, t, q, budget) for t, q in runs]
    results = []
    for got_run, want_run in zip(got, want):
        for name in got_run:
            (g, g_warnings), g_used = got_run[name]
            (w, w_warnings), w_used = want_run[name]
            assert (g_warnings, g_used) == (w_warnings, w_used), name
            assert g[0] == w[0], name
            if g[0] != "ok":
                assert g == w
                continue
            assert type(g[1]) is RewritingResult
            assert g[1].issued == w[1].issued and g[1].truncated == w[1].truncated, name
            assert g[1].candidates == w[1].candidates and g[1].base == w[1].base, name
            _same_answers(g[1].answers, w[1].answers, same_objects=False)
            assert g[1] == w[1]
            results.append(g[1])
    assert any(r.answers for r in results), "nothing was retrieved"
    assert any(not r.issued for r in results), "every run issued a query"
    if budget is not None:
        assert any(r.truncated for r in results), "no run was truncated"


@pytest.mark.parametrize("world_name", [w[0] for w in _WORLDS])
def test_curve_points_match_the_per_answer_original(world_name):
    _, world, attr, value, tables = next(w for w in _WORLDS if w[0] == world_name)
    rng = np.random.default_rng(5)
    checked = 0
    for table in tables.values():
        ids = table._id_column()
        for query in _queries_for(world, attr, value):
            for name, run in _strategies(bn_beam).items():
                outcome, _ = _outcome(run, world, AutonomousSource(table, 5), query)
                if outcome[0] != "ok":
                    continue
                result = outcome[1]
                # wanted sets of every size, with rows that were never retrieved
                for size in (1, len(ids) // 7, len(ids) // 2, len(ids)):
                    wanted = np.zeros(len(ids), dtype=bool)
                    wanted[rng.choice(len(ids), size=max(size, 1), replace=False)] = True
                    got = harness._curve_points(result, query, wanted)
                    want = _eager_curve_points(
                        result, query, table.schema, set(ids[wanted].tolist())
                    )
                    assert got == want, (name, query, size)
                    assert all(type(p.precision) is type(p.recall) is float for p in got)
                    checked += bool(got)
    assert checked


def test_rewriting_curves_match_the_per_answer_original(monkeypatch):
    # the whole rewriting experiment: every method, a conjunction, a budget
    cfg = ExperimentConfig(
        mode="rewriting", synthetic_rows=900, train_fraction=0.3, test_null_fraction=0.5,
        seeds=(0, 1), restarts=1, max_iterations=40, query_limit=6, top_k=8,
        queries=(
            SelectionQuery({"Body": "sedan"}), SelectionQuery({"Make": "bmw", "Body": "coupe"})
        ),
        methods=rw.REWRITING_METHODS,
    )
    sources = []  # the table behind each source, in the order they are made

    class RecordedSource(AutonomousSource):
        def __init__(self, table, *args):
            sources.append(table)
            super().__init__(table, *args)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = run_rewriting_experiment(cfg)
        monkeypatch.setattr(harness, "AutonomousSource", RecordedSource)
        monkeypatch.setattr(
            harness, "_curve_points",
            # wanted is a mask over the rows of the source just made
            lambda result, query, wanted: _eager_curve_points(
                result, query, result.base.schema,
                {row.id for row, hit in zip(sources[-1].rows, wanted) if hit},
            ),
        )
        want = run_rewriting_experiment(cfg)
    assert got == want
    assert {c.method for c in got} == set(rw.REWRITING_METHODS)
    assert any(c.truncated for c in got) and any(p.precision for c in got for p in c.points)
