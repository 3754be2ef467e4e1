"""Differential tests: the rewriting helpers against their per-row originals.

``project_distinct`` deduplicates zipped columns with ``dict.fromkeys``,
``expected_selectivity`` counts a boolean mask, ``order_and_issue`` handles
each answer in bulk, ``bn_beam`` scans the base once per beam parent, and
``NaiveBayesModel.posterior`` reads priors and denominators computed once per
model.  The references below are the row-at-a-time versions they replaced,
kept verbatim.  Every output must be equal with ``==`` (or
``np.array_equal``), exceptions included, and whole ``RewritingResult``s of
all five strategies must not change when the references are patched in.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nullbayes.rewriting as rw
from nullbayes import (
    AutonomousSource,
    BeamConfig,
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
    order_and_issue,
    project_distinct,
    sample_rows,
    select,
)
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


def _old_order_and_issue(queries, source, limit=None, exclude_ids=()):
    ordered = sorted(queries, key=rw._issue_key)
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

    scorer = rw._Scorer(net, sample, query, cfg.alpha, sample_ratio)
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
        beam = sorted(pool.values(), key=rw._rank_key)[: cfg.width]

    survivors = [rq for rq in beam if rq.score.f_measure > 0]
    survivors.sort(key=rw._issue_key)
    selected = survivors[: cfg.top_k]
    answers, issued, truncated = rw.order_and_issue(
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


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_order_and_issue_matches_reference(data):
    table = data.draw(tables())
    rewrites = data.draw(
        st.lists(
            st.tuples(queries(table.schema), st.sampled_from([0.0, 0.25, 0.5, 1.0])),
            max_size=8,
        )
    )
    rewrites = [
        RewrittenQuery(q, QueryScore(p, 1.0, p, p)) for q, p in dict(rewrites).items()
    ]
    limit = data.draw(st.one_of(st.none(), st.integers(0, 6)))
    budget = data.draw(st.one_of(st.none(), st.integers(0, 6)))
    ids = [r.id for r in table.rows]
    exclude = data.draw(st.lists(st.sampled_from(ids), max_size=5)) if ids else []
    got_source, want_source = AutonomousSource(table, budget), AutonomousSource(table, budget)
    got = order_and_issue(iter(rewrites), got_source, limit=limit, exclude_ids=iter(exclude))
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
        "bn-beam-domains": lambda w, source, q: beam(
            w["net"], w["sample"], source, q, BeamConfig(width=3, top_k=4),
            expand_empty_base=True,
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
    monkeypatch.setattr(rw, "order_and_issue", _old_order_and_issue)
    monkeypatch.setattr(NaiveBayesModel, "posterior", _old_posterior)
    want = [_run_all(_strategies(_old_bn_beam), world, t, q, budget) for t, q in runs]
    assert got == want
    results = [value for run in got for (value, _warnings), _used in run.values()]
    assert any(r[0] == "ok" and r[1].answers for r in results), "nothing was retrieved"
    assert any(r[0] == "raised" for r in results), "no strategy declined"
    if budget is not None:
        assert any(r[0] == "ok" and r[1].truncated for r in results), "no run was truncated"
