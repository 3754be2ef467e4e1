"""The count tables behind ``_rewrite``'s selectivity estimates.

``score`` reads a candidate's sample matches from one ``_value_counts``
table per attribute set, built on the set's first candidate in the call
where the set's domain product is at most the sample's row count, and asks
``expected_selectivity`` past that.  The reference is the number of sample
rows ``candidate.matches``, one row at a time, times the ratio.
"""

import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nullbayes.rewriting as rewriting
from nullbayes import (
    AutonomousSource, Row, Schema, SelectionQuery, Table, bn_all_mb, inject_nulls, sample_rows,
)

from conftest import demo_cars, demo_net

_LABELS = ("a", "b", "c", "d")
_UNSEEN = "zz"  # never in a domain


@st.composite
def samples(draw):
    attrs = [f"A{i}" for i in range(draw(st.integers(1, 4)))]
    domains = {
        a: draw(st.lists(st.sampled_from(_LABELS), min_size=1, max_size=4, unique=True))
        for a in attrs
    }
    rows = [
        Row(i, tuple(draw(st.one_of(st.none(), st.sampled_from(domains[a]))) for a in attrs))
        for i in range(draw(st.integers(0, 30)))
    ]
    return Table(Schema(attrs, domains), rows)


def candidates(schema):
    """Non-empty queries over the schema, a value outside the domain now and then."""
    attrs = list(schema.attributes)
    return st.lists(st.sampled_from(attrs), unique=True, min_size=1).flatmap(
        lambda chosen: st.tuples(
            *[st.sampled_from(schema.domains[a] + (_UNSEEN,)) for a in chosen]
        ).map(lambda values: SelectionQuery(zip(chosen, values)))
    )


def _matches(sample, candidate):
    return sum(candidate.matches(sample.schema, row) for row in sample.rows)


def _counting(monkeypatch):
    """Count the calls of rewriting's ``_value_counts`` and ``expected_selectivity``."""
    calls = Counter()

    def counted(name, original):
        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    for name in ("_value_counts", "expected_selectivity"):
        monkeypatch.setattr(rewriting, name, counted(name, getattr(rewriting, name)))
    return calls


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_count_tables_equal_the_mask_and_count_each_set_once(data):
    sample = data.draw(samples())
    schema = sample.schema
    cands = data.draw(st.lists(candidates(schema), unique=True, max_size=12))
    ratio = data.draw(st.sampled_from([1.0, 0.0, 2.5, 1 / 3]))
    source = AutonomousSource(Table(schema, [Row(0, tuple(d[0] for d in schema.domains.values()))]))
    query = SelectionQuery({schema.attributes[0]: schema.domains[schema.attributes[0]][0]})
    with pytest.MonkeyPatch.context() as patch:
        calls = _counting(patch)
        result = rewriting._rewrite(
            SimpleNamespace(schema=schema), sample, source, query, max(len(cands), 1), 0.0, ratio,
            lambda q: None, lambda picked, base, sch, score: score(cands, [0.5] * len(cands)),
            rewriting._issue_key,
        )
    assert len(result.candidates) == len(cands)
    for rq in result.candidates:
        want = _matches(sample, rq.query) * ratio
        assert rq.score.selectivity == want, rq.query
    # only candidates whose labels are all in the sample's domains reach a table
    in_domain = [c for c in cands if all(v in schema.domains[a] for a, v in c.items)]
    sets = {c.attributes for c in in_domain}

    def dense(attrs):
        return math.prod(len(schema.domains[a]) for a in attrs) <= len(sample)

    assert calls["_value_counts"] == sum(map(dense, sets))
    assert calls["expected_selectivity"] == sum(not dense(c.attributes) for c in in_domain)


def test_a_blanket_rewrite_counts_its_set_once(monkeypatch):
    cars = inject_nulls(sample_rows(demo_net(), 200, seed=1), ["Model"], 0.2, 2)
    calls = _counting(monkeypatch)
    result = bn_all_mb(demo_net(), cars, AutonomousSource(cars), SelectionQuery({"Body": "Sedan"}), k=50)
    assert len(result.candidates) > 1
    assert calls == {"_value_counts": 1}
    for rq in result.candidates:
        assert rq.score.selectivity == _matches(cars, rq.query)


def test_a_sample_too_small_for_a_table_masks_per_candidate(monkeypatch):
    cars = demo_cars()
    sample = cars._take(np.arange(3))  # fewer rows than any blanket's domain product
    calls = _counting(monkeypatch)
    result = bn_all_mb(demo_net(), sample, AutonomousSource(cars), SelectionQuery({"Body": "Sedan"}),
                       k=50, sample_ratio=2.0)
    assert calls == {"expected_selectivity": len(result.candidates)}
    assert len(result.candidates) > 1
    for rq in result.candidates:
        assert rq.score.selectivity == _matches(sample, rq.query) * 2.0
