"""Differential tests: mask-based selection against a per-row reference.

``select``, ``Table.mask`` and ``AutonomousSource.answer`` answer from a
cached int-coded column matrix.  The reference here is a comprehension over
``SelectionQuery.matches``, one row at a time, which shares none of that
code.  Rows must come back identical and in table order, and the source's
budget accounting must follow its documented rules.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullbayes import (
    AutonomousSource,
    QueryBudgetError,
    Row,
    Schema,
    SelectionQuery,
    Table,
    select,
)

_LABELS = ("a", "b", "c", "d")
_UNSEEN = "zz"  # never in a domain
_UNKNOWN_ATTR = "Q"  # never in a schema


@st.composite
def tables(draw):
    n_attrs = draw(st.integers(1, 4))
    attrs = [f"A{i}" for i in range(n_attrs)]
    domains = {
        a: draw(st.lists(st.sampled_from(_LABELS), min_size=1, max_size=4, unique=True))
        for a in attrs
    }
    n_rows = draw(st.integers(0, 25))
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
            *[st.sampled_from(schema.domains.get(a, ()) + (_UNSEEN,)) for a in chosen]
        ).map(lambda values: SelectionQuery(zip(chosen, values)))
    )


def _reference(table, query):
    return [r for r in table.rows if query.matches(table.schema, r)]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mask_and_select_match_reference(data):
    table = data.draw(tables())
    for _ in range(3):  # several queries per table reuse the cached codes
        query = data.draw(queries(table.schema))
        in_domain = all(v in table.schema.domains[a] for a, v in query.items)
        expected = _reference(table, query)
        at = np.flatnonzero(table.mask(query))
        assert [table.rows[i] for i in at] == expected
        if in_domain:
            assert list(select(table, query)) == expected
        else:
            with pytest.raises(ValueError, match="not in domain"):
                select(table, query)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_answer_matches_reference_and_budget_rules(data):
    table = data.draw(tables())
    limit = data.draw(st.one_of(st.none(), st.integers(0, 5)))
    source = AutonomousSource(table, limit)
    used = 0
    for query in data.draw(st.lists(queries(table.schema, unknown=True), max_size=8)):
        if limit is not None and used >= limit:
            with pytest.raises(QueryBudgetError):
                source.answer(query)
        elif _UNKNOWN_ATTR in query.attributes:
            with pytest.raises(KeyError):
                source.answer(query)
        else:
            assert list(source.answer(query)) == _reference(table, query)
            used += 1
        assert source.queries_used == used


@settings(max_examples=30, deadline=None)
@given(table=tables())
def test_empty_query_and_estimate_ratio(table):
    source = AutonomousSource(table)
    assert list(source.answer(SelectionQuery())) == list(table.rows)
    if len(table):
        sample = Table(table.schema, table.rows[::2])
        assert source.estimate_ratio(sample) == len(table) / len(sample)
    else:
        sample = Table(table.schema, [Row(0, (None,) * len(table.schema.attributes))])
        with pytest.warns(UserWarning, match="larger than the source"):
            assert source.estimate_ratio(sample) == 0.0
    assert source.queries_used == 2
