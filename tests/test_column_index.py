"""The runs behind ``Table._matching``, and taken tables.

``select`` and ``AutonomousSource.answer`` find a query's rows with
``Table._matching``: the shortest predicate's run (the positions holding one
code in one column, scanned for once per table and kept), filtered by the
other predicates' codes.  The reference is a comprehension over
``SelectionQuery.matches``, one row at a time.  A table taken from another
keeps the other's code matrix and gathers its own codes on first use.
"""

import copy
import gc
import pickle

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
    load_csv,
    project_distinct,
    save_csv,
    select,
)

from conftest import demo_cars

_LABELS = ("a", "b", "c", "d", "e")
_UNSEEN = "zz"  # never in a domain
_UNKNOWN_ATTR = "Z"  # never in a schema; sorts after every A<i>


@st.composite
def tables(draw, max_rows=60):
    attrs = [f"A{i}" for i in range(draw(st.integers(1, 4)))]
    domains = {
        a: draw(st.lists(st.sampled_from(_LABELS), min_size=1, max_size=5, unique=True))
        for a in attrs
    }
    rows = [
        Row(i, tuple(draw(st.one_of(st.none(), st.sampled_from(domains[a]))) for a in attrs))
        for i in draw(st.permutations(range(draw(st.integers(0, max_rows)))))
    ]
    return Table(Schema(attrs, domains), rows)


def queries(schema):
    """Queries over a subset of the schema (the empty one too), each value in
    or out of its domain."""
    attrs = list(schema.attributes)
    return st.lists(st.sampled_from(attrs), unique=True, max_size=len(attrs)).flatmap(
        lambda chosen: st.tuples(
            *[st.sampled_from(schema.domains[a] + (_UNSEEN,)) for a in chosen]
        ).map(lambda values: SelectionQuery(zip(chosen, values)))
    )


def _scanned(table, query):
    return [i for i, row in enumerate(table.rows) if query.matches(table.schema, row)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_index_answers_equal_the_mask(data):
    table = data.draw(tables())
    source = AutonomousSource(table)
    for _ in range(4):  # later queries reuse the runs scanned for by earlier ones
        query = data.draw(queries(table.schema))
        want = _scanned(table, query)
        at = source.answer(query)._taken_at()
        assert at.tolist() == want
        assert table._matching(query).tolist() == want
    assert source.queries_used == 4


def test_empty_query_answers_every_row_in_order():
    table = demo_cars()
    answer = AutonomousSource(table).answer(SelectionQuery())
    assert answer._taken_at().tolist() == list(range(len(table)))
    assert answer == table


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_out_of_domain_value_in_any_position_matches_nothing(data):
    table = data.draw(tables())
    attrs = table.schema.attributes
    chosen = data.draw(st.lists(st.sampled_from(attrs), unique=True, min_size=1))
    bad = data.draw(st.sampled_from(chosen))
    query = SelectionQuery(
        {a: _UNSEEN if a == bad else data.draw(st.sampled_from(table.schema.domains[a]))
         for a in chosen}
    )
    source = AutonomousSource(table)
    assert len(source.answer(query)) == 0
    assert source.queries_used == 1


@pytest.mark.parametrize("value", ["Sedan", _UNSEEN])
def test_unknown_attribute_after_any_value_raises(value):
    # the unknown attribute sorts last, after a value no cell holds
    table = demo_cars()
    query = SelectionQuery({"Body": value, _UNKNOWN_ATTR: "x"})
    assert query.attributes[-1] == _UNKNOWN_ATTR
    source = AutonomousSource(table)
    with pytest.raises(KeyError):
        source.answer(query)
    with pytest.raises(KeyError):
        table._matching(query)
    assert source.queries_used == 0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_budget_refusals_leave_the_count_and_the_answers(data):
    table = data.draw(tables())
    limit = data.draw(st.integers(0, 3))
    source = AutonomousSource(table, limit)
    for i, query in enumerate(data.draw(st.lists(queries(table.schema), max_size=6))):
        if i >= limit:
            with pytest.raises(QueryBudgetError):
                source.answer(query)
        else:
            assert source.answer(query)._taken_at().tolist() == _scanned(table, query)
        assert source.queries_used == min(i + 1, limit)


def test_rebinding_rows_resets_the_index():
    table = demo_cars()
    query = SelectionQuery({"Body": "Sedan"})
    before = AutonomousSource(table).answer(query)._taken_at().tolist()
    assert before and table._runs
    # the same ids and schema, the rows reversed: a stale run answers wrongly
    table.rows = table.rows[::-1]
    assert table._runs is None
    after = AutonomousSource(table).answer(query)._taken_at()
    assert after.tolist() == _scanned(table, query) != before


def test_pickles_and_copies_leave_the_index_out():
    table = demo_cars()
    size = len(pickle.dumps(table))
    query = SelectionQuery({"Body": "Sedan", "Make": "Toyota"})
    AutonomousSource(table).answer(query)
    assert len(table._runs) == 2
    assert len(pickle.dumps(table)) == size
    for twin in (pickle.loads(pickle.dumps(table)), copy.copy(table), copy.deepcopy(table)):
        assert twin == table and twin._runs is None
        assert twin._matching(query).tolist() == _scanned(table, query)
    assert table._take(np.arange(3))._runs is None


def test_no_index_before_a_source_query(tmp_path):
    path = tmp_path / "cars.csv"
    save_csv(demo_cars(), str(path))
    loaded = load_csv(str(path))
    built = Table(loaded.schema, loaded.rows)
    taken = loaded._take(np.arange(0, len(loaded), 2))
    query = SelectionQuery({"Body": "Sedan"})
    for table in (loaded, built, taken):  # reading rows, codes and projections scans for none
        assert table.rows and table._column_codes().size and table == table
        project_distinct(table.schema, table, ["Body"])
        assert table._runs is None
    AutonomousSource(loaded).answer(query)
    select(built, query)
    assert len(loaded._runs) == len(built._runs) == 1 and taken._runs is None


def test_positions_cannot_write_into_the_index():
    table = demo_cars()
    query = SelectionQuery({"Body": "Sedan", "Make": "Audi"})
    want = _scanned(table, query)
    assert want
    at = AutonomousSource(table).answer(SelectionQuery({"Body": "Sedan"}))._taken_at()
    with pytest.raises(ValueError, match="read-only"):
        at[0] = 0
    assert table._matching(query).tolist() == want
    assert len(table._runs) == 2
    for run in table._runs.values():
        with pytest.raises(ValueError, match="read-only"):
            run[0] = 0
    assert table._matching(query).tolist() == want


def test_a_taken_table_scans_once_per_code_and_sorts_nothing(monkeypatch):
    # a base answer asked a one-predicate query twice, as bn_beam's splits do
    calls = {"argsort": 0, "flatnonzero": 0}

    def counted(name):
        original = getattr(np, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    base = AutonomousSource(demo_cars()).answer(SelectionQuery({"Body": "Sedan"}))
    query = SelectionQuery({"Make": "Audi"})
    want = _scanned(base, query)
    assert want and base._runs is None
    for name in calls:
        monkeypatch.setattr(np, name, counted(name))
    first = base._matching(query)
    assert first.tolist() == want
    assert calls == {"argsort": 0, "flatnonzero": 1}
    assert list(base._runs) == [(base.schema.index("Make"), base.schema.code("Make", "Audi"))]
    assert base._matching(query) is first
    assert select(base, query)._taken_at() is first
    assert calls == {"argsort": 0, "flatnonzero": 1} and len(base._runs) == 1


class TestTakenTables:
    """A taken table keeps the other table's code matrix, not the table, and
    gathers its own codes on the first ``_column_codes`` call."""

    def test_codes_are_gathered_once_on_first_use(self):
        table = demo_cars()
        at = np.array([5, 0, 3], dtype=np.int64)
        taken = table._take(at)
        assert taken._codes is None
        codes = taken._column_codes()
        assert codes.flags.c_contiguous
        assert np.array_equal(codes, table._column_codes()[:, at])
        assert taken._column_codes() is codes and taken._parent_codes is None
        assert taken._taken_at() is at

    def test_an_answer_gathers_no_codes(self):
        answer = AutonomousSource(demo_cars()).answer(SelectionQuery({"Body": "Sedan"}))
        assert answer._codes is None

    def test_the_taken_table_does_not_hold_the_table(self):
        table = demo_cars()
        taken = table._take(np.arange(3))
        held = gc.get_referents(taken)
        assert not any(ref is table for ref in held)
        assert any(ref is table._column_codes() for ref in held)

    def test_rebinding_the_parent_leaves_the_taken_rows(self):
        table = demo_cars()
        rows = table.rows
        taken = table._take(np.arange(3))
        table.rows = rows[::-1]
        assert taken.rows == rows[:3]

    @pytest.mark.parametrize("read", ["eq", "rows", "pickle"])
    def test_equality_rows_and_pickles_read_the_gathered_codes(self, read):
        table = demo_cars()
        at = np.arange(1, len(table), 2)
        taken, twin = table._take(at), table._take(at)
        plain = Table(table.schema, [table.rows[i] for i in at.tolist()])
        if read == "eq":
            assert taken == plain and plain == twin
        elif read == "rows":
            assert taken.rows == plain.rows
        else:
            back = pickle.loads(pickle.dumps(taken))
            assert back == plain and back._taken_at() is None
            assert len(pickle.dumps(taken)) == len(pickle.dumps(plain))
