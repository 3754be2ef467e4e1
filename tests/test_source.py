"""Query-only access with budgets and the sample-ratio probe."""

import copy
import pickle

import pytest

from nullbayes import AutonomousSource, QueryBudgetError, Row, SelectionQuery, Table

from conftest import sparse_cars


class TestAnswer:
    def test_certain_answers_only(self, sparse_table):
        src = AutonomousSource(sparse_table)
        hits = src.answer(SelectionQuery({"Body": "SUV"}))
        assert [r.id for r in hits] == [7, 9]

    def test_empty_query_counts_everything(self, sparse_table):
        src = AutonomousSource(sparse_table)
        assert len(src.answer(SelectionQuery())) == 10

    def test_unseen_value_matches_nothing(self, sparse_table):
        src = AutonomousSource(sparse_table)
        assert list(src.answer(SelectionQuery({"Body": "Truck"}))) == []
        assert src.queries_used == 1  # still a real, counted query

    def test_unknown_attribute_rejected(self, sparse_table):
        src = AutonomousSource(sparse_table)
        with pytest.raises(KeyError):
            src.answer(SelectionQuery({"Color": "red"}))

    def test_usage_counter(self, sparse_table):
        src = AutonomousSource(sparse_table)
        assert src.queries_used == 0
        src.answer(SelectionQuery({"Make": "Audi"}))
        src.answer(SelectionQuery({"Make": "BMW"}))
        assert src.queries_used == 2


class TestAnswerList:
    """An answer is a table of the rows it selects; its copies and pickles
    are tables that do not carry the source table."""

    def test_pickles_as_a_table(self, sparse_table):
        rows = AutonomousSource(sparse_table).answer(SelectionQuery({"Body": "SUV"}))
        back = pickle.loads(pickle.dumps(rows))
        assert type(back) is Table and back._taken_at() is None
        assert back == rows and list(back) == list(rows)

    def test_pickle_size_does_not_grow_with_the_source(self, sparse_table):
        query = SelectionQuery({"Body": "SUV"})
        arity = len(sparse_table.schema.attributes)
        padding = [Row(1000 + i, (None,) * arity) for i in range(500)]
        big = Table(sparse_table.schema, list(sparse_table.rows) + padding)
        small_rows = AutonomousSource(sparse_table).answer(query)
        big_rows = AutonomousSource(big).answer(query)
        assert big_rows == small_rows
        assert len(pickle.dumps(big_rows)) == len(pickle.dumps(small_rows))

    @pytest.mark.parametrize("how", [copy.copy, copy.deepcopy])
    def test_copies_are_tables(self, sparse_table, how):
        rows = AutonomousSource(sparse_table).answer(SelectionQuery({"Body": "SUV"}))
        copied = how(rows)
        assert type(copied) is Table and copied._taken_at() is None
        assert copied == rows and list(copied) == list(rows)


class TestBudget:
    def test_refusal_after_limit(self, sparse_table):
        src = AutonomousSource(sparse_table, query_limit=2)
        src.answer(SelectionQuery({"Make": "Audi"}))
        src.answer(SelectionQuery({"Make": "BMW"}))
        with pytest.raises(QueryBudgetError):
            src.answer(SelectionQuery({"Make": "Acura"}))

    def test_refused_query_not_counted(self, sparse_table):
        src = AutonomousSource(sparse_table, query_limit=1)
        src.answer(SelectionQuery())
        for _ in range(3):
            with pytest.raises(QueryBudgetError):
                src.answer(SelectionQuery())
        assert src.queries_used == 1

    def test_zero_budget(self, sparse_table):
        src = AutonomousSource(sparse_table, query_limit=0)
        with pytest.raises(QueryBudgetError):
            src.answer(SelectionQuery())

    def test_negative_budget_rejected(self, sparse_table):
        with pytest.raises(ValueError):
            AutonomousSource(sparse_table, query_limit=-1)


class TestEstimateRatio:
    def test_ratio(self, sparse_table):
        src = AutonomousSource(sparse_table)
        half = Table(sparse_table.schema, sparse_table.rows[:5])
        assert src.estimate_ratio(half) == pytest.approx(2.0)
        assert src.queries_used == 1

    def test_sample_equal_to_source(self, sparse_table):
        src = AutonomousSource(sparse_table)
        assert src.estimate_ratio(sparse_table) == pytest.approx(1.0)

    def test_oversized_sample_warns(self, sparse_table):
        small = Table(sparse_table.schema, sparse_table.rows[:4])
        src = AutonomousSource(small)
        with pytest.warns(UserWarning, match="larger"):
            ratio = src.estimate_ratio(sparse_table)
        assert ratio == pytest.approx(0.4)

    def test_empty_sample_rejected(self, sparse_table):
        src = AutonomousSource(sparse_table)
        with pytest.raises(ValueError):
            src.estimate_ratio(Table(sparse_table.schema, []))

    def test_probe_spends_budget(self, sparse_table):
        src = AutonomousSource(sparse_table, query_limit=1)
        src.estimate_ratio(sparse_table)
        with pytest.raises(QueryBudgetError):
            src.answer(SelectionQuery())
