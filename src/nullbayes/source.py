"""A queryable tuple store that only answers selection queries.

Models an autonomous database behind a restricted interface: callers may
submit equality-conjunction queries (no scans, no writes) and may be cut
off after a fixed number of them.  Running out of budget raises; an empty
answer is an answer, not an error.
"""

from __future__ import annotations

import warnings

from .tabular import SelectionQuery, Table, _check_count

__all__ = ["AutonomousSource", "QueryBudgetError"]


class QueryBudgetError(RuntimeError):
    """The source refused a query because the budget is exhausted."""


class AutonomousSource:
    """Selection-query access to a table, with an optional query budget.

    ``query_limit`` of None means unlimited.  ``queries_used`` counts only
    answered queries; a refused query leaves it unchanged.
    """

    def __init__(self, table: Table, query_limit: int | None = None):
        _check_count("query_limit", query_limit, or_none=True)
        self._table = table
        self._limit = query_limit
        self._used = 0

    @property
    def schema(self):
        return self._table.schema

    @property
    def queries_used(self) -> int:
        return self._used

    @property
    def query_limit(self) -> int | None:
        return self._limit

    def answer(self, query: SelectionQuery) -> Table:
        """Certain answers to the query: the rows whose constrained cells match.

        Null cells never match.  A value the source has never seen is a
        legitimate query that matches nothing, not an error; an attribute
        the source does not have raises KeyError (the form has no such
        field).  Raises QueryBudgetError when the budget is already spent;
        the failed attempt is not counted.

        The rows are those ``Table._matching`` finds: the shortest
        predicate's run of positions, kept where the other predicates' codes
        match.  The source table keeps each (column, code) run it scans for,
        so a query reads no full column once its values have been asked for.
        The answer is a ``Table`` of the rows in source order; its codes are
        gathered and its ``Row``s built only when read.
        """
        if self._limit is not None and self._used >= self._limit:
            raise QueryBudgetError(
                f"query budget of {self._limit} exhausted after {self._used} queries"
            )
        at = self._table._matching(query)
        self._used += 1
        return self._table._take(at)

    def estimate_ratio(self, sample: Table) -> float:
        """|source| / |sample|, measured with one unconstrained probe.

        The probe counts against the budget.  A ratio below 1 (sample larger
        than the source) is returned as-is with a warning.
        """
        if len(sample) == 0:
            raise ValueError("empty sample")
        rows = self.answer(SelectionQuery())
        ratio = len(rows) / len(sample)
        if ratio < 1.0:
            warnings.warn(
                f"sample ({len(sample)} rows) is larger than the source ({len(rows)} rows)",
                stacklevel=2,
            )
        return ratio
