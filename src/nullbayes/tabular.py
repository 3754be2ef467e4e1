"""Categorical tables with explicit missing cells.

A table is a fixed schema (ordered attributes, finite string domains) plus
rows whose cells are either a domain label or None.  None marks a missing
value; it is never a domain member.  Selection queries are conjunctions of
attribute = value equality predicates.
"""

from __future__ import annotations

import csv
import math
import operator
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from operator import attrgetter, itemgetter

import numpy as np

__all__ = [
    "ParseError",
    "Schema",
    "Row",
    "Table",
    "SelectionQuery",
    "load_csv",
    "save_csv",
    "discretize",
    "parse_discretize_rules",
    "select",
    "project_distinct",
    "inject_nulls",
    "align_table",
    "sample_table",
]


class ParseError(ValueError):
    """Raised for malformed input files."""


class Schema:
    """Ordered attribute names and the sorted label domain of each attribute.

    Domains are stored sorted so that index order equals lexicographic label
    order everywhere downstream (argmax tie-breaking relies on this).  A
    label's code is that index: ``code`` is the one label -> code lookup and
    ``sizes`` holds the domain sizes; no other module reads the maps behind.
    """

    __slots__ = ("attributes", "domains", "sizes", "_index", "_label_codes", "_code_labels")

    def __init__(self, attributes: Iterable[str], domains: Mapping[str, Iterable[str]]):
        self.attributes: tuple[str, ...] = tuple(attributes)
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError("duplicate attribute names in schema")
        if not self.attributes:
            raise ValueError("schema needs at least one attribute")
        fixed: dict[str, tuple[str, ...]] = {}
        for attr in self.attributes:
            if attr not in domains:
                raise ValueError(f"no domain given for attribute {attr!r}")
            labels = tuple(domains[attr])
            if not labels:
                raise ValueError(f"empty domain for attribute {attr!r}")
            for v in labels:
                if not isinstance(v, str):
                    raise ValueError(f"domain of {attr!r} contains non-string label {v!r}")
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate labels in domain of {attr!r}")
            fixed[attr] = tuple(sorted(labels))
        self.domains: dict[str, tuple[str, ...]] = fixed
        self._index = {a: i for i, a in enumerate(self.attributes)}
        # label -> position in the sorted domain; None (a null cell) -> -1
        self._label_codes = [
            {None: -1, **{v: k for k, v in enumerate(fixed[a])}} for a in self.attributes
        ]
        self.sizes: tuple[int, ...] = tuple(len(fixed[a]) for a in self.attributes)
        # position -> label: every domain in one object array, read at a code
        # plus its attribute's offset (a column of offsets, for (d, N) codes)
        self._code_labels = (
            np.array([v for a in self.attributes for v in fixed[a]], dtype=object),
            np.cumsum([0, *self.sizes[:-1]])[:, None],
        )

    def index(self, attr: str) -> int:
        try:
            return self._index[attr]
        except KeyError:
            raise KeyError(f"unknown attribute {attr!r}") from None

    def domain(self, attr: str) -> tuple[str, ...]:
        self.index(attr)
        return self.domains[attr]

    def code(self, attr: str, value: str) -> int:
        """The index of ``value`` in ``attr``'s domain.  KeyError for an unknown
        attribute, ValueError for a value outside the domain (None too)."""
        code = self._label_codes[self.index(attr)].get(value, -1)
        if code < 0:
            raise ValueError(f"value {value!r} not in domain of {attr!r}")
        return code

    def value(self, row: "Row", attr: str) -> str | None:
        return row.cells[self.index(attr)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Schema)
            and self.attributes == other.attributes
            and self.domains == other.domains
        )

    def __hash__(self) -> int:
        return hash((self.attributes, tuple(self.domains[a] for a in self.attributes)))

    def __repr__(self) -> str:
        return f"Schema({list(self.attributes)!r})"


@dataclass(frozen=True)
class Row:
    """One tuple: a stable integer id and one cell per schema attribute."""

    id: int
    cells: tuple[str | None, ...]


class Table:
    """Immutable rows under one schema.

    Invariants checked on construction: unique row ids, one cell per
    attribute, and every non-null cell inside its attribute's domain.

    Selections and model fitting run over a ``(d, N)`` int32 matrix of domain
    indices (-1 for null), built on first use and cached against the identity
    of ``rows``, so rebinding ``rows`` rebuilds it.  The same walk over
    ``rows`` caches them as an object array, and the row ids, as an int64
    column and sorted, are cached beside them the same way.
    """

    __slots__ = ("schema", "rows", "_coded", "_by_id")

    def __init__(self, schema: Schema, rows: Iterable[Row]):
        self.schema = schema
        self.rows: tuple[Row, ...] = tuple(rows)
        self._coded: tuple[tuple[Row, ...], np.ndarray, np.ndarray] | None = None
        self._by_id: tuple[tuple[Row, ...], np.ndarray, np.ndarray, np.ndarray] | None = None
        cells = [row.cells for row in self.rows]
        lookups = schema._label_codes
        try:
            ids = {operator.index(row.id) for row in self.rows}
        except TypeError:  # an id that is not an integer
            ids = ()
        if (
            len(ids) < len(cells)
            or set(map(len, cells)) - {len(lookups)}
            or any(set(column) - lookup.keys() for lookup, column in zip(lookups, zip(*cells)))
        ):
            self._raise_first_fault()

    def _raise_first_fault(self) -> None:
        # the constructor's checks, row by row, so the message names the first bad row
        schema = self.schema
        seen: set[int] = set()
        arity = len(schema.attributes)
        for row in self.rows:
            _check_count(f"row id {row.id!r}", row.id, -math.inf)
            if row.id in seen:
                raise ValueError(f"duplicate row id {row.id}")
            seen.add(row.id)
            if len(row.cells) != arity:
                raise ValueError(f"row {row.id} has {len(row.cells)} cells, schema has {arity}")
            for attr, lookup, cell in zip(schema.attributes, schema._label_codes, row.cells):
                if cell not in lookup:
                    raise ValueError(f"row {row.id}: value {cell!r} not in domain of {attr!r}")

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Table) and self.schema == other.schema and self.rows == other.rows

    def __repr__(self) -> str:
        return f"Table({len(self.rows)} rows, {len(self.schema.attributes)} attributes)"

    def row_by_id(self, row_id: int) -> Row:
        for row in self.rows:
            if row.id == row_id:
                return row
        raise KeyError(f"no row with id {row_id}")

    def value(self, row: Row, attr: str) -> str | None:
        return self.schema.value(row, attr)

    def _column_codes(self) -> np.ndarray:
        rows = self.rows
        if self._coded is None or self._coded[0] is not rows:
            listed = list(rows)
            objects = np.empty(len(listed), dtype=object)
            objects[:] = listed
            columns = zip(*[row.cells for row in listed])
            codes = _encode(self.schema._label_codes, columns, len(listed))
            self._coded = (rows, codes, objects)
        return self._coded[1]

    def _ids(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The row ids as an int64 column in table order, that column
        sorted, and the positions it was sorted from."""
        rows = self.rows
        if self._by_id is None or self._by_id[0] is not rows:
            ids = np.fromiter(map(attrgetter("id"), rows), np.int64, len(rows))
            order = np.argsort(ids)
            self._by_id = (rows, ids, ids[order], order)
        return self._by_id[1:]

    def _positions(self, ids: np.ndarray) -> np.ndarray:
        """The positions in ``rows`` of those of ``ids`` (numbers) that are
        row ids here, by binary search in the sorted id column."""
        _, by_id, order = self._ids()
        if not len(order):
            return order
        at = np.searchsorted(by_id, ids).clip(max=len(order) - 1)
        return order[at[by_id[at] == ids]]

    def mask(self, query: "SelectionQuery", null_wildcard: bool = False) -> np.ndarray:
        """Boolean array over ``rows``: True where ``query.matches`` would be.

        A value outside an attribute's domain matches no cell (only nulls,
        under ``null_wildcard``).  Raises KeyError for an unknown attribute.
        """
        codes = self._column_codes()
        keep = np.ones(codes.shape[1], dtype=bool)
        for attr, value in query.items:
            j = self.schema.index(attr)
            column = codes[j]
            hit = column == self.schema._label_codes[j].get(value, -2)
            if null_wildcard:
                hit |= column == -1
            keep &= hit
        return keep

    def rows_where(self, mask: np.ndarray) -> list[Row]:
        """The rows at the True positions of ``mask``, in table order.

        The list also records this table and those positions, so callers
        such as ``project_distinct`` read the rows' cells off the cached code
        matrix instead of the ``Row``s.  It is a ``list`` in every other
        respect; a copy or a pickle of it is a plain ``list``.
        """
        at = np.flatnonzero(mask)
        self._column_codes()
        return _Selection(self._coded[2][at].tolist(), self, at)


class _Selection(list):
    """Rows of ``table`` at the positions ``at`` (int64) of ``table.rows``.

    Changing the list in place sets ``at`` to None: the rows no longer are
    the ones at those positions.  Copying or pickling gives a plain ``list``,
    so a selection never carries its table along.
    """

    __slots__ = ("table", "at")

    def __init__(self, rows: list[Row], table: Table, at: np.ndarray):
        super().__init__(rows)
        self.table = table
        self.at: np.ndarray | None = at

    def __reduce__(self):
        return list, (list(self),)


def _forgetting_positions(method):
    def mutate(self, *args, **kwargs):
        self.at = None
        return method(self, *args, **kwargs)

    return mutate


for _name in (
    "__setitem__", "__delitem__", "__iadd__", "__imul__", "append", "extend",
    "insert", "pop", "remove", "reverse", "sort", "clear",
):
    setattr(_Selection, _name, _forgetting_positions(getattr(list, _name)))


def _encode(lookups: Sequence[Mapping], columns: Iterable[Iterable], n: int) -> np.ndarray:
    """A ``(len(lookups), n)`` int32 matrix of the ``n``-cell label
    ``columns``, each through its ``Schema._label_codes`` lookup: a domain
    index, or -1 for null.  A label outside its lookup raises KeyError."""
    codes = np.empty((len(lookups), n), dtype=np.int32)
    for j, (lookup, column) in enumerate(zip(lookups, columns)):
        codes[j] = np.fromiter(map(lookup.__getitem__, column), np.int32, n)
    return codes


def _codes_at(schema: Schema, rows: Sequence[Row], idx: Sequence[int]) -> np.ndarray:
    """The codes ``(len(idx), len(rows))`` of the cells of ``rows`` (under
    ``schema``) in the columns ``idx``.  A selection under an equal schema
    slices its table's cached code matrix at its positions; other rows are
    encoded."""
    if isinstance(rows, _Selection) and rows.at is not None and rows.table.schema == schema:
        return rows.table._column_codes()[np.ix_(idx, rows.at)]
    cells = [row.cells for row in rows]
    columns = [map(itemgetter(j), cells) for j in idx]
    return _encode([schema._label_codes[j] for j in idx], columns, len(cells))


def _radix_key(codes: np.ndarray, sizes) -> np.ndarray:
    """One int64 per column of ``codes`` (row i in ``range(sizes[i])``), equal
    and ordered as the columns are: mixed radix, first row most significant,
    re-ranked by ``np.unique`` only where the next digit could overflow."""
    key = np.zeros(codes.shape[1], dtype=np.int64)
    radix = 1
    for row, size in zip(codes, sizes):
        if radix * size >= 2**63:
            seen, key = np.unique(key, return_inverse=True)
            radix = len(seen)
        key = key * size + row
        radix *= size
    return key


def _decode(schema: Schema, codes: np.ndarray, idx: Sequence[int]) -> list[tuple[str, ...]]:
    """The columns of ``codes`` (null-free codes of ``schema``'s columns
    ``idx``, one row each) as label tuples, decoded one row at a time (one
    ``tolist`` of the 2-D label array costs twice as much)."""
    labels, offsets = schema._code_labels
    return list(zip(*[labels[row].tolist() for row in codes + offsets[idx]]))


def _distinct(schema: Schema, codes: np.ndarray, idx: Sequence[int]) -> list[tuple[str, ...]]:
    """The distinct null-free columns of ``codes`` (the codes of ``schema``'s
    columns ``idx``, one row each) in order of first occurrence, as labels."""
    codes = codes[:, (codes >= 0).all(axis=0)]
    _, first = np.unique(_radix_key(codes, [schema.sizes[j] for j in idx]), return_index=True)
    return _decode(schema, codes[:, np.sort(first)], idx)


def _check_scale(name: str, value: float) -> None:
    """Refuse a negative or NaN ``value`` (``not value >= 0``), and an
    infinite one: it scales a score, which would come out NaN."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0")
    if value == math.inf:
        raise ValueError(f"{name} must be finite")


def _check_count(name: str, value, least: int = 0, *, or_none: bool = False) -> None:
    """Refuse a count that ``operator.index`` refuses (a float, a string) or
    below ``least``; with ``or_none``, None passes and the messages say so."""
    if or_none and value is None:
        return
    tail = " or None" if or_none else ""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer{tail}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}{tail}")


def _value_counts(codes: np.ndarray, sizes: Sequence[int], observed: bool = False):
    """How many rows take each value combination of the columns of ``codes``.

    ``codes`` is ``(k, N)``: domain indices, -1 for null, one row per column
    of domain size ``sizes[i]``; rows with a null among them are skipped.
    ``_radix_key`` keys the rest for one ``np.bincount``; returns int64
    counts of shape ``sizes``.  With ``observed``, where the key's range
    passes the kept row count, ``np.unique`` counts the keys instead, so the
    counts never span more than the kept row count + 1, however large the
    domains are; returns ``(groups, counts)`` over the occurring combinations
    in lexicographic order, ``groups`` numbering, in order, their values on
    all columns but the last.
    """
    keep = (codes >= 0).all(axis=0)
    kept = codes if keep.all() else codes.compress(keep, axis=1)
    key = _radix_key(kept, sizes)
    if observed and math.prod(sizes) > len(key):
        seen, counts = np.unique(key, return_counts=True)
        return seen // sizes[-1], counts
    counts = np.bincount(key, minlength=math.prod(sizes))
    if not observed:
        return counts.reshape(tuple(sizes))
    seen = np.flatnonzero(counts)
    return seen // sizes[-1], counts[seen]


class SelectionQuery:
    """Conjunction of attribute = value predicates, stored sorted by attribute."""

    __slots__ = ("items",)

    def __init__(self, predicates: Mapping[str, str] | Iterable[tuple[str, str]] = ()):
        if isinstance(predicates, Mapping):
            pairs = list(predicates.items())
        else:
            pairs = list(predicates)
        items = tuple(sorted((str(a), str(v)) for a, v in pairs))
        if len({a for a, _ in items}) != len(items):
            raise ValueError("duplicate attribute in query")
        object.__setattr__(self, "items", items)

    @classmethod
    def parse(cls, text: str) -> "SelectionQuery":
        """Parse ``"Attr=Value & Attr2=Value2"``.  Whitespace around parts is trimmed.

        So query text cannot carry a value that contains ``&`` (it splits the
        predicate) or has leading or trailing spaces (they are trimmed); build
        such a query from pairs with ``SelectionQuery({attr: value})``.
        """
        pairs = []
        for part in text.split("&"):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ParseError(f"bad predicate {part!r}: expected Attr=Value")
            attr, _, value = part.partition("=")
            attr, value = attr.strip(), value.strip()
            if not attr or not value:
                raise ParseError(f"bad predicate {part!r}: empty attribute or value")
            pairs.append((attr, value))
        if not pairs:
            raise ParseError("empty query")
        return cls(pairs)

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.items)

    def value(self, attr: str) -> str:
        for a, v in self.items:
            if a == attr:
                return v
        raise KeyError(f"query does not constrain {attr!r}")

    def validate(self, schema: Schema) -> None:
        for attr, value in self.items:
            schema.code(attr, value)

    def matches(self, schema: Schema, row: Row, null_wildcard: bool = False) -> bool:
        """True if the row satisfies every predicate.

        With ``null_wildcard`` a null cell counts as a match; this is the
        could-match semantics used by evaluation oracles, not by sources.
        """
        for attr, value in self.items:
            cell = row.cells[schema.index(attr)]
            if cell is None:
                if not null_wildcard:
                    return False
            elif cell != value:
                return False
        return True

    def extended(self, attr: str, value: str) -> "SelectionQuery":
        return SelectionQuery(self.items + ((attr, value),))

    def text(self) -> str:
        return " & ".join(f"{a}={v}" for a, v in self.items)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SelectionQuery) and self.items == other.items

    def __hash__(self) -> int:
        return hash(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:
        return f"SelectionQuery({self.text()!r})"


def load_csv(path: str, null_token: str = "") -> Table:
    """Load a header-first CSV file as a Table.

    Cells are trimmed; a trimmed cell equal to ``null_token`` becomes a
    missing value.  Row ids are assigned 1..N in file order.  Domains are the
    sets of observed non-null values per column.  A leading UTF-8 byte-order
    mark (Excel's "CSV UTF-8" writes one) is not part of the first name.

    Raises
    ------
    ParseError
        On text that is not UTF-8 or CSV, an empty file, a blank or repeated
        name, a row whose arity differs from the header (the message names
        the line), or an all-null column.  Every message names the file.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file") from None
            attrs = [h.strip() for h in header]
            if any(not a for a in attrs):
                raise ParseError(f"{path}: blank attribute name in header")
            if len(set(attrs)) != len(attrs):
                raise ParseError(f"{path}: duplicate attribute names in header")
            raw_rows: list[list[str | None]] = []
            for lineno, record in enumerate(reader, start=2):
                if len(record) != len(attrs):
                    raise ParseError(
                        f"{path}: line {lineno}: expected {len(attrs)} fields, got {len(record)}"
                    )
                raw_rows.append([None if c == null_token else c for c in map(str.strip, record)])
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: {exc}") from None
    domains = _observed_domains(attrs, raw_rows)
    for attr in attrs:
        if not domains[attr]:
            raise ParseError(f"{path}: empty domain for attribute {attr!r}")
    schema = Schema(attrs, domains)
    rows = [Row(i, tuple(cells)) for i, cells in enumerate(raw_rows, start=1)]
    return Table(schema, rows)


def _observed_domains(attrs: Sequence[str], cells: Sequence[Sequence[str | None]]) -> dict:
    columns = list(zip(*cells)) or [()] * len(attrs)
    return {attr: set(column) - {None} for attr, column in zip(attrs, columns)}


def save_csv(table: Table, path: str, null_token: str = "") -> None:
    """Write a Table back to CSV, rendering missing cells as ``null_token``.

    Raises ValueError, writing nothing, if an attribute name, a row's label
    or a missing cell would not read back through ``load_csv``: a blank or
    padded name, a label equal to ``null_token``, a label with surrounding
    whitespace, or a padded ``null_token`` (cells are trimmed before the
    comparison) where a cell is missing.
    """
    for attr in table.schema.attributes:
        if not attr or attr != attr.strip():
            raise ValueError(f"attribute name {attr!r} would not read back")
    if null_token != null_token.strip() and any(None in row.cells for row in table.rows):
        raise ValueError(f"null token {null_token!r} would not read back")
    for j, attr in enumerate(table.schema.attributes):
        for label in table.schema.domains[attr]:
            bad = label == null_token or label != label.strip()
            if bad and any(row.cells[j] == label for row in table.rows):
                raise ValueError(f"label {label!r} of attribute {attr!r} would not read back")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.schema.attributes)
        for row in table.rows:
            writer.writerow([null_token if c is None else c for c in row.cells])


def _round_to_multiple(value: int, granularity: int) -> int:
    # nearest multiple; exact midpoint rounds up
    q, r = divmod(value, granularity)
    if 2 * r >= granularity:
        q += 1
    return q * granularity


def parse_discretize_rules(text: str) -> dict[str, int]:
    """Parse ``Attr:granularity`` rules separated by commas, for ``discretize``."""
    rules = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        attr, _, gran = part.partition(":")
        attr = attr.strip()
        try:
            granularity = int(gran)  # gran is empty when the colon is missing
        except ValueError:
            granularity = None
        if not attr or granularity is None:
            raise ValueError(f"bad discretize rule {part!r}: expected Attr:granularity")
        rules[attr] = granularity
    return rules


def discretize(table: Table, rules: Mapping[str, int]) -> Table:
    """Bucket integer-labeled attributes to the nearest multiple of a granularity.

    ``rules`` maps attribute name to a positive integer granularity.  Null
    cells stay null.  Idempotent: already-bucketed values are fixed points.

    Raises
    ------
    ValueError
        For an unknown attribute, a non-positive granularity, or a non-integer
        label in a targeted column (the message names attribute and value).
    """
    for attr, gran in rules.items():
        table.schema.index(attr)
        if int(gran) != gran or gran <= 0:
            raise ValueError(f"granularity for {attr!r} must be a positive integer")
    new_rows = []
    for row in table.rows:
        cells = list(row.cells)
        for attr, gran in rules.items():
            i = table.schema.index(attr)
            cell = cells[i]
            if cell is None:
                continue
            try:
                num = int(cell)
            except ValueError:
                raise ValueError(f"attribute {attr!r}: non-numeric label {cell!r}") from None
            cells[i] = str(_round_to_multiple(num, int(gran)))
        new_rows.append(Row(row.id, tuple(cells)))
    domains = _observed_domains(table.schema.attributes, [row.cells for row in new_rows])
    for attr in table.schema.attributes:
        if not domains[attr]:
            # column was entirely null already; keep its old domain
            domains[attr] = set(table.schema.domains[attr])
    return Table(Schema(table.schema.attributes, domains), new_rows)


def select(table: Table, query: SelectionQuery, include_null_matches: bool = False) -> list[Row]:
    """Rows satisfying the query.

    Default semantics are certain answers only: a null cell on a constrained
    attribute never matches.  ``include_null_matches`` switches to
    could-match semantics (nulls act as wildcards).  The list records the
    table and the rows' positions in it (see ``Table.rows_where``).
    """
    query.validate(table.schema)
    return table.rows_where(table.mask(query, include_null_matches))


def project_distinct(
    schema: Schema, rows: Sequence[Row], attrs: Sequence[str]
) -> list[tuple[str, ...]]:
    """Distinct null-free projections of ``rows`` (under ``schema``) onto
    ``attrs``, in order of first occurrence.

    Combinations containing a null are dropped.  The cells come from the
    source table's cached code matrix when ``rows`` is a ``select`` or
    ``AutonomousSource.answer`` result under an equal schema, and are
    encoded otherwise; each null-free combination gets one mixed-radix key,
    ``np.unique`` finds the first occurrences, and only the distinct
    combinations are decoded to labels.  Raises KeyError for an unknown
    attribute, even when ``rows`` is empty.
    """
    idx = [schema.index(a) for a in attrs]
    codes = _codes_at(schema, rows, idx)
    if not idx:
        return [()] if codes.shape[1] else []
    return _distinct(schema, codes, idx)


def inject_nulls(
    table: Table, attrs: Sequence[str], fraction: float, seed: int | Sequence[int]
) -> Table:
    """Null out the listed attributes on a random ceil(fraction*N) subset of rows.

    The subset is drawn without replacement with a generator seeded by
    ``seed``, so equal arguments give equal output.  Row ids and the schema
    (including domains) are unchanged.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    idx = [table.schema.index(a) for a in attrs]
    n = len(table.rows)
    k = math.ceil(fraction * n)
    rng = np.random.default_rng(seed)
    hit = rng.choice(n, size=k, replace=False).tolist() if k else []
    rows = list(table.rows)
    for pos in hit:
        cells = list(rows[pos].cells)
        for i in idx:
            cells[i] = None
        rows[pos] = Row(rows[pos].id, tuple(cells))
    return Table(table.schema, rows)


def align_table(table: Table, schema: Schema) -> Table:
    """Reorder a table's columns to ``schema`` and revalidate against its domains.

    Useful for pairing freshly loaded data with a saved model: attribute
    sets must match exactly; values outside the schema's domains raise.
    """
    missing = [a for a in schema.attributes if a not in table.schema.attributes]
    extra = [a for a in table.schema.attributes if a not in schema.attributes]
    if missing:
        raise ValueError(f"table lacks attributes {missing}")
    if extra:
        raise ValueError(f"table has unexpected attributes {extra}")
    idx = [table.schema.index(a) for a in schema.attributes]
    rows = [Row(r.id, tuple(r.cells[i] for i in idx)) for r in table.rows]
    return Table(schema, rows)


def sample_table(table: Table, fraction: float, seed: int | Sequence[int]) -> Table:
    """A uniform without-replacement sample of ceil(fraction*N) rows.

    Sampled rows keep their ids and their original relative order.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    n = len(table.rows)
    k = math.ceil(fraction * n)
    rng = np.random.default_rng(seed)
    hit = sorted(rng.choice(n, size=k, replace=False).tolist())
    return Table(table.schema, [table.rows[i] for i in hit])
