"""Categorical tables with explicit missing cells.

A table is a fixed schema (ordered attributes, finite string domains) plus
rows whose cells are either a domain label or None.  None marks a missing
value; it is never a domain member.  Selection queries are conjunctions of
attribute = value equality predicates.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from operator import itemgetter

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
    order everywhere downstream (argmax tie-breaking relies on this).
    """

    __slots__ = ("attributes", "domains", "_index", "_label_codes", "_code_labels")

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
        # position -> label: every domain in one object array, read at a code
        # plus its attribute's offset (a column of offsets, for (d, N) codes)
        sizes = [len(fixed[a]) for a in self.attributes]
        self._code_labels = (
            np.array([v for a in self.attributes for v in fixed[a]], dtype=object),
            np.cumsum([0] + sizes[:-1])[:, None],
        )

    def index(self, attr: str) -> int:
        try:
            return self._index[attr]
        except KeyError:
            raise KeyError(f"unknown attribute {attr!r}") from None

    def domain(self, attr: str) -> tuple[str, ...]:
        self.index(attr)
        return self.domains[attr]

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
    of ``rows``, so rebinding ``rows`` rebuilds it.
    """

    __slots__ = ("schema", "rows", "_coded")

    def __init__(self, schema: Schema, rows: Iterable[Row]):
        self.schema = schema
        self.rows: tuple[Row, ...] = tuple(rows)
        self._coded: tuple[tuple[Row, ...], np.ndarray] | None = None
        cells = [row.cells for row in self.rows]
        lookups = schema._label_codes
        if (
            len({row.id for row in self.rows}) < len(cells)
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
            n = len(rows)
            codes = np.empty((len(self.schema.attributes), n), dtype=np.int32)
            columns = zip(*[row.cells for row in rows])
            for j, (lookup, column) in enumerate(zip(self.schema._label_codes, columns)):
                codes[j] = np.fromiter(map(lookup.__getitem__, column), np.int32, n)
            self._coded = (rows, codes)
        return self._coded[1]

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
        """The rows at the True positions of ``mask``, in table order."""
        rows = self.rows
        return [rows[i] for i in np.flatnonzero(mask).tolist()]


def _check_scale(name: str, value: float) -> None:
    """Refuse a negative or NaN ``value`` (``not value >= 0``), and an
    infinite one: it scales a score, which would come out NaN."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0")
    if value == math.inf:
        raise ValueError(f"{name} must be finite")


def _value_counts(codes: np.ndarray, sizes: Sequence[int], observed: bool = False):
    """How many rows take each value combination of the columns of ``codes``.

    ``codes`` is ``(k, N)``: domain indices, -1 for null, one row per column
    of domain size ``sizes[i]``; rows with a null among them are skipped.  A
    mixed-radix key (first column most significant) feeds one ``np.bincount``;
    returns int64 counts of shape ``sizes``.  With ``observed`` the key is
    re-ranked whenever its range passes the row count, so unseen combinations
    cost nothing and the key cannot overflow; returns ``(groups, counts)`` over
    the occurring combinations in lexicographic order, ``groups`` numbering
    their values on all columns but the last.
    """
    keep = (codes >= 0).all(axis=0)
    n = int(np.count_nonzero(keep))
    key = np.zeros(n, dtype=np.int64)
    radix = 1
    for col, size in zip(codes, sizes):
        key = key * size + col[keep]
        radix *= size
        seen = None
        if observed and radix > n:
            seen, key = np.unique(key, return_inverse=True)
            radix = len(seen)
    counts = np.bincount(key, minlength=radix)
    if not observed:
        return counts.reshape(tuple(sizes))
    if seen is None:
        seen = np.flatnonzero(counts)
        counts = counts[seen]
    return seen // sizes[-1], counts


class SelectionQuery:
    """Conjunction of attribute = value predicates, stored sorted by attribute."""

    __slots__ = ("items",)

    def __init__(self, predicates: Mapping[str, str] | Iterable[tuple[str, str]] = ()):
        if isinstance(predicates, Mapping):
            pairs = list(predicates.items())
        else:
            pairs = list(predicates)
        attrs = [a for a, _ in pairs]
        if len(set(attrs)) != len(attrs):
            raise ValueError("duplicate attribute in query")
        items = tuple(sorted((str(a), str(v)) for a, v in pairs))
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
            if value not in schema.domain(attr):
                raise ValueError(f"value {value!r} not in domain of {attr!r}")

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
    sets of observed non-null values per column.

    Raises
    ------
    ParseError
        On text that is not UTF-8 or CSV, an empty file, a blank or repeated
        name, a row whose arity differs from the header (the message names
        the line), or an all-null column.  Every message names the file.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
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
    could-match semantics (nulls act as wildcards).
    """
    query.validate(table.schema)
    return table.rows_where(table.mask(query, include_null_matches))


def project_distinct(
    schema: Schema, rows: Sequence[Row], attrs: Sequence[str]
) -> list[tuple[str, ...]]:
    """Distinct null-free projections of ``rows`` onto ``attrs``.

    Combinations containing a null are dropped.  Order of first occurrence
    is preserved.
    """
    cells = [row.cells for row in rows]
    columns = [map(itemgetter(schema.index(a)), cells) for a in attrs]
    if not columns:
        return [()] if cells else []
    return [combo for combo in dict.fromkeys(zip(*columns)) if None not in combo]


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
