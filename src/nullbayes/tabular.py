"""Categorical tables with explicit missing cells.

A table is a fixed schema (ordered attributes, finite string domains) plus
rows whose cells are either a domain label or None.  None marks a missing
value; it is never a domain member.  Selection queries are conjunctions of
attribute = value equality predicates.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import math
import numbers
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
        # position -> label: every domain, each followed by None, in one
        # object array, read at a code plus its attribute's offset (a column
        # of offsets, for (d, N) codes); a null's -1 reads the None before it
        self._code_labels = (
            np.array([v for a in self.attributes for v in (*fixed[a], None)], dtype=object),
            np.cumsum([0, *(size + 1 for size in self.sizes[:-1])])[:, None],
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

    The storage is a ``(d, N)`` int32 matrix of domain indices (-1 for null)
    and an int64 column of the row ids: ``Table(schema, rows)`` checks the
    rows by encoding them and keeps them, and a table derived from another
    (``inject_nulls``, ``split_table``, imputation...) is built from codes,
    its ``rows`` built on first read and kept.  Rebinding ``rows`` encodes
    and checks the new rows as the constructor does, and keeps them as a
    tuple (one given, of a subclass too, as it is), which nothing can change
    later.  A table taken from another (``_take``: a ``select`` or
    ``AutonomousSource.answer`` result, say) records the positions it was
    taken at and the other table's code matrix, not the table, and gathers
    its own codes from that matrix on first use.

    ``_matching`` finds the rows of a query (for ``select`` and
    ``AutonomousSource.answer`` alike) from runs: the positions holding one
    code in one column, found by one scan the first time that (column, code)
    is asked for and kept, read-only, in ``_runs``.  Rebinding ``rows`` drops
    them.  A pickle (a copy too) holds the schema, ids and codes only, and
    neither a derived nor a taken table starts with any.
    """

    __slots__ = ("schema", "_rows", "_codes", "_row_ids", "_taken", "_parent_codes", "_runs")

    def __init__(self, schema: Schema, rows: Iterable[Row]):
        self.schema = schema
        self.rows = rows

    @classmethod
    def _of(cls, schema: Schema, ids: np.ndarray, codes: np.ndarray) -> "Table":
        """A table stored as ``ids`` and ``codes``, valid by construction."""
        table = object.__new__(cls)
        table.schema, table._row_ids, table._codes = schema, ids, codes
        table._rows = table._taken = table._parent_codes = table._runs = None
        return table

    def _take(self, at: np.ndarray) -> "Table":
        # the rows at the positions ``at``; their codes are gathered on first use
        table = Table._of(self.schema, self._id_column()[at], None)
        table._taken, table._parent_codes = at, self._column_codes()
        return table

    def _taken_at(self) -> np.ndarray | None:
        """The positions this table was taken at (``_take``) in the table it
        was taken from; None for a table built otherwise."""
        return self._taken

    def __reduce__(self):
        return type(self)._of, (self.schema, self._row_ids, self._column_codes())

    @property
    def rows(self) -> tuple[Row, ...]:
        """The rows, built from the codes and ids on first read and kept."""
        if self._rows is None:
            with _bulk_build():
                cells = _decode(self.schema, self._column_codes(), range(len(self.schema.attributes)))
                self._rows = tuple(map(Row, self._row_ids.tolist(), cells))
        return self._rows

    @rows.setter
    def rows(self, rows: Iterable[Row]) -> None:
        if not isinstance(rows, tuple):
            rows = tuple(rows)
        schema = self.schema
        try:  # a short row raises IndexError, a long one shows in the arity set
            codes = _codes_at(schema, rows, range(len(schema.attributes)))
            ids = np.fromiter(map(operator.index, map(attrgetter("id"), rows)), np.int64, len(rows))
            arity = set(map(len, [row.cells for row in rows])) - {len(schema.attributes)}
            fault = arity or len(np.unique(ids)) < len(ids)
        except (KeyError, IndexError, TypeError, OverflowError):
            fault = True
        if fault:
            self._raise_first_fault(rows)
        self._rows, self._codes, self._row_ids = rows, codes, ids
        self._taken = self._parent_codes = self._runs = None

    def _raise_first_fault(self, rows: Sequence[Row]) -> None:
        # the constructor's checks, row by row, so the message names the first bad row
        schema = self.schema
        seen: set[int] = set()
        arity = len(schema.attributes)
        for row in rows:
            _check_count(f"row id {row.id!r}", row.id, -math.inf)
            if not -(2**63) <= row.id < 2**63:
                raise ValueError(f"row id {row.id} does not fit in 64 bits")
            if row.id in seen:
                raise ValueError(f"duplicate row id {row.id}")
            seen.add(row.id)
            if len(row.cells) != arity:
                raise ValueError(f"row {row.id} has {len(row.cells)} cells, schema has {arity}")
            for attr, lookup, cell in zip(schema.attributes, schema._label_codes, row.cells):
                if cell not in lookup:
                    raise ValueError(f"row {row.id}: value {cell!r} not in domain of {attr!r}")

    def __len__(self) -> int:
        return len(self._row_ids)

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        # under one schema, equal ids and equal codes are equal rows
        return (
            isinstance(other, Table)
            and self.schema == other.schema
            and np.array_equal(self._row_ids, other._row_ids)
            and np.array_equal(self._column_codes(), other._column_codes())
        )

    def __repr__(self) -> str:
        return f"Table({len(self)} rows, {len(self.schema.attributes)} attributes)"

    def _column_codes(self) -> np.ndarray:
        if self._codes is None:  # a taken table's, gathered once; take keeps them C-contiguous
            self._codes = self._parent_codes.take(self._taken, axis=1)
            self._parent_codes = None
        return self._codes

    def _id_column(self) -> np.ndarray:
        return self._row_ids

    def _matching(self, query: "SelectionQuery") -> np.ndarray:
        """The positions of the rows ``query.matches``, ascending: the
        shortest predicate's run, kept where every other predicate's code
        matches.  A value outside an attribute's domain matches no cell.
        Raises KeyError for an unknown attribute, whatever the other values."""
        wanted = []  # (column, code) per predicate, every attribute looked up first
        for attr, value in query.items:
            j = self.schema.index(attr)
            wanted.append((j, self.schema._label_codes[j].get(value, -2)))
        if not wanted:
            return np.arange(len(self))
        runs = [self._run(j, code) for j, code in wanted]
        shortest = min(range(len(runs)), key=lambda i: len(runs[i]))
        at, codes = runs[shortest], self._column_codes()
        for i, (j, code) in enumerate(wanted):
            if i != shortest:
                at = at[codes[j, at] == code]
        return at

    def _run(self, j: int, code: int) -> np.ndarray:
        """The positions, ascending and read-only, holding ``code`` in column
        ``j`` (none for a code outside the domain): one scan of the column the
        first time the pair is asked for, kept in ``_runs``."""
        if self._runs is None:
            self._runs = {}
        run = self._runs.get((j, code))
        if run is None:
            run = np.flatnonzero(self._column_codes()[j] == code)
            run.flags.writeable = False
            self._runs[j, code] = run
        return run


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
    ``schema``) in the columns ``idx``.  A table under an equal schema gives
    its own codes; other rows are encoded."""
    if isinstance(rows, Table) and rows.schema == schema:
        return rows._column_codes()[list(idx)]
    cells = [row.cells for row in rows]
    columns = [map(itemgetter(j), cells) for j in idx]
    return _encode([schema._label_codes[j] for j in idx], columns, len(cells))


def _radix_key(codes: np.ndarray, sizes) -> np.ndarray:
    """One int64 per column of ``codes`` (row i in ``range(sizes[i])``), equal
    and ordered as the columns are: mixed radix, first row most significant,
    re-ranked by ``np.unique`` only where the next digit could overflow;
    built in place from a copy of the first row."""
    digits = zip(codes, sizes)
    row, radix = next(digits, (np.zeros(codes.shape[1], dtype=np.int64), 1))
    key = row.astype(np.int64)
    for row, size in digits:
        if radix * size >= 2**63:
            seen, key = np.unique(key, return_inverse=True)
            radix = len(seen)
        key *= size
        key += row
        radix *= size
    return key


def _decode(schema: Schema, codes: np.ndarray, idx: Sequence[int]) -> list[tuple[str | None, ...]]:
    """The columns of ``codes`` (codes of ``schema``'s columns ``idx``, one
    row each, -1 for null) as label tuples, None for null, decoded one row at
    a time (one ``tolist`` of the 2-D label array costs twice as much)."""
    labels, offsets = schema._code_labels
    return list(zip(*[labels[row].tolist() for row in codes + offsets[idx]]))


def _distinct(schema: Schema, codes: np.ndarray, idx: Sequence[int]) -> list[tuple[str, ...]]:
    """The distinct null-free columns of ``codes`` (the codes of ``schema``'s
    columns ``idx``, one row each) in order of first occurrence, as labels."""
    codes = codes[:, (codes >= 0).all(axis=0)]
    _, first = np.unique(_radix_key(codes, [schema.sizes[j] for j in idx]), return_index=True)
    return _decode(schema, codes[:, np.sort(first)], idx)


@contextlib.contextmanager
def _bulk_build():
    """Make many objects that hold no reference cycles (rows, answers)
    without the cyclic garbage collector running over them.

    Automatic collections while thousands of them are made only scan them
    again and move them to the oldest generation, where they count towards
    the next full collection: a pass over every live object, tens of
    milliseconds over a large table's rows, in whatever code runs next.  On
    the way out the youngest generation is collected once, so that the new
    objects move one generation up, not straight to the oldest.  Nothing
    changes when the collector is already disabled.  The switch is
    process-wide: another thread that disables the collector during a build
    finds it enabled again afterwards.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.collect(0)
        gc.enable()


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


def _value_counts(codes: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """How many rows take each value combination of the columns of ``codes``.

    ``codes`` is ``(k, N)``: domain indices, -1 for null, one row per column
    of domain size ``sizes[i]``; rows with a null among them are skipped.
    ``_radix_key`` keys the rest for one ``np.bincount``; returns int64
    counts of shape ``sizes``.
    """
    keep = (codes >= 0).all(axis=0)
    kept = codes if keep.all() else codes.compress(keep, axis=1)
    counts = np.bincount(_radix_key(kept, sizes), minlength=math.prod(sizes))
    return counts.reshape(tuple(sizes))


def _fits_dense(sizes: Sequence[int], rows: int) -> bool:
    """Whether ``_value_counts`` over columns of domain ``sizes`` is worth a
    dense table for ``rows`` rows: its domain product is at most the row
    count, so the table is no larger than the rows it counts."""
    return math.prod(sizes) <= rows


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

    def matches(self, schema: Schema, row: Row) -> bool:
        """True if the row satisfies every predicate; a null cell satisfies
        none."""
        for attr, value in self.items:
            if row.cells[schema.index(attr)] != value:
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
    ValueError
        On a padded ``null_token``, which no trimmed cell could equal.
    ParseError
        On text that is not UTF-8 or CSV, an empty file, a blank or repeated
        name, a row whose arity differs from the header (the message names
        the line), or an all-null column.  Every message names the file.
    """
    if null_token != null_token.strip():
        raise ValueError(f"null token {null_token!r} would match no trimmed cell")
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
    columns = list(zip(*raw_rows)) or [()] * len(attrs)
    domains = {attr: set(column) - {None} for attr, column in zip(attrs, columns)}
    for attr in attrs:
        if not domains[attr]:
            raise ParseError(f"{path}: empty domain for attribute {attr!r}")
    schema = Schema(attrs, domains)
    n = len(raw_rows)
    codes = _encode(schema._label_codes, columns, n)
    return Table._of(schema, np.arange(1, n + 1, dtype=np.int64), codes)


def save_csv(table: Table, path: str, null_token: str = "") -> None:
    """Write a Table back to CSV, rendering missing cells as ``null_token``.

    Raises ValueError, writing nothing, if an attribute name, a row's label
    or a missing cell would not read back through ``load_csv``: a blank or
    padded name, a label equal to ``null_token``, a label with surrounding
    whitespace, or a padded ``null_token`` (cells are trimmed before the
    comparison, and ``load_csv`` refuses such a token), missing cells or not.
    """
    schema, codes = table.schema, table._column_codes()
    for attr in schema.attributes:
        if not attr or attr != attr.strip():
            raise ValueError(f"attribute name {attr!r} would not read back")
    if null_token != null_token.strip():
        raise ValueError(f"null token {null_token!r} would not read back")
    for j, attr in enumerate(schema.attributes):
        for k, label in enumerate(schema.domains[attr]):
            bad = label == null_token or label != label.strip()
            if bad and (codes[j] == k).any():
                raise ValueError(f"label {label!r} of attribute {attr!r} would not read back")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(schema.attributes)
        for cells in _decode(schema, codes, range(len(schema.attributes))):
            writer.writerow([null_token if c is None else c for c in cells])


def _bucket(label: str, granularity: int) -> str | None:
    # the nearest multiple, exact midpoint rounding up; None for a non-integer label
    try:
        q, r = divmod(int(label), granularity)
    except ValueError:
        return None
    return str((q + (2 * r >= granularity)) * granularity)


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
    Every domain becomes the labels its column holds (an all-null column
    keeps its domain).

    Raises
    ------
    ValueError
        For an unknown attribute, a granularity that is not a positive
        integer (a bool, NaN or infinity neither), or a non-integer label in
        a targeted column (the message names attribute and value).
    """
    schema, codes = table.schema, table._column_codes()
    # each column's new label per code of its old domain (None: not an integer)
    mapped = [schema.domains[a] for a in schema.attributes]
    for attr, gran in rules.items():
        j = schema.index(attr)
        real = isinstance(gran, numbers.Real) and not isinstance(gran, bool)
        if not (real and gran % 1 == 0 and gran > 0):
            raise ValueError(f"granularity for {attr!r} must be a positive integer")
        mapped[j] = [_bucket(v, int(gran)) for v in mapped[j]]
    # a non-integer label that occurs is refused at its first row, then rule
    idx = [schema.index(a) for a in rules]
    bad = np.array([np.array([v is None for v in (*mapped[j], 0)])[codes[j]] for j in idx])
    if bad.any():
        at, r = np.argwhere(bad.T)[0]
        attr = list(rules)[r]
        label = schema.domains[attr][codes[idx[r], at]]
        raise ValueError(f"attribute {attr!r}: non-numeric label {label!r}")
    domains = {
        a: {labels[k] for k in np.unique(column[column >= 0]).tolist()} or schema.domains[a]
        for a, labels, column in zip(schema.attributes, mapped, codes)
    }
    out = Schema(schema.attributes, domains)
    return Table._of(out, table._id_column(), np.array([
        np.array([lookup.get(v, -1) for v in (*labels, None)], dtype=np.int32)[column]
        for lookup, labels, column in zip(out._label_codes, mapped, codes)
    ]))


def select(table: Table, query: SelectionQuery) -> Table:
    """The rows satisfying the query, in table order, as a table whose rows
    are built only when read.

    These are certain answers only: a null cell on a constrained attribute
    never matches.  The query is validated item by item (ValueError for a
    value outside its domain); the rows are those ``Table._matching`` finds.
    """
    query.validate(table.schema)
    return table._take(table._matching(query))


def project_distinct(
    schema: Schema, rows: Table | Sequence[Row], attrs: Sequence[str]
) -> list[tuple[str, ...]]:
    """Distinct null-free projections of ``rows`` (under ``schema``) onto
    ``attrs``, in order of first occurrence.

    Combinations containing a null are dropped.  The cells are read off the
    code matrix when ``rows`` is a ``Table`` under an equal schema (a
    ``select`` or ``AutonomousSource.answer`` result, say), and encoded
    otherwise; each null-free combination gets one mixed-radix key,
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
    n = len(table)
    k = math.ceil(fraction * n)
    codes = table._column_codes().copy()
    if k:
        codes[np.ix_(idx, np.random.default_rng(seed).choice(n, size=k, replace=False))] = -1
    return Table._of(table.schema, table._id_column(), codes)


def align_table(table: Table, schema: Schema) -> Table:
    """Reorder a table's columns to ``schema`` and revalidate against its domains.

    Useful for pairing freshly loaded data with a saved model: attribute
    sets must match exactly; values outside the schema's domains raise,
    naming the first row that holds one.
    """
    missing = [a for a in schema.attributes if a not in table.schema.attributes]
    extra = [a for a in table.schema.attributes if a not in schema.attributes]
    if missing:
        raise ValueError(f"table lacks attributes {missing}")
    if extra:
        raise ValueError(f"table has unexpected attributes {extra}")
    old, codes = table.schema, table._column_codes()
    idx = [old.index(a) for a in schema.attributes]
    # each column's codes through its labels into the new domain: -2 outside it
    aligned = np.array([
        np.array([lookup.get(v, -2) for v in (*old.domains[a], None)], dtype=np.int32)[codes[i]]
        for a, i, lookup in zip(schema.attributes, idx, schema._label_codes)
    ])
    if (aligned == -2).any():  # refused as the rows would be: at the first bad row
        Table(schema, [Row(r.id, tuple(r.cells[i] for i in idx)) for r in table.rows])
    return Table._of(schema, table._id_column(), aligned)
