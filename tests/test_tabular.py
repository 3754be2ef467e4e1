"""Tables, queries, CSV round trips, discretization, null injection."""

import ast
import csv
import gc
import math
import os
import pathlib
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nullbayes
from nullbayes import (
    ParseError,
    Row,
    Schema,
    SelectionQuery,
    Table,
    align_table,
    discretize,
    inject_nulls,
    load_csv,
    project_distinct,
    save_csv,
    select,
)

from nullbayes.tabular import _bulk_build

from conftest import CAR_ATTRS, demo_cars, in_generation, row_with_id, sparse_cars


class TestSchema:
    def test_domains_are_sorted(self):
        s = Schema(("A",), {"A": ("z", "m", "a")})
        assert s.domain("A") == ("a", "m", "z")

    def test_attribute_order_preserved(self):
        s = Schema(("B", "A"), {"A": ("x",), "B": ("y",)})
        assert s.attributes == ("B", "A")
        assert s.index("B") == 0 and s.index("A") == 1

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(ValueError):
            Schema(("A", "A"), {"A": ("x",)})

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            Schema(("A",), {"A": ()})

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError):
            Schema(("A",), {"A": ("x", "x")})

    def test_missing_domain_rejected(self):
        with pytest.raises(ValueError):
            Schema(("A", "B"), {"A": ("x",)})

    def test_unknown_attribute_raises(self):
        s = Schema(("A",), {"A": ("x",)})
        with pytest.raises(KeyError):
            s.index("B")

    def test_equality_ignores_domain_input_order(self):
        a = Schema(("A",), {"A": ("x", "y")})
        b = Schema(("A",), {"A": ("y", "x")})
        assert a == b and hash(a) == hash(b)


class TestTable:
    def test_duplicate_id_rejected(self):
        s = Schema(("A",), {"A": ("x",)})
        with pytest.raises(ValueError):
            Table(s, [Row(1, ("x",)), Row(1, ("x",))])

    def test_wrong_arity_rejected(self):
        s = Schema(("A", "B"), {"A": ("x",), "B": ("y",)})
        with pytest.raises(ValueError):
            Table(s, [Row(1, ("x",))])

    def test_out_of_domain_cell_rejected(self):
        s = Schema(("A",), {"A": ("x",)})
        with pytest.raises(ValueError):
            Table(s, [Row(1, ("q",))])

    def test_null_cells_allowed(self):
        s = Schema(("A",), {"A": ("x",)})
        t = Table(s, [Row(1, (None,))])
        assert t.rows[0].cells == (None,)

    def test_duplicate_id_message(self):
        s = Schema(("A",), {"A": ("x",)})
        with pytest.raises(ValueError, match=r"^duplicate row id 7$"):
            Table(s, [Row(7, ("x",)), Row(3, ("x",)), Row(7, ("x",))])

    def test_wrong_arity_message(self):
        s = Schema(("A", "B"), {"A": ("x",), "B": ("y",)})
        with pytest.raises(ValueError, match=r"^row 2 has 3 cells, schema has 2$"):
            Table(s, [Row(1, ("x", "y")), Row(2, ("x", "y", "y"))])

    def test_out_of_domain_message(self):
        s = Schema(("A", "B"), {"A": ("x",), "B": ("y",)})
        with pytest.raises(ValueError, match=r"^row 4: value 'q' not in domain of 'B'$"):
            Table(s, [Row(1, ("x", None)), Row(4, ("x", "q"))])

    def test_first_bad_row_in_row_order_is_reported(self):
        s = Schema(("A", "B"), {"A": ("x",), "B": ("y",)})
        rows = [
            Row(1, ("x", "y")),
            Row(2, (None, "z")),  # out of domain
            Row(3, ("x",)),  # wrong arity
            Row(1, ("x", "y")),  # duplicate id
        ]
        with pytest.raises(ValueError, match=r"^row 2: value 'z' not in domain of 'B'$"):
            Table(s, rows)
        with pytest.raises(ValueError, match=r"^row 3 has 1 cells, schema has 2$"):
            Table(s, [rows[0], rows[2], rows[1]])
        with pytest.raises(ValueError, match=r"^duplicate row id 1$"):
            Table(s, [rows[0], rows[3], rows[2], rows[1]])
        # within one row, the first attribute out of its domain is named
        with pytest.raises(ValueError, match=r"^row 5: value 'p' not in domain of 'A'$"):
            Table(s, [Row(5, ("p", "q"))])

    def test_non_integer_row_id_rejected(self):
        # a float id used to be truncated by the id column, so 1.5 and 1.7
        # both became 1; what operator.index accepts passes
        s = Schema(("A",), {"A": ("x",)})
        for bad in (1.5, "2", None):
            message = f"row id {bad!r} must be an integer"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Table(s, [Row(0, ("x",)), Row(bad, ("x",)), Row(1.7, ("x",))])
        t = Table(s, [Row(np.int64(3), ("x",)), Row(True, ("x",)), Row(2, ("x",))])
        assert t._id_column().tolist() == [3, 1, 2]


class TestBulkBuild:
    """``_bulk_build`` keeps the cyclic collector off while many rows or
    answers are made, and leaves them one generation up, not in the oldest."""

    def test_restores_the_collector_state(self):
        assert gc.isenabled()
        with _bulk_build():
            assert not gc.isenabled()
        assert gc.isenabled()
        with pytest.raises(KeyError), _bulk_build():
            raise KeyError("x")
        assert gc.isenabled()
        gc.disable()
        try:
            with _bulk_build():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_objects_made_inside_reach_the_middle_generation(self):
        # enough for dozens of automatic collections, some of the middle one
        with _bulk_build():
            made = [[i] for i in range(20_000)]
        assert in_generation(made, 1) == len(made)
        assert in_generation(made, 2) == 0

    def test_table_construction_makes_no_object_per_row(self):
        s = Schema(("A", "B"), {"A": ("x", "y"), "B": ("u",)})
        rows = [Row(i, ("x" if i % 2 else "y", None)) for i in range(5_000)]
        # one tracked object per row would set off automatic collections
        gc.collect()
        before = [g["collections"] for g in gc.get_stats()]
        Table(s, rows)
        assert [g["collections"] for g in gc.get_stats()] == before

class TestSelectionQuery:
    def test_parse_and_text(self):
        q = SelectionQuery.parse(" Body = SUV & Make=BMW ")
        assert q.items == (("Body", "SUV"), ("Make", "BMW"))
        assert q.text() == "Body=SUV & Make=BMW"

    def test_predicates_sorted_by_attribute(self):
        q = SelectionQuery({"Z": "1", "A": "2"})
        assert q.attributes == ("A", "Z")

    def test_parse_rejects_garbage(self):
        for bad in ("", "  ", "Body", "=SUV", "Body=", "&"):
            with pytest.raises(ParseError):
                SelectionQuery.parse(bad)

    def test_parse_skips_blank_segments(self):
        q = SelectionQuery.parse("A=1 &  & B=2")
        assert q.attributes == ("A", "B")

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(ValueError):
            SelectionQuery([("A", "1"), ("A", "2")])

    def test_validate_against_schema(self, sparse_table):
        SelectionQuery({"Body": "SUV"}).validate(sparse_table.schema)
        with pytest.raises(ValueError):
            SelectionQuery({"Body": "Truck"}).validate(sparse_table.schema)
        with pytest.raises(KeyError):
            SelectionQuery({"Color": "red"}).validate(sparse_table.schema)

    def test_matches_null_is_not_a_match(self, sparse_table):
        q = SelectionQuery({"Body": "SUV"})
        row8 = row_with_id(sparse_table, 8)  # Body null
        assert not q.matches(sparse_table.schema, row8)

    def test_extended_returns_new_query(self):
        q = SelectionQuery({"A": "1"})
        q2 = q.extended("B", "2")
        assert q2.items == (("A", "1"), ("B", "2"))
        assert q.items == (("A", "1"),)

    def test_hashable_and_equal(self):
        assert SelectionQuery({"A": "1", "B": "2"}) == SelectionQuery(
            [("B", "2"), ("A", "1")]
        )
        assert len({SelectionQuery({"A": "1"}), SelectionQuery({"A": "1"})}) == 1


class TestCsv:
    def _write(self, tmp_path, text, name="t.csv"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with one
        path = tmp_path / "excel.csv"
        path.write_bytes("\ufeffMake,Body\nbmw,suv\naudi,\n".encode("utf-8"))
        table = load_csv(str(path))
        assert table.schema.attributes == ("Make", "Body")
        assert [r.id for r in select(table, SelectionQuery.parse("Make=bmw"))] == [1]

    def test_null_positions(self, tmp_path, sparse_table):
        """Loading the sparse fixture reproduces its exact null pattern."""
        path = str(tmp_path / "cars.csv")
        save_csv(sparse_table, path, null_token="null")
        loaded = load_csv(path, null_token="null")
        nulls = {
            (row.id, attr)
            for row in loaded.rows
            for attr, cell in zip(CAR_ATTRS, row.cells)
            if cell is None
        }
        assert nulls == {
            (1, "Model"),
            (1, "Year"),
            (2, "Year"),
            (4, "Model"),
            (6, "Mileage"),
            (8, "Body"),
            (10, "Body"),
        }
        assert [r.id for r in loaded.rows] == list(range(1, 11))

    def test_round_trip_identity(self, tmp_path, demo_table):
        p1 = str(tmp_path / "a.csv")
        p2 = str(tmp_path / "b.csv")
        save_csv(demo_table, p1, null_token="?")
        again = load_csv(p1, null_token="?")
        assert again == demo_table
        save_csv(again, p2, null_token="?")
        assert open(p1).read() == open(p2).read()

    def test_labels_that_would_not_read_back_are_rejected(self, tmp_path):
        schema = Schema(("A", "B"), {"A": ("NA", "x"), "B": (" p ", "q")})
        path = tmp_path / "t.csv"
        for cells, token, label, attr in [
            (("NA", "q"), "NA", "NA", "A"),
            (("x", " p "), "", " p ", "B"),
            (("x", None), "q", "q", "B"),
        ]:
            table = Table(schema, [Row(1, ("x", "q")), Row(2, cells)])
            with pytest.raises(ValueError, match=f"label {label!r} of attribute {attr!r}"):
                save_csv(table, str(path), null_token=token)
            assert not path.exists()
        # a bad label that no row holds is never written
        table = Table(schema, [Row(1, ("x", "q"))])
        save_csv(table, str(path), null_token="NA")
        assert load_csv(str(path), null_token="NA").rows == table.rows

    def test_attribute_names_that_would_not_read_back_are_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        for name in (" A", "A ", "", "\tA"):
            table = Table(Schema((name, "B"), {name: ("x",), "B": ("y",)}), [Row(1, ("x", "y"))])
            with pytest.raises(ValueError, match=f"attribute name {re.escape(repr(name))}"):
                save_csv(table, str(path))
            assert not path.exists()

    def test_single_row_singleton_domains(self, tmp_path):
        path = self._write(tmp_path, "A,B\nx,y\n")
        t = load_csv(path)
        assert len(t) == 1
        assert t.schema.domain("A") == ("x",)

    def test_wrong_arity_names_line(self, tmp_path):
        path = self._write(tmp_path, "A,B\nx,y\nonly-one\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(ParseError, match="empty file"):
            load_csv(path)

    def test_duplicate_header_names_the_file(self, tmp_path):
        # names repeat once trimmed, as the cells are
        path = self._write(tmp_path, "A, B ,B\nx,y,z\n")
        with pytest.raises(ParseError, match=f"^{re.escape(path)}: duplicate attribute names in header$"):
            load_csv(path)

    def test_all_null_column(self, tmp_path):
        path = self._write(tmp_path, "A,B\nx,\ny,\n")
        with pytest.raises(ParseError, match="empty domain"):
            load_csv(path)

    def test_cells_trimmed(self, tmp_path):
        path = self._write(tmp_path, "A,B\n x , y \n")
        t = load_csv(path)
        assert t.rows[0].cells == ("x", "y")

    @pytest.mark.parametrize("token", [" NA", "NA ", " ", "\t"])
    def test_padded_null_token_is_refused(self, tmp_path, token):
        # no trimmed cell could equal it, so NA would load as a label
        path = self._write(tmp_path, "A,B\nx,NA\ny,z\nNA,z\n")
        with pytest.raises(ValueError, match=f"^null token {re.escape(repr(token))} ") as info:
            load_csv(path, token)
        assert type(info.value) is ValueError


# names and labels with every character a CSV line or cell could misread:
# separators, quotes, line breaks, padding, query syntax; "" is drawn too.
# Half are framed by letters, so their odd characters are inside and they
# should read back.
_ODD = st.text(st.sampled_from('ab\t\n\r\x0b\x85\u2028&=,->" '), max_size=4)
_WORD = _ODD | st.builds("a{}b".format, _ODD)


@settings(max_examples=200)
@given(data=st.data())
def test_csv_round_trip_or_refusal(data):
    names = data.draw(st.lists(_WORD, min_size=1, max_size=3, unique=True))
    domains = {n: data.draw(st.lists(_WORD, min_size=1, max_size=3, unique=True)) for n in names}
    token = data.draw(st.sampled_from(["", "NA", " ", "a"]))
    cells = st.tuples(*(st.sampled_from([None, *domains[n], *domains[n]]) for n in names))
    rows = [Row(i, c) for i, c in enumerate(data.draw(st.lists(cells, min_size=1, max_size=4)), 1)]
    table = Table(Schema(names, domains), rows)
    words = {token, *(w for n in names for w in (n, *domains[n]))}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        try:
            save_csv(table, path, null_token=token)
        except ValueError as exc:
            assert any(repr(w) in str(exc) for w in words), str(exc)
            assert not os.path.exists(path)
            return
        try:
            again = load_csv(path, null_token=token)
        except ParseError as exc:  # a column with no value left: no domain to infer
            assert "empty domain" in str(exc)
            assert any(all(r.cells[j] is None for r in rows) for j in range(len(names)))
            return
    assert again.schema.attributes == table.schema.attributes
    assert again.rows == table.rows


def _row_save_csv(table, path, null_token=""):
    # save_csv as it wrote a row at a time, its decoding spelled out through rows
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
        for cells in (row.cells for row in table.rows):
            writer.writerow([null_token if c is None else c for c in cells])


def _written(save, table, path, null_token):
    try:
        save(table, path, null_token)
    except ValueError as exc:
        return "refused", str(exc), os.path.exists(path)
    with open(path, "rb") as fh:
        return "ok", fh.read()


@settings(max_examples=200)
@given(data=st.data())
def test_save_csv_writes_the_bytes_of_the_row_writer(data):
    names = data.draw(st.lists(_WORD, min_size=1, max_size=3, unique=True))
    domains = {n: data.draw(st.lists(_WORD, min_size=1, max_size=3, unique=True)) for n in names}
    token = data.draw(st.sampled_from(["", "NA", "a"]))
    cells = st.tuples(*(st.sampled_from([None, *domains[n], *domains[n]]) for n in names))
    rows = [Row(i, c) for i, c in enumerate(data.draw(st.lists(cells, max_size=5)), 1)]
    table = Table(Schema(names, domains), rows)
    with tempfile.TemporaryDirectory() as tmp:
        got = _written(save_csv, table, os.path.join(tmp, "got.csv"), token)
        want = _written(_row_save_csv, table, os.path.join(tmp, "want.csv"), token)
    assert got == want


class TestDiscretize:
    def _numbers(self, values):
        dom = sorted({v for v in values if v is not None})
        s = Schema(("N",), {"N": dom})
        return Table(s, [Row(i + 1, (v,)) for i, v in enumerate(values)])

    def test_rounds_to_nearest_multiple(self):
        t = self._numbers(["12000", "13000", "17400", "20000"])
        out = discretize(t, {"N": 5000})
        assert [r.cells[0] for r in out.rows] == ["10000", "15000", "15000", "20000"]

    def test_midpoint_rounds_up(self):
        t = self._numbers(["12500", "7500"])
        out = discretize(t, {"N": 5000})
        assert [r.cells[0] for r in out.rows] == ["15000", "10000"]

    def test_idempotent(self):
        t = self._numbers(["10000", "15000"])
        once = discretize(t, {"N": 5000})
        twice = discretize(once, {"N": 5000})
        assert once == twice

    def test_nulls_survive(self):
        t = self._numbers(["12000", None])
        out = discretize(t, {"N": 5000})
        assert out.rows[1].cells[0] is None

    def test_domain_recomputed(self):
        t = self._numbers(["12000", "13000"])
        out = discretize(t, {"N": 5000})
        assert out.schema.domain("N") == ("10000", "15000")

    def test_non_numeric_label_raises(self):
        s = Schema(("N",), {"N": ("abc",)})
        t = Table(s, [Row(1, ("abc",))])
        with pytest.raises(ValueError, match="abc"):
            discretize(t, {"N": 10})

    def test_bad_granularity(self):
        t = self._numbers(["10"])
        with pytest.raises(ValueError):
            discretize(t, {"N": 0})

    @pytest.mark.parametrize("gran", [math.inf, math.nan, True, np.True_, None, "5", 2.5])
    def test_granularity_must_be_a_positive_integer(self, gran):
        # infinity used to raise OverflowError, NaN numpy's bare int() message,
        # and True passed as granularity 1
        t = self._numbers(["10"])
        with pytest.raises(ValueError, match=r"^granularity for 'N' must be a positive integer$"):
            discretize(t, {"N": gran})

    def test_integral_granularity_of_any_number_type(self):
        t = self._numbers(["12", "17"])
        want = discretize(t, {"N": 5})
        assert discretize(t, {"N": 5.0}) == want
        assert discretize(t, {"N": np.int64(5)}) == want

    def test_untouched_attributes_pass_through(self, sparse_table):
        out = discretize(sparse_table, {"Mileage": 10000})
        assert out.schema.attributes == sparse_table.schema.attributes
        assert [r.cells[0] for r in out.rows] == [
            r.cells[0] for r in sparse_table.rows
        ]


class TestSelect:
    def test_certain_answers_only(self, sparse_table):
        hits = select(sparse_table, SelectionQuery({"Body": "SUV"}))
        assert [r.id for r in hits] == [7, 9]

    def test_demo_sedan_base(self, demo_table):
        hits = select(demo_table, SelectionQuery({"Body": "Sedan"}))
        assert [r.id for r in hits] == [1, 3, 4, 5]

    def test_empty_query_returns_all(self, demo_table):
        assert len(select(demo_table, SelectionQuery())) == len(demo_table)

    def test_out_of_domain_value_raises(self, demo_table):
        with pytest.raises(ValueError):
            select(demo_table, SelectionQuery({"Body": "Truck"}))

    def test_conjunction(self, demo_table):
        hits = select(
            demo_table, SelectionQuery({"Make": "BMW", "Mileage": "40000"})
        )
        assert [r.id for r in hits] == [4, 9, 10]

    def test_rebinding_rows_is_not_served_stale(self, demo_table):
        query = SelectionQuery({"Body": "Sedan"})
        assert [r.id for r in select(demo_table, query)] == [1, 3, 4, 5]
        demo_table.rows = tuple(reversed(demo_table.rows[:4]))
        assert [r.id for r in select(demo_table, query)] == [4, 3, 1]
        assert list(select(demo_table, SelectionQuery())) == list(demo_table.rows)


class TestProjectDistinct:
    def test_base_projection(self, demo_table):
        base = select(demo_table, SelectionQuery({"Body": "Sedan"}))
        combos = project_distinct(demo_table.schema, base, ("Model", "Year"))
        assert combos == [("A8", "2005"), ("tl", "2003"), ("745", "2002")]

    def test_null_combos_dropped(self, demo_table):
        combos = project_distinct(
            demo_table.schema, demo_table.rows, ("Make", "Model")
        )
        assert ("645", "1999") not in combos
        assert all(None not in c for c in combos)

    def test_single_row(self, demo_table):
        row = row_with_id(demo_table, 1)
        assert project_distinct(demo_table.schema, [row], ("Make",)) == [("Audi",)]

    def test_all_null_gives_empty(self, demo_table):
        rows = [row_with_id(demo_table, i) for i in (6, 7, 8)]
        assert project_distinct(demo_table.schema, rows, ("Make",)) == []


class TestInjectNulls:
    def test_exact_count(self, demo_table):
        out = inject_nulls(demo_table, ["Body"], 0.5, seed=0)
        nulled = sum(1 for r in out.rows if r.cells[3] is None)
        already = sum(1 for r in demo_table.rows if r.cells[3] is None)
        assert nulled >= math.ceil(0.5 * len(demo_table))
        assert nulled <= math.ceil(0.5 * len(demo_table)) + already

    def test_deterministic(self, demo_table):
        a = inject_nulls(demo_table, ["Make", "Body"], 0.3, seed=7)
        b = inject_nulls(demo_table, ["Make", "Body"], 0.3, seed=7)
        assert a == b

    def test_seed_changes_pattern(self, demo_table):
        outs = {
            tuple(r.cells for r in inject_nulls(demo_table, ["Body"], 0.5, seed=s).rows)
            for s in range(8)
        }
        assert len(outs) > 1

    def test_fraction_zero_is_identity(self, demo_table):
        assert inject_nulls(demo_table, ["Body"], 0.0, seed=0) == demo_table

    def test_fraction_one_nulls_everything(self, demo_table):
        out = inject_nulls(demo_table, ["Body"], 1.0, seed=0)
        assert all(r.cells[3] is None for r in out.rows)

    def test_schema_and_ids_unchanged(self, demo_table):
        out = inject_nulls(demo_table, ["Body"], 0.5, seed=0)
        assert out.schema == demo_table.schema
        assert [r.id for r in out.rows] == [r.id for r in demo_table.rows]

    def test_bad_fraction(self, demo_table):
        with pytest.raises(ValueError):
            inject_nulls(demo_table, ["Body"], 1.5, seed=0)


class TestAlign:
    def test_align_reorders_columns(self, demo_table):
        shuffled_attrs = tuple(reversed(demo_table.schema.attributes))
        shuffled = Table(
            Schema(shuffled_attrs, demo_table.schema.domains),
            [Row(r.id, tuple(reversed(r.cells))) for r in demo_table.rows],
        )
        back = align_table(shuffled, demo_table.schema)
        assert back == demo_table

    def test_align_rejects_attribute_mismatch(self, demo_table):
        s = Schema(("Make",), {"Make": demo_table.schema.domain("Make")})
        with pytest.raises(ValueError):
            align_table(demo_table, s)


def test_only_tabular_reads_the_schema_code_maps():
    """``Schema`` owns the code layout: every other module goes through
    ``Schema.code``, ``Schema.index``, ``Schema.sizes`` and ``tabular``'s
    helpers, never the maps behind them."""
    private = {"_label_codes", "_code_labels", "_index"}
    readers = set()
    for path in pathlib.Path(nullbayes.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                readers.add(path.name)
    assert readers == {"tabular.py"}


def test_only_tabular_reads_the_table_slots():
    """``Table`` owns its storage: every other module goes through ``rows``,
    ``_column_codes``, ``_id_column`` and ``_taken_at``, never the slots
    behind them."""
    slots = {"_codes", "_row_ids", "_rows", "_taken"}
    assert slots < set(Table.__slots__)
    readers = set()
    for path in pathlib.Path(nullbayes.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in slots:
                readers.add(path.name)
    assert readers == {"tabular.py"}
