"""AFD mining, ranking, naive Bayes prediction, chained imputation, files."""

import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nullbayes import (
    Afd,
    NaiveBayesModel,
    Row,
    Schema,
    Table,
    afd_from_line,
    afd_impute_tuple,
    afd_to_line,
    best_afds,
    fit_naive_bayes,
    load_afds,
    mine_afds,
    save_afds,
)

from conftest import row_with_id


def _by_rule(afds):
    return {(a.determining, a.target): a.confidence for a in afds}


def _nb_fixture():
    """Tiny two-attribute table with hand-checkable counts."""
    s = Schema(("A", "B"), {"A": ("a0", "a1"), "B": ("b0", "b1")})
    rows = [
        Row(1, ("a0", "b0")),
        Row(2, ("a0", "b0")),
        Row(3, ("a1", "b1")),
        Row(4, ("a1", "b0")),
        Row(5, ("a0", None)),
    ]
    return fit_naive_bayes(Table(s, rows))


class TestAfdValue:
    def test_validation(self):
        with pytest.raises(ValueError):
            Afd((), "A", 0.5)
        with pytest.raises(ValueError):
            Afd(("B", "A"), "C", 0.5)  # unsorted
        with pytest.raises(ValueError):
            Afd(("A",), "A", 0.5)
        with pytest.raises(ValueError):
            Afd(("A",), "B", 1.5)

    def test_hashable(self):
        assert Afd(("A",), "B", 0.5) == Afd(("A",), "B", 0.5)

    def test_repeated_determining_attribute_is_refused(self):
        with pytest.raises(ValueError, match="without repeats"):
            Afd(("Model", "Model"), "Make", 0.9)


class TestMineAfds:
    def test_hand_computed_confidences(self, sparse_table):
        rules = _by_rule(mine_afds(sparse_table))
        assert rules[(("Model",), "Body")] == pytest.approx(1.0)
        assert rules[(("Year",), "Body")] == pytest.approx(1.0)
        assert rules[(("Mileage",), "Body")] == pytest.approx(1.0)
        assert rules[(("Make",), "Body")] == pytest.approx(7 / 8)
        assert rules[(("Make",), "Model")] == pytest.approx(7 / 8)
        assert rules[(("Year",), "Make")] == pytest.approx(7 / 8)

    def test_max_lhs_bounds_set_size(self, sparse_table):
        ones = mine_afds(sparse_table, max_lhs=1)
        assert all(len(a.determining) == 1 for a in ones)
        twos = mine_afds(sparse_table, max_lhs=2)
        assert any(len(a.determining) == 2 for a in twos)
        with pytest.raises(ValueError):
            mine_afds(sparse_table, max_lhs=0)

    def test_min_confidence_filters(self, sparse_table):
        strict = mine_afds(sparse_table, min_confidence=0.9)
        assert all(a.confidence >= 0.9 for a in strict)
        assert (("Make",), "Body") not in _by_rule(strict)

    def test_ordering(self, sparse_table):
        rules = mine_afds(sparse_table)
        keys = [(a.target, len(a.determining), a.determining) for a in rules]
        assert keys == sorted(keys)

    def test_never_co_observed_pair_skipped(self):
        s = Schema(("A", "B"), {"A": ("x",), "B": ("y",)})
        t = Table(s, [Row(1, ("x", None)), Row(2, (None, "y"))])
        assert mine_afds(t) == []


class TestBestAfds:
    def test_confidence_then_size_then_name(self, sparse_table):
        best = best_afds(mine_afds(sparse_table))
        assert best["Body"].determining == ("Mileage",)
        assert best["Body"].confidence == pytest.approx(1.0)

    def test_exclude_removes_determining_sets(self, sparse_table):
        rules = mine_afds(sparse_table)
        assert best_afds(rules, exclude=("Mileage",))["Body"].determining == ("Model",)
        assert best_afds(rules, exclude=("Mileage", "Model"))["Body"].determining == (
            "Year",
        )

    def test_a_string_exclude_is_refused(self, sparse_table):
        # iterated, "Model" would exclude the letters M, o, d, e and l
        rules = mine_afds(sparse_table)
        assert best_afds(rules, exclude=["Model"]) != best_afds(rules, exclude=list("Model"))
        for exclude in ("Model", ""):
            with pytest.raises(TypeError, match="exclude"):
                best_afds(rules, exclude=exclude)

    def test_confidence_dominates_size(self):
        rules = [Afd(("X",), "T", 0.6), Afd(("Y", "Z"), "T", 0.9)]
        assert best_afds(rules)["T"].determining == ("Y", "Z")


class TestNaiveBayes:
    def test_posterior_by_hand(self):
        model = _nb_fixture()
        # prior (3+1)/(5+2), (2+1)/(5+2); likelihood (2+1)/(2+2), (1+1)/(2+2)
        np.testing.assert_allclose(model.posterior("A", {"B": "b0"}), [2 / 3, 1 / 3])
        np.testing.assert_allclose(model.posterior("A", {"B": "b1"}), [2 / 5, 3 / 5])

    def test_empty_evidence_gives_smoothed_prior(self):
        model = _nb_fixture()
        np.testing.assert_allclose(model.posterior("A", {}), [4 / 7, 3 / 7])

    def test_predict_returns_mode(self):
        model = _nb_fixture()
        assert model.predict("A", {"B": "b0"}) == ("a0", pytest.approx(2 / 3))

    def test_evidence_on_target_rejected(self):
        model = _nb_fixture()
        with pytest.raises(ValueError):
            model.posterior("A", {"A": "a0"})

    def test_unknown_value_rejected(self):
        model = _nb_fixture()
        with pytest.raises(ValueError):
            model.posterior("A", {"B": "zebra"})


class TestChainedImputation:
    def _abc(self):
        s = Schema(("A", "B", "C"), {k: ("0", "1") for k in "ABC"})
        rows = [
            Row(1, ("0", "0", "0")),
            Row(2, ("0", "0", "0")),
            Row(3, ("1", "1", "1")),
            Row(4, ("1", "1", "1")),
        ]
        return s, fit_naive_bayes(Table(s, rows))

    def test_direct_fill(self, sparse_table):
        rules = mine_afds(sparse_table)
        model = fit_naive_bayes(sparse_table)
        row = row_with_id(sparse_table, 8)  # Body null, Model/Year/Mileage present
        filled, unpredictable = afd_impute_tuple(rules, model, row)
        assert unpredictable == []
        assert filled.cells[3] is not None

    def test_chains_through_missing_determinant(self):
        s, model = self._abc()
        rules = [Afd(("B",), "A", 1.0), Afd(("C",), "B", 1.0)]
        filled, unpredictable = afd_impute_tuple(rules, model, Row(1, (None, None, "1")))
        assert unpredictable == []
        assert filled.cells == ("1", "1", "1")

    def test_two_rule_cycle_is_unpredictable(self):
        s, model = self._abc()
        rules = [Afd(("A",), "B", 1.0), Afd(("B",), "A", 1.0)]
        filled, unpredictable = afd_impute_tuple(rules, model, Row(1, (None, None, "0")))
        assert unpredictable == ["A", "B"]
        assert filled.cells[0] is None and filled.cells[1] is None

    def test_cycle_with_side_exit_resolves(self):
        # A's rule needs B; B's rule needs C which is present
        s, model = self._abc()
        rules = [Afd(("B",), "A", 1.0), Afd(("C",), "B", 1.0), Afd(("A",), "C", 1.0)]
        filled, unpredictable = afd_impute_tuple(rules, model, Row(1, (None, None, "0")))
        assert unpredictable == []
        assert filled.cells == ("0", "0", "0")

    def test_no_rule_means_unpredictable(self):
        s, model = self._abc()
        filled, unpredictable = afd_impute_tuple([], model, Row(1, (None, "0", "0")))
        assert unpredictable == ["A"]
        assert filled.cells[0] is None

    def test_complete_row_untouched(self):
        s, model = self._abc()
        row = Row(9, ("0", "1", "0"))
        filled, unpredictable = afd_impute_tuple([], model, row)
        assert filled == row and unpredictable == []

    @pytest.mark.parametrize(
        "rule, unknown",
        [
            (Afd(("Colour",), "A", 0.9), "Colour"),  # a determining attribute
            (Afd(("B",), "Colour", 0.9), "Colour"),  # a target
            (Afd(("B", "Colour"), "Age", 0.9), "Age"),  # both: the first by name
        ],
    )
    def test_a_rule_outside_the_schema_is_refused(self, rule, unknown):
        # as rewrite --method afd refuses it, whether or not the row needs the rule
        s, model = self._abc()
        rules = [Afd(("C",), "B", 1.0), rule]
        for cells in ((None, None, "1"), ("0", "1", "0")):
            with pytest.raises(KeyError, match=f"^\"unknown attribute '{unknown}'\"$"):
                afd_impute_tuple(rules, model, Row(1, cells))
        assert afd_impute_tuple(rules[:1], model, Row(1, ("0", None, "1")))[0].cells[1] == "1"

    def test_fuzz_terminates_and_reports_consistently(self):
        rng = np.random.default_rng(42)
        attrs = ("A", "B", "C", "D", "E")
        s = Schema(attrs, {a: ("0", "1", "2") for a in attrs})
        data = Table(
            s,
            [
                Row(i + 1, tuple(str(int(v)) for v in rng.integers(0, 3, size=5)))
                for i in range(40)
            ],
        )
        model = fit_naive_bayes(data)
        for _ in range(120):
            rules = []
            for target in attrs:
                if rng.random() < 0.75:
                    k = int(rng.integers(1, 3))
                    det = tuple(
                        sorted(rng.choice([a for a in attrs if a != target], size=k, replace=False))
                    )
                    rules.append(Afd(det, target, float(rng.random())))
            cells = tuple(
                None if rng.random() < 0.5 else str(int(rng.integers(0, 3)))
                for _ in attrs
            )
            filled, unpredictable = afd_impute_tuple(rules, model, Row(1, cells))
            for a, before, after in zip(attrs, cells, filled.cells):
                if before is not None:
                    assert after == before
                elif a in unpredictable:
                    assert after is None
                else:
                    assert after in s.domain(a)


    def test_fills_are_those_of_the_two_accumulator_loop(self):
        def old_impute(afds, model, row):  # the earlier afd_impute_tuple, verbatim
            schema = model.schema
            arity = len(schema.attributes)
            if len(row.cells) != arity:
                raise ValueError(f"row {row.id} has {len(row.cells)} cells, schema has {arity}")
            best = best_afds(afds)
            cells = dict(zip(schema.attributes, row.cells))

            def predict(attr: str, path: frozenset[str]) -> str | None:
                if attr in path:
                    return None
                afd = best.get(attr)
                if afd is None:
                    return None
                path = path | {attr}
                evidence: dict[str, str] = {}
                for det in afd.determining:
                    value = cells[det]
                    if value is None:
                        value = predict(det, path)
                        if value is None:
                            return None
                    evidence[det] = value
                return model.predict(attr, evidence)[0]

            unpredictable: list[str] = []
            filled: dict[str, str] = {}
            for attr in schema.attributes:
                if cells[attr] is not None:
                    continue
                value = predict(attr, frozenset())
                if value is None:
                    unpredictable.append(attr)
                else:
                    filled[attr] = value
            new_cells = tuple(
                filled.get(a, cells[a]) for a in schema.attributes
            )
            return Row(row.id, new_cells), sorted(unpredictable)

        rng = np.random.default_rng(5)
        attrs = ("E", "D", "C", "B", "A")  # not sorted, so sorting the report matters
        s = Schema(attrs, {a: ("0", "1", "2") for a in attrs})
        draws = rng.integers(0, 3, size=(40, 5))
        data = Table(s, [Row(i + 1, tuple(map(str, r))) for i, r in enumerate(draws.tolist())])
        model = fit_naive_bayes(data)
        for i in range(150):
            rules = []
            for target in attrs:
                if rng.random() < 0.75:
                    others = [a for a in attrs if a != target]
                    det = rng.choice(others, size=int(rng.integers(1, 3)), replace=False)
                    rules.append(Afd(tuple(sorted(det)), target, float(rng.random())))
            cells = tuple(None if rng.random() < 0.5 else str(int(rng.integers(0, 3))) for _ in attrs)
            row = Row(i, cells)
            assert afd_impute_tuple(rules, model, row) == old_impute(rules, model, row)


class TestAfdFiles:
    def test_line_round_trip(self):
        afd = Afd(("Make", "Year"), "Body", 7 / 8)
        line = afd_to_line(afd)
        assert line == "Make,Year -> Body : 0.875"
        assert afd_from_line(line) == afd

    def test_many_round_trip(self, sparse_table):
        rules = mine_afds(sparse_table)
        text = save_afds(rules)
        again = load_afds(text)
        assert [(a.determining, a.target) for a in again] == [
            (a.determining, a.target) for a in rules
        ]
        for before, after in zip(rules, again):
            assert after.confidence == pytest.approx(before.confidence, rel=1e-11)
        # the 12-significant-digit encoding is a fixed point
        assert save_afds(again) == text

    def test_names_that_would_not_read_back_are_rejected(self):
        for name in ("a,b", "a->b", " a", "a ", "a\nb"):
            for afd in (Afd((name,), "c", 0.5), Afd(("c",), name, 0.5)):
                with pytest.raises(ValueError, match=re.escape(repr(name))):
                    save_afds([afd])
        fine = Afd(("a b", "c:d"), "e", 0.5)
        assert load_afds(save_afds([fine])) == [fine]

    def test_blank_lines_ignored(self):
        text = "\nA -> B : 0.5\n\n"
        assert load_afds(text) == [Afd(("A",), "B", 0.5)]

    def test_malformed_line(self):
        for bad in ("A B : 0.5", "A -> B", "A -> B : lots"):
            with pytest.raises(ValueError):
                afd_from_line(bad)

    def test_repeated_determining_attribute_names_the_line(self):
        bad = "Model,Model -> Make : 0.9"
        with pytest.raises(ValueError, match=re.escape(f"malformed AFD line {bad!r}")):
            afd_from_line(bad)
        with pytest.raises(ValueError, match=re.escape(f"malformed AFD line {bad!r}")):
            load_afds(f"Year -> Make : 0.5\n{bad}\n")


# ---------------------------------------------------------------------------
# best_afds against the earlier loop, which ranked every rule by full tuple


def _ref_best_afds(afds, exclude=()):
    banned = set(exclude)
    best = {}
    for afd in afds:
        if banned.intersection(afd.determining):
            continue
        cur = best.get(afd.target)
        if cur is None or _ref_rank(afd) < _ref_rank(cur):
            best[afd.target] = afd
    return best


def _ref_rank(afd):
    return (-afd.confidence, len(afd.determining), afd.determining)


_ATTRS = ("A", "B", "C", "D", "E")


@st.composite
def _afds(draw):
    target = draw(st.sampled_from(_ATTRS))
    others = [a for a in _ATTRS if a != target]
    det = draw(st.lists(st.sampled_from(others), unique=True, min_size=1, max_size=3))
    # a few fixed confidences make ties common
    conf = draw(st.one_of(st.sampled_from((0.0, 0.5, 0.75, 1.0)), st.floats(0.0, 1.0)))
    return Afd(tuple(sorted(det)), target, conf)


@given(
    afds=st.lists(_afds(), max_size=30),
    exclude=st.lists(st.sampled_from(_ATTRS + ("Z",)), max_size=3),
)
def test_best_afds_matches_reference(afds, exclude):
    for ex in (exclude, ()):
        got = best_afds(afds, exclude=ex)
        want = _ref_best_afds(afds, exclude=ex)
        assert got == want
        # the same rule object wins, so equal duplicates resolve to the first
        assert all(got[t] is want[t] for t in want)


def _check_best_afds(rules, exclude=(), wrap=lambda rules: rules):
    """best_afds on ``wrap(rules)`` equals the reference, winners included."""
    got = best_afds(wrap(rules), exclude)
    want = _ref_best_afds(rules, exclude)
    assert got == want
    assert all(got[t] is want[t] for t in want)


_EXCLUDES = st.lists(st.sampled_from(_ATTRS + ("Z",)), max_size=3)


@given(
    start=st.lists(_afds(), max_size=20),
    steps=st.lists(
        st.tuples(
            st.sampled_from(("append", "replace", "delete", "reverse", "none")),
            _afds(),
            st.integers(0, 40),
            _EXCLUDES,
        ),
        max_size=12,
    ),
)
def test_best_afds_memo_follows_one_list_mutated_in_place(start, steps):
    rules = list(start)
    _check_best_afds(rules)
    for op, afd, i, exclude in steps:
        if op == "append":
            rules.append(afd)
        elif op == "replace" and rules:
            rules[i % len(rules)] = afd
        elif op == "delete" and rules:
            del rules[i % len(rules)]
        elif op == "reverse":
            rules.reverse()
        _check_best_afds(rules, exclude)
        _check_best_afds(rules)


@given(afds=st.lists(_afds(), max_size=30), exclude=_EXCLUDES)
def test_best_afds_memo_with_generators_tuples_and_equal_copies(afds, exclude):
    for ex in (exclude, ()):
        _check_best_afds(afds, ex)
        _check_best_afds(afds, ex, tuple)
        _check_best_afds(afds, ex, lambda rules: (a for a in rules))
        # an equal list of distinct objects hits the memo yet returns its own rules
        copies = [Afd(a.determining, a.target, a.confidence) for a in afds]
        _check_best_afds(copies, ex)
        _check_best_afds(afds, ex)


@given(
    first=st.lists(_afds(), max_size=20),
    second=st.lists(_afds(), max_size=20),
    excludes=st.lists(_EXCLUDES, min_size=1, max_size=6),
)
def test_best_afds_memo_with_two_lists_alternating(first, second, excludes):
    for exclude in excludes:
        _check_best_afds(first, exclude)
        _check_best_afds(second, exclude)


def test_best_afds_memo_with_two_threads_alternating_lists():
    rng = np.random.default_rng(7)

    def rules(n):
        out = []
        for _ in range(n):
            target = _ATTRS[int(rng.integers(len(_ATTRS)))]
            others = [a for a in _ATTRS if a != target]
            det = rng.choice(others, size=int(rng.integers(1, 3)), replace=False)
            out.append(Afd(tuple(sorted(det)), target, float(rng.choice([0.5, rng.random()]))))
        return out

    lists = [rules(60), rules(60)]
    wants = [[_ref_best_afds(r, ex) for ex in ((), ("A",), ("B", "C"))] for r in lists]
    failures = []

    def worker(offset):
        try:
            for k in range(300):
                which = (k + offset) % 2
                for ex, want in zip(((), ("A",), ("B", "C")), wants[which]):
                    got = best_afds(lists[which], ex)
                    if got != want or any(got[t] is not want[t] for t in want):
                        failures.append((which, ex))
        except Exception as exc:  # surfaced by the assertion below
            failures.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


# ---------------------------------------------------------------------------
# NaiveBayesModel.posterior against the code it replaced, kept verbatim


def _ref_posterior(self, target, evidence):
    self.schema.domain(target)  # KeyError for an unknown target
    probs = self._priors[target]
    for attr, value in sorted(evidence.items()):
        if attr == target:
            raise ValueError(f"evidence on the target attribute {target!r}")
        fdom = self.schema.domain(attr)
        if value not in fdom:
            raise ValueError(f"value {value!r} not in domain of {attr!r}")
        col = self._pair_counts[(attr, target)][fdom.index(value), :]
        probs = probs * (col + 1.0) / self._denoms[(attr, target)]
    total = probs.sum()
    return probs / total


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)


_NB_ATTRS = ("A", "B", "C", "D")
_NB_SCHEMA = Schema(
    _NB_ATTRS, {"A": ("0", "1"), "B": ("0", "1", "2"), "C": ("x",), "D": ("0", "1", "2", "3")}
)
_NB_VALUES = st.sampled_from(("0", "1", "2", "3", "x", "unseen", None))
_NB_DATA = st.lists(
    st.tuples(*[st.sampled_from((None, *_NB_SCHEMA.domain(a))) for a in _NB_ATTRS]),
    max_size=25,
)
_NB_QUERIES = st.lists(
    st.tuples(
        st.sampled_from(_NB_ATTRS + ("Q",)),
        st.dictionaries(st.sampled_from(_NB_ATTRS + ("Q",)), _NB_VALUES, max_size=4),
    ),
    min_size=1,
    max_size=10,
)


@given(data=_NB_DATA, queries=_NB_QUERIES)
def test_nb_posterior_matches_reference(data, queries):
    model = fit_naive_bayes(Table(_NB_SCHEMA, [Row(i, cells) for i, cells in enumerate(data)]))
    for target, evidence in queries:
        got = _outcome(model.posterior, target, evidence)
        want = _outcome(_ref_posterior, model, target, evidence)
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray) and np.array_equal(got, want)
        else:
            assert got == want
        if isinstance(want, np.ndarray):
            label, p = model.predict(target, evidence)
            i = int(np.argmax(want))
            assert (label, p) == (_NB_SCHEMA.domain(target)[i], float(want[i]))


# ---------------------------------------------------------------------------
# predictions kept on the model: a warm model answers as a fresh one, and a
# refused prediction stores nothing


def _fresh_model(model):
    return NaiveBayesModel(model.schema, model._class_counts, model._pair_counts)


_KEPT_SCHEMA = Schema(_ATTRS, {a: ("0", "1", "2") for a in _ATTRS})


def _kept_rows(labels, min_size=0):
    return st.lists(
        st.tuples(*[st.sampled_from(labels) for _ in _ATTRS]), min_size=min_size, max_size=12
    )


@given(
    train=_kept_rows((None, "0", "1", "2")),
    afds=st.lists(_afds(), max_size=12),
    # "9" is outside every domain: a rule that reads it is refused
    rows=_kept_rows((None, None, "0", "1", "2", "9"), min_size=1),
)
def test_a_warm_model_imputes_as_a_fresh_one(train, afds, rows):
    model = fit_naive_bayes(Table(_KEPT_SCHEMA, [Row(i, c) for i, c in enumerate(train)]))
    for i, cells in enumerate(rows * 2):  # the second pass finds its predictions kept
        got = _outcome(afd_impute_tuple, afds, model, Row(i, cells))
        assert got == _outcome(afd_impute_tuple, afds, _fresh_model(model), Row(i, cells))


@given(data=_NB_DATA, queries=_NB_QUERIES)
def test_a_refused_prediction_stores_nothing(data, queries):
    # unknown targets and labels, and evidence on the target, are refused
    model = fit_naive_bayes(Table(_NB_SCHEMA, [Row(i, cells) for i, cells in enumerate(data)]))
    for target, evidence in queries * 2:
        kept = dict(model._predictions)
        got = _outcome(model.predict, target, evidence)
        assert got == _outcome(_fresh_model(model).predict, target, evidence)
        if isinstance(got[0], type):
            assert model._predictions == kept


# ---------------------------------------------------------------------------
# row arity and AFD files


def test_afd_impute_tuple_rejects_wrong_arity(sparse_table):
    rules = mine_afds(sparse_table)
    model = fit_naive_bayes(sparse_table)
    row = row_with_id(sparse_table, 8)
    d = len(row.cells)
    for cells in (row.cells + ("extra",), row.cells[:-1]):
        with pytest.raises(ValueError, match=rf"^row 8 has {len(cells)} cells, schema has {d}$"):
            afd_impute_tuple(rules, model, Row(8, cells))


_NAME = st.text(st.sampled_from("ab,->: \t\n\r\x0b\x85\u2028"), max_size=5)


@given(names=st.lists(_NAME, min_size=2, max_size=4, unique=True), data=st.data())
def test_afd_file_round_trip_or_refusal(names, data):
    afds = []
    for _ in range(data.draw(st.integers(1, 3))):
        target = data.draw(st.sampled_from(names))
        others = sorted(n for n in names if n != target)
        det = data.draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
        conf = data.draw(st.floats(0.0, 1.0))
        afds.append(Afd(tuple(sorted(det)), target, conf))
    try:
        text = save_afds(afds)
    except ValueError:
        return
    again = load_afds(text)
    assert [(a.determining, a.target) for a in again] == [(a.determining, a.target) for a in afds]
    assert [a.confidence for a in again] == [float(f"{a.confidence:.12g}") for a in afds]
