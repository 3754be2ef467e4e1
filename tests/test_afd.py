"""AFD mining, ranking, naive Bayes prediction, chained imputation, files."""

import re

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
        row = sparse_table.row_by_id(8)  # Body null, Model/Year/Mileage present
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
