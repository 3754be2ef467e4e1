"""MAP filling of missing cells, joint vs per-marginal, table-level reports."""

import re

import numpy as np
import pytest

from nullbayes import (
    BayesNet,
    GibbsParams,
    ImpossibleEvidenceError,
    Row,
    Schema,
    Table,
    impute_table,
    impute_tuple,
    map_assignment,
    posterior_exact,
    posterior_gibbs,
)

from conftest import in_generation, oracle_conditional


def _skewed_pair_net():
    """Joint mode (x0, y0) but marginal modes (x1, y0).

    Pair probabilities: (x0,y0)=0.40, (x0,y1)=0, (x1,y0)=0.25, (x1,y1)=0.35.
    Marginals: X = (0.40, 0.60), Y = (0.65, 0.35).
    """
    s = Schema(("X", "Y"), {"X": ("x0", "x1"), "Y": ("y0", "y1")})
    return BayesNet(
        s,
        {"Y": ("X",)},
        {
            "X": np.array([0.4, 0.6]),
            "Y": np.array([[1.0, 0.0], [0.25 / 0.6, 0.35 / 0.6]]),
        },
    )


def _impossible_evidence_net(y_given_x):
    """X -> Y plus a root Z with P(Z=z1) = 0."""
    s = Schema(("X", "Y", "Z"), {"X": ("x0", "x1"), "Y": ("y0", "y1"), "Z": ("z0", "z1")})
    return BayesNet(
        s,
        {"Y": ("X",)},
        {"X": np.array([0.5, 0.5]), "Y": np.array(y_given_x), "Z": np.array([1.0, 0.0])},
    )


def _copy_net():
    """A -> B with B = A, and an independent C: A=0 with B=1 is impossible in
    a family that a missing C does not touch."""
    s = Schema(("A", "B", "C"), {k: ("0", "1") for k in "ABC"})
    return BayesNet(
        s, {"B": ("A",)}, {"A": np.array([0.5, 0.5]), "B": np.eye(2), "C": np.array([0.26, 0.74])}
    )


_ZERO = "^impossible evidence: zero probability$"


class TestImpossibleEvidence:
    # Z=z1 is impossible in a family that no missing cell touches; Y=y1 is
    # impossible inside X's posterior when P(Y=y1 | X) is 0 for every X
    @pytest.mark.parametrize(
        "y_given_x, cells",
        [
            ([[0.7, 0.3], [0.2, 0.8]], (None, "y1", "z1")),
            ([[1.0, 0.0], [1.0, 0.0]], (None, "y1", "z0")),
        ],
    )
    @pytest.mark.parametrize("joint", [True, False])
    def test_impute_raises(self, y_given_x, cells, joint):
        net = _impossible_evidence_net(y_given_x)
        row = Row(1, cells)
        with pytest.raises(ImpossibleEvidenceError):
            impute_tuple(net, row, joint=joint)
        with pytest.raises(ImpossibleEvidenceError):
            impute_table(net, Table(net.schema, [row]), joint=joint)

    @pytest.mark.parametrize("engine", ["exact", "gibbs"])
    @pytest.mark.parametrize("joint", [True, False])
    def test_both_engines_refuse_a_fully_observed_zero(self, engine, joint):
        net = _copy_net()
        impossible, fine = Row(1, ("0", "1", None)), Row(2, ("1", "1", None))
        gibbs = GibbsParams(samples=20, burn_in=2)
        for rows in ([impossible], [fine, impossible], [impossible, fine]):
            with pytest.raises(ImpossibleEvidenceError, match=_ZERO):
                impute_table(net, Table(net.schema, rows), engine, gibbs, joint)
        with pytest.raises(ImpossibleEvidenceError, match=_ZERO):
            impute_tuple(net, impossible, engine, gibbs, joint)
        # a complete row is not imputed, so it is returned as it is
        complete = Row(3, ("0", "1", "0"))
        assert impute_tuple(net, complete, engine, gibbs, joint) == complete
        filled, _ = impute_table(net, Table(net.schema, [complete, fine]), engine, gibbs, joint)
        assert filled.rows[0] == complete

    @pytest.mark.parametrize("targets", [["C"], ["A"], ["A", "B"], ["C", "A"]])
    def test_posterior_gibbs_refuses_as_posterior_exact_does(self, targets):
        # one free target, every target clamped, and a mix
        net = _copy_net()
        for posterior in (posterior_exact, posterior_gibbs):
            with pytest.raises(ImpossibleEvidenceError, match=_ZERO):
                posterior(net, targets, {"A": "0", "B": "1"})


class TestImputeTuple:
    def test_complete_row_unchanged(self, fitted_demo_net):
        row = Row(1, ("Audi", "A8", "2005", "Sedan", "20000"))
        assert impute_tuple(fitted_demo_net, row) is row

    def test_fill_matches_posterior_mode(self, fitted_demo_net):
        net = fitted_demo_net
        row = Row(2, ("Audi", "A8", "2005", None, "15000"))
        filled = impute_tuple(net, row)
        want = map_assignment(
            posterior_exact(
                net,
                ["Body"],
                {"Make": "Audi", "Model": "A8", "Year": "2005", "Mileage": "15000"},
            )
        )
        assert filled.cells[net.schema.index("Body")] == want[0]
        # evidence cells are untouched
        assert filled.cells[:3] == row.cells[:3] and filled.cells[4] == row.cells[4]

    def test_joint_mode_beats_marginal_modes(self):
        net = _skewed_pair_net()
        row = Row(1, (None, None))
        assert impute_tuple(net, row).cells == ("x0", "y0")
        assert impute_tuple(net, row, joint=False).cells == ("x1", "y0")

    def test_oracle_agreement_on_multi_missing(self, fitted_demo_net):
        net = fitted_demo_net
        row = Row(5, (None, "745", "2002", "Sedan", None))
        filled = impute_tuple(net, row)
        want = oracle_conditional(
            net,
            ["Make", "Mileage"],
            {"Model": "745", "Year": "2002", "Body": "Sedan"},
        )
        # lexicographically-first argmax of the oracle distribution
        top_p = max(want.values())
        best = min(c for c, p in want.items() if p == pytest.approx(top_p, abs=1e-12))
        assert (filled.cells[0], filled.cells[4]) == best

    def test_gibbs_engine_deterministic(self, fitted_demo_net):
        row = Row(2, ("Audi", "A8", "2005", None, "15000"))
        a = impute_tuple(fitted_demo_net, row, engine="gibbs", gibbs=GibbsParams(seed=5))
        b = impute_tuple(fitted_demo_net, row, engine="gibbs", gibbs=GibbsParams(seed=5))
        assert a == b

    def test_unknown_engine(self, fitted_demo_net):
        # rejected before any work, so also for a complete row
        for cells in [(None, None, None, None, None), ("Audi", "A8", "2005", "Sedan", "15000")]:
            with pytest.raises(ValueError, match="^unknown engine 'magic'$"):
                impute_tuple(fitted_demo_net, Row(1, cells), engine="magic")

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(samples=0), "samples must be >= 1"),
            (dict(samples=-3), "samples must be >= 1"),
            (dict(burn_in=-1), "burn_in must be >= 0"),
        ],
    )
    def test_gibbs_params_validated_on_construction(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GibbsParams(**kwargs)
        assert GibbsParams(samples=1, burn_in=0).samples == 1


class TestImputeTable:
    def test_filled_rows_are_built_without_a_collector_pass(self):
        # as for rewriting answers: none of them reaches the oldest generation
        rows = [Row(i, ("x0" if i % 2 else "x1", None)) for i in range(20_000)]
        filled, _ = impute_table(_skewed_pair_net(), Table(_skewed_pair_net().schema, rows))
        assert len(filled) == 20_000 and None not in {r.cells[1] for r in filled.rows}
        assert in_generation(filled.rows, 2) == 0

    def test_counts(self, fitted_demo_net, demo_table):
        filled, report = impute_table(fitted_demo_net, demo_table)
        assert report.tuples_total == 10
        assert report.tuples_imputed == 6
        assert report.cells_imputed == {"Body": 1, "Make": 4, "Mileage": 5}
        assert all(c is not None for r in filled.rows for c in r.cells)
        assert report.cell_accuracy is None
        assert report.duration_seconds >= 0.0

    def test_ids_and_schema_preserved(self, fitted_demo_net, demo_table):
        filled, _ = impute_table(fitted_demo_net, demo_table)
        assert filled.schema == demo_table.schema
        assert [r.id for r in filled.rows] == [r.id for r in demo_table.rows]

    def test_accuracy_by_hand(self):
        net = _skewed_pair_net()
        s = net.schema
        holes = Table(s, [Row(1, (None, "y0")), Row(2, ("x1", None)), Row(3, (None, None))])
        truth = Table(s, [Row(1, ("x0", "y0")), Row(2, ("x1", "y1")), Row(3, ("x1", "y0"))])
        filled, report = impute_table(net, holes, truth=truth)
        # row 1: argmax P(X|y0) = x0 (0.4 vs 0.25) -> hit
        # row 2: argmax P(Y|x1) = y1 (0.35 vs 0.25) -> hit
        # row 3: joint mode (x0, y0) -> X miss, Y hit
        assert filled.rows[0].cells == ("x0", "y0")
        assert filled.rows[1].cells == ("x1", "y1")
        assert filled.rows[2].cells == ("x0", "y0")
        assert report.cell_accuracy == pytest.approx(3 / 4)
        assert report.tuple_accuracy == pytest.approx(2 / 3)
        assert report.attribute_accuracy == {"X": 1 / 2, "Y": 1.0}
        assert report.combination_accuracy == {("X",): 1.0, ("Y",): 1.0, ("X", "Y"): 0.0}

    def test_no_gradeable_cell_reports_no_accuracy(self, fitted_demo_net, demo_table):
        # the truth is null at every imputed cell, or nothing is imputed
        net = _skewed_pair_net()
        holes = Table(net.schema, [Row(1, (None, "y0")), Row(2, ("x1", None))])
        complete = Table(net.schema, [Row(1, ("x0", "y0"))])
        for table, truth in ((holes, holes), (complete, complete), (demo_table, demo_table)):
            model = fitted_demo_net if table is demo_table else net
            _, report = impute_table(model, table, truth=truth)
            assert report.cell_accuracy is None and report.tuple_accuracy is None
            assert report.attribute_accuracy == {} and report.combination_accuracy == {}

    def test_null_truth_cells_not_graded(self):
        net = _skewed_pair_net()
        s = net.schema
        holes = Table(s, [Row(1, (None, None))])
        truth = Table(s, [Row(1, (None, "y0"))])
        _, report = impute_table(net, holes, truth=truth)
        assert report.cell_accuracy == pytest.approx(1.0)  # only Y gradeable
        assert report.attribute_accuracy == {"Y": 1.0}

    def test_truth_validation(self, fitted_demo_net, demo_table):
        wrong_schema = Table(
            Schema(("A",), {"A": ("x",)}), [Row(r.id, ("x",)) for r in demo_table.rows]
        )
        with pytest.raises(ValueError):
            impute_table(fitted_demo_net, demo_table, truth=wrong_schema)
        missing_ids = Table(demo_table.schema, demo_table.rows[:5])
        with pytest.raises(ValueError):
            impute_table(fitted_demo_net, demo_table, truth=missing_ids)

    def test_unknown_engine_rejected_without_incomplete_rows(self, fitted_demo_net, demo_table):
        complete = Table(demo_table.schema, [r for r in demo_table.rows if None not in r.cells])
        assert complete.rows
        for table in (complete, Table(demo_table.schema, [])):
            with pytest.raises(ValueError, match="^unknown engine 'bogus'$"):
                impute_table(fitted_demo_net, table, engine="bogus")

    def test_table_schema_must_match_net(self, fitted_demo_net):
        other = Table(Schema(("A",), {"A": ("x",)}), [Row(1, ("x",))])
        with pytest.raises(ValueError):
            impute_table(fitted_demo_net, other)

    def test_gibbs_seed_is_per_tuple(self, fitted_demo_net, demo_table):
        # reversing row order must not change any fill
        fwd, _ = impute_table(
            fitted_demo_net, demo_table, engine="gibbs", gibbs=GibbsParams(seed=2)
        )
        rev_input = Table(demo_table.schema, list(reversed(demo_table.rows)))
        rev, _ = impute_table(
            fitted_demo_net, rev_input, engine="gibbs", gibbs=GibbsParams(seed=2)
        )
        by_id = {r.id: r for r in rev.rows}
        assert all(by_id[r.id] == r for r in fwd.rows)

    @pytest.mark.parametrize("joint", [True, False])
    def test_gibbs_imputes_negative_row_ids(self, fitted_demo_net, demo_table, joint):
        # a chain is seeded by the id's unsigned 64-bit value, never refused
        incomplete = [r for r in demo_table.rows if None in r.cells][:3]
        table = Table(demo_table.schema, [Row(i, r.cells) for i, r in zip((-3, -2, -1), incomplete)])
        params = GibbsParams(samples=20, burn_in=5, seed=4)
        runs = [impute_table(fitted_demo_net, table, "gibbs", params, joint) for _ in range(2)]
        (first, report), (second, _) = runs
        assert first == second and report.tuples_imputed == 3
        assert [r.id for r in first.rows] == [-3, -2, -1]
        assert all(None not in r.cells for r in first.rows)

    def test_exact_and_gibbs_agree_on_easy_case(self, fitted_demo_net, demo_table):
        exact, _ = impute_table(fitted_demo_net, demo_table)
        sampled, _ = impute_table(
            fitted_demo_net,
            demo_table,
            engine="gibbs",
            gibbs=GibbsParams(samples=2000, burn_in=200, seed=0),
        )
        agree = sum(
            1
            for a, b in zip(exact.rows, sampled.rows)
            for ca, cb in zip(a.cells, b.cells)
            if ca == cb
        )
        total = sum(len(r.cells) for r in exact.rows)
        assert agree / total > 0.9


@pytest.mark.parametrize("engine", ["exact", "gibbs"])
@pytest.mark.parametrize(
    "cells, message",
    [
        (("Audi", None, "2005"), "row 1 has 3 cells, schema has 5"),
        (("Audi", None, "2005", "Sedan", "15000", "x"), "row 1 has 6 cells, schema has 5"),
        (("AUDI", None, "2005", "Sedan", "15000"), "row 1: value 'AUDI' not in domain of 'Make'"),
    ],
)
def test_malformed_rows_raise_under_both_engines(fitted_demo_net, engine, cells, message):
    # both engines impute the row as a one-row Table, which refuses it
    params = GibbsParams(samples=3, burn_in=0)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        impute_tuple(fitted_demo_net, Row(1, cells), engine=engine, gibbs=params)
