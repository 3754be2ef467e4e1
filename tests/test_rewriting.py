"""Rewritten-query scoring, ranking, issuing, and all five strategies."""

import dataclasses
import pickle
import re
from types import SimpleNamespace

import numpy as np
import pytest

import nullbayes.rewriting as rw
from nullbayes import harness
from nullbayes import (
    Afd,
    AutonomousSource,
    BayesNet,
    BeamConfig,
    ExperimentConfig,
    NoRuleError,
    NotApplicableError,
    Row,
    Schema,
    SelectionQuery,
    Table,
    afd_all_attributes,
    afd_highest_confidence,
    afd_rewrite_single,
    align_table,
    bn_all_mb,
    bn_beam,
    expected_precision,
    expected_selectivity,
    f_measure,
    fit_naive_bayes,
    inject_nulls,
    mine_afds,
    run_rewriting_experiment,
    sample_rows,
)
from nullbayes.rewriting import (
    REWRITING_METHODS,
    QueryScore,
    RetrievedAnswer,
    RewritingResult,
    RewrittenQuery,
    run_method,
)
from nullbayes.synth import car_demo_net

from conftest import demo_net, in_generation, oracle_conditional, row_with_id, with_unseen_values


def _impossible_pair_net():
    """A=a0 with B=b1 has zero joint mass; C hangs off A."""
    s = Schema(
        ("A", "B", "C"), {"A": ("a0", "a1"), "B": ("b0", "b1"), "C": ("c0", "c1")}
    )
    return BayesNet(
        s,
        {"B": ("A",), "C": ("A",)},
        {
            "A": np.array([0.5, 0.5]),
            "B": np.array([[1.0, 0.0], [0.3, 0.7]]),
            "C": np.array([[0.8, 0.2], [0.4, 0.6]]),
        },
    )


def _four_attr_world():
    """Sample + source over A,B,C,D with holes on A and B in the source."""
    s = Schema(("A", "B", "C", "D"), {k: ("0", "1") for k in "ABCD"})
    sample = Table(
        s,
        [
            Row(1, ("0", "0", "0", "0")),
            Row(2, ("0", "0", "0", "1")),
            Row(3, ("0", "1", "0", "1")),
            Row(4, ("1", "1", "1", "1")),
            Row(5, ("1", "1", "1", "0")),
            Row(6, ("1", "0", "1", "0")),
        ],
    )
    source_table = Table(
        s,
        [
            Row(1, ("0", "0", "0", "0")),
            Row(2, (None, "0", "0", "1")),
            Row(3, (None, None, "0", "0")),
            Row(4, ("1", None, "1", "0")),
            Row(5, (None, "1", "0", "1")),
            Row(6, ("1", "1", "1", "1")),
        ],
    )
    rules = [Afd(("C",), "A", 0.9), Afd(("D",), "B", 0.8)]
    return sample, source_table, fit_naive_bayes(sample), rules


class TestFMeasure:
    def test_alpha_zero_is_precision(self):
        assert f_measure(0.37, 1e-300, alpha=0.0) == 0.37
        assert f_measure(0.37, 0.0, alpha=0.0) == 0.0

    def test_harmonic_mean_at_alpha_one(self):
        assert f_measure(0.5, 0.5, alpha=1.0) == pytest.approx(0.5)
        assert f_measure(0.2, 0.8, alpha=1.0) == pytest.approx(2 * 0.2 * 0.8 / 1.0)

    def test_equal_p_r_collapses_to_p(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = float(rng.uniform(0.01, 1.0))
            alpha = float(rng.uniform(0.0, 5.0))
            assert f_measure(p, p, alpha) == pytest.approx(p, abs=1e-12)

    def test_zero_denominator(self):
        assert f_measure(0.0, 0.0, alpha=2.0) == 0.0

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            f_measure(0.5, 0.5, alpha=-1.0)


class TestExpectedPrecision:
    def test_matches_posterior(self, fitted_demo_net):
        p = expected_precision(
            fitted_demo_net,
            SelectionQuery({"Body": "Sedan"}),
            SelectionQuery({"Model": "A8", "Year": "2005"}),
        )
        want = oracle_conditional(
            fitted_demo_net, ["Body"], {"Model": "A8", "Year": "2005"}
        )[("Sedan",)]
        assert p == pytest.approx(want, abs=1e-12)

    def test_multi_attribute_original(self, fitted_demo_net):
        p = expected_precision(
            fitted_demo_net,
            SelectionQuery({"Make": "BMW", "Body": "Coupe"}),
            SelectionQuery({"Model": "645"}),
        )
        want = oracle_conditional(fitted_demo_net, ["Body", "Make"], {"Model": "645"})[
            ("Coupe", "BMW")
        ]
        assert p == pytest.approx(want, abs=1e-12)

    def test_overlap_rejected(self, fitted_demo_net):
        with pytest.raises(ValueError, match="Body"):
            expected_precision(
                fitted_demo_net,
                SelectionQuery({"Body": "Sedan"}),
                SelectionQuery({"Body": "Convt", "Year": "1999"}),
            )

    def test_impossible_candidate_scores_zero(self):
        net = _impossible_pair_net()
        p = expected_precision(
            net, SelectionQuery({"C": "c0"}), SelectionQuery({"A": "a0", "B": "b1"})
        )
        assert p == 0.0


class TestExpectedSelectivity:
    def test_counts_and_scales(self, demo_table):
        q = SelectionQuery({"Body": "Sedan"})
        assert expected_selectivity(demo_table, q) == 4.0
        assert expected_selectivity(demo_table, q, ratio=2.5) == 10.0

    def test_null_cells_do_not_match(self, demo_table):
        q = SelectionQuery({"Make": "BMW"})
        assert expected_selectivity(demo_table, q) == 3.0  # rows 4, 9, 10

    def test_negative_ratio_rejected(self, demo_table):
        with pytest.raises(ValueError):
            expected_selectivity(demo_table, SelectionQuery({"Body": "Sedan"}), -1.0)


def _rq(text, precision, selectivity=1.0, alpha=0.0):
    q = SelectionQuery.parse(text)
    r = precision * selectivity
    return RewrittenQuery(q, QueryScore(precision, selectivity, r, f_measure(precision, r, alpha)))


def _issued(queries, source):
    """The strategies' issuing pass over ``queries`` with no base answer to
    drop, and the answers built from what it retrieved."""
    retrieved, issued, truncated = rw._issue(queries, source, np.zeros(0, dtype=np.int64))
    return retrieved.answers(), issued, truncated


class TestIssue:
    def _source(self, demo_table, limit=None):
        return AutonomousSource(demo_table, query_limit=limit)

    def test_issues_by_precision_descending(self, demo_table):
        qs = [_rq("Model=tl", 0.3), _rq("Model=A8", 0.9), _rq("Model=745", 0.6)]
        answers, issued, truncated = _issued(qs, self._source(demo_table))
        assert [rq.text() for rq in issued] == ["Model=A8", "Model=745", "Model=tl"]
        assert not truncated

    def test_first_query_wins_relevance_and_dedup(self, demo_table):
        qs = [_rq("Model=A8", 0.9), _rq("Year=2005", 0.5)]  # overlapping results
        answers, _, _ = _issued(qs, self._source(demo_table))
        by_id = {a.row.id: a for a in answers}
        assert by_id[1].relevance == 0.9  # retrieved by Model=A8 first
        assert sorted(by_id) == [1, 2]
        assert len(answers) == len(by_id)

    def test_answers_are_a_list_of_retrieved_answers(self, demo_table):
        qs = [_rq("Model=A8", 0.9), _rq("Year=2005", 0.5)]
        answers, _, _ = _issued(qs, self._source(demo_table))
        assert type(answers) is list and answers
        assert all(type(a) is RetrievedAnswer for a in answers)
        assert answers == [RetrievedAnswer(a.row, a.relevance, a.query) for a in answers]

    def test_budget_refusal_truncates_but_keeps_partial(self, demo_table):
        qs = [_rq("Model=A8", 0.9), _rq("Model=745", 0.6)]
        answers, issued, truncated = _issued(qs, self._source(demo_table, limit=1))
        assert truncated
        assert [rq.text() for rq in issued] == ["Model=A8"]
        assert [a.row.id for a in answers] == [1, 2]

    def test_a_budget_the_base_query_spends_still_holds_the_source(self, demo_table):
        source = self._source(demo_table, limit=1)
        query = SelectionQuery({"Model": "A8"})
        base = source.answer(query)
        qs = [_rq("Year=2005", 0.9)]
        retrieved, issued, truncated = rw._issue(qs, source, base._taken_at())
        assert truncated and issued == [] and not len(retrieved.at)
        assert retrieved.table is source._table
        result = RewritingResult._unread(base, retrieved, issued, qs, truncated)
        assert result.answers == []
        assert harness._curve_points(result, query, np.ones(len(demo_table), dtype=bool)) == ()

    def test_tie_breaks_deterministic(self, demo_table):
        qs = [_rq("Model=tl", 0.5), _rq("Model=A8", 0.5), _rq("Model=745 & Year=2002", 0.5)]
        _, issued, _ = _issued(qs, self._source(demo_table))
        assert [rq.text() for rq in issued] == [
            "Model=A8",
            "Model=tl",
            "Model=745 & Year=2002",
        ]


class TestRetrievedAnswer:
    """The public contract of an answer, however the issuing pass builds it."""

    def _answer(self, demo_table):
        answers, _, _ = _issued([_rq("Model=A8", 0.9)], AutonomousSource(demo_table))
        return answers[0]

    def test_equality_is_by_type_and_fields(self, demo_table):
        a = self._answer(demo_table)
        assert a == RetrievedAnswer(a.row, 0.9, SelectionQuery.parse("Model=A8"))
        assert a != RetrievedAnswer(a.row, 0.5, a.query)
        assert a != (a.row, a.relevance, a.query)

        @dataclasses.dataclass(frozen=True)
        class LookAlike:
            row: Row
            relevance: float
            query: SelectionQuery

        assert a != LookAlike(a.row, a.relevance, a.query)

    def test_hash_follows_equality(self, demo_table):
        a = self._answer(demo_table)
        twin = RetrievedAnswer(a.row, a.relevance, a.query)
        assert hash(a) == hash(twin)
        assert len({a, twin}) == 1

    def test_frozen(self, demo_table):
        a = self._answer(demo_table)
        for name in ("row", "relevance", "query", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(a, name, None)

    def test_repr_and_fields(self, demo_table):
        a = self._answer(demo_table)
        assert repr(a) == f"RetrievedAnswer(row={a.row!r}, relevance=0.9, query={a.query!r})"
        assert [f.name for f in dataclasses.fields(a)] == ["row", "relevance", "query"]
        assert dataclasses.astuple(a) == (dataclasses.astuple(a.row), 0.9, a.query)

    def test_pickle_round_trip(self, demo_table):
        a = self._answer(demo_table)
        back = pickle.loads(pickle.dumps(a))
        assert type(back) is RetrievedAnswer and back == a
        assert hash(back) == hash(a)

    def test_whole_result_pickles_without_the_source_table(self, fitted_demo_net, demo_table):
        res = bn_all_mb(
            fitted_demo_net, demo_table, AutonomousSource(demo_table),
            SelectionQuery({"Body": "Sedan"}), k=10, sample_ratio=1.0,
        )
        assert res.answers
        back = pickle.loads(pickle.dumps(res))
        assert back == res
        assert type(back.base) is Table


class TestAnswersBuiltOnRead:
    """A strategy's result keeps its answers as source positions: no
    ``RetrievedAnswer`` exists until ``answers`` is first read."""

    @staticmethod
    def _counting(monkeypatch):
        built = []  # the size of every batch of answers built, empty ones left out
        build = rw._Retrieved.answers

        def counted(retrieved):
            out = build(retrieved)
            if out:
                built.append(len(out))
            return out

        monkeypatch.setattr(rw._Retrieved, "answers", counted)
        return built

    @staticmethod
    def _run(method, demo_table, **kwargs):
        models = SimpleNamespace(
            net=demo_net(), afds=mine_afds(demo_table), nb=fit_naive_bayes(demo_table)
        )
        return run_method(
            method, models, demo_table, AutonomousSource(demo_table, **kwargs),
            SelectionQuery({"Body": "Sedan"}), k=3, sample_ratio=1.0,
        )

    @pytest.mark.parametrize("method", REWRITING_METHODS)
    def test_no_answer_is_built_until_read(self, method, demo_table, monkeypatch):
        built = self._counting(monkeypatch)
        result = self._run(method, demo_table)
        assert result.issued and built == []
        answers = result.answers
        assert type(answers) is list and built == ([len(answers)] if answers else [])
        assert result.answers is answers  # built once, then kept
        assert result == result and built == ([len(answers)] if answers else [])
        if method == "bn-all-mb":
            assert answers, "the fixture should retrieve something"

    def test_answers_are_read_off_issued_and_the_source_rows(self, demo_table):
        result = self._run("bn-all-mb", demo_table, query_limit=3)  # base and two rewrites
        assert result.truncated and len(result.issued) == 2
        by_query = {rq.query: rq.score.precision for rq in result.issued}
        ids = [a.row.id for a in result.answers]
        assert len(ids) == len(set(ids)) and not set(ids) & {r.id for r in result.base}
        for a in result.answers:
            assert a.row == row_with_id(demo_table, a.row.id)
            assert a.relevance == by_query[a.query] and a.query.matches(demo_table.schema, a.row)

    def test_answers_do_not_follow_later_edits_of_issued(self, demo_table):
        want = self._run("bn-all-mb", demo_table).answers
        result = self._run("bn-all-mb", demo_table)
        assert want and len(result.issued) > 1
        result.issued.reverse()
        result.issued.pop()
        assert result.answers == want

    def test_an_unread_result_pickles_and_compares_by_its_answers(self, demo_table):
        result = self._run("bn-all-mb", demo_table)
        back = pickle.loads(pickle.dumps(result))  # answers not read yet
        assert type(back) is RewritingResult and type(back.base) is Table
        assert back == result and back.answers == result.answers
        assert back.issued == result.issued and back.candidates == result.candidates
        twin = RewritingResult(
            result.base, list(result.answers), result.issued, result.candidates, False
        )
        assert twin == result and repr(twin) == repr(result)
        assert RewritingResult(result.base, [], result.issued, result.candidates, False) != result
        assert result != (result.base, result.answers)
        assert repr(result).startswith("RewritingResult(base=Table(4 rows, ")

    def test_results_stay_frozen_and_unhashable(self, demo_table):
        result = self._run("bn-all-mb", demo_table)
        for name in ("base", "answers", "issued", "candidates", "truncated", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(result, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(result, name)
        with pytest.raises(TypeError):
            hash(result)

    def test_the_rewriting_experiment_builds_no_answer(self, monkeypatch):
        built = self._counting(monkeypatch)
        cfg = ExperimentConfig(
            mode="rewriting", synthetic_rows=600, train_fraction=0.3, test_null_fraction=0.5,
            seeds=(0,), restarts=1, max_iterations=30, queries=(SelectionQuery({"Body": "sedan"}),),
            methods=REWRITING_METHODS,
        )
        curves = run_rewriting_experiment(cfg)
        assert curves and any(p.recall for c in curves for p in c.points)
        assert built == []


    def test_answers_are_built_without_a_collector_pass(self):
        # tens of thousands of answers, which automatic collections would move
        # to the oldest generation, whose passes cover every live object
        s = Schema(("A",), {"A": ("x",)})
        table = Table(s, [Row(i, ("x",)) for i in range(20_000)])
        answers, _, _ = _issued([_rq("A=x", 1.0)], AutonomousSource(table))
        assert len(answers) == 20_000
        assert in_generation(answers, 2) == 0


class TestBnAllMb:
    def test_demo_candidates_and_retrieval(self, fitted_demo_net, demo_table):
        res = bn_all_mb(
            fitted_demo_net,
            demo_table,
            AutonomousSource(demo_table),
            SelectionQuery({"Body": "Sedan"}),
            k=10,
            sample_ratio=1.0,
        )
        assert [r.id for r in res.base] == [1, 3, 4, 5]
        assert {rq.text() for rq in res.candidates} == {
            "Model=745 & Year=2002",
            "Model=A8 & Year=2005",
            "Model=tl & Year=2003",
        }
        assert [a.row.id for a in res.answers] == [2]
        assert res.answers[0].relevance == pytest.approx(0.5)
        assert not res.truncated

    def test_issue_order_is_precision_descending(self, fitted_demo_net, demo_table):
        res = bn_all_mb(
            fitted_demo_net,
            demo_table,
            AutonomousSource(demo_table),
            SelectionQuery({"Body": "Sedan"}),
            sample_ratio=1.0,
        )
        assert [rq.text() for rq in res.issued] == [
            "Model=745 & Year=2002",
            "Model=A8 & Year=2005",
            "Model=tl & Year=2003",
        ]
        ps = [rq.score.precision for rq in res.issued]
        assert ps == sorted(ps, reverse=True)
        assert ps[0] == pytest.approx(0.6)

    def test_k_caps_candidates(self, fitted_demo_net, demo_table):
        res = bn_all_mb(
            fitted_demo_net,
            demo_table,
            AutonomousSource(demo_table),
            SelectionQuery({"Body": "Sedan"}),
            k=2,
            sample_ratio=1.0,
        )
        assert [rq.text() for rq in res.candidates] == [
            "Model=745 & Year=2002",
            "Model=A8 & Year=2005",
        ]

    def test_empty_base_warns(self, fitted_demo_net, demo_table):
        src = AutonomousSource(demo_table)
        with pytest.warns(UserWarning, match="base result is empty"):
            res = bn_all_mb(
                fitted_demo_net,
                demo_table,
                src,
                SelectionQuery({"Make": "Acura", "Body": "Convt"}),
                sample_ratio=1.0,
            )
        assert list(res.base) == [] and res.answers == [] and res.issued == []

    def test_budget_truncation(self, fitted_demo_net, demo_table):
        src = AutonomousSource(demo_table, query_limit=1)  # spent on the base query
        res = bn_all_mb(
            fitted_demo_net,
            demo_table,
            src,
            SelectionQuery({"Body": "Sedan"}),
            sample_ratio=1.0,
        )
        assert res.truncated
        assert res.issued == [] and res.answers == []
        assert [r.id for r in res.base] == [1, 3, 4, 5]

    def test_ratio_probe_when_not_given(self, fitted_demo_net, demo_table):
        src = AutonomousSource(demo_table)
        res = bn_all_mb(
            fitted_demo_net,
            demo_table,
            src,
            SelectionQuery({"Body": "Sedan"}),
        )
        # one probe + one base query + three rewrites
        assert src.queries_used == 5
        assert res.candidates[0].score.selectivity == pytest.approx(2.0)

    def test_bad_arguments(self, fitted_demo_net, demo_table):
        src = AutonomousSource(demo_table)
        with pytest.raises(ValueError):
            bn_all_mb(fitted_demo_net, demo_table, src, SelectionQuery(), sample_ratio=1.0)
        with pytest.raises(ValueError):
            bn_all_mb(
                fitted_demo_net,
                demo_table,
                src,
                SelectionQuery({"Body": "Sedan"}),
                k=0,
                sample_ratio=1.0,
            )
        with pytest.raises(ValueError):
            bn_all_mb(
                fitted_demo_net,
                demo_table,
                src,
                SelectionQuery({"Body": "Truck"}),
                sample_ratio=1.0,
            )


class TestBnBeam:
    def test_two_attribute_query_attrs_come_from_blankets(
        self, fitted_demo_net, demo_table
    ):
        res = bn_beam(
            fitted_demo_net,
            demo_table,
            AutonomousSource(demo_table),
            SelectionQuery({"Make": "BMW", "Mileage": "40000"}),
            BeamConfig(width=5, depth=2, alpha=0.0, top_k=10),
            sample_ratio=1.0,
        )
        assert [r.id for r in res.base] == [4, 9, 10]
        used = set()
        for rq in res.candidates:
            used.update(rq.query.attributes)
        assert used == {"Model", "Year"}

    def test_depth_bounds_predicate_count(self, fitted_demo_net, demo_table):
        res = bn_beam(
            fitted_demo_net,
            demo_table,
            AutonomousSource(demo_table),
            SelectionQuery({"Body": "Sedan"}),
            BeamConfig(width=8, depth=1, alpha=0.0, top_k=10),
            sample_ratio=1.0,
        )
        assert all(len(rq.query) == 1 for rq in res.candidates)
        deeper = bn_beam(
            fitted_demo_net,
            demo_table,
            AutonomousSource(demo_table),
            SelectionQuery({"Body": "Sedan"}),
            BeamConfig(width=8, depth=2, alpha=0.0, top_k=10),
            sample_ratio=1.0,
        )
        assert any(len(rq.query) == 2 for rq in deeper.candidates)
        assert all(len(rq.query) <= 2 for rq in deeper.candidates)

    def test_pool_keeps_short_queries(self, fitted_demo_net, demo_table):
        # a 1-predicate query may beat 2-predicate ones and must stay eligible
        res = bn_beam(
            fitted_demo_net,
            demo_table,
            AutonomousSource(demo_table),
            SelectionQuery({"Body": "Sedan"}),
            BeamConfig(width=5, depth=2, alpha=0.0, top_k=10),
            sample_ratio=1.0,
        )
        lengths = {len(rq.query) for rq in res.candidates}
        assert lengths == {1, 2}

    def test_retrieves_uncertain_tuple(self, fitted_demo_net, demo_table):
        res = bn_beam(
            fitted_demo_net,
            demo_table,
            AutonomousSource(demo_table),
            SelectionQuery({"Body": "Sedan"}),
            BeamConfig(width=5, depth=2, alpha=0.0, top_k=10),
            sample_ratio=1.0,
        )
        assert [a.row.id for a in res.answers] == [2]

    def test_alpha_shapes_f_measure(self, fitted_demo_net, demo_table):
        res = bn_beam(
            fitted_demo_net,
            demo_table,
            AutonomousSource(demo_table),
            SelectionQuery({"Body": "Sedan"}),
            BeamConfig(width=5, depth=2, alpha=1.0, top_k=10),
            sample_ratio=1.0,
        )
        for rq in res.candidates:
            s = rq.score
            want = 2 * s.precision * s.recall / (s.precision + s.recall)
            assert s.f_measure == pytest.approx(want, abs=1e-12)

    def test_zero_f_candidates_not_issued(self, fitted_demo_net, demo_table):
        res = bn_beam(
            fitted_demo_net,
            demo_table,
            AutonomousSource(demo_table),
            SelectionQuery({"Body": "Sedan"}),
            BeamConfig(width=5, depth=2, alpha=0.0, top_k=10),
            sample_ratio=1.0,
        )
        assert all(rq.score.f_measure > 0 for rq in res.issued)

    def test_deterministic(self, fitted_demo_net, demo_table):
        def run():
            return bn_beam(
                fitted_demo_net,
                demo_table,
                AutonomousSource(demo_table),
                SelectionQuery({"Body": "Sedan"}),
                BeamConfig(width=4, depth=2, alpha=0.0, top_k=5),
                sample_ratio=1.0,
            )

        a, b = run(), run()
        assert [rq.text() for rq in a.issued] == [rq.text() for rq in b.issued]
        assert [x.row.id for x in a.answers] == [x.row.id for x in b.answers]

    def test_empty_base_warns(self, fitted_demo_net, demo_table):
        with pytest.warns(UserWarning, match="base result is empty"):
            res = bn_beam(
                fitted_demo_net,
                demo_table,
                AutonomousSource(demo_table),
                SelectionQuery({"Make": "Acura", "Body": "Convt"}),
                sample_ratio=1.0,
            )
        assert res.answers == []


class TestAfdRewriteSingle:
    def test_given_rule_produces_expected_candidates(self, sparse_table):
        model = fit_naive_bayes(sparse_table)
        rules = [Afd(("Model",), "Body", 1.0)]
        res = afd_rewrite_single(
            rules,
            model,
            sparse_table,
            AutonomousSource(sparse_table),
            SelectionQuery({"Body": "SUV"}),
            sample_ratio=1.0,
        )
        assert [r.id for r in res.base] == [7, 9]
        assert {rq.text() for rq in res.candidates} == {"Model=Santa", "Model=MDX"}
        assert sorted(a.row.id for a in res.answers) == [8, 10]

    def test_mined_best_rule_can_retrieve_nothing(self, sparse_table):
        # best mined rule for Body is Mileage->Body (tie broken by name);
        # the uncertain rows have different mileages, so nothing comes back
        model = fit_naive_bayes(sparse_table)
        rules = mine_afds(sparse_table)
        res = afd_rewrite_single(
            rules,
            model,
            sparse_table,
            AutonomousSource(sparse_table),
            SelectionQuery({"Body": "SUV"}),
            sample_ratio=1.0,
        )
        assert {rq.text() for rq in res.candidates} == {
            "Mileage=45000",
            "Mileage=30000",
        }
        assert res.answers == []

    def test_multi_attribute_query_rejected(self, sparse_table):
        model = fit_naive_bayes(sparse_table)
        with pytest.raises(ValueError, match="single"):
            afd_rewrite_single(
                [],
                model,
                sparse_table,
                AutonomousSource(sparse_table),
                SelectionQuery({"Body": "SUV", "Make": "Audi"}),
                sample_ratio=1.0,
            )

    def test_no_rule(self, sparse_table):
        model = fit_naive_bayes(sparse_table)
        with pytest.raises(NoRuleError):
            afd_rewrite_single(
                [],
                model,
                sparse_table,
                AutonomousSource(sparse_table),
                SelectionQuery({"Body": "SUV"}),
                sample_ratio=1.0,
            )

    def test_rule_constraining_query_attr_unusable(self, sparse_table):
        model = fit_naive_bayes(sparse_table)
        rules = [Afd(("Body",), "Make", 1.0)]  # determining set hits the query attr
        with pytest.raises(NoRuleError):
            afd_rewrite_single(
                rules,
                model,
                sparse_table,
                AutonomousSource(sparse_table),
                SelectionQuery({"Body": "SUV"}),
                sample_ratio=1.0,
            )


class TestAfdAllAttributes:
    def test_conjunction_with_product_precision(self):
        sample, source_table, model, rules = _four_attr_world()
        res = afd_all_attributes(
            rules,
            model,
            sample,
            AutonomousSource(source_table),
            SelectionQuery({"A": "0", "B": "0"}),
            sample_ratio=1.0,
        )
        assert [r.id for r in res.base] == [1]
        assert [rq.text() for rq in res.candidates] == ["C=0 & D=0"]
        want = float(
            model.posterior("A", {"C": "0"})[0] * model.posterior("B", {"D": "0"})[0]
        )
        assert res.candidates[0].score.precision == pytest.approx(want, abs=1e-12)
        assert [a.row.id for a in res.answers] == [3]

    def test_cross_product_size(self):
        sample, source_table, model, rules = _four_attr_world()
        # widen the base so each attribute contributes two determining values
        res = afd_all_attributes(
            rules,
            model,
            sample,
            AutonomousSource(sample),  # complete table: base has both C and D values
            SelectionQuery({"A": "0", "B": "0"}),
            sample_ratio=1.0,
        )
        # base = rows 1,2 -> C values {0}, D values {0,1} -> 1 x 2 candidates
        assert len(res.candidates) == 2
        assert {rq.text() for rq in res.candidates} == {"C=0 & D=0", "C=0 & D=1"}

    def test_zero_match_candidates_kept(self):
        sample, source_table, model, rules = _four_attr_world()
        res = afd_all_attributes(
            rules,
            model,
            sample,
            AutonomousSource(sample),
            SelectionQuery({"A": "0", "B": "0"}),
            sample_ratio=1.0,
        )
        by_text = {rq.text(): rq.score.selectivity for rq in res.candidates}
        assert by_text["C=0 & D=0"] == pytest.approx(1.0)  # sample row 1
        assert by_text["C=0 & D=1"] == pytest.approx(2.0)  # sample rows 2, 3

    def test_overlapping_determining_sets_not_applicable(self):
        sample, source_table, model, _ = _four_attr_world()
        rules = [Afd(("C",), "A", 0.9), Afd(("C",), "B", 0.8)]
        with pytest.raises(NotApplicableError, match="C"):
            afd_all_attributes(
                rules,
                model,
                sample,
                AutonomousSource(source_table),
                SelectionQuery({"A": "0", "B": "0"}),
                sample_ratio=1.0,
            )

    def test_missing_rule_for_one_attribute(self):
        sample, source_table, model, _ = _four_attr_world()
        rules = [Afd(("C",), "A", 0.9)]
        with pytest.raises(NoRuleError, match="B"):
            afd_all_attributes(
                rules,
                model,
                sample,
                AutonomousSource(source_table),
                SelectionQuery({"A": "0", "B": "0"}),
                sample_ratio=1.0,
            )


class TestAfdHighestConfidence:
    def test_picks_strongest_and_drops_rest(self):
        sample, source_table, model, rules = _four_attr_world()
        res = afd_highest_confidence(
            rules,
            model,
            sample,
            AutonomousSource(source_table),
            SelectionQuery({"A": "0", "B": "0"}),
            sample_ratio=1.0,
        )
        # A's rule (0.9) beats B's (0.8): candidates constrain C only
        assert all(rq.query.attributes == ("C",) for rq in res.candidates)
        assert [rq.text() for rq in res.candidates] == ["C=0"]
        assert sorted(a.row.id for a in res.answers) == [2, 3, 5]

    def test_confidence_tie_breaks_on_attribute_name(self):
        sample, source_table, model, _ = _four_attr_world()
        rules = [Afd(("C",), "A", 0.9), Afd(("D",), "B", 0.9)]
        res = afd_highest_confidence(
            rules,
            model,
            sample,
            AutonomousSource(source_table),
            SelectionQuery({"A": "0", "B": "0"}),
            sample_ratio=1.0,
        )
        assert all(rq.query.attributes == ("C",) for rq in res.candidates)

    def test_works_when_only_one_attribute_has_a_rule(self):
        sample, source_table, model, _ = _four_attr_world()
        rules = [Afd(("D",), "B", 0.8)]
        res = afd_highest_confidence(
            rules,
            model,
            sample,
            AutonomousSource(source_table),
            SelectionQuery({"A": "0", "B": "0"}),
            sample_ratio=1.0,
        )
        assert all(rq.query.attributes == ("D",) for rq in res.candidates)

    def test_no_rules_at_all(self):
        sample, source_table, model, _ = _four_attr_world()
        with pytest.raises(NoRuleError):
            afd_highest_confidence(
                [],
                model,
                sample,
                AutonomousSource(source_table),
                SelectionQuery({"A": "0", "B": "0"}),
                sample_ratio=1.0,
            )


class TestSourceColumnOrder:
    """Source rows are read in the source's own column order, whatever the model's."""

    STRATEGIES = {
        "bn-all-mb": lambda w, source, q: bn_all_mb(w["net"], w["sample"], source, q, k=5),
        "bn-beam": lambda w, source, q: bn_beam(
            w["net"], w["sample"], source, q, BeamConfig(top_k=5)
        ),
        "afd": lambda w, source, q: afd_rewrite_single(
            w["afds"], w["nb"], w["sample"], source, q, k=5
        ),
        "afd-all-attributes": lambda w, source, q: afd_all_attributes(
            w["afds"], w["nb"], w["sample"], source, q, k=5
        ),
        "afd-highest-confidence": lambda w, source, q: afd_highest_confidence(
            w["afds"], w["nb"], w["sample"], source, q, k=5
        ),
    }

    @staticmethod
    def _world():
        net = car_demo_net()
        data = sample_rows(net, 900, seed=11)
        sample = Table(data.schema, data.rows[:300])
        source = inject_nulls(Table(data.schema, data.rows[300:]), ["Price"], 0.4, seed=2)
        reversed_schema = Schema(reversed(data.schema.attributes), data.schema.domains)
        return {
            "net": net,
            "sample": sample,
            "afds": mine_afds(sample),
            "nb": fit_naive_bayes(sample),
            "source": source,
            "permuted": align_table(source, reversed_schema),
        }

    @pytest.mark.parametrize("method", sorted(STRATEGIES))
    def test_permuted_source_gives_the_same_result(self, method):
        world = self._world()
        run = self.STRATEGIES[method]
        query = SelectionQuery.parse("Price=30000")
        want = run(world, AutonomousSource(world["source"]), query)
        got = run(world, AutonomousSource(world["permuted"]), query)
        assert want.answers, "the fixture should retrieve something"
        assert [rq.text() for rq in got.issued] == [rq.text() for rq in want.issued]
        assert [a.row.id for a in got.answers] == [a.row.id for a in want.answers]
        assert [r.id for r in got.base] == [r.id for r in want.base]


class TestUnseenSourceValues:
    """A source value outside the model's domains makes a candidate impossible."""

    UNSEEN = "zz-unseen"
    STRATEGIES = {
        "bn-all-mb": lambda w, source, q: bn_all_mb(w["net"], w["sample"], source, q, k=1000),
        "bn-beam": lambda w, source, q: bn_beam(
            w["net"], w["sample"], source, q, BeamConfig(width=50, top_k=1000)
        ),
        "afd": lambda w, source, q: afd_rewrite_single(
            w["afds"], w["nb"], w["sample"], source, q, k=1000
        ),
        "afd-all-attributes": lambda w, source, q: afd_all_attributes(
            w["afds"], w["nb"], w["sample"], source, q, k=1000
        ),
        "afd-highest-confidence": lambda w, source, q: afd_highest_confidence(
            w["afds"], w["nb"], w["sample"], source, q, k=1000
        ),
    }

    def test_expected_precision_of_unseen_value_is_zero(self):
        net = car_demo_net()
        original = SelectionQuery.parse("Price=30000")
        year = net.schema.domain("Year")[0]
        for cand in (f"Model={self.UNSEEN}", f"Model={self.UNSEEN} & Year={year}"):
            assert expected_precision(net, original, SelectionQuery.parse(cand)) == 0.0

    @pytest.mark.parametrize("method", sorted(STRATEGIES))
    def test_strategy_completes_and_scores_unseen_candidates_zero(self, method):
        world = TestSourceColumnOrder._world()
        source = with_unseen_values(world["source"], "Price", "30000", self.UNSEEN)
        result = self.STRATEGIES[method](
            world, AutonomousSource(source), SelectionQuery.parse("Price=30000")
        )
        assert result.answers, "the fixture should retrieve something"
        unseen = [
            rq for rq in result.candidates if self.UNSEEN in (v for _, v in rq.query.items)
        ]
        assert all(rq.score.precision == 0.0 for rq in unseen)
        assert all(rq.score.selectivity == 0.0 for rq in unseen)
        if method == "bn-beam":
            # the beam drops zero-F rewrites before issuing
            assert not unseen
        else:
            assert unseen, "some candidate should hold the unseen value"


# ---------------------------------------------------------------------------
# the shared pipeline, the selection keys and the dispatcher


def _models(table):
    return SimpleNamespace(net=demo_net(), afds=mine_afds(table), nb=fit_naive_bayes(table))


class TestPipelineChecks:
    """Every strategy checks its arguments once, before the source is touched,
    whether or not it has candidates to score."""

    @pytest.mark.parametrize("method", REWRITING_METHODS)
    @pytest.mark.parametrize(
        "query, kwargs, message",
        [
            ({}, {}, "empty query"),
            ({"Body": "Sedan"}, {"k": 0}, "k must be >= 1"),
            ({"Body": "Sedan"}, {"alpha": -1.0}, "alpha must be >= 0"),
            ({"Body": "Sedan"}, {"sample_ratio": -2.0}, "ratio must be >= 0"),
            # an empty base: nothing is scored, so only the preamble can refuse
            ({"Body": "Coupe", "Make": "Audi"}, {"alpha": -1.0}, "alpha must be >= 0"),
            ({"Body": "Coupe", "Make": "Audi"}, {"sample_ratio": -1.0}, "ratio must be >= 0"),
        ],
    )
    def test_refused_before_the_source_is_touched(self, demo_table, method, query, kwargs, message):
        source = AutonomousSource(demo_table)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_method(
                method, _models(demo_table), demo_table, source, SelectionQuery(query),
                **{"sample_ratio": 1.0, **kwargs},
            )
        assert source.queries_used == 0

    def test_empty_query_refused_by_every_public_strategy(self, demo_table, fitted_demo_net):
        model = fit_naive_bayes(demo_table)
        calls = [
            lambda s: bn_all_mb(fitted_demo_net, demo_table, s, SelectionQuery()),
            lambda s: bn_beam(fitted_demo_net, demo_table, s, SelectionQuery()),
            lambda s: afd_rewrite_single([], model, demo_table, s, SelectionQuery()),
            lambda s: afd_all_attributes([], model, demo_table, s, SelectionQuery()),
            lambda s: afd_highest_confidence([], model, demo_table, s, SelectionQuery()),
        ]
        for call in calls:
            source = AutonomousSource(demo_table)
            with pytest.raises(ValueError, match="^empty query$"):
                call(source)
            assert source.queries_used == 0


def _selection_world():
    """A rule Make -> Body under which Make=x implies Body=suv more strongly
    than Make=y does, and a sample that holds no Make=x tuple."""
    schema = Schema(("Make", "Body"), {"Make": ("x", "y"), "Body": ("sedan", "suv")})
    train = [("x", "suv")] * 4 + [("y", "suv"), ("y", "suv"), ("y", "sedan"), ("y", "sedan")]
    model = fit_naive_bayes(Table(schema, [Row(i, c) for i, c in enumerate(train, start=1)]))
    sample = Table(schema, [Row(1, ("y", "suv")), Row(2, ("y", "sedan"))])
    source = Table(
        schema,
        [Row(1, ("x", "suv")), Row(2, ("y", "suv")), Row(3, ("x", None)), Row(4, ("y", None))],
    )
    return model, sample, source, [Afd(("Make",), "Body", 0.9)]


class TestSelectionKey:
    def test_all_attributes_keeps_a_zero_selectivity_candidate_f_ranking_drops(self):
        model, sample, source, rules = _selection_world()
        query = SelectionQuery({"Body": "suv"})
        args = (rules, model, sample)
        everything = afd_all_attributes(*args, AutonomousSource(source), query, sample_ratio=1.0)
        scores = {rq.text(): rq.score for rq in everything.candidates}
        assert scores["Make=x"].precision > scores["Make=y"].precision
        assert scores["Make=x"].selectivity == 0.0 < scores["Make=y"].selectivity
        assert scores["Make=x"].f_measure == 0.0
        picked = {
            fn.__name__: [
                rq.text() for rq in fn(*args, AutonomousSource(source), query, 1, 0.0, 1.0).issued
            ]
            for fn in (afd_all_attributes, afd_rewrite_single, afd_highest_confidence)
        }
        assert picked == {
            "afd_all_attributes": ["Make=x"],  # by precision
            "afd_rewrite_single": ["Make=y"],  # by F-measure
            "afd_highest_confidence": ["Make=y"],
        }


class TestRunMethod:
    def test_same_result_as_the_public_strategy(self, demo_table):
        models = _models(demo_table)
        query = SelectionQuery({"Body": "Sedan"})
        direct = {
            "bn-all-mb": lambda s: bn_all_mb(models.net, demo_table, s, query, 3, 0.5, 1.0),
            "bn-beam": lambda s: bn_beam(
                models.net, demo_table, s, query, BeamConfig(2, 3, 0.5, 3), 1.0
            ),
            "afd": lambda s: afd_rewrite_single(
                models.afds, models.nb, demo_table, s, query, 3, 0.5, 1.0
            ),
            "afd-all-attributes": lambda s: afd_all_attributes(
                models.afds, models.nb, demo_table, s, query, 3, 0.5, 1.0
            ),
            "afd-highest-confidence": lambda s: afd_highest_confidence(
                models.afds, models.nb, demo_table, s, query, 3, 0.5, 1.0
            ),
        }
        assert tuple(direct) == REWRITING_METHODS
        for method, call in direct.items():
            got = run_method(
                method, models, demo_table, AutonomousSource(demo_table), query, 3, 0.5, 1.0,
                beam_width=2, beam_depth=3,
            )
            assert got == call(AutonomousSource(demo_table)), method
            assert got.issued, method

    def test_reads_only_the_models_the_method_needs(self, demo_table):
        full = _models(demo_table)
        query = SelectionQuery({"Body": "Sedan"})
        for method in REWRITING_METHODS:
            needs = ("net",) if method.startswith("bn-") else ("afds", "nb")
            models = SimpleNamespace(**{name: getattr(full, name) for name in needs})
            run_method(method, models, demo_table, AutonomousSource(demo_table), query, sample_ratio=1.0)

    def test_unknown_method(self, demo_table):
        with pytest.raises(ValueError, match="unknown method 'oracle'"):
            run_method(
                "oracle", _models(demo_table), demo_table, AutonomousSource(demo_table),
                SelectionQuery({"Body": "Sedan"}),
            )


def test_blanket_warning_names_a_base_with_no_null_free_projection(demo_table):
    # Body's blanket {Model, Year} is not empty, but with Year null in every
    # source row no base tuple is null-free on it, so nothing is projected
    source = AutonomousSource(inject_nulls(demo_table, ["Year"], 1.0, seed=0))
    query = SelectionQuery({"Body": "Sedan"})
    with pytest.warns(UserWarning) as caught:
        result = bn_all_mb(demo_net(), demo_table, source, query, sample_ratio=1.0)
    assert [str(w.message) for w in caught] == [
        "no rewrite candidates: no base tuple is null-free on the Markov blanket"
    ]
    assert len(result.base) == 4 and not result.issued
