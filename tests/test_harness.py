"""Experiment configuration, splitting, accounting, and report rendering."""

import math
import re
from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullbayes import (
    ExperimentConfig,
    ImputationRun,
    PrCurve,
    PrPoint,
    Row,
    Schema,
    SelectionQuery,
    Table,
    format_timing_table,
    imputation_csv_lines,
    inject_nulls,
    load_config,
    parse_config,
    pr_csv_lines,
    run_imputation_experiment,
    run_rewriting_experiment,
    sample_rows,
    split_table,
)
from nullbayes.harness import _target_accuracy, _train_models
from nullbayes.synth import car_demo_net

_FULL_CONFIG = """
# rewriting sweep over the synthetic table
mode = rewriting
synthetic_rows = 400
train_fraction = 0.3
test_null_fraction = 0.5
seeds = 0, 1
query = Body=sedan
query = Make=bmw & Body=coupe
methods = bn-all-mb, bn-beam
top_k = 7
alpha = 0.5
beam_width = 3
beam_depth = 2
query_limit = 25
restarts = 1
max_iterations = 50
score = bdeu
ess = 2.0
pseudo_count = 0.5
"""


class TestParseConfig:
    def test_full_round_trip(self):
        cfg = parse_config(_FULL_CONFIG)
        assert cfg.mode == "rewriting"
        assert cfg.synthetic_rows == 400
        assert cfg.train_fraction == 0.3
        assert cfg.seeds == (0, 1)
        assert [q.text() for q in cfg.queries] == [
            "Body=sedan",
            "Body=coupe & Make=bmw",
        ]
        assert cfg.methods == ("bn-all-mb", "bn-beam")
        assert cfg.top_k == 7 and cfg.alpha == 0.5
        assert cfg.beam_width == 3 and cfg.beam_depth == 2
        assert cfg.query_limit == 25
        assert cfg.score == "bdeu" and cfg.ess == 2.0
        assert cfg.pseudo_count == 0.5

    def test_defaults(self):
        cfg = parse_config("mode = imputation\ntargets = Body\n")
        assert cfg.dataset is None
        assert cfg.levels == (0, 10, 20, 30, 40, 50, 60, 70, 80, 90)
        assert cfg.gibbs_samples == 250 and cfg.gibbs_burn_in == 100
        assert cfg.query_limit is None
        assert cfg.effective_methods() == ("afd", "bn-exact", "bn-gibbs")

    def test_rewriting_default_methods(self):
        cfg = parse_config("mode = rewriting\nquery = Body=Sedan\n")
        assert cfg.effective_methods() == ("bn-all-mb", "bn-beam", "afd")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config(
            "\n# comment\nmode = imputation # trailing\n\ntargets = Body, Make\n"
        )
        assert cfg.mode == "imputation"
        assert cfg.targets == ("Body", "Make")

    def test_discretize_rules(self):
        cfg = parse_config(
            "mode = imputation\ntargets = Body\ndiscretize = Mileage:5000, Year:10\n"
        )
        assert cfg.discretize_rules == {"Mileage": 5000, "Year": 10}

    def test_discretize_rule_without_granularity(self):
        head = "mode = imputation\ntargets = Body\ndiscretize = Mileage:5000, "
        for rule in ("Price", "Price:", "Price:x", "Price:5.0", ":5"):
            message = f"bad discretize rule {rule!r}: expected Attr:granularity"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                parse_config(head + rule + "\n")

    def test_query_limit_none(self):
        cfg = parse_config("mode = rewriting\nquery = Body=Sedan\nquery_limit = none\n")
        assert cfg.query_limit is None

    def test_levels_parse(self):
        cfg = parse_config("mode = imputation\ntargets = Body\nlevels = 0, 30, 60\n")
        assert cfg.levels == (0, 30, 60)

    def test_unknown_key_has_line_number(self):
        with pytest.raises(ValueError, match="line 2.*wibble"):
            parse_config("mode = rewriting\nwibble = 3\nquery = Body=Sedan\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("top_k = abc", "top_k: invalid literal for int() with base 10: 'abc'"),
            ("alpha = high", "alpha: could not convert string to float: 'high'"),
            ("seeds = 1, x", "seeds: invalid literal for int() with base 10: 'x'"),
            ("query_limit = many", "query_limit: invalid literal for int() with base 10: 'many'"),
        ],
    )
    def test_unconvertible_value_names_line_and_key(self, line, message):
        with pytest.raises(ValueError, match=f"^{re.escape(f'config line 3: {message}')}$"):
            parse_config(f"mode = imputation\ntargets = Body\n{line}\n")

    @pytest.mark.parametrize("value", ["Body", "Body=Sedan & Make", "Body="])
    def test_bad_query_names_line_and_key(self, value):
        with pytest.raises(ValueError, match="^config line 2: query: bad predicate "):
            parse_config(f"mode = rewriting\nquery = {value}\n")

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config("mode rewriting\n")

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="unknown mode"):
            parse_config("mode = ranking\n")
        with pytest.raises(ValueError, match="unknown method"):
            parse_config("mode = rewriting\nquery = A=1\nmethods = bn-gibbs\n")
        with pytest.raises(ValueError, match="train_fraction"):
            parse_config("mode = rewriting\nquery = A=1\ntrain_fraction = 1.0\n")
        with pytest.raises(ValueError, match="at least one query"):
            parse_config("mode = rewriting\n")
        with pytest.raises(ValueError, match="target"):
            parse_config("mode = imputation\n")
        with pytest.raises(ValueError, match="0..100"):
            parse_config("mode = imputation\ntargets = Body\nlevels = 0, 101\n")
        with pytest.raises(ValueError, match="^samples must be >= 1$"):
            parse_config("mode = imputation\ntargets = Body\ngibbs_samples = 0\n")
        with pytest.raises(ValueError, match="^burn_in must be >= 0$"):
            parse_config("mode = imputation\ntargets = Body\ngibbs_burn_in = -1\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("max_iterations = -1", "max_iterations must be >= 0"),
            ("afd_min_confidence = 1.01", "afd_min_confidence must be in [0, 1]"),
            ("afd_min_confidence = -0.5", "afd_min_confidence must be in [0, 1]"),
        ],
    )
    def test_search_and_mining_ranges(self, line, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_config(f"mode = imputation\ntargets = Body\n{line}\n")
        for edge in ("max_iterations = 0", "afd_min_confidence = 0", "afd_min_confidence = 1"):
            parse_config(f"mode = imputation\ntargets = Body\n{edge}\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("top_k = 0", "top_k must be >= 1"),
            ("alpha = -0.5", "alpha must be >= 0"),
            ("beam_width = 0", "beam_width must be >= 1"),
            ("beam_depth = 0", "beam_depth must be >= 1"),
            ("query_limit = -1", "query_limit must be >= 1"),
            ("query_limit = 0", "query_limit must be >= 1"),  # the base query needs one
        ],
    )
    def test_rewriting_ranges(self, line, message):
        # refused at parse time, not after every model is trained
        head = "mode = rewriting\nquery = Body=sedan\n"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_config(f"{head}{line}\n")
        for edge in ("top_k = 1", "alpha = 0", "beam_width = 1", "beam_depth = 1", "query_limit = 1"):
            parse_config(f"{head}{edge}\n")

    def test_load_config(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("mode = imputation\ntargets = Body\n", encoding="utf-8")
        assert load_config(str(path)).targets == ("Body",)

    def test_load_config_skips_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("\ufeffmode = imputation\ntargets = Body\n", encoding="utf-8")
        assert load_config(str(path)).mode == "imputation"


class TestSplitTable:
    def _table(self, n=20):
        s = Schema(("A",), {"A": ("x", "y")})
        return Table(s, [Row(i + 1, ("x" if i % 2 else "y",)) for i in range(n)])

    def test_disjoint_and_covering(self):
        t = self._table()
        train, test = split_table(t, 0.3, 0)
        train_ids = {r.id for r in train.rows}
        test_ids = {r.id for r in test.rows}
        assert not train_ids & test_ids
        assert train_ids | test_ids == {r.id for r in t.rows}

    def test_train_size_is_ceil(self):
        t = self._table(10)
        train, test = split_table(t, 0.15, 3)
        assert len(train) == math.ceil(0.15 * 10) == 2
        assert len(test) == 8

    def test_deterministic(self):
        t = self._table()
        a = split_table(t, 0.4, (7, 1))
        b = split_table(t, 0.4, (7, 1))
        assert [r.id for r in a[0].rows] == [r.id for r in b[0].rows]

    def test_shared_schema(self):
        t = self._table()
        train, test = split_table(t, 0.5, 0)
        assert train.schema == t.schema and test.schema == t.schema


def _rewriting_cfg(**over):
    base = dict(
        mode="rewriting",
        synthetic_rows=1200,
        train_fraction=0.3,
        test_null_fraction=0.5,
        seeds=(0,),
        queries=(SelectionQuery({"Body": "sedan"}),),
        methods=("bn-all-mb",),
        restarts=1,
        max_iterations=60,
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestRewritingExperiment:
    def test_curve_shape_and_invariants(self):
        curves = run_rewriting_experiment(_rewriting_cfg())
        assert len(curves) == 1
        c = curves[0]
        assert c.method == "bn-all-mb" and c.seed == 0
        assert c.query.text() == "Body=sedan"
        assert c.relevant_total > 0
        assert c.points
        assert [p.query_index for p in c.points] == list(
            range(1, len(c.points) + 1)
        )
        recalls = [p.recall for p in c.points]
        assert recalls == sorted(recalls)  # cumulative, never drops
        for p in c.points:
            assert 0.0 <= p.precision <= 1.0
            assert 0.0 <= p.recall <= 1.0
            # recall counts whole tuples out of relevant_total
            assert p.recall * c.relevant_total == pytest.approx(
                round(p.recall * c.relevant_total)
            )

    def test_deterministic(self):
        a = run_rewriting_experiment(_rewriting_cfg())
        b = run_rewriting_experiment(_rewriting_cfg())
        assert a == b

    def test_methods_run_per_seed_and_query(self):
        cfg = _rewriting_cfg(methods=("bn-all-mb", "bn-beam"), seeds=(0, 1))
        curves = run_rewriting_experiment(cfg)
        assert [(c.seed, c.method) for c in curves] == [
            (0, "bn-all-mb"),
            (0, "bn-beam"),
            (1, "bn-all-mb"),
            (1, "bn-beam"),
        ]

    def test_no_uncertain_tuples_skips_with_warning(self):
        cfg = _rewriting_cfg(test_null_fraction=0.0)
        with pytest.warns(UserWarning, match="no uncertain relevant"):
            curves = run_rewriting_experiment(cfg)
        assert curves == []

    def test_inapplicable_method_skipped(self):
        # no rule for Body holds exactly, so a confidence floor of 1 leaves
        # the afd method nothing to use
        cfg = _rewriting_cfg(methods=("afd",), afd_min_confidence=1.0)
        with pytest.warns(UserWarning, match="afd skipped"):
            curves = run_rewriting_experiment(cfg)
        assert curves == []

    def test_afd_on_conjunction_skipped_others_kept(self):
        cfg = _rewriting_cfg(
            queries=(SelectionQuery({"Make": "bmw", "Body": "coupe"}),),
            methods=("afd", "bn-all-mb"),
        )
        with pytest.warns(UserWarning, match="afd skipped.*single"):
            curves = run_rewriting_experiment(cfg)
        assert [c.method for c in curves] == ["bn-all-mb"]
        assert curves[0].points

    def test_wrong_mode(self):
        cfg = ExperimentConfig(mode="imputation", targets=("Body",))
        with pytest.raises(ValueError, match="rewriting"):
            run_rewriting_experiment(cfg)

    def test_explicit_table_respected(self):
        # a table argument replaces synthetic generation; bad query attr raises
        cfg = _rewriting_cfg(queries=(SelectionQuery({"Nope": "x"}),))
        s = Schema(("A",), {"A": ("x",)})
        t = Table(s, [Row(1, ("x",))])
        with pytest.raises(KeyError):
            run_rewriting_experiment(cfg, table=t)


def _imputation_cfg(**over):
    base = dict(
        mode="imputation",
        synthetic_rows=300,
        train_fraction=0.3,
        seeds=(0,),
        targets=("Body",),
        levels=(0, 50),
        methods=("afd", "bn-exact"),
        restarts=1,
        max_iterations=60,
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestImputationExperiment:
    def test_grid_order_and_fields(self):
        runs = run_imputation_experiment(_imputation_cfg())
        assert [(r.level, r.method) for r in runs] == [
            (0, "afd"),
            (0, "bn-exact"),
            (50, "afd"),
            (50, "bn-exact"),
        ]
        cells = {r.cells for r in runs}
        assert len(cells) == 1 and cells.pop() > 0  # same truth cells every run
        for r in runs:
            assert 0.0 <= r.cell_accuracy <= 1.0
            assert 0.0 <= r.tuple_accuracy <= 1.0
            assert r.seconds >= 0.0
            assert r.seed == 0

    def test_single_target_tuple_equals_cell_accuracy(self):
        runs = run_imputation_experiment(_imputation_cfg())
        for r in runs:
            assert r.tuple_accuracy == pytest.approx(r.cell_accuracy)

    def test_deterministic_up_to_timing(self):
        strip = lambda rs: [
            (r.method, r.level, r.seed, r.cell_accuracy, r.tuple_accuracy, r.cells)
            for r in rs
        ]
        assert strip(run_imputation_experiment(_imputation_cfg())) == strip(
            run_imputation_experiment(_imputation_cfg())
        )

    def test_gibbs_method_runs(self):
        cfg = _imputation_cfg(
            methods=("bn-gibbs",), levels=(30,), gibbs_samples=60, gibbs_burn_in=20
        )
        runs = run_imputation_experiment(cfg)
        assert len(runs) == 1 and runs[0].method == "bn-gibbs"

    def test_all_null_truth_rejected(self):
        # B is present exactly on the rows the seed-0 split sends to training,
        # so models fit fine but the held-back truth has nothing to grade
        train_pos = {2, 8, 9, 15, 17, 26, 27, 30, 32, 34, 38, 39}
        s = Schema(("A", "B"), {"A": ("x", "y"), "B": ("0", "1")})
        rows = [
            Row(
                i + 1,
                ("x" if i % 2 else "y", ("0" if i % 4 else "1") if i in train_pos else None),
            )
            for i in range(40)
        ]
        cfg = _imputation_cfg(targets=("B",), levels=(0,), methods=("afd",))
        with pytest.raises(ValueError, match="scoreable"):
            run_imputation_experiment(cfg, table=Table(s, rows))

    def test_wrong_mode(self):
        cfg = ExperimentConfig(
            mode="rewriting", queries=(SelectionQuery({"A": "x"}),)
        )
        with pytest.raises(ValueError, match="imputation"):
            run_imputation_experiment(cfg)

    def test_afd_alone_runs_where_most_training_rows_hold_a_null(self):
        # Model, Body and Price each nulled in 30% of the rows by its own
        # call, so about a third of the rows are complete: structure search
        # refuses such a sample, and afd alone never asks for a network
        table = sample_rows(car_demo_net(), 300, 0)
        for i, attr in enumerate(("Model", "Body", "Price")):
            table = inject_nulls(table, [attr], 0.3, (0, i))
        assert sum(None not in row.cells for row in table.rows) < len(table) / 2
        cfg = ExperimentConfig(
            mode="imputation", targets=("Body", "Price"), methods=("afd",), levels=(0, 50)
        )
        runs = run_imputation_experiment(cfg, table)
        assert [(r.method, r.level) for r in runs] == [("afd", 0), ("afd", 50)]

    def test_only_the_models_the_methods_use_are_learned(self):
        train = sample_rows(car_demo_net(), 200, 0)
        for methods, learned in (
            (("afd",), {"afds", "nb"}),
            (("bn-exact", "bn-gibbs"), {"net"}),
            (("afd", "bn-gibbs"), {"net", "afds", "nb"}),
        ):
            models = _train_models(_imputation_cfg(methods=methods), train, 0)
            assert {k for k, v in vars(models).items() if v is not None} == learned


class TestRendering:
    def test_pr_csv_lines(self):
        curve = PrCurve(
            method="bn-beam",
            query=SelectionQuery({"Body": "Sedan"}),
            seed=3,
            points=(PrPoint(1, 1.0, 1 / 3), PrPoint(2, 0.5, 2 / 3)),
            relevant_total=3,
            truncated=False,
        )
        assert pr_csv_lines(curve) == [
            "method,query_index,precision,recall",
            "bn-beam,1,1,0.3333333333",
            "bn-beam,2,0.5,0.6666666667",
        ]

    def test_imputation_csv_lines_exclude_timing(self):
        runs = [
            ImputationRun("afd", 10, 0, 0.875, 0.75, 8, seconds=123.456),
            ImputationRun("bn-exact", 10, 0, 1 / 3, 0.25, 8, seconds=0.001),
        ]
        lines = imputation_csv_lines(runs)
        assert lines == [
            "method,level,seed,cell_accuracy,tuple_accuracy,cells",
            "afd,10,0,0.875,0.75,8",
            "bn-exact,10,0,0.3333333333,0.25,8",
        ]
        assert not any("123" in line for line in lines)

    def test_timing_table(self):
        runs = [
            ImputationRun("afd", 0, 0, 1.0, 1.0, 4, seconds=1.0),
            ImputationRun("afd", 0, 1, 1.0, 1.0, 4, seconds=3.0),
            ImputationRun("bn-exact", 0, 0, 1.0, 1.0, 4, seconds=2.0),
            ImputationRun("afd", 50, 0, 1.0, 1.0, 4, seconds=5.0),
        ]
        text = format_timing_table(runs)
        lines = text.splitlines()
        assert lines[0].split() == ["incomplete%", "afd(s)", "bn-exact(s)"]
        assert lines[1].split() == ["0", "2.00", "2.00"]
        assert lines[2].split() == ["50", "5.00", "-"]


# ---------------------------------------------------------------------------
# target grading on code matrices against the per-row reference


def _old_target_accuracy(
    schema, imputed: Table, truth_by_id: dict[int, Row], targets: Sequence[str]
) -> tuple[float, float, int]:
    t_idx = [schema.index(t) for t in targets]
    cell_hits = cells = row_hits = rows = 0
    for row in imputed.rows:
        truth = truth_by_id[row.id]
        ok = True
        counted = False
        for j in t_idx:
            if truth.cells[j] is None:
                continue  # truth itself unknown; cell not scoreable
            counted = True
            cells += 1
            if row.cells[j] is not None and row.cells[j] == truth.cells[j]:
                cell_hits += 1
            else:
                ok = False
        if counted:
            rows += 1
            row_hits += 1 if ok else 0
    if cells == 0:
        raise ValueError("no scoreable target cells; is the ground truth all null?")
    return cell_hits / cells, row_hits / rows, cells


_GRADED_SCHEMA = Schema(
    ("A", "B", "C"), {"A": ("a0",), "B": ("b0", "b1"), "C": ("c0", "c1", "c2")}
)


@st.composite
def _graded(draw):
    """A test table, an imputation of it (same ids, same order, any cells,
    nulls too) and a non-empty target list."""
    attrs = _GRADED_SCHEMA.attributes
    cell = {a: st.sampled_from((None,) + _GRADED_SCHEMA.domains[a]) for a in attrs}
    ids = draw(st.lists(st.integers(-50, 50), unique=True, max_size=10))
    test = [Row(i, tuple(draw(cell[a]) for a in attrs)) for i in ids]
    imputed = [
        Row(r.id, tuple(draw(st.just(c) | cell[a]) for a, c in zip(attrs, r.cells)))
        for r in test
    ]
    targets = draw(st.lists(st.sampled_from(attrs), min_size=1, max_size=3, unique=True))
    return Table(_GRADED_SCHEMA, test), Table(_GRADED_SCHEMA, imputed), targets


def _graded_outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_graded())
def test_target_accuracy_matches_the_per_row_reference(case):
    test, imputed, targets = case
    truth_by_id = {r.id: r for r in test.rows}
    assert _graded_outcome(_target_accuracy, imputed, test, targets) == _graded_outcome(
        _old_target_accuracy, test.schema, imputed, truth_by_id, targets
    )
