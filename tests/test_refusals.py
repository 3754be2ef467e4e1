"""Negative, NaN and infinite numbers are refused where they enter.

Each check reads ``not x >= 0``, so NaN fails it with the same message as a
negative number; a value that scales a score must be finite too.  The CLI
test drives every subcommand's numeric options with such values: each run
must exit non-zero with one ``error:`` line, no traceback and no output file.
Seeds are labels, not quantities, but the random generator refuses negative
ones, so they are refused up front, before any work.  Counts and seeds
must be integers.
"""

import contextlib
import io
import math
import os
import tempfile
from types import SimpleNamespace
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullbayes import (
    AutonomousSource,
    BeamConfig,
    ExperimentConfig,
    GibbsParams,
    SelectionQuery,
    StructureSearchConfig,
    bn_all_mb,
    expected_selectivity,
    f_measure,
    fit_parameters,
    mine_afds,
    sample_rows,
    save_afds,
    save_csv,
    save_model,
)
from nullbayes.cli import main
from nullbayes.rewriting import REWRITING_METHODS, run_method
from nullbayes.synth import car_demo_net

from conftest import demo_cars, demo_net

_BAD = [(-1.0, ">= 0"), (math.nan, ">= 0"), (math.inf, "finite")]


@pytest.mark.parametrize("value, bound", _BAD)
def test_rewriting_refuses_alpha_and_ratio(value, bound):
    table = demo_cars()
    query = SelectionQuery({"Body": "Sedan"})
    with pytest.raises(ValueError, match=f"^alpha must be {bound}$"):
        f_measure(0.5, 0.5, value)
    with pytest.raises(ValueError, match=f"^ratio must be {bound}$"):
        expected_selectivity(table, query, value)
    for kwargs, name in ((dict(alpha=value), "alpha"), (dict(sample_ratio=value), "ratio")):
        source = AutonomousSource(table)
        with pytest.raises(ValueError, match=f"^{name} must be {bound}$"):
            bn_all_mb(demo_net(), table, source, query, **kwargs)
        assert source.queries_used == 0


@pytest.mark.parametrize("value, bound", _BAD)
def test_model_fitting_refuses_ess_and_pseudo_count(value, bound):
    message = "ess must be positive" if bound == ">= 0" else "ess must be finite"
    with pytest.raises(ValueError, match=f"^{message}$"):
        StructureSearchConfig(score="bdeu", ess=value)
    StructureSearchConfig(score="bic", ess=value)  # BIC does not read ess
    with pytest.raises(ValueError, match=f"^pseudo_count must be {bound}$"):
        fit_parameters(demo_net(), demo_cars(), pseudo_count=value)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(alpha=math.nan), "alpha must be >= 0"),
        (dict(alpha=math.inf), "alpha must be finite"),
        (dict(pseudo_count=math.nan), "pseudo_count must be >= 0"),
        (dict(pseudo_count=math.inf), "pseudo_count must be finite"),
        (dict(score="bdeu", ess=math.nan), "ess must be positive"),
        (dict(score="bdeu", ess=math.inf), "ess must be finite"),
        (dict(max_parents=-1), "max_in_degree must be >= 0"),
        (dict(restarts=0), "restarts must be >= 1"),
        (dict(afd_max_lhs=0), "afd_max_lhs must be >= 1"),
        (dict(synthetic_rows=-1), "synthetic_rows must be >= 0"),
        (dict(seeds=(0, -1)), "seeds must be >= 0"),
        (dict(seeds=(0, 0)), "seeds lists an entry twice"),
        (dict(seeds=()), "seeds must not be empty"),
        (dict(levels=(10, 20, 10)), "levels lists an entry twice"),
        (dict(levels=()), "levels must not be empty"),
        (dict(methods=("afd", "afd")), "methods lists an entry twice"),
        (dict(targets=("Body", "Body")), "targets lists an entry twice"),
        (dict(queries=(SelectionQuery({"Body": "Sedan"}),) * 2), "queries lists an entry twice"),
    ],
)
def test_experiment_config_refuses_before_any_work(kwargs, message):
    cfg = ExperimentConfig(**{"mode": "imputation", "targets": ("Body",), **kwargs})
    with pytest.raises(ValueError, match=f"^{message}$"):
        cfg.validate()


def test_negative_seeds_refused():
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        GibbsParams(seed=-1)
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        StructureSearchConfig(seed=-1)


@pytest.mark.parametrize("name", ["max_in_degree", "restarts", "max_iterations", "seed"])
@pytest.mark.parametrize("value", [1.5, 2.0, "2", None])
def test_structure_search_refuses_non_integer_counts(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
        StructureSearchConfig(**{name: value})
    StructureSearchConfig(**{name: np.int64(2)})  # what operator.index accepts


_COUNTED = {
    "GibbsParams(samples=10.5)": (lambda: GibbsParams(samples=10.5), "samples"),
    "GibbsParams(burn_in=2.5)": (lambda: GibbsParams(burn_in=2.5), "burn_in"),
    "GibbsParams(seed=1.5)": (lambda: GibbsParams(seed=1.5), "seed"),
    "BeamConfig(width=1.5)": (lambda: BeamConfig(width=1.5), "width"),
    "BeamConfig(depth=1.5)": (lambda: BeamConfig(depth=1.5), "depth"),
    "AutonomousSource(table, 1.5)": (lambda: AutonomousSource(demo_cars(), 1.5), "query_limit"),
    "mine_afds(max_lhs=1.5)": (lambda: mine_afds(demo_cars(), max_lhs=1.5), "max_lhs"),
    "sample_rows(n=1.5)": (lambda: sample_rows(demo_net(), 1.5, seed=0), "n"),
}
_OR_NONE = {"query_limit"}  # counts where None means unlimited


@pytest.mark.parametrize("call", _COUNTED)
def test_non_integer_counts_refused_where_they_enter(call):
    make, name = _COUNTED[call]
    message = f"{name} must be an integer" + (" or None" if name in _OR_NONE else "")
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize("method", ["bn-all-mb", "bn-beam"])
def test_a_non_integer_k_is_refused_before_the_source_answers(method):
    # bn_beam takes its k from BeamConfig.top_k
    table = demo_cars()
    source = AutonomousSource(table)
    models = SimpleNamespace(net=demo_net())
    with pytest.raises(ValueError, match="^k must be an integer$"):
        run_method(method, models, table, source, SelectionQuery({"Body": "Sedan"}), k=1.5)
    assert source.queries_used == 0


_CONFIG_COUNTS = [key for key, hint in get_type_hints(ExperimentConfig).items() if hint is int]


@pytest.mark.parametrize(
    "key, value",
    [(key, 10.5) for key in _CONFIG_COUNTS]
    + [("query_limit", 1.5), ("seeds", (0, 1.5)), ("levels", (0, 10.5))],
)
def test_experiment_config_refuses_non_integer_counts_by_their_keys(key, value):
    cfg = ExperimentConfig(**{"mode": "imputation", "targets": ("Body",), key: value})
    with pytest.raises(ValueError, match=f"^{key} must be an integer$"):
        cfg.validate()


def test_selection_query_refuses_attributes_equal_as_names():
    for predicates in ([(1, "a"), ("1", "b")], {1: "a", "1": "b"}):
        with pytest.raises(ValueError, match="^duplicate attribute in query$"):
            SelectionQuery(predicates)


def test_extended_refuses_an_attribute_it_holds_and_strs_its_new_pair():
    # extended merges one pair into checked items, so it does the constructor's checks itself
    query = SelectionQuery({"B": "x", "D": "y", "1": "z"})
    for attr in ("B", "D", "1", 1):
        with pytest.raises(ValueError, match="^duplicate attribute in query$"):
            query.extended(attr, "w")
    for attr, value in (("A", "v"), ("C", 3), ("E", "v"), (0, 2.5), ("D ", "v")):
        got = query.extended(attr, value)
        assert got.items == SelectionQuery([*query.items, (attr, value)]).items
        assert all(type(a) is str and type(v) is str for a, v in got.items)
    assert query.items == (("1", "z"), ("B", "x"), ("D", "y"))


# ---------------------------------------------------------------------------
# the CLI


_NEGATIVE_INT = st.integers(-10**6, -1).map(str)
_NEGATIVE_FLOAT = st.floats(-1e6, -1e-6).map(repr)
_NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity"])
_BAD_INT = _NEGATIVE_INT | _NON_FINITE  # nan and inf are not ints at all
_BAD_FLOAT = _NEGATIVE_FLOAT | _NON_FINITE
_BAD_SECONDS = _NEGATIVE_FLOAT | st.sampled_from(["nan", "-inf"])  # no time limit is inf

# per subcommand: (option, bad values, flags that make the option count)
_OPTIONS = {
    "learn": [
        ("max-parents", _BAD_INT, []),
        ("restarts", _BAD_INT, []),
        ("iterations", _BAD_INT, []),
        ("ess", _BAD_FLOAT, ["--score=bdeu"]),
        ("pseudo-count", _BAD_FLOAT, []),
        ("time-limit", _BAD_SECONDS, []),
        ("seed", _NEGATIVE_INT, []),
    ],
    "impute": [
        ("samples", _BAD_INT, []), ("burn-in", _BAD_INT, []), ("seed", _NEGATIVE_INT, []),
    ],
    "rewrite": [
        ("k", _BAD_INT, []),
        ("alpha", _BAD_FLOAT, []),
        ("ratio", _BAD_FLOAT, []),
        ("query-limit", _BAD_INT, []),
        ("beam-width", _BAD_INT, ["--method=bn-beam"]),
        ("beam-depth", _BAD_INT, ["--method=bn-beam"]),
    ],
    "mine-afd": [("max-lhs", _BAD_INT, []), ("min-confidence", _BAD_FLOAT, [])],
    "eval": [
        (key, _BAD_FLOAT, ["score = bdeu"] if key == "ess" else [])
        for key in (
            "alpha", "ess", "pseudo_count", "train_fraction", "test_null_fraction",
            "afd_min_confidence",
        )
    ] + [
        (key, _BAD_INT, [])
        for key in (
            "synthetic_rows", "top_k", "beam_width", "beam_depth", "query_limit",
            "gibbs_samples", "gibbs_burn_in", "max_parents", "restarts", "max_iterations",
            "afd_max_lhs", "levels",
        )
    ] + [("seeds", _NEGATIVE_INT, [])],
}

_CASES = [(command, *option) for command, options in _OPTIONS.items() for option in options]

_EVAL_CONF = """
mode = imputation
synthetic_rows = 300
seeds = 0
targets = Body
levels = 0
methods = afd
restarts = 1
max_iterations = 5
"""


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("inputs")
    paths = {name: str(base / name) for name in ("train.csv", "demo.csv", "demo.model", "rules")}
    save_csv(sample_rows(car_demo_net(), 80, seed=3), paths["train.csv"])
    save_csv(demo_cars(), paths["demo.csv"])
    with open(paths["demo.model"], "w", encoding="utf-8") as fh:
        fh.write(save_model(demo_net()))
    with open(paths["rules"], "w", encoding="utf-8") as fh:
        fh.write(save_afds(mine_afds(demo_cars())))
    return paths


def _argv(command, inputs, out, method):
    """The subcommand's arguments, writing only under ``out``."""
    if command == "learn":
        return ["learn", "--train", inputs["train.csv"], "--out", f"{out}/m.model",
                "--restarts=1", "--iterations=5"]
    if command == "impute":
        return ["impute", "--model", inputs["demo.model"], "--data", inputs["demo.csv"],
                "--out", f"{out}/filled.csv", "--report", f"{out}/report.txt",
                "--engine=gibbs"]
    if command == "rewrite":
        return ["rewrite", "--query", "Body=Sedan", "--source", inputs["demo.csv"],
                "--sample", inputs["demo.csv"], "--model", inputs["demo.model"],
                "--rules", inputs["rules"], "--out", f"{out}/answers.csv", f"--method={method}"]
    return ["mine-afd", "--train", inputs["demo.csv"], "--out", f"{out}/rules"]


@settings(max_examples=200, deadline=None)
@given(
    case=st.sampled_from(_CASES),
    method=st.sampled_from(REWRITING_METHODS),
    data=st.data(),
)
def test_every_subcommand_refuses_bad_numbers(inputs, case, method, data):
    command, option, values, flags = case
    _assert_refused(inputs, command, method, flags, option, data.draw(values, label=option))


@pytest.mark.parametrize("command, option", [("learn", "seed"), ("impute", "seed"), ("eval", "seeds")])
def test_every_subcommand_refuses_seed_minus_one(inputs, command, option):
    # learn with one restart never seeds a generator with it, and the Gibbs
    # engine's generator would refuse it in the first chain with a message
    # that names no option; the check where the seed enters names it
    err = _assert_refused(inputs, command, "bn-all-mb", [], option, "-1")
    assert f"error: {option} must be >= 0" in err, err


def test_eval_refuses_a_repeated_query(inputs):
    # the second curve would overwrite the first under the same file name
    flags = ["mode = rewriting", "query = Body=Sedan"]
    err = _assert_refused(inputs, "eval", "afd", flags, "query", "Body=Sedan")
    assert err == "error: queries lists an entry twice\n", err


@pytest.mark.parametrize(
    "flags, option, value", [(["mode = rewriting"], "query", "Colour=Red"), ([], "targets", "Colour")]
)
def test_eval_refused_on_the_data_leaves_no_output_directory(inputs, flags, option, value):
    # queries and targets are checked against the data's schema by the run,
    # after the config has parsed
    err = _assert_refused(inputs, "eval", "afd", flags, option, value)
    assert err == "error: unknown attribute 'Colour'\n", err


def _assert_refused(inputs, command, method, flags, option, value) -> str:
    with tempfile.TemporaryDirectory() as out:
        if command == "eval":
            conf = os.path.join(out, "run.conf")
            with open(conf, "w", encoding="utf-8") as fh:
                fh.write("\n".join([_EVAL_CONF, *flags, f"{option} = {value}", ""]))
            argv = ["eval", "--config", conf, "--out-dir", f"{out}/results"]
        else:
            argv = _argv(command, inputs, out, method) + flags + [f"--{option}={value}"]
        rc, err = _run_refused(argv, out, ["run.conf"] if command == "eval" else [])
    assert rc != 0, argv
    return err


def _run_refused(argv, out, inputs_in_out) -> tuple[int, str]:
    """Run the CLI; it must print one ``error:`` line, no traceback, nothing
    to stdout, and leave no file in ``out`` but ``inputs_in_out``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(argv)
    err = stderr.getvalue()
    assert stdout.getvalue() == "", (argv, stdout.getvalue())
    assert len(err.splitlines()) == 1 and "error: " in err, err
    assert "Traceback" not in err
    written = sorted(os.listdir(out))
    assert written == inputs_in_out, written
    return rc, err


# ---------------------------------------------------------------------------
# unreadable files: each error names the file

_BAD_FILES = {
    "ragged.csv": "Make,Model\nBMW,645\nAudi\n".encode(),
    "huge-field.csv": b"Make,Model\n" + b"x" * 200_000 + b",645\n",  # past csv's field limit
    "latin1.csv": "Make,Model\nCitro\u00ebn,C5\n".encode("latin-1"),
    "latin1.model": "nullbayes-model\t1\nattribute\tMake\tCitro\u00ebn\n".encode("latin-1"),
    "latin1.rules": "Make -> Citro\u00ebn : 0.5\n".encode("latin-1"),
    "truncated.model": save_model(demo_net())[:500].encode(),
    "malformed.rules": b"Make Body : 0.6\n",
}

# per subcommand: the input it reads, the bad files put in its place, and
# the rewriting method that reads it
_FILE_CASES = [
    ("learn", "train.csv", "ragged.csv", None),
    ("learn", "train.csv", "latin1.csv", None),
    ("learn", "train.csv", "huge-field.csv", None),
    ("mine-afd", "demo.csv", "ragged.csv", None),
    ("mine-afd", "demo.csv", "latin1.csv", None),
    ("impute", "demo.csv", "ragged.csv", None),
    ("impute", "demo.csv", "latin1.csv", None),
    ("impute", "demo.csv", "huge-field.csv", None),
    ("impute", "demo.model", "truncated.model", None),
    ("impute", "demo.model", "latin1.model", None),
    ("rewrite", "demo.csv", "ragged.csv", "bn-all-mb"),
    ("rewrite", "demo.csv", "latin1.csv", "bn-all-mb"),
    ("rewrite", "demo.model", "truncated.model", "bn-all-mb"),
    ("rewrite", "demo.model", "latin1.model", "bn-all-mb"),
    ("rewrite", "rules", "malformed.rules", "afd"),
    ("rewrite", "rules", "latin1.rules", "afd"),
]


@pytest.mark.parametrize("command, slot, bad, method", _FILE_CASES)
def test_every_subcommand_names_the_file_it_cannot_read(inputs, command, slot, bad, method):
    with tempfile.TemporaryDirectory() as out, tempfile.TemporaryDirectory() as base:
        path = os.path.join(base, bad)
        with open(path, "wb") as fh:
            fh.write(_BAD_FILES[bad])
        argv = _argv(command, {**inputs, slot: path}, out, method)
        rc, err = _run_refused(argv, out, [])
    assert rc == 2, err
    assert err.startswith(f"error: {path}: "), err


def test_a_key_error_prints_its_message_unquoted(inputs):
    with tempfile.TemporaryDirectory() as out:
        argv = _argv("rewrite", inputs, out, "bn-all-mb")
        argv[argv.index("Body=Sedan")] = "Colour=Red"
        rc, err = _run_refused(argv, out, [])
    assert (rc, err) == (2, "error: unknown attribute 'Colour'\n")
