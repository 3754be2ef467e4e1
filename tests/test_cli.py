"""Command-line interface: exit codes, output shapes, file side effects."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from nullbayes import (
    Schema,
    Table,
    align_table,
    inject_nulls,
    load_afds,
    load_model,
    sample_rows,
    save_csv,
    save_model,
)
from nullbayes.cli import main
from nullbayes.synth import car_demo_net

from conftest import demo_cars, demo_net, sparse_cars, with_unseen_values


def test_module_entry_point_prints_usage():
    # `python -m nullbayes`, as the installed `nullbayes` script runs cli.main
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nullbayes", "--help"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: nullbayes ")
    for command in ("learn", "impute", "rewrite", "mine-afd", "eval"):
        assert command in proc.stdout


@pytest.fixture()
def train_csv(tmp_path):
    """A complete synthetic table; structure search needs null-free rows."""
    path = tmp_path / "train.csv"
    save_csv(sample_rows(car_demo_net(), 80, seed=3), str(path))
    return str(path)


@pytest.fixture()
def demo_csv(tmp_path):
    path = tmp_path / "demo.csv"
    save_csv(demo_cars(), str(path))
    return str(path)


@pytest.fixture()
def sparse_csv(tmp_path):
    path = tmp_path / "sparse.csv"
    save_csv(sparse_cars(), str(path))
    return str(path)


@pytest.fixture()
def demo_model(tmp_path):
    path = tmp_path / "demo.model"
    path.write_text(save_model(demo_net()), encoding="utf-8")
    return str(path)


class TestLearn:
    def test_writes_loadable_model_and_prints_structure(
        self, tmp_path, train_csv, capsys
    ):
        out = tmp_path / "m.model"
        rc = main(["learn", "--train", train_csv, "--out", str(out), "--restarts", "1"])
        assert rc == 0
        net = load_model(out.read_text(encoding="utf-8"))
        assert net.schema.attributes == (
            "Make",
            "Model",
            "Year",
            "Body",
            "Mileage",
            "Price",
        )
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert all(" <- " in line for line in lines)

    def test_byte_deterministic(self, tmp_path, train_csv):
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        assert main(["learn", "--train", train_csv, "--out", str(a)]) == 0
        assert main(["learn", "--train", train_csv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_discretize_flag(self, tmp_path, train_csv):
        out = tmp_path / "m.model"
        rc = main(
            [
                "learn",
                "--train",
                train_csv,
                "--out",
                str(out),
                "--discretize",
                "Mileage:20000",
                "--restarts",
                "1",
            ]
        )
        assert rc == 0
        net = load_model(out.read_text(encoding="utf-8"))
        assert all(int(v) % 20000 == 0 for v in net.schema.domain("Mileage"))

    def test_bad_discretize_rule(self, tmp_path, train_csv, capsys):
        for rule in ("Mileage", "Price:", "Price:x", "Price:5.0", ":5"):
            out = tmp_path / "m"
            rc = main(["learn", "--train", train_csv, "--out", str(out), "--discretize", rule])
            assert rc == 2
            err = capsys.readouterr().err
            assert err == f"error: bad discretize rule {rule!r}: expected Attr:granularity\n"
            assert not out.exists()

    def test_missing_required_flag(self, capsys):
        assert main(["learn", "--train", "x.csv"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["learn", "--train", str(tmp_path / "no.csv"), "--out", str(tmp_path / "m")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestImpute:
    def test_fills_and_reports_counts(self, tmp_path, demo_csv, demo_model, capsys):
        out = tmp_path / "full.csv"
        rc = main(["impute", "--model", demo_model, "--data", demo_csv, "--out", str(out)])
        assert rc == 0
        text = out.read_text(encoding="utf-8")
        assert ",," not in text and not text.endswith(",")
        captured = capsys.readouterr()
        assert "tuples: 10" in captured.out
        assert "tuples_imputed: 6" in captured.out
        assert "cells_imputed: 10" in captured.out
        assert "cell_accuracy" not in captured.out  # no truth given
        assert "took" in captured.err and "took" not in captured.out

    def test_truth_adds_accuracy_lines(self, tmp_path, demo_csv, demo_model, capsys):
        out = tmp_path / "full.csv"
        rc = main(
            [
                "impute",
                "--model",
                demo_model,
                "--data",
                demo_csv,
                "--out",
                str(out),
                "--truth",
                demo_csv,
            ]
        )
        assert rc == 0
        got = capsys.readouterr().out
        assert "cell_accuracy: 1" in got  # truth equals input on visible cells
        assert "tuple_accuracy: 1" in got

    def test_report_file_keeps_stdout_quiet(self, tmp_path, demo_csv, demo_model, capsys):
        report = tmp_path / "report.txt"
        rc = main(
            [
                "impute",
                "--model",
                demo_model,
                "--data",
                demo_csv,
                "--out",
                str(tmp_path / "full.csv"),
                "--report",
                str(report),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert "tuples: 10" in report.read_text(encoding="utf-8")

    def test_gibbs_engine_deterministic(self, tmp_path, demo_csv, demo_model):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "impute",
            "--model",
            demo_model,
            "--data",
            demo_csv,
            "--engine",
            "gibbs",
            "--samples",
            "80",
            "--burn-in",
            "20",
            "--seed",
            "5",
        ]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_engine_is_usage_error(self, tmp_path, demo_csv, demo_model, capsys):
        rc = main(
            [
                "impute",
                "--model",
                demo_model,
                "--data",
                demo_csv,
                "--out",
                str(tmp_path / "o.csv"),
                "--engine",
                "magic",
            ]
        )
        assert rc == 1
        assert "usage error" in capsys.readouterr().err

    def test_model_file_with_a_byte_order_mark(self, tmp_path, demo_csv, demo_model, capsys):
        marked = tmp_path / "marked.model"
        marked.write_text("\ufeff" + Path(demo_model).read_text(encoding="utf-8"), encoding="utf-8")
        for model, name in ((demo_model, "plain.csv"), (str(marked), "marked.csv")):
            args = ["impute", "--model", model, "--data", demo_csv, "--out", str(tmp_path / name)]
            assert main(args) == 0
        assert (tmp_path / "marked.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_garbage_model_file(self, tmp_path, demo_csv, capsys):
        bad = tmp_path / "bad.model"
        bad.write_text("not a model\n", encoding="utf-8")
        rc = main(
            ["impute", "--model", str(bad), "--data", demo_csv, "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestRewrite:
    def test_bn_all_mb_end_to_end(self, tmp_path, demo_csv, demo_model, capsys):
        out = tmp_path / "answers.csv"
        rc = main(
            [
                "rewrite",
                "--query",
                "Body=Sedan",
                "--source",
                demo_csv,
                "--sample",
                demo_csv,
                "--model",
                demo_model,
                "--ratio",
                "1.0",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        got = capsys.readouterr().out
        assert "base: 4 certain answers" in got
        assert "Model=745 & Year=2002" in got
        assert "extended: 1 additional tuples" in got
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "Make,Model,Year,Body,Mileage,relevance"
        assert lines[1] == "Audi,A8,2005,,15000,0.5"

    def test_beam_method(self, demo_csv, demo_model, capsys):
        rc = main(
            [
                "rewrite",
                "--query",
                "Body=Sedan",
                "--source",
                demo_csv,
                "--sample",
                demo_csv,
                "--method",
                "bn-beam",
                "--model",
                demo_model,
                "--ratio",
                "1.0",
            ]
        )
        assert rc == 0
        got = capsys.readouterr().out
        assert "extended: 1 additional tuples" in got

    def test_budget_truncation_notice(self, demo_csv, demo_model, capsys):
        rc = main(
            [
                "rewrite",
                "--query",
                "Body=Sedan",
                "--source",
                demo_csv,
                "--sample",
                demo_csv,
                "--model",
                demo_model,
                "--ratio",
                "1.0",
                "--query-limit",
                "1",
            ]
        )
        assert rc == 0
        got = capsys.readouterr().out
        assert "budget exhausted" in got
        assert "extended: 0 additional tuples" in got

    def test_afd_method_with_mined_rules(self, tmp_path, sparse_csv, capsys):
        rules = tmp_path / "rules.afd"
        assert main(["mine-afd", "--train", sparse_csv, "--out", str(rules)]) == 0
        capsys.readouterr()
        rc = main(
            [
                "rewrite",
                "--query",
                "Body=SUV",
                "--source",
                sparse_csv,
                "--sample",
                sparse_csv,
                "--method",
                "afd",
                "--rules",
                str(rules),
                "--ratio",
                "1.0",
            ]
        )
        assert rc == 0
        got = capsys.readouterr().out
        assert "base: 2 certain answers" in got
        assert "Mileage=" in got

    @pytest.mark.parametrize("method", ["bn-all-mb", "bn-beam", "afd", "afd-all-attributes"])
    def test_reads_only_the_file_its_method_needs(self, tmp_path, demo_csv, demo_model, method):
        # the other file is garbage, and is never opened
        rules = tmp_path / "rules.afd"
        assert main(["mine-afd", "--train", demo_csv, "--out", str(rules)]) == 0
        bad = tmp_path / "garbage"
        bad.write_text("not a model and not rules\n", encoding="utf-8")
        model, rules = (demo_model, bad) if method.startswith("bn-") else (bad, rules)
        rc = main(
            [
                "rewrite", "--query", "Body=Sedan", "--source", demo_csv, "--sample", demo_csv,
                "--method", method, "--model", str(model), "--rules", str(rules),
            ]
        )
        assert rc == 0

    def test_bn_method_requires_model(self, demo_csv, capsys):
        rc = main(
            ["rewrite", "--query", "Body=Sedan", "--source", demo_csv, "--sample", demo_csv]
        )
        assert rc == 2
        assert "needs --model" in capsys.readouterr().err

    def test_afd_method_requires_rules(self, demo_csv, capsys):
        rc = main(
            [
                "rewrite",
                "--query",
                "Body=Sedan",
                "--source",
                demo_csv,
                "--sample",
                demo_csv,
                "--method",
                "afd",
            ]
        )
        assert rc == 2
        assert "needs --rules" in capsys.readouterr().err

    def test_unknown_method_is_usage_error(self, demo_csv, capsys):
        rc = main(
            [
                "rewrite",
                "--query",
                "Body=Sedan",
                "--source",
                demo_csv,
                "--sample",
                demo_csv,
                "--method",
                "oracle",
            ]
        )
        assert rc == 1

    @pytest.mark.parametrize(
        "method", ["bn-all-mb", "bn-beam", "afd", "afd-all-attributes", "afd-highest-confidence"]
    )
    def test_source_with_permuted_columns(self, tmp_path, method, capsys):
        data = sample_rows(car_demo_net(), 900, seed=11)
        sample = Table(data.schema, data.rows[:300])
        source = inject_nulls(Table(data.schema, data.rows[300:]), ["Price"], 0.4, seed=2)
        permuted = align_table(
            source, Schema(reversed(data.schema.attributes), data.schema.domains)
        )
        paths = {}
        for name, table in (("sample", sample), ("source", source), ("permuted", permuted)):
            paths[name] = str(tmp_path / f"{name}.csv")
            save_csv(table, paths[name])
        model = tmp_path / "car.model"
        model.write_text(save_model(car_demo_net()), encoding="utf-8")
        rules = tmp_path / "rules.afd"
        assert main(["mine-afd", "--train", paths["sample"], "--out", str(rules)]) == 0
        capsys.readouterr()
        outputs = []
        for source_csv in (paths["source"], paths["permuted"]):
            rc = main(
                [
                    "rewrite",
                    "--query",
                    "Price=30000",
                    "--source",
                    source_csv,
                    "--sample",
                    paths["sample"],
                    "--method",
                    method,
                    "--model",
                    str(model),
                    "--rules",
                    str(rules),
                ]
            )
            assert rc == 0, capsys.readouterr().err
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "extended: 0 additional" not in outputs[0]

    @pytest.mark.parametrize(
        "method", ["bn-all-mb", "bn-beam", "afd", "afd-all-attributes", "afd-highest-confidence"]
    )
    def test_source_with_unseen_values(self, tmp_path, method, capsys):
        data = sample_rows(car_demo_net(), 900, seed=11)
        sample = Table(data.schema, data.rows[:300])
        source = inject_nulls(Table(data.schema, data.rows[300:]), ["Price"], 0.4, seed=2)
        paths = {}
        for name, table in (
            ("sample", sample),
            ("source", with_unseen_values(source, "Price", "30000")),
        ):
            paths[name] = str(tmp_path / f"{name}.csv")
            save_csv(table, paths[name])
        model = tmp_path / "car.model"
        model.write_text(save_model(car_demo_net()), encoding="utf-8")
        rules = tmp_path / "rules.afd"
        assert main(["mine-afd", "--train", paths["sample"], "--out", str(rules)]) == 0
        capsys.readouterr()
        rc = main(
            [
                "rewrite",
                "--query",
                "Price=30000",
                "--source",
                paths["source"],
                "--sample",
                paths["sample"],
                "--method",
                method,
                "--model",
                str(model),
                "--rules",
                str(rules),
                "--k",
                "1000",
            ]
        )
        out, err = capsys.readouterr()
        assert rc == 0, err
        assert "extended: 0 additional" not in out
        unseen = [line for line in out.splitlines() if "zz-unseen" in line]
        assert all(line.split()[1] == "0.0000" for line in unseen), unseen
        # the beam drops zero-F rewrites; every other method issues them
        assert bool(unseen) == (method != "bn-beam")

    def test_malformed_query(self, demo_csv, demo_model, capsys):
        rc = main(
            [
                "rewrite",
                "--query",
                "Body Sedan",
                "--source",
                demo_csv,
                "--sample",
                demo_csv,
                "--model",
                demo_model,
            ]
        )
        assert rc == 2


class TestMineAfd:
    def test_writes_rules(self, tmp_path, sparse_csv, capsys):
        out = tmp_path / "rules.afd"
        rc = main(["mine-afd", "--train", sparse_csv, "--out", str(out)])
        assert rc == 0
        assert "rules over 5 attributes" in capsys.readouterr().out
        rules = load_afds(out.read_text(encoding="utf-8"))
        assert rules and all(0 <= r.confidence <= 1 for r in rules)

    def test_byte_order_marks_in_and_out(self, tmp_path, sparse_csv, capsys):
        # a CSV with a mark mines rules over the plain names, written without
        # one; a rules file with a mark loads as the same rules
        marked = tmp_path / "marked.csv"
        marked.write_text("\ufeff" + Path(sparse_csv).read_text(encoding="utf-8"), encoding="utf-8")
        plain, out = tmp_path / "plain.afd", tmp_path / "marked.afd"
        assert main(["mine-afd", "--train", sparse_csv, "--out", str(plain)]) == 0
        assert main(["mine-afd", "--train", str(marked), "--out", str(out)]) == 0
        assert out.read_bytes() == plain.read_bytes()
        out.write_text("\ufeff" + plain.read_text(encoding="utf-8"), encoding="utf-8")
        capsys.readouterr()
        args = ["rewrite", "--query", "Body=SUV", "--source", sparse_csv, "--sample", sparse_csv,
                "--method", "afd", "--ratio", "1.0", "--rules"]
        assert main(args + [str(plain)]) == 0
        want = capsys.readouterr().out
        assert main(args + [str(out)]) == 0
        assert capsys.readouterr().out == want

    def test_min_confidence_filters(self, tmp_path, sparse_csv):
        loose, strict = tmp_path / "l.afd", tmp_path / "s.afd"
        main(["mine-afd", "--train", sparse_csv, "--out", str(loose)])
        main(
            ["mine-afd", "--train", sparse_csv, "--out", str(strict), "--min-confidence", "0.99"]
        )
        n_loose = len(load_afds(loose.read_text(encoding="utf-8")))
        n_strict = len(load_afds(strict.read_text(encoding="utf-8")))
        assert n_strict < n_loose
        assert all(
            r.confidence >= 0.99 for r in load_afds(strict.read_text(encoding="utf-8"))
        )

    def test_byte_deterministic(self, tmp_path, sparse_csv):
        a, b = tmp_path / "a.afd", tmp_path / "b.afd"
        main(["mine-afd", "--train", sparse_csv, "--out", str(a)])
        main(["mine-afd", "--train", sparse_csv, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


_REWRITING_CONF = """
mode = rewriting
synthetic_rows = 1200
train_fraction = 0.3
seeds = 0
query = Body=sedan
methods = bn-all-mb
restarts = 1
max_iterations = 60
"""

_IMPUTATION_CONF = """
mode = imputation
synthetic_rows = 300
train_fraction = 0.3
seeds = 0
targets = Body
levels = 0, 50
methods = afd
restarts = 1
max_iterations = 60
"""


class TestEval:
    def test_rewriting_mode_writes_curves(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(_REWRITING_CONF, encoding="utf-8")
        out_dir = tmp_path / "results"
        rc = main(["eval", "--config", str(conf), "--out-dir", str(out_dir)])
        assert rc == 0
        assert "wrote curve_bn-all-mb_q0_s0.csv" in capsys.readouterr().out
        text = (out_dir / "curve_bn-all-mb_q0_s0.csv").read_text(encoding="utf-8")
        assert text.startswith("method,query_index,precision,recall\n")

    def test_imputation_mode_writes_csv_and_timing_to_stderr(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(_IMPUTATION_CONF, encoding="utf-8")
        out_dir = tmp_path / "results"
        rc = main(["eval", "--config", str(conf), "--out-dir", str(out_dir)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "wrote imputation.csv (2 runs)" in captured.out
        assert "incomplete%" in captured.err
        assert "incomplete%" not in captured.out
        lines = (out_dir / "imputation.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "method,level,seed,cell_accuracy,tuple_accuracy,cells"
        assert len(lines) == 3

    def test_bad_config_key(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("mode = rewriting\nwat = 1\n", encoding="utf-8")
        rc = main(["eval", "--config", str(conf), "--out-dir", str(tmp_path / "r")])
        assert rc == 2
        assert "unknown key" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(
            ["eval", "--config", str(tmp_path / "no.conf"), "--out-dir", str(tmp_path / "r")]
        )
        assert rc == 2


def _assert_refused(rc, captured, option, *outputs):
    # one error line naming the option, no traceback, nothing written
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and option in lines[0]
    assert not any(path.exists() for path in outputs)


class TestOutOfRangeOptions:
    @pytest.mark.parametrize(
        "command, flag, value, option",
        [
            ("learn", "--time-limit", "-1", "time_limit"),
            ("learn", "--iterations", "-1", "max_iterations"),
            ("mine-afd", "--min-confidence", "2", "min_confidence"),
            ("mine-afd", "--min-confidence", "-5", "min_confidence"),
        ],
    )
    def test_refused_before_any_output(self, tmp_path, train_csv, capsys, command, flag, value, option):
        out = tmp_path / "out"
        rc = main([command, "--train", train_csv, "--out", str(out), flag, value])
        _assert_refused(rc, capsys.readouterr(), option, out)

    @pytest.mark.parametrize(
        "old, new, option",
        [
            ("max_iterations = 60", "max_iterations = -1", "max_iterations"),
            ("methods = afd", "methods = afd\nafd_min_confidence = 2", "afd_min_confidence"),
        ],
    )
    def test_eval_config_refused(self, tmp_path, capsys, old, new, option):
        conf = tmp_path / "run.conf"
        conf.write_text(_IMPUTATION_CONF.replace(old, new), encoding="utf-8")
        out_dir = tmp_path / "results"
        rc = main(["eval", "--config", str(conf), "--out-dir", str(out_dir)])
        _assert_refused(rc, capsys.readouterr(), option, out_dir)

    @pytest.mark.parametrize(
        "method, flags, message",
        [
            ("bn-all-mb", ["--ratio", "-1"], "ratio must be >= 0"),
            ("bn-all-mb", ["--alpha", "-1"], "alpha must be >= 0"),
            ("afd-highest-confidence", ["--alpha", "-1", "--ratio", "-2"], "alpha must be >= 0"),
            ("bn-beam", ["--k", "0"], "k must be >= 1"),
        ],
    )
    def test_rewrite_refused_with_an_empty_base(
        self, tmp_path, demo_csv, demo_model, capsys, method, flags, message
    ):
        rules, out = tmp_path / "rules.afd", tmp_path / "answers.csv"
        assert main(["mine-afd", "--train", demo_csv, "--out", str(rules)]) == 0
        capsys.readouterr()
        rc = main(
            [
                "rewrite", "--query", "Body=Coupe & Make=Audi", "--source", demo_csv,
                "--sample", demo_csv, "--method", method, "--model", demo_model,
                "--rules", str(rules), "--out", str(out), *flags,
            ]
        )
        captured = capsys.readouterr()
        assert (rc, captured.out, captured.err) == (2, "", f"error: {message}\n")
        assert not out.exists()


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "learn" in capsys.readouterr().out

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 1
