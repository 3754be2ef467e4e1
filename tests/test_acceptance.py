"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Each test prints ``criterion NN <name>: PASS|FAIL`` before asserting, so a
verbose run shows the full scorecard and a failure still identifies its
criterion.  Numbered comments give the tolerance being enforced.
"""

import itertools
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import nullbayes
from nullbayes import (
    Afd,
    AutonomousSource,
    BeamConfig,
    ExperimentConfig,
    Row,
    SelectionQuery,
    Table,
    afd_impute_tuple,
    afd_rewrite_single,
    bn_all_mb,
    bn_beam,
    d_separated,
    enumerate_joint,
    f_measure,
    fit_naive_bayes,
    impute_table,
    markov_blanket,
    posterior_exact,
    posterior_gibbs,
    run_imputation_experiment,
    run_rewriting_experiment,
    sample_rows,
    split_table,
)
from nullbayes.synth import car_demo_net, correlated_pair_net, random_net

from conftest import demo_cars, demo_net, sparse_cars


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {status}{suffix}", flush=True)
    assert ok, f"criterion {num:02d} {name} failed{suffix}"


def _conditional_from_enumerated(net, targets, evidence):
    full = enumerate_joint(net)
    order = full.targets
    probs = full.probs
    for attr, value in evidence.items():
        ax = order.index(attr)
        vi = net.schema.domain(attr).index(value)
        probs = np.take(probs, [vi], axis=ax)
    keep = sorted(order.index(a) for a in targets)
    probs = probs.sum(axis=tuple(i for i in range(probs.ndim) if i not in keep))
    kept = [a for a in order if a in targets]
    probs = np.transpose(probs, [kept.index(a) for a in targets])
    return probs / probs.sum()


def test_criterion_01_inference_oracle_equivalence():
    # 100 random nets (<=6 nodes, domains <=4); max abs error < 1e-9; < 30 s
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng((100, i))
        n = int(rng.integers(2, 7))
        net = random_net(n, max_domain=4, seed=(100, i))
        names = list(net.schema.attributes)
        n_evidence = int(rng.integers(0, n))
        picked = rng.choice(n, size=n_evidence, replace=False)
        evidence = {}
        for j in picked:
            attr = names[int(j)]
            dom = net.schema.domain(attr)
            evidence[attr] = dom[int(rng.integers(len(dom)))]
        free = [a for a in names if a not in evidence]
        if not free:
            evidence.pop(names[0])
            free = [a for a in names if a not in evidence]
        targets = free[: min(2, len(free))]
        dist = posterior_exact(net, targets, evidence)
        want = _conditional_from_enumerated(net, targets, evidence)
        worst = max(worst, float(np.max(np.abs(dist.probs - want))))
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        "inference-oracle-equivalence",
        worst < 1e-9 and elapsed < 30,
        f"max abs err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_gibbs_consistency():
    # 10 random 5-node nets x 3 seeds; TV(exact, gibbs 10000/1000) < 0.05; < 60 s
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(10):
        net = random_net(5, max_domain=4, seed=(200, i))
        names = net.schema.attributes
        target = names[-1]
        evidence = {names[0]: net.schema.domain(names[0])[0]}
        exact = posterior_exact(net, [target], evidence)
        for seed in range(3):
            approx = posterior_gibbs(
                net, [target], evidence, samples=10000, burn_in=1000, seed=seed
            )
            tv = 0.5 * float(np.abs(exact.probs - approx.probs).sum())
            worst = max(worst, tv)
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        "gibbs-consistency",
        worst < 0.05 and elapsed < 60,
        f"worst TV {worst:.4f}, {elapsed:.1f}s",
    )


def test_criterion_03_worked_example_blanket_rewriting():
    # ten-tuple fixture, MB(Body) = {Model, Year}: exactly three candidate
    # queries, and t2 lands in the extended set exactly once
    net = demo_net()
    assert markov_blanket(net, "Body") == {"Model", "Year"}
    table = demo_cars()
    result = bn_all_mb(
        net, table, AutonomousSource(table), SelectionQuery({"Body": "Sedan"}),
        sample_ratio=1.0,
    )
    candidates = {rq.text() for rq in result.candidates}
    expected = {
        "Model=A8 & Year=2005",
        "Model=745 & Year=2002",
        "Model=tl & Year=2003",
    }
    extended_ids = [a.row.id for a in result.answers]
    ok = candidates == expected and extended_ids == [2]
    _verdict(
        3,
        "worked-example-bn-all-mb",
        ok,
        f"candidates {sorted(candidates)}, extended {extended_ids}",
    )


def test_criterion_04_worked_example_afd_rewriting():
    # ten-tuple sparse fixture with Model~>Body: candidates {Model=Santa,
    # Model=MDX}; retrieves t8 and t10
    table = sparse_cars()
    result = afd_rewrite_single(
        [Afd(("Model",), "Body", 1.0)],
        fit_naive_bayes(table),
        table,
        AutonomousSource(table),
        SelectionQuery({"Body": "SUV"}),
        sample_ratio=1.0,
    )
    candidates = {rq.text() for rq in result.candidates}
    retrieved = sorted(a.row.id for a in result.answers)
    ok = candidates == {"Model=Santa", "Model=MDX"} and retrieved == [8, 10]
    _verdict(
        4,
        "worked-example-afd",
        ok,
        f"candidates {sorted(candidates)}, retrieved {retrieved}",
    )


def test_criterion_05_multi_attribute_fixture():
    # Make=BMW & Mileage=40000: base {t4, t9, t10}; beam candidates constrain
    # exactly {Model, Year}
    net = demo_net()
    table = demo_cars()
    result = bn_beam(
        net,
        table,
        AutonomousSource(table),
        SelectionQuery({"Make": "BMW", "Mileage": "40000"}),
        BeamConfig(width=5, depth=2, alpha=0.0, top_k=10),
        sample_ratio=1.0,
    )
    base_ids = sorted(r.id for r in result.base)
    used = set()
    for rq in result.candidates:
        used.update(rq.query.attributes)
    ok = base_ids == [4, 9, 10] and used == {"Model", "Year"}
    _verdict(
        5,
        "multi-attribute-fixture",
        ok,
        f"base {base_ids}, candidate attrs {sorted(used)}",
    )


def test_criterion_06_f_measure_algebra():
    # alpha=0 ranking == precision ranking on 1000 random candidate sets;
    # P=R implies F=P to 1e-12
    rng = np.random.default_rng(6)
    rank_mismatch = 0
    for _ in range(1000):
        k = int(rng.integers(2, 13))
        ps = rng.uniform(0.001, 1.0, size=k)
        sels = rng.uniform(0.1, 50.0, size=k)
        fs = [f_measure(p, p * s, alpha=0.0) for p, s in zip(ps, sels)]
        by_f = sorted(range(k), key=lambda i: (-fs[i], i))
        by_p = sorted(range(k), key=lambda i: (-ps[i], i))
        rank_mismatch += by_f != by_p
    collapse_err = 0.0
    for _ in range(1000):
        p = float(rng.uniform(0.001, 1.0))
        alpha = float(rng.uniform(0.0, 10.0))
        collapse_err = max(collapse_err, abs(f_measure(p, p, alpha) - p))
    ok = rank_mismatch == 0 and collapse_err < 1e-12
    _verdict(
        6,
        "f-measure-algebra",
        ok,
        f"{rank_mismatch} ranking mismatches, P=R gap {collapse_err:.1e}",
    )


def test_criterion_07_joint_vs_independent_imputation():
    # 2000 tuples; both correlated attributes nulled: joint 100% consistent;
    # independent inconsistent exactly on argmax disagreements; joint cell
    # accuracy >= independent
    net = correlated_pair_net()
    schema = net.schema
    truth = sample_rows(net, 2000, seed=(0, 7))
    si, ci = schema.index("source"), schema.index("copy")
    hidden = Table(
        schema,
        [
            Row(r.id, tuple(None if j in (si, ci) else c for j, c in enumerate(r.cells)))
            for r in truth.rows
        ],
    )
    joint_t, joint_rep = impute_table(net, hidden, truth=truth)
    ind_t, ind_rep = impute_table(net, hidden, joint=False, truth=truth)

    joint_inconsistent = sum(1 for r in joint_t.rows if r.cells[si] != r.cells[ci])
    inconsistent_rows = {
        r.id for r in ind_t.rows if r.cells[si] != r.cells[ci]
    }
    argmax_cache = {}
    disagree_rows = set()
    for row in hidden.rows:
        evidence = tuple(
            (schema.attributes[j], c) for j, c in enumerate(row.cells) if c is not None
        )
        if evidence not in argmax_cache:
            picks = []
            for target in ("source", "copy"):
                dist = posterior_exact(net, [target], dict(evidence))
                picks.append(dist.domains[0][int(np.argmax(dist.probs))])
            argmax_cache[evidence] = picks[0] != picks[1]
        if argmax_cache[evidence]:
            disagree_rows.add(row.id)

    ok = (
        joint_inconsistent == 0
        and disagree_rows  # the fixture makes the comparison non-vacuous
        and inconsistent_rows == disagree_rows
        and joint_rep.cell_accuracy >= ind_rep.cell_accuracy
    )
    _verdict(
        7,
        "joint-vs-independent-imputation",
        ok,
        f"joint inconsistent {joint_inconsistent}, disagreements "
        f"{len(disagree_rows)}, cell acc {joint_rep.cell_accuracy:.4f} vs "
        f"{ind_rep.cell_accuracy:.4f}",
    )


def test_criterion_08_afd_cycle_detection():
    # two-rule cycle with both cells missing -> both unpredictable; 500
    # random rulesets/tuples terminate without error
    from nullbayes import Schema

    schema = Schema(("A", "B"), {"A": ("0", "1"), "B": ("0", "1")})
    train = Table(schema, [Row(1, ("0", "0")), Row(2, ("1", "1")), Row(3, ("0", "1"))])
    model = fit_naive_bayes(train)
    rules = [Afd(("B",), "A", 0.9), Afd(("A",), "B", 0.9)]
    _, unpredictable = afd_impute_tuple(rules, model, Row(9, (None, None)))
    cycle_ok = unpredictable == ["A", "B"]

    rng = np.random.default_rng(8)
    fuzz_ok = True
    for _ in range(500):
        n = int(rng.integers(3, 6))
        names = tuple(chr(ord("A") + i) for i in range(n))
        doms = {a: tuple(str(v) for v in range(int(rng.integers(2, 4)))) for a in names}
        s = Schema(names, doms)
        rows = [
            Row(i + 1, tuple(doms[a][int(rng.integers(len(doms[a])))] for a in names))
            for i in range(12)
        ]
        nb = fit_naive_bayes(Table(s, rows))
        ruleset = []
        for _ in range(int(rng.integers(0, 2 * n))):
            target = names[int(rng.integers(n))]
            others = [a for a in names if a != target]
            k = int(rng.integers(1, min(3, len(others)) + 1))
            lhs = tuple(sorted(rng.choice(others, size=k, replace=False)))
            ruleset.append(Afd(lhs, target, float(rng.uniform(0.1, 1.0))))
        cells = tuple(
            None if rng.random() < 0.4 else doms[a][int(rng.integers(len(doms[a])))]
            for a in names
        )
        completed, unpredictable = afd_impute_tuple(ruleset, nb, Row(1, cells))
        missing = {a for a, c in zip(names, cells) if c is None}
        if set(unpredictable) - missing or unpredictable != sorted(unpredictable):
            fuzz_ok = False
        for attr, before, after in zip(names, cells, completed.cells):
            if before is not None and after != before:
                fuzz_ok = False
            if after is not None and after not in doms[attr]:
                fuzz_ok = False
    _verdict(
        8,
        "afd-cycle-detection",
        cycle_ok and fuzz_ok,
        f"cycle -> {unpredictable if not cycle_ok else ['A', 'B']}, fuzz "
        f"{'clean' if fuzz_ok else 'violated'}",
    )


def test_criterion_09_directional_imputation_sweep():
    # 6-node synthetic net, 5000 tuples, 40% evidence incompleteness:
    # bn-exact cell accuracy >= afd for >= 4 of 5 seeds; < 5 min
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        mode="imputation",
        synthetic_rows=5000,
        seeds=(0, 1, 2, 3, 4),
        targets=("Body",),
        levels=(40,),
        methods=("afd", "bn-exact"),
    )
    runs = run_imputation_experiment(cfg)
    elapsed = time.perf_counter() - t0
    acc = {(r.seed, r.method): r.cell_accuracy for r in runs}
    wins = sum(acc[(s, "bn-exact")] >= acc[(s, "afd")] for s in range(5))
    _verdict(
        9,
        "directional-imputation-sweep",
        wins >= 4 and elapsed < 300,
        f"bn-exact wins {wins}/5, {elapsed:.0f}s",
    )


def test_criterion_10_directional_rewriting_comparison():
    # 2-attribute query, beam depth 2, alpha 0, top 10: beam recall >=
    # afd-all-attributes recall and beam precision >= afd-highest-confidence
    # precision for >= 4 of 5 seeds; < 5 min.  A strategy that refuses a
    # seed (no disjoint rules) retrieves nothing and scores zero there.
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        mode="rewriting",
        synthetic_rows=5000,
        seeds=(0, 1, 2, 3, 4),
        queries=(SelectionQuery.parse("Model=745 & Year=2002"),),
        methods=("bn-beam", "afd-all-attributes", "afd-highest-confidence"),
        beam_depth=2,
        alpha=0.0,
        top_k=10,
    )
    with pytest.warns(UserWarning):
        curves = run_rewriting_experiment(cfg)
    elapsed = time.perf_counter() - t0
    final = {}
    for c in curves:
        last = c.points[-1] if c.points else None
        final[(c.seed, c.method)] = (
            (last.precision, last.recall) if last else (0.0, 0.0)
        )
    recall_wins = precision_wins = 0
    for s in range(5):
        beam = final.get((s, "bn-beam"), (0.0, 0.0))
        alla = final.get((s, "afd-all-attributes"), (0.0, 0.0))
        high = final.get((s, "afd-highest-confidence"), (0.0, 0.0))
        recall_wins += beam[1] >= alla[1]
        precision_wins += beam[0] >= high[0]
    ok = recall_wins >= 4 and precision_wins >= 4 and elapsed < 300
    _verdict(
        10,
        "directional-rewriting-comparison",
        ok,
        f"recall {recall_wins}/5, precision {precision_wins}/5, {elapsed:.0f}s",
    )


def test_criterion_11_cli_determinism(tmp_path):
    # every CLI command, run twice with identical seeds, writes byte-identical
    # output files
    from nullbayes import save_csv, save_model

    train_csv = tmp_path / "train.csv"
    save_csv(sample_rows(car_demo_net(), 300, seed=11), str(train_csv))
    data_csv = tmp_path / "data.csv"
    save_csv(demo_cars(), str(data_csv))
    model_file = tmp_path / "demo.model"
    model_file.write_text(save_model(demo_net()), encoding="utf-8")
    conf = tmp_path / "run.conf"
    conf.write_text(
        "mode = imputation\nsynthetic_rows = 300\ntrain_fraction = 0.3\n"
        "seeds = 0\ntargets = Body\nlevels = 0, 50\nmethods = afd\n"
        "restarts = 1\nmax_iterations = 60\n",
        encoding="utf-8",
    )

    # the child imports the same package this process imported
    src = os.path.dirname(os.path.dirname(nullbayes.__file__))
    paths = (src, os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}

    def run(args):
        proc = subprocess.run(
            [sys.executable, "-m", "nullbayes", *args],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    mismatches = []
    for label, args, outputs in [
        (
            "learn",
            ["learn", "--train", str(train_csv), "--restarts", "1", "--seed", "0"],
            ["{run}.model"],
        ),
        (
            "impute",
            [
                "impute",
                "--model",
                str(model_file),
                "--data",
                str(data_csv),
                "--engine",
                "gibbs",
                "--seed",
                "3",
                "--report",
                "{run}.report",
            ],
            ["{run}.csv", "{run}.report"],
        ),
        (
            "rewrite",
            [
                "rewrite",
                "--query",
                "Body=Sedan",
                "--source",
                str(data_csv),
                "--sample",
                str(data_csv),
                "--model",
                str(model_file),
                "--ratio",
                "1.0",
            ],
            ["{run}.csv"],
        ),
        ("mine-afd", ["mine-afd", "--train", str(train_csv)], ["{run}.afd"]),
        ("eval", ["eval", "--config", str(conf)], ["{run}/imputation.csv"]),
    ]:
        produced = []
        for attempt in ("a", "b"):
            stem = str(tmp_path / f"{label}_{attempt}")
            argv = [a.replace("{run}", stem) for a in args]
            if label == "learn":
                argv += ["--out", f"{stem}.model"]
            elif label == "impute":
                argv += ["--out", f"{stem}.csv"]
            elif label == "rewrite":
                argv += ["--out", f"{stem}.csv"]
            elif label == "mine-afd":
                argv += ["--out", f"{stem}.afd"]
            elif label == "eval":
                argv += ["--out-dir", stem]
            run(argv)
            produced.append(
                [
                    (tmp_path / out.replace("{run}", f"{label}_{attempt}")).read_bytes()
                    for out in outputs
                ]
            )
        if produced[0] != produced[1]:
            mismatches.append(label)
    _verdict(
        11,
        "cli-determinism",
        not mismatches,
        f"mismatched: {mismatches}" if mismatches else "5 commands byte-stable",
    )


def test_criterion_12_d_separation_oracle():
    # 20 random 5-node nets; d_separated agrees with factorization of the
    # enumerated joint for all pairs and conditioning sets of size <= 2
    disagreements = 0
    checks = 0
    for i in range(20):
        net = random_net(5, max_domain=4, seed=(300, i))
        names = net.schema.attributes
        probs = enumerate_joint(net).probs

        def factorization_gap(x, y, cond):
            keep = sorted(
                [names.index(x), names.index(y), *(names.index(c) for c in cond)]
            )
            marg = probs.sum(axis=tuple(j for j in range(probs.ndim) if j not in keep))
            kx, ky = keep.index(names.index(x)), keep.index(names.index(y))
            p_cond = marg.sum(axis=(kx, ky), keepdims=True)
            p_x = marg.sum(axis=ky, keepdims=True)
            p_y = marg.sum(axis=kx, keepdims=True)
            return float(np.max(np.abs(marg * p_cond - p_x * p_y)))

        for x, y in itertools.combinations(names, 2):
            rest = [a for a in names if a not in (x, y)]
            for size in (0, 1, 2):
                for cond in itertools.combinations(rest, size):
                    checks += 1
                    independent = factorization_gap(x, y, cond) < 1e-9
                    if d_separated(net, x, y, cond) != independent:
                        disagreements += 1
    _verdict(
        12,
        "d-separation-oracle",
        disagreements == 0,
        f"{checks} checks, {disagreements} disagreements",
    )
