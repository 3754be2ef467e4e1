"""The benchmark's tracer patches library names; this pins that contract.

``perfbench/tracing.py`` wraps functions by the names the library's modules
bind (``nullbayes.rewriting.select`` among them) and restores them on
``uninstall``.  Renaming or dropping one of those names breaks the traced
benchmark, so it must fail here too.  The test only reads ``perfbench/``.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

import nullbayes.rewriting
from nullbayes import (
    AutonomousSource,
    GibbsParams,
    SelectionQuery,
    bn_all_mb,
    fit_naive_bayes,
    impute_table,
    mine_afds,
)
from nullbayes.rewriting import REWRITING_METHODS, run_method

from conftest import demo_cars, demo_net

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# the names tracing.py patches in nullbayes.rewriting
_REWRITING_NAMES = ("select", "project_distinct", "posterior_exact", "best_afds")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_uninstall_restores_every_patched_name():
    tracing = _load_tracing()
    table = demo_cars()
    rows = table.rows
    for name in _REWRITING_NAMES:
        assert name in vars(nullbayes.rewriting), name
    tracer = tracing.Tracer()
    saved = tracing.install(tracer, table)
    try:
        assert {attr for owner, attr, _ in saved if owner is nullbayes.rewriting} == set(
            _REWRITING_NAMES
        )
        for owner, attr, original in saved:
            assert getattr(owner, attr) is not original, (owner, attr)
        result = bn_all_mb(
            demo_net(), table, AutonomousSource(table), SelectionQuery({"Body": "Sedan"}), k=3
        )
    finally:
        tracing.uninstall(saved)
    for owner, attr, original in saved:
        assert getattr(owner, attr) is original, (owner, attr)
    assert table.rows is rows
    assert result.answers
    spans = set(tracer.names)
    for name in ("source.answer", "tabular.project_distinct", "inference.posterior_exact"):
        assert name in spans, name


@pytest.mark.parametrize("joint", [True, False])
def test_gibbs_imputation_counts_one_chain_per_incomplete_row(joint):
    # the benchmark's per-layer Gibbs metrics: one posterior_gibbs span and
    # samples + burn_in sweeps per incomplete row, in either mode, also on a
    # second call, whose conditionals are all on the net already
    tracing = _load_tracing()
    table = demo_cars()
    net = demo_net()
    incomplete = sum(None in row.cells for row in table.rows)
    assert 1 < incomplete < len(table.rows)
    params = GibbsParams(samples=7, burn_in=3, seed=1)
    for _ in range(2):
        tracer = tracing.Tracer()
        saved = tracing.install(tracer, table)
        try:
            impute_table(net, table, engine="gibbs", gibbs=params, joint=joint)
        finally:
            tracing.uninstall(saved)
        _, calls = tracer.totals()
        assert calls.get("inference.posterior_gibbs") == incomplete
        sweeps = tracer.counted({tracer.op_id})["inference.gibbs_sweeps"]
        assert sweeps == incomplete * (params.samples + params.burn_in)


@pytest.mark.parametrize("method", REWRITING_METHODS)
def test_rewriting_issues_every_query_through_source_answer(method):
    # the benchmark's source.* layer figures count source.answer spans: one
    # for the base query and one per issued rewrite, none bypassing it; and
    # every strategy scores through the names the tracer patches
    tracing = _load_tracing()
    table = demo_cars()
    models = SimpleNamespace(net=demo_net(), afds=mine_afds(table), nb=fit_naive_bayes(table))
    tracer = tracing.Tracer()
    saved = tracing.install(tracer, table)
    try:
        result = run_method(
            method, models, table, AutonomousSource(table), SelectionQuery({"Body": "Sedan"}),
            k=3, sample_ratio=1.0,
        )
    finally:
        tracing.uninstall(saved)
    assert len(result.issued) > 1
    _, calls = tracer.totals()
    assert calls.get("source.answer") == 1 + len(result.issued)
    layer = "inference.posterior_exact" if method.startswith("bn-") else "afd.best_afds"
    assert calls.get(layer, 0) >= 1, layer
