"""The benchmark's tracer patches library names; this pins that contract.

``perfbench/tracing.py`` wraps functions by the names the library's modules
bind (``nullbayes.rewriting.select`` among them) and restores them on
``uninstall``.  Renaming or dropping one of those names breaks the traced
benchmark, so it must fail here too.  The test only reads ``perfbench/``.
"""

import importlib.util
from pathlib import Path

import nullbayes.rewriting
from nullbayes import AutonomousSource, SelectionQuery, bn_all_mb

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
