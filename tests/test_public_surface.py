"""The public surface: what each module exports, what the package binds,
what README's API section documents, which names and parameters stay
deleted, and what the benchmark imports and calls."""

import ast
import importlib
import inspect
import pathlib
import re

import numpy as np
import pytest

import nullbayes
from nullbayes import (
    AutonomousSource,
    Schema,
    SelectionQuery,
    Table,
    bayesnet,
    inference,
    rewriting,
    sample_rows,
    tabular,
)
from nullbayes.synth import random_net

from conftest import demo_cars, demo_net

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(
    p.stem for p in (ROOT / "src" / "nullbayes").glob("*.py") if not p.stem.startswith("_")
)
# reached by their module path: test networks, and the console entry point
NOT_REEXPORTED = {"synth", "cli"}


def _api_sections() -> dict[str, str]:
    """README's API section, split by its ``### `nullbayes.<module>``` headings."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    api = text.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    parts = re.split(r"^### `nullbayes\.(\w+)`$", api, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_is_documented_under_its_module(name):
    exported = importlib.import_module(f"nullbayes.{name}").__all__
    documented = set(re.findall(r"`(\w+)", _api_sections()[name]))
    assert [n for n in exported if n not in documented] == []


@pytest.mark.parametrize("name", sorted(set(MODULES) - NOT_REEXPORTED))
def test_every_export_is_bound_by_the_package(name):
    module = importlib.import_module(f"nullbayes.{name}")
    assert [n for n in module.__all__ if getattr(nullbayes, n, None) is not getattr(module, n)] == []


def test_the_api_section_names_no_other_module():
    assert sorted(_api_sections()) == MODULES


@pytest.mark.parametrize(
    "owner, name",
    [
        (rewriting, "order_and_issue"),
        (tabular, "sample_table"),
        (Table, "row_by_id"),
        (Table, "value"),
        (Table, "_positions"),
        (Table, "mask"),
        (Schema, "value"),
        (inference, "_blanket_product"),
        (inference, "_planned_product"),
        (inference, "_split_chain"),
        (bayesnet, "_LocalScores"),
    ],
)
def test_deleted_names_stay_deleted(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(nullbayes, name)
    assert f"`{name}`" not in (ROOT / "README.md").read_text(encoding="utf-8")


# each: a call that works, as (callable, positional arguments), and a
# parameter it took once
_DELETED_PARAMETERS = {
    "select(include_null_matches)": (
        lambda: (tabular.select, (demo_cars(), SelectionQuery())), "include_null_matches"
    ),
    "SelectionQuery.matches(null_wildcard)": (
        lambda: (SelectionQuery.matches, (SelectionQuery(), demo_cars().schema, demo_cars().rows[0])),
        "null_wildcard",
    ),
    "sample_rows(start_id)": (lambda: (sample_rows, (demo_net(), 2, 0)), "start_id"),
    "random_net(concentration)": (lambda: (random_net, (3,)), "concentration"),
    "random_net(floor)": (lambda: (random_net, (3,)), "floor"),
    "_value_counts(observed)": (
        lambda: (tabular._value_counts, (np.zeros((1, 2), dtype=np.int32), [1])), "observed"
    ),
    "_issue(limit)": (
        lambda: (rewriting._issue, ([], AutonomousSource(demo_cars()), np.zeros(0, np.int64))),
        "limit",
    ),
}


@pytest.mark.parametrize("case", _DELETED_PARAMETERS)
def test_deleted_parameters_stay_deleted(case):
    make, name = _DELETED_PARAMETERS[case]
    fn, args = make()
    assert name not in inspect.signature(fn).parameters
    fn(*args)
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        fn(*args, **{name: 1})


def _nullbayes_names(tree: ast.Module):
    """``(module, name)`` for every name ``tree`` imports from ``nullbayes``
    or one of its submodules, and every attribute it reads through a
    ``nullbayes.<module>`` it imported (``nullbayes.rewriting.select``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nullbayes":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "nullbayes":
                    yield alias.name, None
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "nullbayes"
        ):
            yield f"nullbayes.{node.value.attr}", node.attr


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "perfbench").glob("*.py")))
def test_every_name_the_benchmark_imports_resolves(script):
    # the benchmark is run from a fresh checkout; a deleted name it imports
    # would otherwise show only when it runs
    tree = ast.parse((ROOT / "perfbench" / script).read_text(encoding="utf-8"))
    missing = []
    for module_name, name in _nullbayes_names(tree):
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            missing.append(f"{module_name}.{name}")
    assert missing == []


def _nullbayes_calls(tree: ast.Module):
    """``(line, callable, positional arguments, keyword names)`` for every
    call in ``tree`` to a name it imports from ``nullbayes`` or a submodule
    (``random_net(20)``) or to an attribute of a ``nullbayes.<module>``
    (``nullbayes.rewriting.select(t, q)``), and for every such callable that
    ``workloads.set_up`` runs through ``call(name, fn, *args)``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nullbayes":
            module = importlib.import_module(node.module)
            for alias in node.names:
                bound[alias.asname or alias.name] = getattr(module, alias.name)

    def resolve(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "nullbayes"
        ):
            return getattr(importlib.import_module(f"nullbayes.{node.value.attr}"), node.attr)
        return None

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        keywords = [k.arg for k in node.keywords if k.arg is not None]
        fn = resolve(node.func)
        if fn is not None:
            yield node.lineno, fn, node.args, keywords
        elif isinstance(node.func, ast.Name) and node.func.id == "call" and len(node.args) > 1:
            fn = resolve(node.args[1])
            if fn is not None:
                yield node.lineno, fn, node.args[2:], keywords


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "perfbench").glob("*.py")))
def test_every_call_the_benchmark_makes_fits_its_signature(script):
    # a parameter removed from the library would otherwise break the
    # benchmark only when it runs: a keyword its signature does not name,
    # or more positional arguments than it takes
    tree = ast.parse((ROOT / "perfbench" / script).read_text(encoding="utf-8"))
    bad = []
    for line, fn, args, keywords in _nullbayes_calls(tree):
        positional = [None] * sum(not isinstance(a, ast.Starred) for a in args)
        try:
            inspect.signature(fn).bind_partial(*positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            bad.append(f"line {line}: {fn.__name__}: {exc}")
    assert bad == []
