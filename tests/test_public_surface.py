"""The public surface: what each module exports, what the package binds,
what README's API section documents, and what the benchmark imports."""

import ast
import importlib
import pathlib
import re

import pytest

import nullbayes
from nullbayes import Schema, Table, rewriting, tabular

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
        (Schema, "value"),
    ],
)
def test_deleted_names_stay_deleted(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(nullbayes, name)
    assert f"`{name}`" not in (ROOT / "README.md").read_text(encoding="utf-8")


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
