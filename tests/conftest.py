"""Shared fixtures: two small used-car tables, a hand-wired net over them,
and brute-force probability oracles that bypass the library's inference code.

The oracles here deliberately use plain Python loops and direct CPT
indexing so that agreement with the library is evidence, not tautology.
"""

import itertools
import os

import pytest
from hypothesis import settings

from nullbayes import BayesNet, Row, Schema, Table, fit_parameters, uniform_cpts

# CI runs property tests with HYPOTHESIS_PROFILE=ci: fixed examples and no
# deadline, so a slow shared runner cannot make them flake.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")

CAR_ATTRS = ("Make", "Model", "Year", "Body", "Mileage")

# 10 rows, nulls scattered over Model/Year/Body/Mileage; Make complete.
# Used by the AFD suites (mining, chaining, single-attribute rewriting).
_SPARSE_ROWS = [
    ("Audi", None, None, "Sedan", "20000"),
    ("Audi", "A8", None, "Sedan", "15000"),
    ("BMW", "745", "2002", "Sedan", "40000"),
    ("Audi", None, "2005", "Sedan", "20000"),
    ("Audi", "A8", "2005", "Sedan", "20000"),
    ("BMW", "645", "1999", "Convt", None),
    ("Hyundai", "Santa", "1990", "SUV", "45000"),
    ("Hyundai", "Santa", "1993", None, "40000"),
    ("Acura", "MDX", "1990", "SUV", "30000"),
    ("Acura", "MDX", "1990", None, "12000"),
]

# 10 rows, nulls concentrated on Make/Mileage plus one null Body.
# Used by the blanket-rewriting suites.
_DEMO_ROWS = [
    ("Audi", "A8", "2005", "Sedan", "20000"),
    ("Audi", "A8", "2005", None, "15000"),
    ("Acura", "tl", "2003", "Sedan", None),
    ("BMW", "745", "2002", "Sedan", "40000"),
    (None, "745", "2002", "Sedan", None),
    (None, "645", "1999", "Convt", None),
    (None, "645", "1999", "Coupe", None),
    (None, "645", "1999", "Convt", None),
    ("BMW", "645", "1999", "Coupe", "40000"),
    ("BMW", "645", "1999", "Convt", "40000"),
]


def _car_table(raw):
    domains = {
        attr: sorted({r[i] for r in raw if r[i] is not None})
        for i, attr in enumerate(CAR_ATTRS)
    }
    schema = Schema(CAR_ATTRS, domains)
    rows = [Row(i + 1, tuple(cells)) for i, cells in enumerate(raw)]
    return Table(schema, rows)


def sparse_cars() -> Table:
    return _car_table(_SPARSE_ROWS)


def demo_cars() -> Table:
    return _car_table(_DEMO_ROWS)


# Model depends on Make; Body on Model and Year; Mileage on Year.
DEMO_PARENTS = {"Model": ("Make",), "Body": ("Model", "Year"), "Mileage": ("Year",)}


def with_unseen_values(table: Table, attr: str, value: str, unseen: str = "zz-unseen") -> Table:
    """``table`` with a label outside every domain in some rows where ``attr == value``.

    Of the rows where ``attr`` holds ``value``, the first three get ``unseen``
    in every other attribute; the next ones get it in one other attribute
    each, cycling through the schema.
    """
    schema = table.schema
    i = schema.index(attr)
    others = [j for j in range(len(schema.attributes)) if j != i]
    hits = [k for k, r in enumerate(table.rows) if r.cells[i] == value]
    rows = list(table.rows)
    for n, k in enumerate(hits[: 3 + len(others)]):
        cells = list(rows[k].cells)
        for j in others if n < 3 else [others[n - 3]]:
            cells[j] = unseen
        rows[k] = Row(rows[k].id, tuple(cells))
    domains = {
        a: schema.domain(a) if a == attr else schema.domain(a) + (unseen,)
        for a in schema.attributes
    }
    return Table(Schema(schema.attributes, domains), rows)


def demo_net() -> BayesNet:
    """Hand-wired structure over demo_cars, parameters fitted with add-one."""
    table = demo_cars()
    structure = BayesNet(
        table.schema, DEMO_PARENTS, uniform_cpts(table.schema, DEMO_PARENTS)
    )
    return fit_parameters(structure, table)


@pytest.fixture
def sparse_table():
    return sparse_cars()


@pytest.fixture
def demo_table():
    return demo_cars()


@pytest.fixture
def fitted_demo_net():
    return demo_net()


# ---------------------------------------------------------------------------
# brute-force oracles


def oracle_joint(net: BayesNet) -> dict[tuple[str, ...], float]:
    """Joint probability of every full assignment, by direct CPT lookup."""
    schema = net.schema
    attrs = schema.attributes
    joint = {}
    for combo in itertools.product(*(schema.domain(a) for a in attrs)):
        value = dict(zip(attrs, combo))
        p = 1.0
        for attr in attrs:
            idx = tuple(
                schema.domain(par).index(value[par]) for par in net.parents[attr]
            )
            p *= float(net.cpts[attr][idx + (schema.domain(attr).index(value[attr]),)])
        joint[combo] = p
    return joint


def oracle_conditional(net, targets, evidence=None):
    """P(targets | evidence) summed out of the brute-force joint.

    Returns a dict keyed by target-value combinations (in the given target
    order), or None when the evidence has zero mass.
    """
    evidence = dict(evidence or {})
    attrs = net.schema.attributes
    pos = {a: i for i, a in enumerate(attrs)}
    tpos = [pos[t] for t in targets]
    acc: dict[tuple[str, ...], float] = {}
    z = 0.0
    for combo, p in oracle_joint(net).items():
        if any(combo[pos[a]] != v for a, v in evidence.items()):
            continue
        z += p
        key = tuple(combo[i] for i in tpos)
        acc[key] = acc.get(key, 0.0) + p
    if z <= 0.0:
        return None
    return {k: v / z for k, v in acc.items()}


def dist_as_dict(dist) -> dict[tuple[str, ...], float]:
    return dict(dist.items())
