"""Shared fixtures: two small used-car tables, a hand-wired net over them,
brute-force probability oracles that bypass the library's inference code,
and the nets, tables and verbatim references (the Gibbs chain, the blanket
product, the clamped expansion) that the differential and memo suites
share (test modules import from here, never from each other).

The oracles here deliberately use plain Python loops and direct CPT
indexing so that agreement with the library is evidence, not tautology.
"""

import gc
import itertools
import os
from collections.abc import Mapping, Sequence

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from nullbayes import (
    BayesNet,
    ImpossibleEvidenceError,
    Row,
    Schema,
    Table,
    fit_parameters,
    sample_rows,
    uniform_cpts,
)
from nullbayes.inference import JointDistribution
from nullbayes.synth import random_net

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


def row_with_id(table: Table, row_id: int) -> Row:
    """The row of ``table`` whose id is ``row_id``."""
    return next(row for row in table.rows if row.id == row_id)


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


def in_generation(objects, generation: int) -> int:
    """How many of ``objects`` the cyclic garbage collector holds in ``generation``."""
    ids = set(map(id, objects))
    return sum(id(o) in ids for o in gc.get_objects(generation=generation))


# ---------------------------------------------------------------------------
# the differential and memo suites' nets, tables and reference chain


def _fresh(net: BayesNet) -> BayesNet:
    # an equal net with an empty memo
    return BayesNet(net.schema, net.parents, net.cpts)


def _with_zeros(net, seed):
    """``net`` with about a third of its CPT entries set to 0 and each row
    renormalized (a row's largest entries stay), so some evidence is
    impossible.  The DAG is ``net``'s, so the structure cache is shared."""
    rng = np.random.default_rng(seed)
    cpts = {}
    for attr, cpt in net.cpts.items():
        drop = (rng.random(cpt.shape) < 0.35) & (cpt < cpt.max(axis=-1, keepdims=True))
        kept = np.where(drop, 0.0, cpt)
        cpts[attr] = kept / kept.sum(axis=-1, keepdims=True)
    return BayesNet(net.schema, net.parents, cpts)


# small nets with Dirichlet, uniform or zero-holding CPTs
@st.composite
def _nets(draw):
    seed = draw(st.integers(0, 10_000))
    net = random_net(
        draw(st.integers(1, 6)),
        max_domain=draw(st.integers(2, 4)),
        seed=seed,
        max_parents=draw(st.integers(0, 3)),
    )
    kind = draw(st.sampled_from(["dirichlet", "uniform", "zeros"]))
    if kind == "uniform":
        return BayesNet(net.schema, net.parents, uniform_cpts(net.schema, net.parents))
    return _with_zeros(net, seed) if kind == "zeros" else net


def _striped_table(net):
    # 30 rows, each missing every third attribute from an offset set by its id
    rows = [
        Row(r.id, tuple(None if j % 3 == r.id % 3 else c for j, c in enumerate(r.cells)))
        for r in sample_rows(net, 30, seed=7).rows
    ]
    return Table(net.schema, rows)


def _impossible(net, rows):
    """Whether an incomplete row among ``rows`` observes every cell of a
    family at a zero of its CPT: evidence that both engines refuse after
    filling, checked here cell by cell."""
    attrs = net.schema.attributes
    for row in rows:
        if None not in row.cells:
            continue
        cells = dict(zip(attrs, row.cells))
        for attr in attrs:
            family = net.parents[attr] + (attr,)
            if all(cells[v] is not None for v in family):
                at = tuple(net.schema.domain(v).index(cells[v]) for v in family)
                if net.cpts[attr][at] == 0:
                    return True
    return False


# the per-update Gibbs loop, the reference of the Gibbs engine
def _ref_chain(net, free_targets, evidence, samples, burn_in, seed):
    # yields the free targets' codes after each kept sweep
    schema = net.schema
    rng = np.random.default_rng(seed)
    pos = {a: i for i, a in enumerate(schema.attributes)}
    state = np.zeros(len(schema.attributes), dtype=np.int64)
    fixed = np.zeros(len(schema.attributes), dtype=bool)
    for attr, value in evidence.items():
        state[pos[attr]] = schema.domain(attr).index(value)
        fixed[pos[attr]] = True

    # initialize free variables by ancestral draw given current parents
    for attr in net.topological_order():
        if fixed[pos[attr]]:
            continue
        idx = tuple(state[pos[p]] for p in net.parents[attr])
        weights = net.cpts[attr][idx]
        cum = np.cumsum(weights)
        j = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        state[pos[attr]] = min(j, len(weights) - 1)

    free = [a for a in schema.attributes if not fixed[pos[a]]]
    # per free variable: own cpt + parent positions, and for each child its
    # cpt, the child's parent positions, our axis among them, child position
    plans = []
    for attr in free:
        own = (net.cpts[attr], [pos[p] for p in net.parents[attr]])
        kids = []
        for child in net.children(attr):
            cps = net.parents[child]
            kids.append(
                (net.cpts[child], [pos[p] for p in cps], cps.index(attr), pos[child])
            )
        plans.append((pos[attr], own, kids))

    t_pos = [pos[t] for t in free_targets]

    for sweep in range(burn_in + samples):
        for my_pos, (own_cpt, own_parents), kids in plans:
            weights = own_cpt[tuple(state[p] for p in own_parents)].copy()
            for child_cpt, child_parents, my_axis, child_pos in kids:
                index: list[object] = [state[p] for p in child_parents]
                index[my_axis] = slice(None)
                index.append(state[child_pos])
                weights *= child_cpt[tuple(index)]
            total = float(weights.sum())
            if total <= 0.0:
                raise ImpossibleEvidenceError(
                    "impossible evidence: zero-probability conditional in Gibbs sweep"
                )
            cum = np.cumsum(weights)
            j = int(np.searchsorted(cum, rng.random() * total, side="right"))
            state[my_pos] = min(j, len(weights) - 1)
        if sweep >= burn_in:
            yield tuple(state[p] for p in t_pos)


# the earlier blanket product, verbatim, that the exact-keying and
# imputation references run on
def _old_blanket_product(views, codes: list[int]) -> np.ndarray:
    """The product of ``_cpt_views`` at a row's ``codes``, unnormalized: one
    axis per member of the plan's set."""
    values = None
    for cpt, observed in views:
        factor = cpt[observed(codes)]
        values = factor if values is None else values * factor
    return values


# the earlier inference._expand_clamped, verbatim: one-hot outer products,
# then an axis permutation
def _expand_clamped(
    net: BayesNet,
    targets: Sequence[str],
    evidence: Mapping[str, str],
    free: list[str],
    free_probs: np.ndarray,
) -> JointDistribution:
    # free_probs has one axis per free target, in `free` order; clamped
    # targets get a one-hot axis at their evidence value
    arrays = free_probs
    out_order: list[str] = list(free)
    for t in targets:
        if t in evidence:
            onehot = np.zeros(len(net.schema.domain(t)))
            onehot[net.schema.code(t, evidence[t])] = 1.0
            arrays = np.multiply.outer(arrays, onehot)
            out_order.append(t)
    perm = [out_order.index(t) for t in targets]
    probs = np.transpose(arrays, perm) if len(out_order) > 1 else arrays
    domains = tuple(net.schema.domain(t) for t in targets)
    return JointDistribution(tuple(targets), domains, probs)
