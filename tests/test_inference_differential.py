"""Differential tests: ``posterior_exact`` against the full elimination it replaced.

``posterior_exact`` keeps only the CPTs of ancestors of the targets and the
evidence, and runs an elimination plan memoized per (DAG, free targets,
evidence attributes).  The reference below is the earlier path, copied
verbatim: every CPT restricted at the evidence, every non-target variable
eliminated, the min-degree order recomputed on each call.  Posteriors must
match within ``rtol=1e-12`` (pruning can move the last ulp), over the same
targets and domains, and ``ImpossibleEvidenceError`` must be raised in the
same cases.  Whole rewriting runs must issue the same queries and retrieve
the same tuples under either path.
"""

from collections import Counter
from collections.abc import Mapping, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nullbayes.rewriting as rw
from nullbayes import (
    AutonomousSource,
    BayesNet,
    BeamConfig,
    ImpossibleEvidenceError,
    NotApplicableError,
    Schema,
    SelectionQuery,
    Table,
    afd_all_attributes,
    afd_highest_confidence,
    afd_rewrite_single,
    bn_all_mb,
    bn_beam,
    fit_naive_bayes,
    inject_nulls,
    mine_afds,
    posterior_exact,
    sample_rows,
)
from nullbayes.inference import (
    JointDistribution,
    _check_query,
    _elimination_plan,
    _planned_product,
)
from nullbayes.synth import car_demo_net, random_net

# ---------------------------------------------------------------------------
# the replaced code, verbatim


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


class _Factor:
    __slots__ = ("vars", "values")

    def __init__(self, variables: tuple[str, ...], values: np.ndarray):
        self.vars = variables
        self.values = values


def _aligned(factor: _Factor, out_vars: tuple[str, ...]) -> np.ndarray:
    present = [v for v in out_vars if v in factor.vars]
    arr = np.transpose(factor.values, [factor.vars.index(v) for v in present])
    shape = []
    j = 0
    for v in out_vars:
        if v in factor.vars:
            shape.append(arr.shape[j])
            j += 1
        else:
            shape.append(1)
    return arr.reshape(shape)


def _product(factors: list[_Factor]) -> _Factor:
    out_vars: list[str] = []
    for f in factors:
        for v in f.vars:
            if v not in out_vars:
                out_vars.append(v)
    ov = tuple(out_vars)
    values = _aligned(factors[0], ov)
    for f in factors[1:]:
        values = values * _aligned(f, ov)
    return _Factor(ov, values)


def _sum_out(factor: _Factor, var: str) -> _Factor:
    ax = factor.vars.index(var)
    new_vars = factor.vars[:ax] + factor.vars[ax + 1 :]
    return _Factor(new_vars, factor.values.sum(axis=ax))


def _restricted_factors(net: BayesNet, evidence) -> list[_Factor]:
    ev_idx = {a: net.schema.domain(a).index(v) for a, v in evidence.items()}
    factors = []
    for attr in net.schema.attributes:
        variables = net.parents[attr] + (attr,)
        values = net.cpts[attr]
        kept = []
        index: list[object] = []
        for v in variables:
            if v in ev_idx:
                index.append(ev_idx[v])
            else:
                index.append(slice(None))
                kept.append(v)
        factors.append(_Factor(tuple(kept), values[tuple(index)]))
    return factors


def _old_posterior_exact(net, targets, evidence=None) -> JointDistribution:
    evidence = dict(evidence or {})
    _check_query(net, targets, evidence)
    free = [t for t in targets if t not in evidence]
    factors = _restricted_factors(net, evidence)
    eliminate = {
        v for v in net.schema.attributes if v not in evidence and v not in free
    }

    while eliminate:
        neighbors: dict[str, set[str]] = {v: set() for v in eliminate}
        for f in factors:
            for v in f.vars:
                if v in eliminate:
                    neighbors[v].update(f.vars)
        victim = min(eliminate, key=lambda v: (len(neighbors[v] - {v}), v))
        touching = [f for f in factors if victim in f.vars]
        rest = [f for f in factors if victim not in f.vars]
        factors = rest + [_sum_out(_product(touching), victim)]
        eliminate.discard(victim)

    joint = _product(factors)
    # collapse any stray scalar factors and order axes by `free`
    if free:
        values = _aligned(joint, tuple(free))
        values = values.reshape([len(net.schema.domain(t)) for t in free])
    else:
        values = joint.values.reshape(())
    z = float(values.sum())
    if z <= 0.0:
        raise ImpossibleEvidenceError("impossible evidence: zero probability")
    values = values / z
    if not free:
        # every target clamped by evidence
        return _expand_clamped(net, targets, evidence, [], np.array(1.0))
    if len(free) == len(targets):
        perm = [free.index(t) for t in targets]
        probs = np.transpose(values, perm)
        domains = tuple(net.schema.domain(t) for t in targets)
        return JointDistribution(tuple(targets), domains, probs)
    return _expand_clamped(net, targets, evidence, free, values)


def _tail_posterior_exact(net, targets, evidence=None) -> JointDistribution:
    # posterior_exact before one normaliser served it and exact imputation,
    # verbatim but for ``_at``: its own normalising tail and its two
    # special-case returns (every target clamped, no target clamped)
    evidence = dict(evidence or {})
    _check_query(net, targets, evidence)
    free = [t for t in targets if t not in evidence]
    cpts, steps, final = _elimination_plan(net._families, tuple(free), frozenset(evidence))
    codes = {a: net.schema.domains[a].index(v) for a, v in evidence.items()}
    arrays = [
        net.cpts[attr] if axes is None
        else net.cpts[attr][tuple(slice(None) if v is None else codes[v] for v in axes)]
        for attr, axes in cpts
    ]
    for inputs, axis in steps:
        arrays.append(_planned_product(arrays, inputs).sum(axis=axis))
    values = _planned_product(arrays, final)
    z = float(values.sum())
    if z <= 0.0:
        raise ImpossibleEvidenceError("impossible evidence: zero probability")
    values = values / z
    if not free:
        # every target clamped by evidence
        return _expand_clamped(net, targets, evidence, [], np.array(1.0))
    if len(free) == len(targets):  # then ``free`` is ``targets``, in order
        domains = tuple(net.schema.domain(t) for t in targets)
        return JointDistribution(tuple(targets), domains, values)
    return _expand_clamped(net, targets, evidence, free, values)


# ---------------------------------------------------------------------------
# helpers


def _outcome(fn, net, targets, evidence):
    try:
        return "ok", fn(net, targets, evidence)
    except ImpossibleEvidenceError:
        return "impossible", None


def _assert_same(net, targets, evidence):
    got = _outcome(posterior_exact, net, targets, evidence)
    want = _outcome(_old_posterior_exact, net, targets, evidence)
    assert got[0] == want[0], (targets, evidence)
    if got[0] == "ok":
        assert got[1].targets == want[1].targets
        assert got[1].domains == want[1].domains
        np.testing.assert_allclose(got[1].probs, want[1].probs, rtol=1e-12, atol=0)
    return got[0]


def _with_cpt(net: BayesNet, attr: str, cpt: np.ndarray) -> BayesNet:
    cpts = dict(net.cpts)
    cpts[attr] = cpt
    return BayesNet(net.schema, net.parents, cpts)


def _zeroed(net: BayesNet, attr: str, flat: int) -> BayesNet:
    """``net`` with one entry of ``attr``'s CPT set to 0 and its row
    renormalized; unchanged if that would leave the row all zero."""
    cpt = np.array(net.cpts[attr])
    rows = cpt.reshape(-1, cpt.shape[-1])
    r, c = divmod(flat % rows.size, rows.shape[1])
    if rows[r].sum() == rows[r, c]:
        return net
    rows[r, c] = 0.0
    rows[r] /= rows[r].sum()
    return _with_cpt(net, attr, rows.reshape(cpt.shape))


@st.composite
def queries(draw, net):
    attrs = list(net.schema.attributes)
    targets = draw(st.lists(st.sampled_from(attrs), min_size=1, max_size=3, unique=True))
    observed = draw(st.lists(st.sampled_from(attrs), max_size=len(attrs), unique=True))
    evidence = {a: draw(st.sampled_from(net.schema.domain(a))) for a in observed}
    return targets, evidence


@st.composite
def random_nets(draw):
    n = draw(st.integers(1, 8))
    lo = draw(st.integers(2, 5))
    hi = draw(st.integers(lo, 5))
    seed = draw(st.integers(0, 2**16))
    return random_net(n, max_domain=hi, min_domain=lo, seed=seed, max_parents=3)


# ---------------------------------------------------------------------------
# posteriors


@settings(max_examples=150)
@given(data=st.data())
def test_random_nets_match_full_elimination(data):
    net = data.draw(random_nets())
    for _ in range(3):
        targets, evidence = data.draw(queries(net))
        _assert_same(net, targets, evidence)


_CAR = car_demo_net()


@settings(max_examples=100)
@given(query=queries(_CAR))
def test_car_net_matches_full_elimination(query):
    targets, evidence = query
    _assert_same(_CAR, targets, evidence)


@settings(max_examples=150)
@given(data=st.data(), clamped=st.sampled_from(("all", "some", "none")))
def test_posteriors_are_bitwise_those_of_the_old_tail(data, clamped):
    net = data.draw(random_nets())
    attrs = list(net.schema.attributes)
    targets = data.draw(st.lists(st.sampled_from(attrs), min_size=1, max_size=3, unique=True))
    on = {"all": targets, "some": targets[:-1], "none": []}[clamped]
    others = data.draw(st.lists(st.sampled_from(attrs), unique=True).map(
        lambda picked: [a for a in picked if a not in targets]
    ))
    evidence = {a: data.draw(st.sampled_from(net.schema.domain(a))) for a in [*on, *others]}
    got = _outcome(posterior_exact, net, targets, evidence)
    want = _outcome(_tail_posterior_exact, net, targets, evidence)
    assert got[0] == want[0] == "ok"  # random_net's CPTs have no zero
    assert (got[1].targets, got[1].domains) == (want[1].targets, want[1].domains)
    assert got[1].probs.shape == want[1].probs.shape
    assert np.array_equal(got[1].probs, want[1].probs)


@settings(max_examples=150)
@given(data=st.data())
def test_zero_entries_raise_in_the_same_cases(data):
    net = data.draw(random_nets())
    for _ in range(data.draw(st.integers(1, 3))):
        attr = data.draw(st.sampled_from(net.schema.attributes))
        net = _zeroed(net, attr, data.draw(st.integers(0, 10**6)))
    for _ in range(3):
        targets, evidence = data.draw(queries(net))
        _assert_same(net, targets, evidence)


def _chain_net() -> BayesNet:
    """A -> B -> C -> D, every domain {x, y}, every CPT row (0.3, 0.7) or (0.6, 0.4)."""
    names = ("A", "B", "C", "D")
    schema = Schema(names, {a: ("x", "y") for a in names})
    parents = {"B": ("A",), "C": ("B",), "D": ("C",)}
    row = np.array([[0.3, 0.7], [0.6, 0.4]])
    cpts = {"A": row[0], "B": row, "C": row[::-1].copy(), "D": row}
    return BayesNet(schema, parents, cpts)


def test_zero_on_an_evidence_ancestor_raises():
    net = _chain_net()
    # B = x is impossible whatever A is, so evidence C = y (a child of B) still
    # has mass, but evidence B = x has none
    zero = np.array([[0.0, 1.0], [0.0, 1.0]])
    net = _with_cpt(net, "B", zero)
    assert _assert_same(net, ["A"], {"B": "x"}) == "impossible"
    assert _assert_same(net, ["D"], {"B": "x", "C": "y"}) == "impossible"
    assert _assert_same(net, ["A"], {"C": "y"}) == "ok"


def test_zero_only_in_a_barren_descendant_does_not_raise():
    net = _with_cpt(_chain_net(), "D", np.array([[0.0, 1.0], [0.0, 1.0]]))
    # D is neither a target nor evidence nor an ancestor of one: barren
    assert _assert_same(net, ["A"], {"C": "y"}) == "ok"
    assert _assert_same(net, ["B", "A"], {"C": "x"}) == "ok"
    # with D observed at its impossible value, D is no longer barren
    assert _assert_same(net, ["A"], {"D": "x"}) == "impossible"


# ---------------------------------------------------------------------------
# the plan cache


def _reversed_chain_net() -> BayesNet:
    """The same names and domains as ``_chain_net``, arcs D -> C -> B -> A."""
    base = _chain_net()
    parents = {"C": ("D",), "B": ("C",), "A": ("B",)}
    row = np.array([[0.8, 0.2], [0.25, 0.75]])
    cpts = {"D": row[1], "C": row, "B": row[::-1].copy(), "A": row}
    return BayesNet(base.schema, parents, cpts)


# each shape appears with both nets: a chain end as target, evidence upstream,
# downstream, on both sides, none; and a clamped target
_SHAPES = [
    (["D"], {}),
    (["D"], {"A": "y"}),
    (["B"], {"D": "x"}),
    (["B"], {"A": "x", "D": "y"}),
    (["A", "C"], {"B": "y"}),
    (["C", "A"], {"C": "x", "D": "y"}),
    (["A"], {}),
]


def test_plan_cache_interleaves_nets_with_the_same_names():
    nets = [_chain_net(), _reversed_chain_net()]
    assert nets[0].schema == nets[1].schema and nets[0].parents != nets[1].parents
    _elimination_plan.cache_clear()
    for _ in range(2):  # the second round hits the cache for every shape
        for targets, evidence in _SHAPES:
            for net in nets:
                got = posterior_exact(net, targets, evidence)
                want = _old_posterior_exact(net, targets, evidence)
                assert got.targets == want.targets
                np.testing.assert_allclose(got.probs, want.probs, rtol=1e-12, atol=0)
    # one plan per net and shape: the key tells the two DAGs apart
    info = _elimination_plan.cache_info()
    assert (info.misses, info.hits) == (len(_SHAPES) * 2, len(_SHAPES) * 2)


def test_plan_needs_every_ancestor_of_targets_and_evidence():
    # the target's grandparent, and the evidence's parent which is no
    # ancestor of the target, must both enter
    net = _chain_net()
    for targets, evidence in ((["D"], {}), (["B"], {"D": "x"}), (["A"], {"C": "y"})):
        got = posterior_exact(net, targets, evidence)
        want = _old_posterior_exact(net, targets, evidence)
        np.testing.assert_allclose(got.probs, want.probs, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# rewriting under either path


def _world(net, n, seed, nulls):
    data = sample_rows(net, n, seed=seed)
    cut = n // 3
    sample = Table(data.schema, data.rows[:cut])
    source = inject_nulls(Table(data.schema, data.rows[cut:]), nulls, 0.4, seed=seed)
    return net, sample, mine_afds(sample, max_lhs=1), fit_naive_bayes(sample), source


def _strategies(net, sample, afds, nb):
    return {
        "bn-all-mb": lambda s, q: bn_all_mb(net, sample, s, q, k=8),
        "bn-beam": lambda s, q: bn_beam(net, sample, s, q, BeamConfig(width=4, depth=3, top_k=8)),
        "afd": lambda s, q: afd_rewrite_single(afds, nb, sample, s, q, k=8),
        "afd-all-attributes": lambda s, q: afd_all_attributes(afds, nb, sample, s, q, k=8),
        "afd-highest-confidence": lambda s, q: afd_highest_confidence(
            afds, nb, sample, s, q, k=8, alpha=0.5
        ),
    }


def _runs(world, qs):
    out = []
    for name, run in _strategies(*world[:4]).items():
        for q in qs:
            try:
                out.append((name, q, run(AutonomousSource(world[4]), q)))
            except NotApplicableError:
                out.append((name, q, None))
    return out


def _queries(source, attrs):
    out = []
    for attr in attrs:
        i = source.schema.index(attr)
        values = sorted({r.cells[i] for r in source.rows if r.cells[i] is not None})
        out += [SelectionQuery({attr: v}) for v in values[:2]]
    a, b = attrs[:2]
    i, j = source.schema.index(a), source.schema.index(b)
    pair = next(r for r in source.rows if r.cells[i] is not None and r.cells[j] is not None)
    out.append(SelectionQuery({a: pair.cells[i], b: pair.cells[j]}))
    return out


def _old_posterior_at(net, targets, evidence=None, *, _at=None):
    # posterior_exact's private one-entry read (expected_precision uses it),
    # taken from the whole-DAG elimination
    dist = _old_posterior_exact(net, targets, evidence)
    return dist if _at is None else dist.prob(_at)


@pytest.mark.parametrize(
    "make_net, seed, attrs",
    [(car_demo_net, 11, ["Price", "Body"]), (lambda: random_net(20, seed=7), 3, ["A", "B", "C"])],
    ids=["car", "random20"],
)
def test_rewriting_unchanged_under_full_elimination(make_net, seed, attrs, monkeypatch):
    world = _world(make_net(), 900, seed, attrs)  # nulls injected on the queried attributes
    qs = _queries(world[4], attrs)
    got = _runs(world, qs)
    monkeypatch.setattr(rw, "posterior_exact", _old_posterior_at)
    want = _runs(world, qs)
    assert len(got) == len(want)
    issued = Counter()
    for (name, q, g), (_, _, w) in zip(got, want):
        assert (g is None) == (w is None), (name, q)
        if g is None:
            continue
        assert [rq.query.text() for rq in g.issued] == [rq.query.text() for rq in w.issued]
        assert [a.row.id for a in g.answers] == [a.row.id for a in w.answers], (name, q)
        assert len(g.candidates) == len(w.candidates)
        for x, y in zip(g.issued + g.candidates, w.issued + w.candidates):
            assert x.query == y.query
            assert x.score.precision == pytest.approx(y.score.precision, rel=0, abs=1e-12)
        for x, y in zip(g.answers, w.answers):
            assert x.relevance == pytest.approx(y.relevance, rel=0, abs=1e-12)
        issued[name] += len(g.issued)
    assert issued["bn-all-mb"] and issued["bn-beam"], issued
