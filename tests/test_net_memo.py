"""The network's memo: what inference derives from the CPTs, kept across calls.

Per set of variables its CPT views, exact fills and Gibbs conditionals
(one entry whichever engine made it), and exact posteriors' plans, CPT
views and all, are kept on the ``BayesNet`` they were computed from.
Every call on a warm net must give what the same call gives on a freshly
built equal net (whose memo is empty), refusals included; a refused call
stores nothing, so it still raises when repeated.  The memo stays out of
pickles and copies, and only ``inference`` reads it.
"""

import ast
import copy
import dataclasses
import pathlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullbayes import (
    BayesNet,
    GibbsParams,
    ImpossibleEvidenceError,
    Row,
    Table,
    impute_table,
    impute_tuple,
    posterior_exact,
    posterior_gibbs,
    sample_rows,
)
from nullbayes import bayesnet, imputation, inference
from nullbayes.synth import correlated_pair_net, random_net

from conftest import _fresh, _nets, _striped_table


def _outcome(fn, *args, **kwargs):
    """A call's result in comparable form, or its refusal's message."""
    try:
        got = fn(*args, **kwargs)
    except ImpossibleEvidenceError as exc:
        return "refused", str(exc)
    if isinstance(got, tuple):  # impute_table
        filled, report = got
        return filled.rows, dataclasses.replace(report, duration_seconds=0.0)
    if isinstance(got, Row):
        return got
    return got.targets, got.domains, got.probs.tolist()


# ---------------------------------------------------------------------------
# strategies: rows and calls drawn from few seeds, on ``conftest._nets``'
# small nets, so that keys recur between calls


@st.composite
def _rows(draw, net, n):
    """``n`` rows, sampled from ``net`` (possible evidence) or arbitrary
    (maybe impossible), with drawn nulls."""
    attrs = net.schema.attributes
    base = sample_rows(net, 3, seed=draw(st.integers(0, 3))).rows
    rows = []
    for i in range(1, n + 1):
        if draw(st.booleans()):
            full = draw(st.sampled_from(base)).cells
        else:
            full = tuple(draw(st.sampled_from(net.schema.domains[a])) for a in attrs)
        nulls = draw(st.sets(st.integers(0, len(attrs) - 1)))
        rows.append(Row(i, tuple(None if j in nulls else c for j, c in enumerate(full))))
    return rows


@st.composite
def _calls(draw, net):
    """(function, arguments after the net, keywords) of one call."""
    gibbs = GibbsParams(
        samples=draw(st.integers(1, 12)),
        burn_in=draw(st.integers(0, 4)),
        seed=draw(st.integers(0, 2)),
    )
    kind = draw(st.sampled_from(["table", "tuple", "posterior"]))
    if kind == "posterior":
        attrs = net.schema.attributes
        observed = draw(st.lists(st.sampled_from(attrs), unique=True))
        evidence = {a: draw(st.sampled_from(net.schema.domain(a))) for a in observed}
        targets = draw(st.lists(st.sampled_from(attrs), unique=True, min_size=1, max_size=3))
        chain = dict(samples=gibbs.samples, burn_in=gibbs.burn_in, seed=gibbs.seed)
        return posterior_gibbs, (targets, evidence), chain
    engine = draw(st.sampled_from(["exact", "gibbs"]))
    modes = dict(engine=engine, gibbs=gibbs, joint=draw(st.booleans()))
    if kind == "tuple":
        return impute_tuple, tuple(draw(_rows(net, 1))), modes
    return impute_table, (Table(net.schema, draw(_rows(net, draw(st.integers(0, 6))))),), modes


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_a_warm_net_answers_as_a_fresh_one(data):
    net = data.draw(_nets())
    calls = data.draw(st.lists(_calls(net), min_size=1, max_size=8))
    seen = []
    for fn, args, kwargs in calls:
        got = _outcome(fn, net, *args, **kwargs)
        assert got == _outcome(fn, _fresh(net), *args, **kwargs)
        seen.append(got)
    # a refused call stored nothing, so it is refused again, and nothing
    # stored since changed an earlier answer
    for (fn, args, kwargs), got in zip(calls, seen):
        assert _outcome(fn, net, *args, **kwargs) == got


@pytest.mark.parametrize("joint", [True, False])
def test_a_repeated_call_computes_nothing_again(monkeypatch, joint):
    # the second identical call finds every Gibbs conditional and every
    # exact fill on the net: no conditional, no blanket product
    conditionals, products = [], []
    full_conditional, product = inference._full_conditional, imputation._product
    monkeypatch.setattr(
        inference, "_full_conditional", lambda *a: conditionals.append(1) or full_conditional(*a)
    )
    monkeypatch.setattr(
        imputation, "_product", lambda *a: products.append(1) or product(*a)
    )
    net = random_net(8, seed=4, max_parents=3)
    table = _striped_table(net)
    params = GibbsParams(samples=20, burn_in=5, seed=1)
    for engine, counted in (("gibbs", conditionals), ("exact", products)):
        first = _outcome(impute_table, net, table, engine=engine, gibbs=params, joint=joint)
        assert counted
        counted.clear()
        assert _outcome(impute_table, net, table, engine=engine, gibbs=params, joint=joint) == first
        assert counted == []


def test_a_warm_posterior_lays_out_no_cpt(monkeypatch):
    # the second call runs the plan kept on the net, its CPT views laid out
    # when it was planned; only earlier steps' results are laid out again
    net = random_net(20, seed=3, max_parents=3)
    cpts, laid, laid_out = set(map(id, net.cpts.values())), [], inference._laid_out

    def counted(arr, *layout):
        laid.append(id(arr) in cpts)
        return laid_out(arr, *layout)

    for module in (bayesnet, inference):
        monkeypatch.setattr(module, "_laid_out", counted)
    target, *observed = net.schema.attributes[::5]
    evidence = {a: net.schema.domain(a)[0] for a in observed}
    cold = posterior_exact(net, [target], evidence)
    assert any(laid)
    laid.clear()
    warm = posterior_exact(net, [target], evidence)
    assert not any(laid) and np.array_equal(warm.probs, cold.probs)


def test_joint_and_marginal_fills_are_kept_apart():
    # with both readings' pair hidden, the joint MAP and the two marginal
    # argmaxes differ on some blanket keys, which both modes then share
    net = correlated_pair_net()
    hide = {net.schema.index("source"), net.schema.index("copy")}
    table = Table(net.schema, [
        Row(r.id, tuple(None if j in hide else c for j, c in enumerate(r.cells)))
        for r in sample_rows(net, 200, seed=(0, 7)).rows
    ])
    outcomes = [
        _outcome(impute_table, net, table, joint=joint) for joint in (True, False, True)
    ]
    assert outcomes[0] != outcomes[1] and outcomes[0] == outcomes[2]
    assert outcomes[1] == _outcome(impute_table, _fresh(net), table, joint=False)


def test_a_refused_call_stores_no_conditional_and_no_fill():
    # B's second label has probability zero under either label of A, so A's
    # conditional and posterior with B observed there sum to zero: the chain
    # and the exact fill are refused, and refused again on the warm net
    s = random_net(2, max_domain=2, seed=0).schema
    a, b = s.attributes
    net = BayesNet(s, {b: (a,)}, {a: np.array([0.5, 0.5]), b: np.array([[1.0, 0.0], [1.0, 0.0]])})
    impossible, possible = (Row(1, (None, label)) for label in reversed(s.domain(b)))
    for _ in range(2):
        for engine in ("gibbs", "exact"):
            with pytest.raises(ImpossibleEvidenceError):
                impute_tuple(net, impossible, engine)
        entry = net._memo.components[(a,)]  # its fills, and its chain part's conditionals
        assert not entry[4][2] and not entry[1]
    for engine in ("gibbs", "exact"):
        assert impute_tuple(net, possible, engine) == impute_tuple(_fresh(net), possible, engine)
    entry = net._memo.components[(a,)]
    assert len(entry[4][2]) == len(entry[1]) == 1


def test_a_warm_net_pickles_and_copies_without_its_memo():
    net = random_net(8, seed=5, max_parents=3)
    fresh = pickle.dumps(_fresh(net))
    table = _striped_table(net)
    params = GibbsParams(samples=10, burn_in=2, seed=3)
    want = [
        _outcome(impute_table, net, table, engine=engine, gibbs=params, joint=joint)
        for engine in ("exact", "gibbs") for joint in (True, False)
    ]
    a, b = net.schema.attributes[:2]
    posterior_exact(net, [a], {b: net.schema.domain(b)[0]})
    memo = net._memo
    assert vars(memo).keys() == {"components", "posteriors"}
    assert memo.components and memo.posteriors
    assert pickle.dumps(net) == fresh
    for twin in (pickle.loads(pickle.dumps(net)), copy.copy(net), copy.deepcopy(net)):
        assert twin == net and twin is not net
        assert not (twin._memo.components or twin._memo.posteriors)
        assert [
            _outcome(impute_table, twin, table, engine=engine, gibbs=params, joint=joint)
            for engine in ("exact", "gibbs") for joint in (True, False)
        ] == want


def test_only_inference_reads_the_memo():
    # the memo's layout is known to one module: ``BayesNet.__init__`` only
    # creates it, and imputation reaches its entries through ``_entry``
    uses = {
        (path.name, type(node.ctx).__name__)
        for path in pathlib.Path(inference.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "_memo"
    }
    assert uses == {("bayesnet.py", "Store"), ("inference.py", "Load")}
