"""Differential tests: batched precisions against one candidate at a time.

A rewrite scores all its candidates over one attribute set in one
``posterior_exact(..., _at=)`` call: the evidence maps each attribute to a
tuple of values, a column per candidate, and ``_product`` runs the plan
over the ``(d, B)`` code matrix.  Each column must equal, with ``==``,
``expected_precision`` of that candidate alone, and the entry of the full
``JointDistribution`` given that candidate (0.0 where the candidate is
impossible or holds a value outside the net's domains).

Domains reach 12 because numpy sums eight or more elements pairwise: a
reduction that walked a column in another order than the one-row run walks
its row would show there.  CPTs fitted with ``pseudo_count=0`` on few rows
hold zeros, so impossible columns occur, and batches of one are drawn too.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nullbayes import (
    BayesNet,
    Schema,
    SelectionQuery,
    expected_precision,
    fit_parameters,
    posterior_exact,
    sample_rows,
)

_UNSEEN = "zz-unseen"  # never in a domain


@st.composite
def nets(draw):
    """A random DAG of up to six nodes with domains of 2 to 12 labels: CPTs
    drawn peaked, then refitted on a small sample, with ``pseudo_count`` 0
    (zeros wherever the sample missed a combination) or 1."""
    n = draw(st.integers(2, 6))
    attrs = [f"N{i}" for i in range(n)]
    domains = {a: [f"v{j:02d}" for j in range(draw(st.integers(2, 12)))] for a in attrs}
    parents = {
        a: draw(st.lists(st.sampled_from(attrs[:i]), unique=True, max_size=2)) if i else []
        for i, a in enumerate(attrs)
    }
    schema = Schema(attrs, domains)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cpts = {
        a: rng.dirichlet(
            np.full(len(domains[a]), 0.5), size=tuple(len(domains[p]) for p in sorted(parents[a]))
        )
        for a in attrs
    }
    truth = BayesNet(schema, parents, cpts)
    rows = sample_rows(truth, draw(st.integers(1, 150)), draw(st.integers(0, 1000)))
    return fit_parameters(truth, rows, pseudo_count=draw(st.sampled_from([0.0, 1.0])))


@st.composite
def batches(draw):
    """A net, an original query of one or two targets, and 1 to 9 candidates
    over one attribute set disjoint from it, a value outside the domain now
    and then."""
    net = draw(nets())
    attrs = list(net.schema.attributes)
    targets = draw(st.lists(st.sampled_from(attrs), unique=True, min_size=1, max_size=2))
    rest = [a for a in attrs if a not in targets]
    if not rest:
        targets, rest = targets[:1], [a for a in attrs if a != targets[0]]
    on = sorted(draw(st.lists(st.sampled_from(rest), unique=True, min_size=1, max_size=3)))
    original = SelectionQuery({t: draw(st.sampled_from(net.schema.domain(t))) for t in targets})

    def value(attr):
        return st.sampled_from((*net.schema.domain(attr), _UNSEEN))

    columns = draw(st.lists(st.tuples(*map(value, on)), min_size=1, max_size=9))
    return net, original, [SelectionQuery(zip(on, column)) for column in columns]


def _entry(net, original, candidate):
    # the full posterior's entry, as expected_precision read it before batching
    try:
        dist = posterior_exact(net, original.attributes, dict(candidate.items))
    except ValueError:  # impossible evidence, or a value outside the domains
        return 0.0
    return dist.prob([v for _, v in original.items])


def _batched(net, original, group):
    columns = zip(*[[v for _, v in c.items] for c in group])
    evidence = dict(zip(group[0].attributes, columns))
    return posterior_exact(net, original.attributes, evidence, _at=[v for _, v in original.items])


@settings(max_examples=300, deadline=None)
@given(batch=batches())
def test_batched_precisions_equal_one_candidate_at_a_time(batch):
    net, original, group = batch
    got = _batched(net, original, group)
    assert type(got) is list and len(got) == len(group)
    for p, candidate in zip(got, group):
        assert type(p) is float
        assert p == expected_precision(net, original, candidate) == _entry(net, original, candidate)


def test_a_batch_mixes_possible_impossible_and_unseen_columns():
    # A -> B, and C unconnected: A is never a1, so a column holding it is
    # impossible; one holding a label outside B's domain reads 0.0 too; the
    # possible ones read P(C=c1) = 0.7, masked apart before any division
    schema = Schema(["A", "B", "C"], {"A": ["a0", "a1"], "B": ["b0", "b1"], "C": ["c0", "c1"]})
    cpts = {
        "A": np.array([1.0, 0.0]),  # A is never a1
        "B": np.array([[0.5, 0.5], [0.0, 1.0]]),
        "C": np.array([0.3, 0.7]),
    }
    net = BayesNet(schema, {"B": ["A"]}, cpts)
    original = SelectionQuery({"C": "c1"})
    group = [SelectionQuery({"A": a, "B": b}) for a, b in
             [("a0", "b0"), ("a1", "b1"), ("a0", _UNSEEN), ("a0", "b1")]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _batched(net, original, group)
    assert got == [_entry(net, original, c) for c in group]
    assert got[1] == got[2] == 0.0 and got[0] == got[3] > 0.0
