"""Differential tests: Gibbs sampling against the per-update numpy loop.

``posterior_gibbs`` memoizes each free variable's full conditional by its
Markov-blanket values, draws every uniform as one block up front and counts
target states once at the end.  The reference below is the earlier loop,
which recomputes the conditional with numpy on every update and draws one
scalar uniform at a time.  Chains must be unchanged, so posteriors must be
equal (``np.array_equal``), not merely close.  ``impute_table`` and
``impute_tuple`` share the net's memo among all chains and run one chain per
row in marginal mode; their reference is the earlier per-row path, one
reference chain per target set, and fills and errors must be equal.  The
sampler splits each chain by Markov-blanket component and draws a lone free
variable's states in one ``np.searchsorted``; the reference updates every
free variable in the loop, so it referees that split too.
"""

from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nullbayes import (
    BayesNet,
    GibbsParams,
    ImpossibleEvidenceError,
    Row,
    Schema,
    Table,
    impute_table,
    impute_tuple,
    posterior_gibbs,
)
from nullbayes import bayesnet, inference
from nullbayes.synth import car_demo_net, random_net
from nullbayes.inference import JointDistribution, _check_query, map_assignment

from conftest import _expand_clamped, _impossible, _ref_chain

# ---------------------------------------------------------------------------
# reference: the per-update loop


def _ref_posterior_gibbs(net, targets, evidence=None, samples=250, burn_in=100, seed=0):
    evidence = dict(evidence or {})
    _check_query(net, targets, evidence)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    if all(t in evidence for t in targets):
        return _expand_clamped(net, targets, evidence, [], np.array(1.0))

    free_targets = [t for t in targets if t not in evidence]
    counts = np.zeros(tuple(len(net.schema.domain(t)) for t in free_targets))
    for kept in _ref_chain(net, free_targets, evidence, samples, burn_in, seed):
        counts[kept] += 1.0

    probs = counts / float(samples)
    if len(free_targets) == len(targets):
        perm = [free_targets.index(t) for t in targets]
        domains = tuple(net.schema.domain(t) for t in targets)
        return JointDistribution(tuple(targets), domains, np.transpose(probs, perm))
    return _expand_clamped(net, targets, evidence, free_targets, probs)


# ---------------------------------------------------------------------------
# strategies

_seeds = st.one_of(
    st.integers(0, 2**32),
    st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
)


@st.composite
def _nets(draw):
    if draw(st.booleans()):
        return car_demo_net()
    return random_net(
        draw(st.integers(1, 7)),
        max_domain=draw(st.integers(2, 5)),
        seed=draw(st.integers(0, 10_000)),
        max_parents=draw(st.integers(0, 3)),
    )


@st.composite
def _queries(draw, net):
    attrs = list(net.schema.attributes)
    observed = draw(st.lists(st.sampled_from(attrs), unique=True, max_size=len(attrs)))
    evidence = {a: draw(st.sampled_from(net.schema.domain(a))) for a in observed}
    # targets may overlap the evidence, so some are clamped
    targets = draw(st.lists(st.sampled_from(attrs), unique=True, min_size=1, max_size=3))
    return targets, evidence


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ImpossibleEvidenceError as exc:
        return exc


def _assert_same(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert got.targets == want.targets
    assert got.domains == want.domains
    assert got.probs.shape == want.probs.shape
    assert np.array_equal(got.probs, want.probs)


# ---------------------------------------------------------------------------
# posterior_gibbs


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    burn_in=st.integers(0, 6),
    samples=st.integers(1, 40),
    seed=_seeds,
)
def test_posterior_matches_reference(data, burn_in, samples, seed):
    net = data.draw(_nets())
    targets, evidence = data.draw(_queries(net))
    kwargs = dict(samples=samples, burn_in=burn_in, seed=seed)
    _assert_same(
        _outcome(posterior_gibbs, net, targets, evidence, **kwargs),
        _outcome(_ref_posterior_gibbs, net, targets, evidence, **kwargs),
    )


@pytest.mark.parametrize("burn_in,samples", [(0, 1), (0, 300), (100, 250)])
def test_car_net_long_chains_match_reference(burn_in, samples):
    # long enough chains that nearly every update is a memo hit
    net = car_demo_net()
    for targets, evidence in [
        (["Model", "Body"], {"Make": "audi"}),
        (["Make", "Price"], {"Mileage": net.schema.domain("Mileage")[0]}),
        (["Year"], {}),
        (["Body", "Make"], {"Body": net.schema.domain("Body")[0]}),
    ]:
        for seed in (0, 7, (3, 41)):
            kwargs = dict(samples=samples, burn_in=burn_in, seed=seed)
            _assert_same(
                posterior_gibbs(net, targets, evidence, **kwargs),
                _ref_posterior_gibbs(net, targets, evidence, **kwargs),
            )


@pytest.mark.parametrize("clamped", [(), ("Year",), ("Make", "Year", "Price")])
def test_clamped_targets_are_laid_out_as_before(clamped):
    # no, a middle and every target clamped: the reference lays clamped axes
    # out by one-hot outer products and a permutation, its own way
    net = car_demo_net()
    evidence = {"Mileage": net.schema.domain("Mileage")[2]}
    evidence.update((t, net.schema.domain(t)[1]) for t in clamped)
    for seed in (0, 9):
        kwargs = dict(samples=60, burn_in=10, seed=seed)
        _assert_same(
            posterior_gibbs(net, ["Make", "Year", "Price"], evidence, **kwargs),
            _ref_posterior_gibbs(net, ["Make", "Year", "Price"], evidence, **kwargs),
        )


def _deterministic_net():
    # zero CPT entries: some rows' evidence is impossible
    s = Schema(("A", "B", "C"), {k: ("0", "1", "2") for k in "ABC"})
    shift = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.0, 0.5]])
    return BayesNet(
        s,
        {"B": ("A",), "C": ("B",)},
        {"A": np.array([0.0, 0.6, 0.4]), "B": shift, "C": shift},
    )


def test_deterministic_cpts_match_reference():
    # zero entries in the CPTs: draws land on flat stretches of the
    # cumulative weights, where bisect_right and searchsorted must agree
    net = _deterministic_net()
    for evidence in ({}, {"C": "2"}, {"B": "2"}):
        for seed in range(5):
            kwargs = dict(samples=60, burn_in=3, seed=seed)
            _assert_same(
                _outcome(posterior_gibbs, net, ["A", "B", "C"], evidence, **kwargs),
                _outcome(_ref_posterior_gibbs, net, ["A", "B", "C"], evidence, **kwargs),
            )


class _FixedUniforms:
    """A stand-in generator whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


@pytest.mark.parametrize("u", [0.0, float(np.nextafter(1.0, 0.0))])
def test_extreme_uniforms_match_reference(monkeypatch, u):
    # u = 0 lands exactly on the boundary after A's zero-weight first label,
    # where side="right" moves past it.  X's pairwise-summed total exceeds
    # its sequential cumsum, so the largest uniform below 1, scaled by the
    # total, passes the last boundary and the cap picks the last label.
    s = Schema(("A", "X"), {"A": ("0", "1", "2"), "X": tuple(f"v{i}" for i in range(9))})
    net = BayesNet(
        s,
        {},
        {"A": np.array([0.0, 0.5, 0.5]), "X": np.array([1.0] + [1e-16] * 7 + [0.0])},
    )
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _FixedUniforms(u))
    want = _ref_posterior_gibbs(net, ["A", "X"], samples=5, burn_in=2)
    _assert_same(posterior_gibbs(net, ["A", "X"], samples=5, burn_in=2), want)


# ---------------------------------------------------------------------------
# impute_table and impute_tuple with the Gibbs engine


def _ref_gibbs_combo(net, row, missing, gibbs, joint, seed):
    # the per-row path before chains shared a memo: one chain per target set,
    # so one per missing attribute in marginal mode
    g = gibbs or GibbsParams()
    evidence = {a: c for a, c in zip(net.schema.attributes, row.cells) if c is not None}
    combo = ()
    for targets in [missing] if joint else [(attr,) for attr in missing]:
        dist = _ref_posterior_gibbs(
            net, targets, evidence, samples=g.samples, burn_in=g.burn_in, seed=seed
        )
        combo += map_assignment(dist)
    return combo


def _ref_fill(net, row, seed, gibbs, joint):
    missing = tuple(a for a, c in zip(net.schema.attributes, row.cells) if c is None)
    if not missing:
        return row
    filled = dict(zip(missing, _ref_gibbs_combo(net, row, missing, gibbs, joint, seed)))
    cells = tuple(
        filled[a] if c is None else c for a, c in zip(net.schema.attributes, row.cells)
    )
    return Row(row.id, cells)


def _ref_impute_rows(net, table, gibbs, joint):
    return [_ref_fill(net, row, (gibbs.seed, row.id), gibbs, joint) for row in table.rows]


def _impute_rows(net, table, gibbs, joint):
    return list(impute_table(net, table, engine="gibbs", gibbs=gibbs, joint=joint)[0].rows)


def _refused(net, rows, want):
    # the reference's fill, or the error raised after it where the evidence
    # is impossible; an error the reference raises comes first
    if isinstance(want, Exception) or not _impossible(net, rows):
        return want
    return ImpossibleEvidenceError("impossible evidence: zero probability")


def _assert_same_fill(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert got == want


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    joint=st.booleans(),
    base_seed=st.integers(0, 1000),
)
def test_impute_table_matches_reference(data, joint, base_seed):
    # batches of up to 12 rows on small nets, so chains revisit blanket states
    # another row's chain stored in the shared memo
    net = data.draw(st.one_of(_nets(), st.just(_deterministic_net())))
    attrs = net.schema.attributes
    n = data.draw(st.integers(0, 12))
    rows = []
    for i in range(n):
        cells = tuple(
            data.draw(st.sampled_from((None,) + net.schema.domain(a))) for a in attrs
        )
        rows.append(Row(i + 1, cells))
    table = Table(net.schema, rows)
    params = GibbsParams(samples=20, burn_in=5, seed=base_seed)

    _assert_same_fill(
        _outcome(_impute_rows, net, table, params, joint),
        _refused(net, rows, _outcome(_ref_impute_rows, net, table, params, joint)),
    )
    for row in rows:
        _assert_same_fill(
            _outcome(impute_tuple, net, row, engine="gibbs", gibbs=params, joint=joint),
            _refused(net, [row], _outcome(_ref_fill, net, row, params.seed, params, joint)),
        )


@pytest.mark.parametrize("joint", [True, False])
def test_impute_table_impossible_rows_match_reference(joint):
    # impossible rows between possible ones that share their blanket states
    net = _deterministic_net()
    params = GibbsParams(samples=30, burn_in=4, seed=9)
    cases = [
        [Row(1, (None, None, "2")), Row(2, ("0", None, None))],
        [Row(1, (None, "2", None)), Row(2, (None, None, "2")), Row(3, ("1", None, "0"))],
        # A=1 with B=0 has probability 0, but no free variable's conditional
        # shows it, so the chain runs; then B=1 leaves A no possible value
        [Row(1, ("1", "0", None)), Row(2, (None, None, "1")), Row(3, (None, "1", "1"))],
        [Row(1, (None, None, None)), Row(2, (None, "1", None))],
    ]
    for rows in cases:
        table = Table(net.schema, rows)
        _assert_same_fill(
            _outcome(_impute_rows, net, table, params, joint),
            _refused(net, rows, _outcome(_ref_impute_rows, net, table, params, joint)),
        )


def _wide_chain():
    # 44 ternary attributes in a chain: the joint over a row's missing cells
    # has more than 2**63 entries, so no dense array over it can be built
    names = [f"X{i:02d}" for i in range(44)]
    rng = np.random.default_rng(3)
    net = BayesNet(
        Schema(names, {a: ("a", "b", "c") for a in names}),
        {b: (a,) for a, b in zip(names, names[1:])},
        {
            a: rng.dirichlet(np.ones(3), size=() if i == 0 else (3,)) * 0.9 + 0.1 / 3
            for i, a in enumerate(names)
        },
    )
    rows = [Row(1, (None,) * 44), Row(2, ("a",) + (None,) * 42 + ("c",))]
    return net, rows


def test_marginal_mode_never_builds_the_joint():
    # only per-attribute counts can serve
    net, rows = _wide_chain()
    params = GibbsParams(samples=15, burn_in=3, seed=4)
    assert _impute_rows(net, Table(net.schema, rows), params, False) == (
        _ref_impute_rows(net, Table(net.schema, rows), params, False)
    )
    for row in rows:
        got = impute_tuple(net, row, engine="gibbs", gibbs=params, joint=False)
        assert got == _ref_fill(net, row, params.seed, params, False)


def _ref_sparse_joint_fill(net, row, seed, gibbs):
    # the joint-mode fill read off the reference chain's kept states: the
    # most frequent, ties to the lexicographically smallest, which is what
    # map_assignment picks on the dense posterior
    missing = [a for a, c in zip(net.schema.attributes, row.cells) if c is None]
    evidence = {a: c for a, c in zip(net.schema.attributes, row.cells) if c is not None}
    counts = Counter(_ref_chain(net, missing, evidence, gibbs.samples, gibbs.burn_in, seed))
    best = min(counts, key=lambda state: (-counts[state], state))
    filled = {a: net.schema.domain(a)[c] for a, c in zip(missing, best)}
    return Row(row.id, tuple(filled.get(a, c) for a, c in zip(net.schema.attributes, row.cells)))


def test_joint_mode_never_builds_the_joint():
    # the joint-mode twin: the most frequent kept state is found without an
    # array over the 3**44 (or 3**42) joint states
    net, rows = _wide_chain()
    # a row with two missing cells, so kept states repeat and counts decide
    rows.append(Row(3, ("b",) * 20 + (None,) + ("a",) * 22 + (None,)))
    params = GibbsParams(samples=15, burn_in=3, seed=4)
    assert _impute_rows(net, Table(net.schema, rows), params, True) == [
        _ref_sparse_joint_fill(net, row, (params.seed, row.id), params) for row in rows
    ]
    for row in rows:
        got = impute_tuple(net, row, engine="gibbs", gibbs=params, joint=True)
        assert got == _ref_sparse_joint_fill(net, row, params.seed, params)
    # where the dense posterior fits, the sparse reference agrees with it
    assert _ref_sparse_joint_fill(net, rows[2], 11, params) == _ref_fill(
        net, rows[2], 11, params, True
    )


@pytest.mark.parametrize("joint", [True, False])
def test_one_topological_order_per_net(monkeypatch, joint):
    # the net computes its order once, when built; every chain of every call
    # reads it
    calls = []
    order = bayesnet._topological_order
    monkeypatch.setattr(
        bayesnet, "_topological_order", lambda parents: calls.append(1) or order(parents)
    )
    net = car_demo_net()
    attrs = net.schema.attributes
    rows = []
    for i in range(1, 6):
        gaps = {i % len(attrs), (i + 2) % len(attrs)}
        cells = tuple(None if j in gaps else net.schema.domain(a)[0] for j, a in enumerate(attrs))
        rows.append(Row(i, cells))
    params = GibbsParams(samples=5, burn_in=1, seed=2)
    impute_table(net, Table(net.schema, rows), engine="gibbs", gibbs=params, joint=joint)
    assert len(calls) == 1
    impute_tuple(net, rows[0], engine="gibbs", gibbs=params, joint=joint)
    impute_table(net, Table(net.schema, rows), engine="gibbs", gibbs=params, joint=joint)
    posterior_gibbs(net, ["Make"], samples=5, burn_in=1)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# chains split by Markov-blanket component


def _lone(net, free):
    # the free attributes that share no family with another free attribute,
    # so their whole Markov blanket is evidence
    families = [set(net.parents[a] + (a,)) for a in net.schema.attributes]
    return [a for a in free if all(a not in f or len(f & free) == 1 for f in families)]


@st.composite
def _split_free_sets(draw, net):
    # a free set holding a lone attribute and at least one other component
    attrs = net.schema.attributes
    free = set(draw(st.lists(st.sampled_from(attrs), unique=True, min_size=2)))
    lone = _lone(net, free)
    assume(lone)
    return [a for a in attrs if a in free], lone


@st.composite
def _split_nets(draw):
    if draw(st.booleans()):
        return car_demo_net()
    return random_net(
        draw(st.integers(3, 9)),
        max_domain=draw(st.integers(2, 4)),
        seed=draw(st.integers(0, 10_000)),
        max_parents=draw(st.integers(1, 2)),
    )


@settings(max_examples=120, deadline=None)
@given(data=st.data(), burn_in=st.integers(0, 6), samples=st.integers(1, 30), seed=_seeds)
def test_split_chains_match_reference(data, burn_in, samples, seed):
    net = data.draw(_split_nets())
    free, lone = data.draw(_split_free_sets(net))
    attrs = net.schema.attributes
    evidence = {
        a: data.draw(st.sampled_from(net.schema.domain(a))) for a in attrs if a not in free
    }
    # a lone target and others in any order, perhaps one clamped by evidence
    order = data.draw(st.permutations(free + list(evidence)[:1]))
    targets = list(dict.fromkeys([lone[0], *order[: data.draw(st.integers(0, len(order)))]]))
    kwargs = dict(samples=samples, burn_in=burn_in, seed=seed)
    _assert_same(
        _outcome(posterior_gibbs, net, targets, evidence, **kwargs),
        _outcome(_ref_posterior_gibbs, net, targets, evidence, **kwargs),
    )
    # rows missing exactly the free set, or a smaller set around the lone one
    params = GibbsParams(samples=samples, burn_in=burn_in, seed=data.draw(st.integers(0, 99)))
    rows = []
    for i, gaps in enumerate([set(free), set(free), {lone[0], free[-1]}]):
        cells = tuple(
            None if a in gaps else evidence.get(a) or net.schema.domain(a)[i % 2 - 1]
            for a in attrs
        )
        rows.append(Row(i + 1, cells))
    table = Table(net.schema, rows)
    for joint in (True, False):
        _assert_same_fill(
            _outcome(_impute_rows, net, table, params, joint),
            _outcome(_ref_impute_rows, net, table, params, joint),
        )


@pytest.mark.parametrize("joint", [True, False])
def test_lone_zero_conditional_errors_match_reference(joint):
    # A is lone with B observed; B=1 gives A's conditional no mass.  The
    # error must be the one the per-update loop raises in its first sweep,
    # whether a connected pair, another lone attribute or nothing else is free
    net = _deterministic_net()
    params = GibbsParams(samples=12, burn_in=2, seed=5)
    cases = [
        [Row(1, (None, "1", "0"))],
        [Row(1, (None, "1", None))],
        [Row(1, ("0", None, None)), Row(2, (None, "1", None))],
        [Row(1, ("2", "0", None)), Row(2, (None, "1", "0"))],
    ]
    for rows in cases:
        table = Table(net.schema, rows)
        want = _outcome(_ref_impute_rows, net, table, params, joint)
        assert isinstance(want, ImpossibleEvidenceError)
        _assert_same_fill(_outcome(_impute_rows, net, table, params, joint), want)
    for targets, evidence in [(["A"], {"B": "1"}), (["A", "C"], {"B": "1"})]:
        kwargs = dict(samples=12, burn_in=2, seed=5)
        want = _outcome(_ref_posterior_gibbs, net, targets, evidence, **kwargs)
        assert isinstance(want, ImpossibleEvidenceError)
        _assert_same(_outcome(posterior_gibbs, net, targets, evidence, **kwargs), want)


def test_lone_attributes_run_no_per_sweep_update(monkeypatch):
    # bisect_right draws only the connected attributes: one initial draw and
    # one per sweep each.  On the car net with Make and Year observed, Model,
    # Body and Price form one component and Mileage is lone
    net = car_demo_net()
    draws = []

    def counted(*args):
        draws.append(1)
        return bisect_right(*args)

    monkeypatch.setattr(inference, "bisect_right", counted)
    evidence = {"Make": "audi", "Year": net.schema.domain("Year")[0]}
    free = [a for a in net.schema.attributes if a not in evidence]
    assert _lone(net, set(free)) == ["Mileage"]
    dist = posterior_gibbs(net, free, evidence, samples=9, burn_in=4, seed=1)
    assert len(draws) == 3 * (1 + 9 + 4)
    _assert_same(dist, _ref_posterior_gibbs(net, free, evidence, samples=9, burn_in=4, seed=1))
    # the only free attribute is lone: no update at all
    draws.clear()
    others = {a: net.schema.domain(a)[0] for a in net.schema.attributes if a != "Mileage"}
    posterior_gibbs(net, ["Mileage"], others, samples=9, burn_in=4)
    impute_tuple(net, Row(1, tuple(others.get(a) for a in net.schema.attributes)), "gibbs")
    assert draws == []
