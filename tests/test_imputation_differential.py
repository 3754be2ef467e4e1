"""Differential tests: exact imputation per Markov-blanket component.

``impute_table`` and ``impute_tuple`` split a row's missing attributes into
the connected components of the moral graph restricted to them, and fill
each component from a small posterior over its observed blanket.  The
reference below is the earlier path, copied verbatim: one ``posterior_exact``
joint over every missing attribute given every observed cell (one marginal
per attribute with ``joint=False``).  Both sides break ties by
``map_assignment``'s rule, which treats entries within a relative 1e-9 of
the maximum as tied, so summation order cannot decide a tie.  The fills
must be identical, except where two components each hold such a near-tie:
the component path then stays within about 1e-9 per component of the
joint maximum (the last test).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullbayes import (
    BayesNet,
    Row,
    Schema,
    Table,
    impute_table,
    impute_tuple,
    map_assignment,
    posterior_exact,
    sample_rows,
)
from nullbayes import imputation
from nullbayes.synth import car_demo_net, random_net

# ---------------------------------------------------------------------------
# reference: the whole-row posterior


def _ref_posterior(net, targets, evidence, engine, gibbs, seed):
    if engine == "exact":
        return posterior_exact(net, targets, evidence)
    raise ValueError(f"unknown engine {engine!r}")


def _ref_map_combo(net, row, missing, engine, gibbs, joint, seed) -> tuple[str, ...]:
    evidence = {a: c for a, c in zip(net.schema.attributes, row.cells) if c is not None}
    if joint:
        return map_assignment(_ref_posterior(net, missing, evidence, engine, gibbs, seed))
    return tuple(
        map_assignment(_ref_posterior(net, (attr,), evidence, engine, gibbs, seed))[0]
        for attr in missing
    )


def _ref_impute(net, row, joint):
    missing = imputation._missing_attrs(net, row)
    if not missing:
        return row
    combo = _ref_map_combo(net, row, missing, "exact", None, joint, 0)
    return imputation._fill(net, row, missing, combo)


# ---------------------------------------------------------------------------
# cases: sampled rows (so the evidence is possible) with drawn null patterns

# small domains keep the reference's joint over up to 8 missing cells small
_NETS = [car_demo_net()] + [
    random_net(n, max_domain=3, seed=s) for n, s in ((3, 0), (6, 1), (12, 2), (20, 3))
]
_MAX_MISSING = 8


@st.composite
def _cases(draw):
    net = draw(st.sampled_from(_NETS))
    base = sample_rows(net, 4, seed=draw(st.integers(0, 2**16))).rows
    d = len(net.schema.attributes)
    picks = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(base) - 1),
                st.sets(st.integers(0, d - 1), max_size=min(d, _MAX_MISSING)),
            ),
            min_size=1,
            max_size=8,
        )
    )
    rows = [
        Row(i, tuple(None if j in nulls else c for j, c in enumerate(base[k].cells)))
        for i, (k, nulls) in enumerate(picks, start=1)
    ]
    return net, Table(net.schema, rows)


@settings(max_examples=60, deadline=None)
@given(_cases(), st.booleans())
def test_fills_match_whole_row_posterior(case, joint):
    net, table = case
    want = [_ref_impute(net, row, joint) for row in table.rows]
    assert list(impute_table(net, table, joint=joint)[0].rows) == want
    assert [impute_tuple(net, row, joint=joint) for row in table.rows] == want


@settings(max_examples=40, deadline=None)
@given(_cases())
def test_component_posteriors_factor_the_whole_row_posterior(case):
    net, table = case
    for row, codes in zip(table.rows, table._column_codes().T.tolist()):
        missing = imputation._missing_attrs(net, row)
        if not missing:
            continue
        evidence = {a: c for a, c in zip(net.schema.attributes, row.cells) if c is not None}
        imputer = imputation._ExactImputer(net, joint=True)
        components = imputer.plan(missing)
        assert sorted(a for attrs in components for a in attrs) == sorted(missing)
        product = np.ones([1] * len(missing))
        for attrs in components:
            got = imputer.posterior(attrs, codes)
            want = posterior_exact(net, attrs, evidence).probs
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            shape = [got.shape[attrs.index(a)] if a in attrs else 1 for a in missing]
            product = product * got.reshape(shape)
        whole = posterior_exact(net, missing, evidence).probs
        np.testing.assert_allclose(product, whole, rtol=0, atol=1e-12)


def _tied_net():
    """A and C tie at (v0, v1) and (v1, v0); B, a separate component, ties too.

    P(A) = P(B) = (0.5, 0.5); C is A's child with P(C | A=v0) = (0.25, 0.75)
    and P(C | A=v1) = (0.75, 0.25).  Every probability is a dyadic fraction,
    so both maxima are exactly equal.  The marginals of A, B and C are all
    uniform.
    """
    vs = ("v0", "v1")
    schema = Schema(("A", "B", "C"), {"A": vs, "B": vs, "C": vs})
    return BayesNet(
        schema,
        {"C": ("A",)},
        {
            "A": np.array([0.5, 0.5]),
            "B": np.array([0.5, 0.5]),
            "C": np.array([[0.25, 0.75], [0.75, 0.25]]),
        },
    )


@pytest.mark.parametrize("joint, fill", [(True, ("v0", "v0", "v1")), (False, ("v0", "v0", "v0"))])
def test_exact_ties_go_to_the_lexicographically_smallest_fill(joint, fill):
    net = _tied_net()
    row = Row(1, (None, None, None))
    assert len(imputation._ExactImputer(net, joint).plan(("A", "B", "C"))) == 2
    assert _ref_impute(net, row, joint).cells == fill
    assert impute_tuple(net, row, joint=joint).cells == fill
    assert impute_table(net, Table(net.schema, [row]), joint=joint)[0].rows[0].cells == fill


def _two_roots(gap_a, gap_b):
    """Independent roots A and B, two components: v1 is each one's maximum,
    and v0 lies a relative ``gap`` below it."""
    vs = ("v0", "v1")
    schema = Schema(("A", "B"), {"A": vs, "B": vs})
    prior = {a: np.array([1.0 - gap, 1.0]) / (2.0 - gap) for a, gap in (("A", gap_a), ("B", gap_b))}
    return BayesNet(schema, {}, prior)


_GAPS = st.one_of(st.floats(0.0, 0.9e-9), st.floats(1.1e-9, 3e-9))


@settings(max_examples=100, deadline=None)
@given(_GAPS, _GAPS)
def test_near_ties_in_two_components_stay_near_the_joint_maximum(gap_a, gap_b):
    net = _two_roots(gap_a, gap_b)
    row = Row(1, (None, None))
    fill = impute_tuple(net, row).cells
    # each component takes its own lexicographically smallest near-maximizer
    assert fill == tuple("v0" if gap < 1e-9 else "v1" for gap in (gap_a, gap_b))
    whole = posterior_exact(net, ("A", "B"), {}).probs
    assert whole[tuple(int(c == "v1") for c in fill)] >= whole.max() * (1 - 2e-9)
    # the whole-row rule agrees unless both gaps are within 1e-9 and their sum is not
    if gap_a + gap_b < 0.9e-9 or max(gap_a, gap_b) > 1.1e-9:
        assert _ref_impute(net, row, True).cells == fill
