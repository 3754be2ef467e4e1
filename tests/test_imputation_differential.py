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
joint maximum (the near-tie test).

The second reference is the per-row exact engine that the table path
replaced, copied verbatim with its names prefixed ``_old``: one
``_ExactImputer`` per call with per-call memos, and a report built row by
row.  The table path groups rows by null pattern and computes one posterior
per distinct (component, blanket) key, with the same arithmetic, so fills,
every ``ImputationReport`` field but ``duration_seconds`` and
``ImpossibleEvidenceError`` must all be the same.  The Gibbs engine is
compared too, its chains run by ``test_gibbs_differential``'s per-update
reference loop: its accuracies now come from the same code-matrix scoring.
"""

import dataclasses
import time
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullbayes import (
    BayesNet,
    GibbsParams,
    ImpossibleEvidenceError,
    ImputationReport,
    Row,
    Schema,
    Table,
    impute_table,
    impute_tuple,
    map_assignment,
    posterior_exact,
    sample_rows,
)
from nullbayes import bayesnet, imputation, inference
from nullbayes.bayesnet import _blanket
from nullbayes.inference import _getter, _lex_argmax, _normalized, _product
from nullbayes.synth import car_demo_net, random_net

from conftest import _impossible, _old_blanket_product, _ref_chain, _striped_table, _with_zeros

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
    missing = _old_missing_attrs(net, row)
    if not missing:
        return row
    combo = _ref_map_combo(net, row, missing, "exact", None, joint, 0)
    return _old_fill(net, row, missing, combo)


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
    names = net.schema.attributes
    for row, codes in zip(table.rows, table._column_codes().T.tolist()):
        missing = _old_missing_attrs(net, row)
        if not missing:
            continue
        evidence = {a: c for a, c in zip(net.schema.attributes, row.cells) if c is not None}
        components = _components(net, missing)
        assert sorted(names[i] for plan in components for i in plan[0]) == sorted(missing)
        product = np.ones([1] * len(missing))
        for members, _, factors in components:
            attrs = tuple(names[i] for i in members)
            got = _normalized(_product(factors, codes))
            want = posterior_exact(net, attrs, evidence).probs
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            shape = [got.shape[attrs.index(a)] if a in attrs else 1 for a in missing]
            product = product * got.reshape(shape)
        whole = posterior_exact(net, missing, evidence).probs
        np.testing.assert_allclose(product, whole, rtol=0, atol=1e-12)


def _components(net, missing):
    return tuple(
        bayesnet._blanket_plan(net._families, members, net.cpts)
        for members in bayesnet._components(net._families, missing)
    )


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
    assert len(_components(net, ("A", "B", "C"))) == 2
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


# ---------------------------------------------------------------------------
# reference: the per-row engine, copied verbatim with names prefixed _old

def _old_missing_attrs(net: BayesNet, row: Row) -> tuple[str, ...]:
    return tuple(a for a, c in zip(net.schema.attributes, row.cells) if c is None)


def _old_fill(net: BayesNet, row: Row, missing: tuple[str, ...], combo: tuple[str, ...]) -> Row:
    filled = dict(zip(missing, combo))
    cells = tuple(
        filled[a] if c is None else c for a, c in zip(net.schema.attributes, row.cells)
    )
    return Row(row.id, cells)


def _old_check_engine(engine: str) -> None:
    if engine not in ("exact", "gibbs"):
        raise ValueError(f"unknown engine {engine!r}")


def _old_gibbs_combo(net, row, missing, gibbs, joint, seed) -> tuple[str, ...]:
    # one chain over every missing attribute; its free set, initial draw and
    # uniforms do not depend on the targets, so marginal mode counts each
    # attribute's values in the same chain.  The most frequent state (or
    # value), ties to the smallest, is map_assignment of the sampled
    # posterior, found without an array over the joint.  The chain is the
    # per-update reference loop, not the live sampler
    g = gibbs or GibbsParams()
    evidence = {a: c for a, c in zip(net.schema.attributes, row.cells) if c is not None}
    states = list(_ref_chain(net, missing, evidence, g.samples, g.burn_in, seed))
    codes = _old_mode(states) if joint else [_old_mode(column) for column in zip(*states)]
    return tuple(net.schema.domain(a)[c] for a, c in zip(missing, codes))


def _old_mode(values):
    # the most frequent value; max keeps the first, so ties go to the smallest
    counts = Counter(values)
    return max(sorted(counts), key=counts.__getitem__)


class _OldExactImputer:
    """Exact MAP fills of rows given as domain codes, for one net and mode.

    With every cell outside a row's missing set M observed, P(M | row)
    factorizes over the components C of M in the moral graph.  P(C | row) is
    the product of the CPTs of C and of C's children, sliced at their
    observed cells, which make up C's Markov blanket.  One instance serves
    one call and memoizes the components of each missing set, the sliced
    CPTs of each component and each component's fill by (C, blanket codes).
    """

    def __init__(self, net: BayesNet, joint: bool):
        self.net, self.joint = net, joint
        self.families = [net.parents[a] + (a,) for a in net.schema.attributes]
        # families whose CPT holds a zero: fully observed, the only other way
        # the evidence can be impossible
        pos = net.schema._index
        self.zeros = [
            (set(vs), net.cpts[vs[-1]], _getter([pos[v] for v in vs]))
            for vs in self.families
            if not net.cpts[vs[-1]].all()
        ]
        self.plans, self.factors, self.fills = {}, {}, {}

    def plan(self, missing: tuple[str, ...]) -> list[tuple[str, ...]]:
        """The components of ``missing`` in the moral graph."""
        if missing not in self.plans:
            groups = {a: {a} for a in missing}
            for vs in self.families:
                merged = set().union(*(groups[v] for v in vs if v in groups))
                for v in merged:
                    groups[v] = merged
            components = {id(g): tuple(a for a in missing if a in g) for g in groups.values()}
            self.plans[missing] = list(components.values())
        return self.plans[missing]

    def component(self, attrs: tuple[str, ...]):
        """A getter of C's blanket codes, and each CPT of C and of C's children
        transposed to (observed axes, C's axes) with a broadcast shape."""
        if attrs not in self.factors:
            pos, own, blanket = self.net.schema._index, [], set()
            for vs in self.families:
                if not any(v in attrs for v in vs):
                    continue
                seen = [k for k, v in enumerate(vs) if v not in attrs]
                inside = sorted(set(range(len(vs))) - set(seen), key=lambda k: attrs.index(vs[k]))
                cpt = self.net.cpts[vs[-1]]
                shape = tuple(cpt.shape[vs.index(a)] if a in vs else 1 for a in attrs)
                own.append((cpt.transpose(seen + inside), _getter([pos[vs[k]] for k in seen]), shape))
                blanket.update(pos[vs[k]] for k in seen)
            self.factors[attrs] = (_getter(sorted(blanket)), own)
        return self.factors[attrs]

    def posterior(self, attrs: tuple[str, ...], codes: list[int]):
        """P(attrs | the row's observed cells): one axis per member of attrs."""
        values = 1.0
        for cpt, observed, shape in self.component(attrs)[1]:
            values = values * cpt[observed(codes)].reshape(shape)
        z = float(values.sum())
        if z <= 0.0:
            raise ImpossibleEvidenceError("impossible evidence: zero probability")
        return values / z

    def fill(self, codes: list[int], missing: tuple[str, ...]) -> tuple[str, ...]:
        if any(cpt[get(codes)] == 0 for vs, cpt, get in self.zeros if vs.isdisjoint(missing)):
            raise ImpossibleEvidenceError("impossible evidence: zero probability")
        filled: dict[str, str] = {}
        for attrs in self.plan(missing):
            key = (attrs, self.component(attrs)[0](codes))
            if key not in self.fills:
                probs = self.posterior(attrs, codes)
                axes = range(probs.ndim)
                idx = _lex_argmax(probs) if self.joint else [
                    _lex_argmax(probs.sum(axis=tuple(j for j in axes if j != k)))[0] for k in axes
                ]
                self.fills[key] = [self.net.schema.domains[a][i] for a, i in zip(attrs, idx)]
            filled.update(zip(attrs, self.fills[key]))
        return tuple(filled[a] for a in missing)


def _old_impute_tuple(
    net: BayesNet,
    row: Row,
    engine: str = "exact",
    gibbs: GibbsParams | None = None,
    joint: bool = True,
) -> Row:
    """Return ``row`` with missing cells filled by MAP assignment.

    With ``joint`` (the default) the fill is the argmax of the joint
    posterior over all missing attributes; otherwise each missing attribute
    is filled with its own marginal argmax.  Non-null cells are never
    altered; a complete row is returned unchanged.
    """
    _old_check_engine(engine)
    missing = _old_missing_attrs(net, row)
    if not missing:
        return row
    if engine == "exact":
        codes = Table(net.schema, [row])._column_codes()[:, 0].tolist()
        combo = _OldExactImputer(net, joint).fill(codes, missing)
    else:
        combo = _old_gibbs_combo(net, row, missing, gibbs, joint, gibbs.seed if gibbs else 0)
    return _old_fill(net, row, missing, combo)


def _old_impute_table(
    net: BayesNet,
    table: Table,
    engine: str = "exact",
    gibbs: GibbsParams | None = None,
    joint: bool = True,
    truth: Table | None = None,
) -> tuple[Table, ImputationReport]:
    """Impute every incomplete tuple of ``table``.

    The exact engine fills each connected component of a tuple's missing
    attributes in the moral graph from its own posterior, memoized by
    (component, observed blanket values).  With the Gibbs engine
    each tuple gets its own chain seeded by (base seed, tuple id), making
    results independent of processing order; its chains share one memo of
    full conditionals, kept for this call.  ``truth`` must have the same
    schema and row ids; accuracy is measured over imputed cells only, and
    cells whose ground truth is itself null are left out of every
    denominator (a tuple counts as correct when all its gradeable cells
    match).
    """
    _old_check_engine(engine)
    if table.schema != net.schema:
        raise ValueError("table schema does not match the network")
    if truth is not None and truth.schema != table.schema:
        raise ValueError("ground-truth schema does not match the table")
    truth_by_id = {r.id: r for r in truth.rows} if truth is not None else None
    if truth_by_id is not None:
        for row in table.rows:
            if row.id not in truth_by_id:
                raise ValueError(f"ground truth is missing row id {row.id}")

    t0 = time.perf_counter()
    if engine == "exact":
        exact, codes = _OldExactImputer(net, joint), table._column_codes().T.tolist()
    out_rows: list[Row] = []
    cells_imputed: dict[str, int] = {}
    attr_hits: dict[str, int] = {}
    combo_totals: dict[tuple[str, ...], int] = {}
    combo_hits: dict[tuple[str, ...], int] = {}
    attr_scored: dict[str, int] = {}
    tuples_imputed = 0
    tuples_scored = 0
    cell_hits = 0
    cell_total = 0
    tuple_hits = 0
    base_seed = gibbs.seed if gibbs else 0

    for i, row in enumerate(table.rows):
        missing = _old_missing_attrs(net, row)
        if not missing:
            out_rows.append(row)
            continue
        tuples_imputed += 1
        if engine == "exact":
            combo = exact.fill(codes[i], missing)
        else:
            combo = _old_gibbs_combo(net, row, missing, gibbs, joint, (base_seed, row.id))
        new_row = _old_fill(net, row, missing, combo)
        out_rows.append(new_row)

        for attr in missing:
            cells_imputed[attr] = cells_imputed.get(attr, 0) + 1
        if truth_by_id is not None:
            true_row = truth_by_id[row.id]
            scored = 0
            row_hits = 0
            for attr in missing:
                actual = true_row.cells[net.schema.index(attr)]
                if actual is None:
                    continue  # no answer to grade against
                scored += 1
                cell_total += 1
                attr_scored[attr] = attr_scored.get(attr, 0) + 1
                if new_row.cells[net.schema.index(attr)] == actual:
                    cell_hits += 1
                    row_hits += 1
                    attr_hits[attr] = attr_hits.get(attr, 0) + 1
            if scored:
                tuples_scored += 1
                combo_totals[missing] = combo_totals.get(missing, 0) + 1
                if row_hits == scored:
                    tuple_hits += 1
                    combo_hits[missing] = combo_hits.get(missing, 0) + 1

    duration = time.perf_counter() - t0
    if truth_by_id is not None:
        cell_accuracy = cell_hits / cell_total if cell_total else 1.0
        tuple_accuracy = tuple_hits / tuples_scored if tuples_scored else 1.0
        attribute_accuracy = {
            a: attr_hits.get(a, 0) / n for a, n in sorted(attr_scored.items())
        }
        combination_accuracy = {
            c: combo_hits.get(c, 0) / n for c, n in sorted(combo_totals.items())
        }
    else:
        cell_accuracy = tuple_accuracy = None
        attribute_accuracy = combination_accuracy = None
    report = ImputationReport(
        tuples_total=len(table.rows),
        tuples_imputed=tuples_imputed,
        cells_imputed=dict(sorted(cells_imputed.items())),
        cell_accuracy=cell_accuracy,
        tuple_accuracy=tuple_accuracy,
        attribute_accuracy=attribute_accuracy,
        combination_accuracy=combination_accuracy,
        duration_seconds=duration,
    )
    return Table(table.schema, out_rows), report


# ---------------------------------------------------------------------------
# the table path against the per-row engine


_DIFF_NETS = _NETS + [_with_zeros(net, k) for k, net in enumerate(_NETS[:4])]


@st.composite
def _imputations(draw):
    """A net, a table mixing sampled and arbitrary rows (so keys repeat and
    evidence can be impossible) with drawn nulls, and maybe a ground truth,
    its rows shuffled and some of its cells null."""
    net = draw(st.sampled_from(_DIFF_NETS))
    attrs = net.schema.attributes
    base = sample_rows(net, 4, seed=draw(st.integers(0, 2**16))).rows
    rows, truth = [], []
    for i in range(1, draw(st.integers(0, 12)) + 1):
        if draw(st.booleans()):
            full = draw(st.sampled_from(base)).cells
        else:
            full = tuple(draw(st.sampled_from(net.schema.domains[a])) for a in attrs)
        nulls = draw(st.sets(st.integers(0, len(attrs) - 1), max_size=min(len(attrs), _MAX_MISSING)))
        hidden = draw(st.sets(st.integers(0, len(attrs) - 1), max_size=2))
        rows.append(Row(i, tuple(None if j in nulls else c for j, c in enumerate(full))))
        truth.append(Row(i, tuple(None if j in hidden else c for j, c in enumerate(full))))
    truth = Table(net.schema, draw(st.permutations(truth))) if draw(st.booleans()) else None
    return net, Table(net.schema, rows), truth


def _outcome(fn, *args, **kwargs):
    try:
        filled, report = fn(*args, **kwargs)
    except ImpossibleEvidenceError as exc:
        return str(exc)
    return filled.schema, filled.rows, dataclasses.replace(report, duration_seconds=0.0)


def _tuple_outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ImpossibleEvidenceError as exc:
        return str(exc)


_ENGINES = st.sampled_from([("exact", None), ("gibbs", GibbsParams(samples=5, burn_in=2, seed=3))])


@settings(max_examples=150, deadline=None)
@given(_imputations(), st.booleans(), _ENGINES)
def test_table_path_matches_the_per_row_engine(case, joint, engine):
    net, table, truth = case
    engine, gibbs = engine
    kwargs = dict(engine=engine, gibbs=gibbs, joint=joint, truth=truth)
    assert _outcome(impute_table, net, table, **kwargs) == _refused(
        engine, net, table.rows, _ungraded(_outcome(_old_impute_table, net, table, **kwargs))
    )
    for row in table.rows:
        assert _tuple_outcome(impute_tuple, net, row, engine, gibbs, joint) == _refused(
            engine, net, [row], _tuple_outcome(_old_impute_tuple, net, row, engine, gibbs, joint)
        )


def _ungraded(want):
    # the per-row engine reported cell and tuple accuracy 1.0 when no imputed
    # cell could be graded (its breakdown by attribute is then empty); the
    # table path reports None for both
    if isinstance(want, str) or want[2].cell_accuracy is None or want[2].attribute_accuracy:
        return want
    return (*want[:2], dataclasses.replace(want[2], cell_accuracy=None, tuple_accuracy=None))


def _refused(engine, net, rows, want):
    # the per-row Gibbs engine filled impossible evidence; the table path
    # refuses it after filling, as the exact engine always did
    if engine == "gibbs" and not isinstance(want, str) and _impossible(net, rows):
        return "impossible evidence: zero probability"
    return want


@pytest.mark.parametrize("engine", ["exact", "gibbs"])
@pytest.mark.parametrize("joint", [True, False])
def test_complete_and_empty_tables_match_the_per_row_engine(engine, joint):
    net = _NETS[2]
    complete = sample_rows(net, 6, seed=5)
    for table in (complete, Table(net.schema, [])):
        for truth in (None, table):
            kwargs = dict(engine=engine, joint=joint, truth=truth)
            got = _outcome(impute_table, net, table, **kwargs)
            assert got == _ungraded(_outcome(_old_impute_table, net, table, **kwargs))
            assert got[1] == table.rows
            assert got[2].cell_accuracy is got[2].tuple_accuracy is None  # nothing to grade


@pytest.mark.parametrize("engine", ["exact", "gibbs"])
@pytest.mark.parametrize("joint", [True, False])
def test_the_structure_cache_holds_no_cpts(joint, engine):
    # the same DAG and missing sets, first with positive CPTs, then with zeros
    net = _NETS[3]
    table = _striped_table(net)
    for variant in (net, _with_zeros(net, 11), net):
        assert _outcome(impute_table, variant, table, joint=joint, engine=engine) == _outcome(
            _old_impute_table, variant, table, joint=joint, engine=engine
        )


def _counted_plans(monkeypatch) -> list:
    """The sets C whose ``_blanket_plan`` is built from now on, in order."""
    calls = []

    def counted(families, members, cpts):
        calls.append(members)
        return bayesnet._blanket_plan(families, members, cpts)

    monkeypatch.setattr(inference, "_blanket_plan", counted)
    return calls


def _plans_built(monkeypatch, engine, joint):
    """The sets C whose ``_blanket_plan`` imputing a striped table builds on
    a net with an empty memo, then those that a second table call and a
    tuple call on the same net build."""
    calls = _counted_plans(monkeypatch)
    net = BayesNet(_NETS[3].schema, _NETS[3].parents, _NETS[3].cpts)
    table = _striped_table(net)
    params = GibbsParams(samples=10, burn_in=2, seed=3)
    impute_table(net, table, engine=engine, gibbs=params, joint=joint)
    first = list(calls)
    impute_table(net, table, engine=engine, gibbs=params, joint=joint)
    impute_tuple(net, table.rows[0], engine=engine, gibbs=params, joint=joint)
    return first, calls[len(first):]


@pytest.mark.parametrize("joint", [True, False])
def test_a_second_gibbs_call_builds_no_blanket_plan(monkeypatch, joint):
    # a chain plans each free variable alone, once per net: every attribute
    # is missing from some striped row
    first, later = _plans_built(monkeypatch, "gibbs", joint)
    assert sorted(first) == [(a,) for a in sorted(_NETS[3].schema.attributes)]
    assert later == []


@pytest.mark.parametrize("joint", [True, False])
def test_a_second_exact_call_builds_no_blanket_plan(monkeypatch, joint):
    # one plan per net and component of a row's missing set
    first, later = _plans_built(monkeypatch, "exact", joint)
    net, table = _NETS[3], _striped_table(_NETS[3])
    components = set()
    for row in table:
        missing = tuple(a for a, c in zip(net.schema.attributes, row.cells) if c is None)
        components.update(bayesnet._components(net._families, missing))
    assert sorted(first) == sorted(components)
    assert later == []


@pytest.mark.parametrize("engines", [("exact", "gibbs"), ("gibbs", "exact")])
def test_a_second_engine_call_builds_no_blanket_plan(monkeypatch, engines):
    # Make's component in exact imputation and Make's variable in a chain
    # are one set C, planned once per net whichever engine comes first
    calls = _counted_plans(monkeypatch)
    net = car_demo_net()
    hidden = net.schema.index("Make")
    table = Table(net.schema, [
        Row(r.id, tuple(None if j == hidden else c for j, c in enumerate(r.cells)))
        for r in sample_rows(net, 20, seed=4).rows
    ])
    for engine in engines:
        impute_table(net, table, engine=engine, gibbs=GibbsParams(samples=10, burn_in=2))
    assert calls == [("Make",)]


# ---------------------------------------------------------------------------
# blanket plans: the layout by ``_alignment`` against the transpose-and-reshape
# it replaced, and the product against the one-loop product that multiplied
# the blanket views before the one planner, all copied verbatim


@lru_cache(maxsize=1024)
def _old_blanket_plan(families, sizes: tuple[int, ...], members: tuple[str, ...]):
    """How to multiply out P(C | Markov blanket), C = ``members``, at a
    row's codes in the DAG of ``families`` (a net's ``_families``) over
    domains of ``sizes``: the CPTs of C's members and of their children,
    sliced at the observed cells (Koller & Friedman, §12.3.1).  It holds no
    CPTs.  Returns C's positions as a tuple and as a column index, the
    blanket's as a column index and their sizes, and per CPT its attribute,
    transpose to (observed axes, C's axes), getter of the observed codes
    from the row's, and shape of the transposed CPT with a unit axis for
    each member of C outside it, so that slicing it at the observed codes
    broadcasts over C's axes.
    """
    pos = {vs[-1]: i for i, vs in enumerate(families)}
    group = set(members)
    touching, outside = _blanket(families, group)

    # CPTs over fewer of C's members first, so the running product grows
    # late; then C's own, then by name: a lone variable's own CPT and then
    # its children's by name, as in a Gibbs update
    def rank(vs):
        return len(group.intersection(vs)), vs[-1] not in group, vs[-1]

    factors = []
    for vs in sorted(touching, key=rank):
        seen = [k for k, v in enumerate(vs) if v not in group]
        inside = sorted(set(range(len(vs))) - set(seen), key=lambda k: members.index(vs[k]))
        shape = tuple(sizes[pos[vs[k]]] for k in seen)
        shape += tuple(sizes[pos[a]] if a in vs else 1 for a in members)
        observed = _getter([pos[vs[k]] for k in seen])
        factors.append((vs[-1], tuple(seen + inside), observed, shape))
    at, blanket = tuple(pos[a] for a in members), sorted(pos[v] for v in outside)
    column = np.array(blanket, dtype=np.intp)[:, None]
    return at, np.array(at)[:, None], column, tuple(sizes[b] for b in blanket), tuple(factors)


def _old_cpt_views(net: BayesNet, factors):
    """A ``_blanket_plan``'s factors with each CPT transposed and reshaped
    as planned (a view: only unit axes are inserted), and its getter."""
    return [(net.cpts[a].transpose(order).reshape(shape), get) for a, order, get, shape in factors]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_blanket_plans_lay_out_the_cpts_as_before(data):
    net = random_net(
        data.draw(st.integers(1, 8)),
        max_domain=data.draw(st.integers(2, 4)),
        seed=data.draw(st.integers(0, 10_000)),
        max_parents=data.draw(st.integers(0, 3)),
    )
    attrs, sizes = net.schema.attributes, net.schema.sizes
    members = tuple(data.draw(st.lists(st.sampled_from(attrs), unique=True, min_size=1)))
    got = bayesnet._blanket_plan(net._families, members, net.cpts)
    want = _old_blanket_plan(net._families, sizes, members)
    assert got[0] == want[0] and got[1] == tuple(want[2][:, 0].tolist())
    (views, inputs, axis), = got[2]  # C's blanket is observed: one step, no sum
    assert len(views) == len(want[4]) and inputs == [] and axis is None
    codes = [data.draw(st.integers(0, n - 1)) for n in sizes]
    old_views = _old_cpt_views(net, want[4])
    for (view, get), (old_view, old_get), old in zip(views, old_views, want[4]):
        assert view.base is net.cpts[old[0]] or view is net.cpts[old[0]]  # the same CPT, a view
        assert view.shape == old_view.shape and np.array_equal(view, old_view)
        assert (get is None) == (old_get(codes) == ())  # no getter where no axis is observed
        at = () if get is None else get(codes)
        assert at == old_get(codes)
        assert np.array_equal(view[at], old_view[old_get(codes)])
    assert np.array_equal(_product(got[2], codes), _old_blanket_product(old_views, codes))
