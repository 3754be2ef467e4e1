"""Exact imputation keys every missing cell of a batch in one pass.

``imputation._impute_exact`` keys each missing cell by its Markov-blanket
component's slot and its column's blanket codes, groups the keys with one
sort and fills each group from the net's memo.  The reference below is the
path it replaced, copied verbatim: one ``np.unique`` round per component,
over the blanket planner and product of its day, also copied.
Both must fill the same cells with the same codes, store the same fills in
the net's memo (each component's in the same order), and refuse impossible
evidence at the same key, on fresh and warm nets, in joint and marginal mode.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullbayes import (
    BayesNet,
    ImpossibleEvidenceError,
    Row,
    Schema,
    Table,
    impute_table,
    sample_rows,
)
from nullbayes import imputation
from nullbayes.bayesnet import _alignment, _blanket, _blanket_plan, _components, _getter, _laid_out
from nullbayes.inference import _lex_argmax, _normalized
from nullbayes.synth import random_net
from nullbayes.tabular import _radix_key

from conftest import _fresh, _nets, _old_blanket_product


# the blanket planner, views and product the reference ran on before one
# planner, ``bayesnet._plan``, served exact inference, exact imputation and
# Gibbs, verbatim but for their names
def _old_blanket_plan(families, members: tuple[str, ...]):
    """How to multiply out P(C | Markov blanket), C = ``members``, at a
    row's codes in the DAG of ``families`` (a net's ``_families``): the CPTs
    of C's members and of their children, sliced at the observed cells
    (Koller & Friedman, §12.3.1).  It holds no CPTs.  Returns C's positions
    and the blanket's, sorted, as tuples, and per CPT its attribute, its
    ``_alignment`` on (observed axes, C's axes), so that slicing it at the
    observed codes broadcasts over C's axes, and a getter of the observed
    codes from the row's.
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
        observed = tuple(v for v in vs if v not in group)
        getter = _getter([pos[v] for v in observed])
        factors.append((vs[-1], *_alignment(vs, observed + members), getter))
    at, blanket = tuple(pos[a] for a in members), tuple(sorted(pos[v] for v in outside))
    return at, blanket, tuple(factors)


def _old_cpt_views(net: BayesNet, factors):
    """A ``_blanket_plan``'s factors: each CPT laid out as planned, and its getter."""
    return [(_laid_out(net.cpts[a], perm, index), get) for a, perm, index, get in factors]


def _old_impute_exact(net: BayesNet, joint: bool, codes: np.ndarray, patterns, pattern) -> None:
    """Fill the -1 cells of ``codes`` (``(d, n)``) with exact MAP values;
    ``pattern`` numbers each column's missing set in ``patterns``.  With the
    other cells observed, P(missing | row) is the product over the missing
    set's moral-graph components C of P(C | C's blanket): each C is filled
    from its own ``_blanket_plan``, once per distinct blanket key not yet
    in the net's memo, which keeps C's fills by (``joint``, blanket codes)."""
    by_pattern = np.split(np.argsort(pattern, kind="stable"), np.cumsum(np.bincount(pattern))[:-1])
    rows_of: dict = {}  # component -> its columns per pattern
    for missing, rows in zip(patterns, by_pattern):
        for component in _components(net._families, missing):
            rows_of.setdefault(component, []).append(rows)
    memo = net._memo.components
    for component, parts in rows_of.items():
        at, blanket, factors = _old_blanket_plan(net._families, component)
        radix = [net.schema.sizes[b] for b in blanket]
        at, blanket = np.array(at)[:, None], np.array(blanket, dtype=np.intp)[:, None]
        rows = np.concatenate(parts)
        _, first, inverse = np.unique(
            _radix_key(codes[blanket, rows], radix), return_index=True, return_inverse=True
        )
        if component not in memo:
            memo[component] = _old_cpt_views(net, factors), {}
        views, known = memo[component]
        fills = []
        distinct = codes[:, rows[first]]  # a column per distinct blanket key
        for observed, row_codes in zip(distinct[blanket[:, 0]].T.tolist(), distinct.T.tolist()):
            key = (joint, *observed)
            if key not in known:
                probs = _normalized(_old_blanket_product(views, row_codes))
                axes = range(probs.ndim)
                known[key] = _lex_argmax(probs) if joint else [
                    _lex_argmax(probs.sum(axis=tuple(j for j in axes if j != k)))[0] for k in axes
                ]
            fills.append(known[key])
        codes[at, rows] = np.array(fills, dtype=codes.dtype)[inverse].T


def _memo_state(net: BayesNet):
    # each component's fills, in the order they were stored; a refused batch
    # may leave an entry without fills, made before the refusal
    return {c: list(e[1].items()) for c, e in net._memo.components.items() if e[1]}


def _run(fill, net: BayesNet, joint: bool, codes: np.ndarray):
    """The filled codes and the memo after ``fill`` on a copy of ``codes``
    (incomplete columns only, as ``impute_table`` passes them), or the
    refusal and the memo it left."""
    out = codes.copy()
    try:
        fill(net, joint, out, *imputation._null_patterns(net.schema.attributes, out < 0))
    except ImpossibleEvidenceError as exc:
        return "refused", str(exc), _memo_state(net)
    return out.tolist(), _memo_state(net)


# ---------------------------------------------------------------------------
# ``test_net_memo``'s nets (Dirichlet, uniform for exact ties, or zero-holding
# for refusals; no edges gives empty blankets) and batches of incomplete
# columns with many null patterns


@st.composite
def _batches(draw, net):
    """A ``(d, n)`` code matrix, 1 <= n <= 16, each column missing at least
    one cell; observed cells from sampled rows (possible) or drawn freely."""
    sizes = net.schema.sizes
    base = sample_rows(net, 4, seed=draw(st.integers(0, 3)))._column_codes()
    columns = []
    for _ in range(draw(st.integers(1, 16))):
        if draw(st.booleans()):
            full = base[:, draw(st.integers(0, base.shape[1] - 1))].tolist()
        else:
            full = [draw(st.integers(0, n - 1)) for n in sizes]
        nulls = draw(st.sets(st.integers(0, len(sizes) - 1), min_size=1))
        columns.append([-1 if j in nulls else c for j, c in enumerate(full)])
    return np.array(columns, dtype=np.int32).T


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_one_pass_matches_one_round_per_component(data):
    net = data.draw(_nets())
    old, new = _fresh(net), _fresh(net)
    for _ in range(data.draw(st.integers(1, 4))):
        codes = data.draw(_batches(net))
        joint = data.draw(st.booleans())
        got = _run(imputation._impute_exact, new, joint, codes)
        assert got == _run(_old_impute_exact, old, joint, codes)
        # a warm net fills as a fresh one
        assert got[0] == _run(imputation._impute_exact, _fresh(net), joint, codes)[0]


# ---------------------------------------------------------------------------
# edges of the one-sort path


def _hub_net(children: int, size: int, seed: int) -> BayesNet:
    # H (two labels) with ``children`` children of ``size`` labels each
    names = [f"C{i:02d}" for i in range(children)]
    labels = [str(v) for v in range(size)]
    schema = Schema(["H", *names], {"H": ["0", "1"], **{c: labels for c in names}})
    rng = np.random.default_rng(seed)
    cpts = {"H": np.array([0.4, 0.6]), **{c: rng.dirichlet(np.ones(size), size=2) for c in names}}
    return BayesNet(schema, {c: ("H",) for c in names}, cpts)


@pytest.mark.parametrize("joint", [True, False])
def test_a_key_wider_than_63_bits_is_re_ranked(joint):
    net = _hub_net(25, 6, seed=3)
    _, blanket, _ = _blanket_plan(net._families, ("H",), net.cpts)
    assert math.prod(net.schema.sizes[b] + 1 for b in blanket) >= 2**63  # _radix_key must re-rank
    codes = sample_rows(net, 60, seed=1)._column_codes().copy()
    codes[0] = -1  # H missing everywhere
    codes[1, ::3] = -1  # and with C00 too, a second component: H and C00
    codes[:, 30:] = codes[:, :30]  # every key twice
    got = _run(imputation._impute_exact, _fresh(net), joint, codes)
    assert got == _run(_old_impute_exact, _fresh(net), joint, codes)
    assert [len(fills) for fills in got[1].values()] == [20, 10]


@pytest.mark.parametrize("joint", [True, False])
def test_a_batch_with_no_incomplete_row_fills_nothing(joint):
    # the engine is not entered: the output is the input, and nothing is stored
    net = random_net(6, seed=2, max_parents=2)
    for table in (sample_rows(net, 5, seed=0), Table(net.schema, [])):
        filled, report = impute_table(net, table, joint=joint)
        assert filled == table and report.tuples_imputed == 0
    assert not net._memo.components


def test_an_impossible_key_is_refused_and_stores_no_fill():
    # B's second label has probability zero under either label of A; C is
    # independent, so a batch has two components, and A's possible key
    # (B's first label) sorts before the impossible one
    s = Schema(["A", "B", "C"], {"A": ["0", "1"], "B": ["0", "1"], "C": ["0", "1"]})
    cpts = {
        "A": np.array([0.3, 0.7]),
        "B": np.array([[1.0, 0.0], [1.0, 0.0]]),
        "C": np.array([0.6, 0.4]),
    }
    net = BayesNet(s, {"B": ("A",)}, cpts)
    rows = [Row(1, (None, "0", None)), Row(2, (None, "1", "0")), Row(3, (None, "0", "1"))]
    table = Table(s, rows)
    for _ in range(2):
        with pytest.raises(ImpossibleEvidenceError):
            impute_table(net, table)
        assert net._memo.components[("A",)][1] == {(True, 0): (1,)}
    codes = table._column_codes()
    assert _run(imputation._impute_exact, _fresh(net), True, codes) == _run(
        _old_impute_exact, _fresh(net), True, codes
    )
    possible = Table(s, [rows[0], rows[2]])
    assert impute_table(net, possible)[0] == impute_table(_fresh(net), possible)[0]
