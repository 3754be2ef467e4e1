"""Differential tests: model learning over the int-coded column matrix
against per-row reference implementations.

``sample_rows``, ``mine_afds``, ``fit_parameters``, ``fit_naive_bayes`` and
the structure scores count over ``Table``'s cached code matrix.  The
references below are the earlier per-row loops, one ``Row`` at a time, which
share none of that code.  The structure search runs against a verbatim copy
of the earlier hill climb.  Results must be equal (``==``), not merely close.
"""

import itertools
import math
import time
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nullbayes import (
    Afd,
    BayesNet,
    Row,
    Schema,
    StructureSearchConfig,
    Table,
    fit_naive_bayes,
    fit_parameters,
    learn_structure,
    mine_afds,
    sample_rows,
    uniform_cpts,
)
from nullbayes import bayesnet
from nullbayes.tabular import _value_counts

_LABELS = ("a", "b", "c", "d")

# ---------------------------------------------------------------------------
# references: the per-row loops


def _ref_sample_rows(net, n, seed):
    rng = np.random.default_rng(seed)
    schema = net.schema
    order = net.topological_order()
    pos = {a: schema.index(a) for a in schema.attributes}
    rows = []
    for i in range(n):
        cells = [None] * len(schema.attributes)
        drawn = {}
        for attr in order:
            idx = tuple(drawn[p] for p in net.parents[attr])
            weights = net.cpts[attr][idx]
            cum = np.cumsum(weights)
            j = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
            j = min(j, len(weights) - 1)
            drawn[attr] = j
            cells[pos[attr]] = schema.domain(attr)[j]
        rows.append(Row(1 + i, tuple(cells)))
    return Table(schema, rows)


def _ref_confidence(train, det, target):
    idx = [train.schema.index(a) for a in det]
    t_idx = train.schema.index(target)
    groups = {}
    total = 0
    for row in train.rows:
        key = tuple(row.cells[i] for i in idx)
        t_val = row.cells[t_idx]
        if t_val is None or any(v is None for v in key):
            continue
        total += 1
        groups.setdefault(key, Counter())[t_val] += 1
    if total == 0:
        return None
    kept = sum(max(counter.values()) for counter in groups.values())
    return kept / total


def _ref_mine_afds(train, max_lhs=2, min_confidence=0.0):
    attrs = train.schema.attributes
    out = []
    for target in attrs:
        others = [a for a in attrs if a != target]
        for size in range(1, max_lhs + 1):
            for det in itertools.combinations(sorted(others), size):
                conf = _ref_confidence(train, det, target)
                if conf is None or conf < min_confidence:
                    continue
                out.append(Afd(det, target, conf))
    out.sort(key=lambda r: (r.target, len(r.determining), r.determining))
    return out


def _ref_fit_parameters(structure, train, pseudo_count=1.0):
    schema = structure.schema
    cpts = {}
    for attr in schema.attributes:
        ps = structure.parents[attr]
        dom = schema.domain(attr)
        r = len(dom)
        shape = tuple(len(schema.domain(p)) for p in ps) + (r,)
        counts = np.zeros(shape, dtype=float)
        cols = [schema.index(p) for p in ps] + [schema.index(attr)]
        maps = [{v: i for i, v in enumerate(schema.domain(a))} for a in list(ps) + [attr]]
        for row in train.rows:
            vals = [row.cells[c] for c in cols]
            if any(v is None for v in vals):
                continue
            counts[tuple(m[v] for m, v in zip(maps, vals))] += 1.0
        smoothed = counts + pseudo_count
        totals = smoothed.sum(axis=-1, keepdims=True)
        zero = totals[..., 0] == 0
        if np.any(zero):
            smoothed[zero] = 1.0
            totals = smoothed.sum(axis=-1, keepdims=True)
        cpts[attr] = smoothed / totals
    return BayesNet(schema, structure.parents, cpts)


def _ref_naive_bayes_counts(train):
    schema = train.schema
    index = {a: schema.index(a) for a in schema.attributes}
    doms = {a: {v: i for i, v in enumerate(schema.domain(a))} for a in schema.attributes}
    class_counts = {a: np.zeros(len(schema.domain(a))) for a in schema.attributes}
    pair_counts = {
        (f, t): np.zeros((len(schema.domain(f)), len(schema.domain(t))))
        for f in schema.attributes
        for t in schema.attributes
        if f != t
    }
    for row in train.rows:
        for a in schema.attributes:
            v = row.cells[index[a]]
            if v is not None:
                class_counts[a][doms[a][v]] += 1.0
        for (f, t), arr in pair_counts.items():
            fv = row.cells[index[f]]
            tv = row.cells[index[t]]
            if fv is not None and tv is not None:
                arr[doms[f][fv], doms[t][tv]] += 1.0
    return class_counts, pair_counts


def _ref_complete_rows(train):
    schema = train.schema
    maps = [{v: i for i, v in enumerate(schema.domain(a))} for a in schema.attributes]
    rows = []
    for row in train.rows:
        if any(c is None for c in row.cells):
            continue
        rows.append([m[c] for m, c in zip(maps, row.cells)])
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(schema.attributes))


class _RefScores(bayesnet._LocalScores):
    """Local scores counted over an ``(N, d)`` row matrix, as before."""

    def __init__(self, rows, sizes, cfg):
        super().__init__(rows.T, sizes, cfg)
        self.rows = rows

    def _counts(self, y, parents):
        r = self.sizes[y]
        q = 1
        code = np.zeros(self.n, dtype=np.int64)
        for p in parents:
            code = code * self.sizes[p] + self.rows[:, p]
            q *= self.sizes[p]
        flat = np.bincount(code * r + self.rows[:, y], minlength=q * r)
        return flat.reshape(q, r).astype(float)


# the hill climb as it was before its one-loop rewrite, kept verbatim as the
# referee of the library's search


def _old_would_cycle(children, x, y):
    # adding edge x -> y closes a cycle iff x is reachable from y
    stack = [y]
    seen = {y}
    while stack:
        node = stack.pop()
        if node == x:
            return True
        for c in children[node]:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return False


def _old_hill_climb(start, scores, cfg, deadline):
    n = len(scores.sizes)
    parents = {y: set(ps) for y, ps in start.items()}
    children = {i: set() for i in range(n)}
    for y, ps in parents.items():
        for p in ps:
            children[p].add(y)
    local = {y: scores.local(y, frozenset(parents[y])) for y in range(n)}
    total = sum(local.values())

    for _ in range(cfg.max_iterations):
        if deadline is not None and time.monotonic() > deadline:
            break
        best_delta = 0.0
        best_key = None
        best_apply = None
        for x in range(n):
            for y in range(n):
                if x == y:
                    continue
                if x not in parents[y]:
                    # add x -> y
                    if len(parents[y]) < cfg.max_in_degree and not _old_would_cycle(children, x, y):
                        delta = scores.local(y, frozenset(parents[y] | {x})) - local[y]
                        key = (x, y, 0)
                        if _old_better(delta, key, best_delta, best_key):
                            best_delta, best_key = delta, key
                            best_apply = ("add", x, y)
                else:
                    # delete x -> y
                    delta = scores.local(y, frozenset(parents[y] - {x})) - local[y]
                    key = (x, y, 1)
                    if _old_better(delta, key, best_delta, best_key):
                        best_delta, best_key = delta, key
                        best_apply = ("del", x, y)
                    # reverse x -> y
                    if len(parents[x]) < cfg.max_in_degree:
                        children[x].discard(y)  # probe acyclicity without x -> y
                        cycles = _old_would_cycle(children, y, x)
                        children[x].add(y)
                        if not cycles:
                            delta = (
                                scores.local(y, frozenset(parents[y] - {x}))
                                - local[y]
                                + scores.local(x, frozenset(parents[x] | {y}))
                                - local[x]
                            )
                            key = (x, y, 2)
                            if _old_better(delta, key, best_delta, best_key):
                                best_delta, best_key = delta, key
                                best_apply = ("rev", x, y)
        if best_apply is None or best_delta <= bayesnet._TIE_TOL:
            break
        op, x, y = best_apply
        if op == "add":
            parents[y].add(x)
            children[x].add(y)
        elif op == "del":
            parents[y].discard(x)
            children[x].discard(y)
        else:
            parents[y].discard(x)
            children[x].discard(y)
            parents[x].add(y)
            children[y].add(x)
            local[x] = scores.local(x, frozenset(parents[x]))
        local[y] = scores.local(y, frozenset(parents[y]))
        total = sum(local.values())
    return parents, total


def _old_better(delta, key, best_delta, best_key):
    if best_key is None:
        return delta > bayesnet._TIE_TOL
    if delta > best_delta + bayesnet._TIE_TOL:
        return True
    if delta >= best_delta - bayesnet._TIE_TOL and key < best_key:
        return True
    return False


def _ref_learned_parents(train, cfg):
    """learn_structure's search, by the old climber over the reference
    scores; None if it would refuse."""
    data = _ref_complete_rows(train)
    dropped = len(train.rows) - data.shape[0]
    if dropped > 0.5 * len(train.rows) or data.shape[0] < 2:
        return None
    sizes = [len(train.schema.domain(a)) for a in train.schema.attributes]
    scores = _RefScores(data, sizes, cfg)
    n = len(sizes)
    best_parents, best_score = None, -math.inf
    for restart in range(cfg.restarts):
        if restart == 0:
            start = {i: set() for i in range(n)}
        else:
            start = bayesnet._random_start(
                n, cfg.max_in_degree, np.random.default_rng([cfg.seed, restart])
            )
        parents, score = _old_hill_climb(start, scores, cfg, None)
        if best_parents is None or score > best_score + bayesnet._TIE_TOL:
            best_parents, best_score = parents, score
    attrs = train.schema.attributes
    return {attrs[y]: tuple(sorted(attrs[p] for p in ps)) for y, ps in best_parents.items()}


# ---------------------------------------------------------------------------
# generators


@st.composite
def schemas(draw, max_attrs=4):
    n_attrs = draw(st.integers(1, max_attrs))
    attrs = [f"A{i}" for i in range(n_attrs)]
    domains = {
        a: draw(st.lists(st.sampled_from(_LABELS), min_size=1, max_size=4, unique=True))
        for a in attrs
    }
    return Schema(attrs, domains)


@st.composite
def tables(draw, max_attrs=4, max_rows=30):
    """Random tables with nulls; some columns are all null, some have no nulls."""
    schema = draw(schemas(max_attrs))
    n_rows = draw(st.integers(0, max_rows))
    null_share = {a: draw(st.sampled_from((0.0, 0.2, 0.5, 1.0))) for a in schema.attributes}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for i in range(n_rows):
        cells = tuple(
            None if rng.random() < null_share[a] else str(rng.choice(schema.domain(a)))
            for a in schema.attributes
        )
        rows.append(Row(i + 1, cells))
    return Table(schema, rows)


def _random_parents(draw, attrs, max_in_degree=2):
    order = draw(st.permutations(attrs))
    parents = {}
    for pos, attr in enumerate(order):
        pool = sorted(order[:pos])
        k = draw(st.integers(0, min(max_in_degree, len(pool))))
        parents[attr] = tuple(draw(st.permutations(pool))[:k])
    return parents


@st.composite
def nets(draw):
    """Random DAGs with random CPTs, some entries exactly zero."""
    schema = draw(schemas())
    parents = _random_parents(draw, schema.attributes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cpts = {}
    for attr, shape in ((a, c.shape) for a, c in uniform_cpts(schema, parents).items()):
        weights = rng.random(shape) * (rng.random(shape) < 0.8)
        weights[..., -1] += weights.sum(axis=-1) == 0  # no all-zero row
        cpts[attr] = weights / weights.sum(axis=-1, keepdims=True)
    return BayesNet(schema, parents, cpts)


@st.composite
def code_matrices(draw, max_attrs=6, max_rows=40):
    """Null-free ``(d, N)`` code matrices and their domain sizes; some
    columns copy an earlier one, so that moves tie."""
    sizes = [draw(st.integers(1, 3)) for _ in range(draw(st.integers(1, max_attrs)))]
    n_rows = draw(st.integers(2, max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = np.stack([rng.integers(0, size, n_rows) for size in sizes])
    for j in range(1, len(sizes)):
        if draw(st.booleans()):
            i = draw(st.integers(0, j - 1))
            data[j], sizes[j] = data[i], sizes[i]
    return data, sizes


@st.composite
def structures_over(draw, table):
    parents = _random_parents(draw, table.schema.attributes)
    return BayesNet(table.schema, parents, uniform_cpts(table.schema, parents))


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=60, deadline=None)
@given(net=nets(), n=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_sample_rows_matches_scalar_draws(net, n, seed):
    assert sample_rows(net, n, seed) == _ref_sample_rows(net, n, seed)


@settings(max_examples=60, deadline=None)
@given(
    train=tables(),
    max_lhs=st.integers(1, 3),
    min_confidence=st.sampled_from((0.0, 0.5, 0.9)),
)
def test_mine_afds_matches_reference(train, max_lhs, min_confidence):
    assert mine_afds(train, max_lhs, min_confidence) == _ref_mine_afds(
        train, max_lhs, min_confidence
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data(), pseudo_count=st.sampled_from((0, 0.0, 0.5, 1.0, 2)))
def test_fit_parameters_matches_reference(data, pseudo_count):
    train = data.draw(tables())
    structure = data.draw(structures_over(train))
    got = fit_parameters(structure, train, pseudo_count)
    want = _ref_fit_parameters(structure, train, pseudo_count)
    assert got == want


@settings(max_examples=60, deadline=None)
@given(train=tables())
def test_fit_naive_bayes_matches_reference(train):
    model = fit_naive_bayes(train)
    class_counts, pair_counts = _ref_naive_bayes_counts(train)
    assert model._class_counts.keys() == class_counts.keys()
    for a, want in class_counts.items():
        got = model._class_counts[a]
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert list(model._pair_counts) == list(pair_counts)
    for key, want in pair_counts.items():
        got = model._pair_counts[key]
        assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(
    train=tables(max_rows=40),
    score=st.sampled_from(("bic", "bdeu")),
    restarts=st.integers(1, 3),
)
def test_learn_structure_matches_reference(train, score, restarts):
    cfg = StructureSearchConfig(score=score, restarts=restarts, seed=7)
    want = _ref_learned_parents(train, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if want is None:
            with pytest.raises(ValueError):
                learn_structure(train, cfg)
            return
        got = learn_structure(train, cfg)
    assert got.parents == want


@settings(max_examples=150, deadline=None)
@given(
    matrix=code_matrices(),
    max_in_degree=st.integers(0, 3),
    max_iterations=st.sampled_from((0, 1, 2, 200)),
    score=st.sampled_from(("bic", "bdeu")),
    seed=st.integers(0, 2**32 - 1),
)
# three copies of one column: from this seed's first random start the climb
# reverses an edge, which a cycle probe that keeps ``x -> y`` would refuse
@example(
    matrix=(np.array([[0, 1], [0, 1], [0, 1]]), [2, 2, 2]),
    max_in_degree=3,
    max_iterations=200,
    score="bic",
    seed=784759365,
)
def test_hill_climb_matches_old_climber(matrix, max_in_degree, max_iterations, score, seed):
    data, sizes = matrix
    cfg = StructureSearchConfig(
        max_in_degree=max_in_degree, max_iterations=max_iterations, score=score
    )
    n = len(sizes)
    rng = np.random.default_rng(seed)
    starts = [{i: set() for i in range(n)}]
    starts += [bayesnet._random_start(n, max_in_degree, rng) for _ in range(2)]
    for start in starts:
        got = bayesnet._hill_climb(start, bayesnet._LocalScores(data, sizes, cfg), cfg, None)
        want = _old_hill_climb(start, bayesnet._LocalScores(data, sizes, cfg), cfg, None)
        assert got == want


@settings(max_examples=40, deadline=None)
@given(train=tables(max_rows=40))
def test_local_score_counts_match_reference(train):
    rows = _ref_complete_rows(train)
    sizes = [len(train.schema.domain(a)) for a in train.schema.attributes]
    cfg = StructureSearchConfig()
    new = bayesnet._LocalScores(np.ascontiguousarray(rows.T), sizes, cfg)
    ref = _RefScores(rows, sizes, cfg)
    d = len(sizes)
    for y in range(d):
        others = [v for v in range(d) if v != y]
        for k in range(3):
            for parents in itertools.combinations(others, k):
                got, want = new._counts(y, parents), ref._counts(y, parents)
                assert got.dtype == want.dtype and np.array_equal(got, want)
                if len(rows) >= 2:  # learn_structure's minimum
                    assert new.local(y, frozenset(parents)) == ref.local(y, frozenset(parents))


def test_mine_afds_with_a_determining_domain_beyond_int64():
    """Four determining attributes of 60k labels each: 60000**4 > 2**63."""
    labels = [f"v{i:05d}" for i in range(60_000)]
    attrs = ("A", "B", "C", "D", "E")
    schema = Schema(attrs, {a: labels for a in attrs})
    assert math.prod(len(schema.domain(a)) for a in attrs[:4]) > 2**63
    rng = np.random.default_rng(3)
    rows = []
    for i in range(300):
        cells = []
        for j in range(len(attrs)):
            # the first two columns repeat a few values, so groups collide
            pool = 3 if j < 2 else 60_000
            cells.append(None if rng.random() < 0.1 else labels[int(rng.integers(pool))])
        rows.append(Row(i, tuple(cells)))
    train = Table(schema, rows)
    assert mine_afds(train, max_lhs=4) == _ref_mine_afds(train, max_lhs=4)


def test_empty_and_all_null_tables():
    """The edge cases the generators reach only sometimes, pinned."""
    schema = Schema(("A", "B", "C"), {"A": ("x",), "B": ("p", "q"), "C": ("u", "v", "w")})
    structure = BayesNet(schema, {"C": ("A", "B")}, uniform_cpts(schema, {"C": ("A", "B")}))
    empty = Table(schema, [])
    all_null = Table(schema, [Row(1, (None, "p", None)), Row(2, ("x", None, None))])
    assert sample_rows(structure, 0, 1) == empty == _ref_sample_rows(structure, 0, 1)
    for train in (empty, all_null):
        assert mine_afds(train, 2) == _ref_mine_afds(train, 2)
        for pseudo_count in (0.0, 1.0):
            want = _ref_fit_parameters(structure, train, pseudo_count)
            assert fit_parameters(structure, train, pseudo_count) == want
        class_counts, pair_counts = _ref_naive_bayes_counts(train)
        model = fit_naive_bayes(train)
        assert all(np.array_equal(model._class_counts[a], c) for a, c in class_counts.items())
        assert all(np.array_equal(model._pair_counts[k], c) for k, c in pair_counts.items())


# ---------------------------------------------------------------------------
# the counting step: ``_value_counts`` keys rows with ``_radix_key``; the
# reference is its own mixed-radix loop as it was before, verbatim


def _old_value_counts(codes: np.ndarray, sizes, observed: bool = False):
    keep = (codes >= 0).all(axis=0)
    n = int(np.count_nonzero(keep))
    key = np.zeros(n, dtype=np.int64)
    radix = 1
    for col, size in zip(codes, sizes):
        key = key * size + col[keep]
        radix *= size
        seen = None
        if observed and radix > n:
            seen, key = np.unique(key, return_inverse=True)
            radix = len(seen)
    counts = np.bincount(key, minlength=radix)
    if not observed:
        return counts.reshape(tuple(sizes))
    if seen is None:
        seen = np.flatnonzero(counts)
        counts = counts[seen]
    return seen // sizes[-1], counts


@st.composite
def counted_columns(draw):
    """``(k, N)`` codes with nulls, 1-4 columns of domain sizes 1-40 (wide
    enough that observed counting re-ranks), and zero rows sometimes."""
    sizes = [draw(st.integers(1, 40)) for _ in range(draw(st.integers(1, 4)))]
    n_rows = draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    null_share = draw(st.sampled_from((0.0, 0.1, 0.5)))
    codes = np.stack([rng.integers(0, size, n_rows) for size in sizes]).astype(np.int32)
    codes[rng.random(codes.shape) < null_share] = -1
    return codes, sizes


@settings(max_examples=300, deadline=None)
@given(columns=counted_columns())
def test_value_counts_match_the_old_radix_loop(columns):
    codes, sizes = columns
    got, want = _value_counts(codes, sizes), _old_value_counts(codes, sizes)
    assert got.shape == want.shape and (got == want).all()
    (groups, counts), (old_groups, old_counts) = (
        _value_counts(codes, sizes, observed=True), _old_value_counts(codes, sizes, observed=True)
    )
    assert counts.shape == old_counts.shape and (counts == old_counts).all()
    # re-ranking at other digits numbers the groups differently, but their
    # boundaries, all that mine_afds reads, are the same
    assert np.array_equal(np.diff(groups) != 0, np.diff(old_groups) != 0)


def test_observed_counts_stay_within_the_row_count(monkeypatch):
    # two near-unique columns: a key range of n * n, counted over n rows
    n = 300
    rng = np.random.default_rng(0)
    codes = np.stack([rng.permutation(50_000)[:n], rng.permutation(50_000)[:n]]).astype(np.int32)
    bincount = np.bincount

    def bounded_bincount(x, *args, **kwargs):
        # checked before the real call, which would allocate the whole range
        assert x.max(initial=-1) + 1 <= n + 1
        assert kwargs.get("minlength", 0) <= n + 1
        return bincount(x, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", bounded_bincount)
    groups, counts = _value_counts(codes, [50_000, 50_000], observed=True)
    assert len(counts) == n and (counts == 1).all()
    old_groups, old_counts = _old_value_counts(codes, [50_000, 50_000], observed=True)
    assert (counts == old_counts).all()
    assert np.array_equal(np.diff(groups) != 0, np.diff(old_groups) != 0)
