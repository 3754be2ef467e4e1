"""Discrete Bayesian networks over table schemas.

A network is a DAG over the schema's attributes plus one conditional
probability table per attribute.  CPT axes are ordered (parent_1, ...,
parent_k, attribute), parents sorted by name, each axis indexed in domain
(= lexicographic label) order.  Structure is learned by greedy hill
climbing with random restarts under a local decomposable score (BIC or
BDeu); parameters by smoothed counting.
"""

from __future__ import annotations

import itertools
import math
import re
import time
import warnings
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cache, lru_cache
from operator import itemgetter
from types import MappingProxyType, SimpleNamespace

import numpy as np

from .tabular import Schema, Table, _check_count, _check_scale, _radix_key
from .tabular import _value_counts

__all__ = [
    "BayesNet",
    "ModelFormatError",
    "StructureSearchConfig",
    "learn_structure",
    "fit_parameters",
    "markov_blanket",
    "d_separated",
    "save_model",
    "load_model",
    "sample_rows",
]

_ROW_SUM_TOL = 1e-9


class ModelFormatError(ValueError):
    """Raised when serialized model text cannot be decoded."""


class BayesNet:
    """Immutable DAG + CPTs over a schema.

    Parameters
    ----------
    schema : Schema
    parents : mapping from attribute to an iterable of parent attributes.
        Attributes absent from the mapping are roots.
    cpts : mapping from attribute to an ndarray of shape
        (|dom(p1)|, ..., |dom(pk)|, |dom(X)|) with parents in sorted-name
        order.  Rows (last axis) must sum to 1 within 1e-9 and be
        non-negative.

    ``_families`` holds each attribute's parents, then the attribute, in
    schema order: the DAG in names only, the key of ``_components``' cache.
    ``_zeros`` holds the families whose CPT holds a zero: observed in full,
    one of those can make evidence impossible.

    ``cpts`` is a read-only mapping of read-only arrays, so ``_memo`` keeps
    what inference derives from them, filled lazily and read by ``inference``
    alone: per set C (an exact component or a Gibbs variable) one
    ``inference._entry`` for both engines, and per (free targets, evidence
    attributes) ``posterior_exact``'s plan.  It lives and dies with the net:
    a pickle or copy holds the schema, parents and CPTs only.
    """

    __slots__ = ("schema", "parents", "cpts", "_order", "_families", "_zeros", "_memo")

    def __init__(
        self,
        schema: Schema,
        parents: Mapping[str, Iterable[str]],
        cpts: Mapping[str, np.ndarray],
    ):
        self.schema = schema
        for attr in parents:
            schema.index(attr)
        fixed: dict[str, tuple[str, ...]] = {}
        for attr in schema.attributes:
            ps = tuple(sorted(parents.get(attr, ())))
            for p in ps:
                schema.index(p)
                if p == attr:
                    raise ValueError(f"{attr!r} cannot be its own parent")
            if len(set(ps)) != len(ps):
                raise ValueError(f"duplicate parent for {attr!r}")
            fixed[attr] = ps
        self.parents: dict[str, tuple[str, ...]] = fixed
        self._order = _topological_order(fixed)
        self._families = tuple(fixed[a] + (a,) for a in schema.attributes)
        tables: dict[str, np.ndarray] = {}
        for attr, family in zip(schema.attributes, self._families):
            if attr not in cpts:
                raise ValueError(f"no CPT for {attr!r}")
            want = tuple(schema.sizes[schema.index(v)] for v in family)
            arr = np.array(cpts[attr], dtype=float)
            if arr.shape != want:
                raise ValueError(f"CPT for {attr!r} has shape {arr.shape}, expected {want}")
            if np.any(arr < 0):
                raise ValueError(f"CPT for {attr!r} has negative entries")
            sums = arr.sum(axis=-1)
            if not np.allclose(sums, 1.0, rtol=0, atol=_ROW_SUM_TOL):
                raise ValueError(f"CPT rows for {attr!r} do not sum to 1")
            arr.flags.writeable = False
            tables[attr] = arr
        self.cpts: Mapping[str, np.ndarray] = MappingProxyType(tables)
        self._zeros = tuple(vs for vs in self._families if not tables[vs[-1]].all())
        self._memo = SimpleNamespace(components={}, posteriors={})

    def __reduce__(self):
        return type(self), (self.schema, self.parents, dict(self.cpts))

    def children(self, attr: str) -> tuple[str, ...]:
        self.schema.index(attr)
        return tuple(sorted(vs[-1] for vs in self._families if attr in vs[:-1]))

    def topological_order(self) -> list[str]:
        return list(self._order)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BayesNet)
            and self.schema == other.schema
            and self.parents == other.parents
            and all(np.array_equal(self.cpts[a], other.cpts[a]) for a in self.schema.attributes)
        )

    def __repr__(self) -> str:
        edges = sum(len(ps) for ps in self.parents.values())
        return f"BayesNet({len(self.schema.attributes)} nodes, {edges} edges)"


def _topological_order(parents: Mapping[str, tuple[str, ...]]) -> tuple[str, ...]:
    """Parents before children, each layer in sorted order; a cycle has none."""
    order: list[str] = []
    remaining = {a: set(ps) for a, ps in parents.items()}
    while remaining:
        ready = sorted(a for a, ps in remaining.items() if not ps)
        if not ready:
            raise ValueError("parent graph has a cycle")
        for a in ready:
            order.append(a)
            del remaining[a]
        for ps in remaining.values():
            ps.difference_update(ready)
    return tuple(order)


def uniform_cpts(schema: Schema, parents: Mapping[str, Iterable[str]]) -> dict[str, np.ndarray]:
    """Uniform placeholder CPTs for a given structure."""
    out = {}
    for attr in schema.attributes:
        ps = tuple(sorted(parents.get(attr, ())))
        shape = tuple(schema.sizes[schema.index(a)] for a in (*ps, attr))
        out[attr] = np.full(shape, 1.0 / shape[-1])
    return out


# ---------------------------------------------------------------------------
# structure learning


@dataclass(frozen=True)
class StructureSearchConfig:
    """Knobs for greedy structure search.

    score is "bic" or "bdeu" (the latter uses ``ess`` as equivalent sample
    size).  ``restarts`` counts hill climbs: the first starts from the empty
    graph, the rest from seeded random DAGs.  ``time_limit`` (seconds) cuts
    the search off, keeping the best network found so far.
    """

    max_in_degree: int = 2
    restarts: int = 3
    max_iterations: int = 200
    score: str = "bic"
    ess: float = 1.0
    seed: int = 0
    time_limit: float | None = None

    def __post_init__(self) -> None:
        least = {"max_in_degree": 0, "restarts": 1, "max_iterations": 0, "seed": 0}
        for name, low in least.items():
            _check_count(name, getattr(self, name), low)
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ValueError("time_limit must be >= 0")
        if self.score not in ("bic", "bdeu"):
            raise ValueError(f"unknown score {self.score!r}")
        if self.score == "bdeu" and not self.ess > 0:
            raise ValueError("ess must be positive")
        if self.score == "bdeu" and self.ess == math.inf:
            raise ValueError("ess must be finite")


def _family_counts(
    data: np.ndarray, sizes: Sequence[int], y: int, parents: tuple[int, ...]
) -> np.ndarray:
    """Counts of ``y``'s codes in the ``(d, N)`` code matrix ``data``, one row
    per joint code of ``parents``: a ``(q, r)`` float array."""
    family = [*parents, y]
    counts = _value_counts(data[family], [sizes[v] for v in family])
    return counts.reshape(-1, sizes[y]).astype(float)


def _local_scores(data: np.ndarray, sizes: Sequence[int], cfg: StructureSearchConfig):
    """The decomposable local score over a null-free ``(d, N)`` code matrix,
    as ``local(y, parents)`` for a node and a frozenset of parents.  Each
    (node, parent set) is counted and scored once; ``local.cache_info()``
    reports the hits."""
    n = data.shape[1]

    @cache
    def local(y: int, parents: frozenset[int]) -> float:
        counts = _family_counts(data, sizes, y, tuple(sorted(parents)))
        q, r = counts.shape
        row_tot = counts.sum(axis=1)
        if cfg.score == "bic":
            nz = counts > 0
            ll = float(np.sum(counts[nz] * np.log(counts[nz] / row_tot[:, None].repeat(r, 1)[nz])))
            return ll - 0.5 * math.log(n) * (r - 1) * q
        from scipy.special import gammaln  # only BDeu needs scipy, so it loads here
        a_row = cfg.ess / q
        a_cell = cfg.ess / (q * r)
        return float(
            np.sum(gammaln(a_row) - gammaln(a_row + row_tot))
            + np.sum(gammaln(a_cell + counts) - gammaln(a_cell))
        )

    return local


def _random_start(
    n: int, max_in_degree: int, rng: np.random.Generator
) -> dict[int, frozenset[int]]:
    order = rng.permutation(n)
    parents = dict.fromkeys(range(n), frozenset())
    for pos in range(1, n):
        y = int(order[pos])
        pool = [int(order[j]) for j in range(pos)]
        k = int(rng.integers(0, min(max_in_degree, len(pool)) + 1))
        if k:
            picked = rng.choice(len(pool), size=k, replace=False)
            parents[y] = frozenset(pool[int(j)] for j in picked)
    return parents


_TIE_TOL = 1e-9


def _moves(parents: Mapping[int, frozenset[int]], max_in_degree: int):
    """Every legal one-edge change (add, delete, reverse ``x -> y``) in
    increasing ``(x, y, add/delete/reverse)`` order, each as the new parent
    sets of the nodes it changes.  The graph stays acyclic: adding ``x -> y``
    closes a cycle iff ``y`` is an ancestor of ``x``, and reversing it iff
    ``x`` is an ancestor of ``y`` once ``y`` has lost parent ``x``."""
    ancestors = [_ancestors(parents, (x,)) for x in range(len(parents))]
    for x, y in itertools.permutations(range(len(parents)), 2):
        if x not in parents[y]:
            if len(parents[y]) < max_in_degree and y not in ancestors[x]:
                yield ((y, parents[y] | {x}),)
            continue
        dropped = parents[y] - {x}
        yield ((y, dropped),)
        if len(parents[x]) < max_in_degree and x not in _ancestors({**parents, y: dropped}, (y,)):
            yield ((y, dropped), (x, parents[x] | {y}))


def _hill_climb(
    start: Mapping[int, frozenset[int]],
    local,
    cfg: StructureSearchConfig,
    deadline: float | None,
) -> tuple[dict[int, frozenset[int]], float]:
    """Greedy ascent from ``start``, node ``i``'s parent set at key ``i``,
    scored by ``local`` (see :func:`_local_scores`); returns the parent
    sets, frozensets still, and their score.

    Each step applies the move that gains most.  A move replaces the best
    one seen before it only if it gains more by over ``_TIE_TOL``, so of
    near-tied moves the first in ``_moves`` order wins; the climb stops when
    no move gains over ``_TIE_TOL``.
    """
    parents = dict(start)
    current = {y: local(y, ps) for y, ps in parents.items()}
    for _ in range(cfg.max_iterations):
        if deadline is not None and time.monotonic() > deadline:
            break
        best_delta, best_move = 0.0, None
        for move in _moves(parents, cfg.max_in_degree):
            delta = 0.0
            for v, ps in move:
                delta = delta + local(v, ps) - current[v]
            if delta > best_delta + _TIE_TOL:
                best_delta, best_move = delta, move
        if best_move is None:
            break
        for v, ps in best_move:
            parents[v] = ps
            current[v] = local(v, ps)
    return parents, sum(current.values())


def learn_structure(train: Table, cfg: StructureSearchConfig | None = None) -> BayesNet:
    """Greedy hill-climbing structure search over the training table.

    Rows containing any null are dropped (with a warning).  Returns a
    BayesNet carrying the learned parent sets and uniform placeholder CPTs;
    follow with :func:`fit_parameters`.  Every restart's climb scores
    through one cached ``local`` (see :func:`_local_scores`), so a family
    met again is not counted again; the best climb wins, an earlier one on
    a near-tie (within ``_TIE_TOL``).

    Raises
    ------
    ValueError
        If more than half the rows contain nulls, or fewer than 2 usable
        rows remain.
    """
    cfg = cfg or StructureSearchConfig()
    schema = train.schema
    codes = train._column_codes()
    data = codes[:, (codes >= 0).all(axis=0)]
    dropped = len(train) - data.shape[1]
    if dropped:
        if dropped > 0.5 * len(train):
            raise ValueError(
                f"{dropped} of {len(train)} training rows contain nulls; "
                "more than half the data is unusable for structure search"
            )
        warnings.warn(f"dropped {dropped} rows with nulls for structure search", stacklevel=2)
    if data.shape[1] < 2:
        raise ValueError("structure search needs at least 2 complete rows")
    local = _local_scores(data, schema.sizes, cfg)
    deadline = None if cfg.time_limit is None else time.monotonic() + cfg.time_limit
    n = len(schema.sizes)

    # at least one restart runs, and its score is finite, so it beats -inf
    best_score = -math.inf
    for restart in range(cfg.restarts):
        if restart == 0:
            start = dict.fromkeys(range(n), frozenset())
        else:
            rng = np.random.default_rng([cfg.seed, restart])
            start = _random_start(n, cfg.max_in_degree, rng)
        parents, score = _hill_climb(start, local, cfg, deadline)
        if score > best_score + _TIE_TOL:
            best_parents, best_score = parents, score
        if deadline is not None and time.monotonic() > deadline:
            break

    attr_of = schema.attributes
    named = {attr_of[y]: tuple(sorted(attr_of[p] for p in ps)) for y, ps in best_parents.items()}
    return BayesNet(schema, named, uniform_cpts(schema, named))


def fit_parameters(structure: BayesNet, train: Table, pseudo_count: float = 1.0) -> BayesNet:
    """Estimate CPTs by Laplace-smoothed counting.

    Each CPT uses the training rows that are null-free on the attribute and
    its parents; other rows are skipped per-CPT, not dropped globally.  A
    parent combination never observed yields a uniform row.  With
    pseudo_count > 0 every probability is strictly positive.
    """
    _check_scale("pseudo_count", pseudo_count)
    schema = structure.schema
    if train.schema != schema:
        raise ValueError("training table schema does not match the network")
    codes = train._column_codes()
    cpts = {}
    for attr in schema.attributes:
        family = [schema.index(a) for a in (*structure.parents[attr], attr)]
        counts = _value_counts(codes[family], [schema.sizes[i] for i in family])
        smoothed = counts + pseudo_count
        totals = smoothed.sum(axis=-1, keepdims=True)
        zero = totals[..., 0] == 0  # only possible with pseudo_count == 0
        if np.any(zero):
            smoothed[zero] = 1.0
            totals = smoothed.sum(axis=-1, keepdims=True)
        cpts[attr] = smoothed / totals
    return BayesNet(schema, structure.parents, cpts)


# ---------------------------------------------------------------------------
# graph queries


def markov_blanket(net: BayesNet, attr: str) -> frozenset[str]:
    """Parents, children, and the children's other parents of ``attr``."""
    net.schema.index(attr)
    return _blanket(net._families, {attr})[1]


def d_separated(net: BayesNet, x: str, y: str, given: Iterable[str] = ()) -> bool:
    """True iff every path between ``x`` and ``y`` is blocked by ``given``.

    That is, ``x`` and ``y`` lie in different components of the moral graph
    of the ancestors of ``x``, ``y`` and ``given``, with ``given`` removed
    (Lauritzen, Dawid, Larsen & Leimer, *Networks* 20(5), 1990).
    """
    net.schema.index(x)
    net.schema.index(y)
    z = set(given)
    for g in z:
        net.schema.index(g)
    if x == y:
        raise ValueError("x and y must differ")
    if x in z or y in z:
        raise ValueError("conditioning set must not contain x or y")
    kept = _ancestors(net.parents, (x, y, *z))
    families = tuple(vs for vs in net._families if vs[-1] in kept)
    free = tuple(a for a in net.schema.attributes if a in kept and a not in z)
    return not any(x in members and y in members for members in _components(families, free))


def _ancestors(parents: Mapping[str, tuple[str, ...]], attrs: Iterable[str]) -> set[str]:
    """``attrs`` and every ancestor of one of them."""
    out: set[str] = set()
    stack = list(attrs)
    while stack:
        attr = stack.pop()
        if attr not in out:
            out.add(attr)
            stack.extend(parents[attr])
    return out


def _blanket(families, attrs: set[str] | frozenset[str]):
    """The families (in ``families`` order) that hold a member of ``attrs``,
    and the Markov blanket of ``attrs``: those families' other members."""
    touching = tuple(vs for vs in families if not attrs.isdisjoint(vs))
    return touching, frozenset(v for vs in touching for v in vs if v not in attrs)


@lru_cache(maxsize=1024)
def _components(families, free: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """The components of ``free`` in the moral graph of ``families``, each in
    ``free`` order: two free attributes are joined where one family holds
    both."""
    groups = {a: {a} for a in free}
    for vs in families:
        merged = set().union(*(groups[v] for v in vs if v in groups))
        for v in merged:
            groups[v] = merged
    unique = {id(g): g for g in groups.values()}.values()
    return tuple(tuple(a for a in free if a in group) for group in unique)


def _alignment(variables: tuple[str, ...], out_vars: tuple[str, ...]):
    """The transpose order, then the index inserting a unit axis per absent
    variable, that lay an array over ``variables`` on ``out_vars``' axes;
    None where either is the identity."""
    perm = tuple([variables.index(v) for v in out_vars if v in variables])
    index = tuple([slice(None) if v in variables else None for v in out_vars])
    return (
        None if perm == tuple(range(len(perm))) else perm,
        None if len(index) == len(variables) else index,
    )


def _laid_out(arr: np.ndarray, perm, index) -> np.ndarray:
    """``arr`` transposed by ``perm``, then indexed by ``index``: a view."""
    if perm is not None:
        arr = arr.transpose(perm)
    return arr if index is None else arr[index]


def _plan(families, free: tuple[str, ...], observed: Mapping[str, int], cpts):
    """How to multiply out the ``cpts`` of ``families`` (in product order) at
    a row's codes, ``observed`` mapping each observed attribute to its
    position there, summing out all but the ``free`` variables, fewest
    neighbours first, ties by name; which CPTs enter is the caller's choice.
    A plan is its steps in order, the last over ``free``.  A step holds per
    CPT its view laid out by ``_alignment`` on (observed axes, the step's
    axes) and a getter of its observed codes (None where it has no observed
    axis, so the view is used as it is); per input, an earlier step's
    index and ``_alignment``; and the axis it sums out (None in the last).
    It holds the CPTs' arrays, so it belongs to one net."""
    n = len(families)
    eliminate = set().union(*families).difference(free, observed)
    # each factor's unobserved variables, CPTs first; read only to eliminate
    live = [[v for v in vs if v not in observed] for vs in families] if eliminate else []

    def step(slots, out_vars, axis):
        views = []
        for vs in (families[f] for f in slots if f < n):
            seen = [v for v in vs if v in observed]
            view = _laid_out(cpts[vs[-1]], *_alignment(vs, (*seen, *out_vars)))
            views.append((view, _getter([observed[v] for v in seen]) if seen else None))
        inputs = [(f - n, *_alignment(live[f], out_vars)) for f in slots if f >= n]
        return tuple(views), inputs, axis

    steps, factors = [], list(range(n))
    while eliminate:
        neighbors: dict[str, set[str]] = {v: set() for v in eliminate}
        for f in factors:
            for v in live[f]:
                if v in eliminate:
                    neighbors[v].update(live[f])
        victim = min(eliminate, key=lambda v: (len(neighbors[v] - {v}), v))
        touching = [f for f in factors if victim in live[f]]
        out_vars = tuple(dict.fromkeys(v for f in touching for v in live[f]))
        axis = out_vars.index(victim)
        steps.append(step(touching, out_vars, axis))
        factors = [f for f in factors if victim not in live[f]] + [len(live)]
        live.append(out_vars[:axis] + out_vars[axis + 1 :])
        eliminate.discard(victim)
    return (*steps, step(factors, free, None))


def _blanket_plan(families, members: tuple[str, ...], cpts):
    """How to multiply out P(C | Markov blanket), C = ``members``, at a
    row's codes in the DAG of ``families`` (a net's ``_families``, with its
    ``cpts``): the CPTs of C's members and of their children, sliced at the
    observed cells (Koller & Friedman, §12.3.1).  Returns C's positions and
    the blanket's, sorted, as tuples, and the ``_plan`` of those CPTs with C
    free and its blanket observed, which sums out nothing."""
    pos = {vs[-1]: i for i, vs in enumerate(families)}
    group = set(members)
    touching, outside = _blanket(families, group)

    # CPTs over fewer of C's members first, so the running product grows
    # late; then C's own, then by name: a lone variable's own CPT and then
    # its children's by name, as in a Gibbs update
    def rank(vs):
        return len(group.intersection(vs)), vs[-1] not in group, vs[-1]

    plan = _plan(tuple(sorted(touching, key=rank)), members, {v: pos[v] for v in outside}, cpts)
    return tuple(pos[a] for a in members), tuple(sorted(pos[v] for v in outside)), plan


def _getter(positions: list[int]):
    """Callable reading ``codes`` at ``positions``; the key of a memo entry."""
    return itemgetter(*positions) if positions else lambda codes: ()


# ---------------------------------------------------------------------------
# serialization

_FORMAT_NAME = "nullbayes-model"
_FORMAT_VERSION = "1"
_LOAD_ROW_SUM_TOL = 1e-6


# a raw \r would end its line once the text passes through a text file
_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})


def _escape(label: str) -> str:
    return label.translate(_ESCAPES)


_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def _unescape(token: str) -> str:
    return re.sub(r"\\(.)", lambda m: _UNESCAPES.get(m[1], m[1]), token, flags=re.DOTALL)


def save_model(net: BayesNet) -> str:
    """Serialize to versioned, line-oriented, tab-separated text.

    Attributes, domains, parent lists, and CPT rows are emitted in sorted /
    domain-index order; probabilities carry 12 significant digits, so the
    text is byte-stable under a save -> load -> save round trip.
    """
    lines = [f"{_FORMAT_NAME}\t{_FORMAT_VERSION}"]
    for attr in net.schema.attributes:
        doms = "\t".join(_escape(v) for v in net.schema.domain(attr))
        lines.append(f"attribute\t{_escape(attr)}\t{doms}")
    for attr in net.schema.attributes:
        lines.append("\t".join(["parents", _escape(attr), *map(_escape, net.parents[attr])]))
    for attr in net.schema.attributes:
        cpt = net.cpts[attr]
        combos = itertools.product(*[net.schema.domain(p) for p in net.parents[attr]])
        for labels, row in zip(combos, cpt.reshape(-1, cpt.shape[-1])):
            head = "\t".join([_escape(attr)] + [_escape(v) for v in labels])
            body = "\t".join(f"{p:.11e}" for p in row)
            lines.append(f"cpt\t{head}\t{body}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def load_model(text: str) -> BayesNet:
    """Parse text produced by :func:`save_model`.

    Raises
    ------
    ModelFormatError
        On an unknown version, malformed, repeated or undeclared records,
        parents or labels out of save_model's sorted order, missing CPT rows,
        rows that do not sum to 1 within 1e-6, or a cyclic parent graph.
    """
    # only \n ends a line (labels may hold \x0b, \x85 and the like); a
    # trailing \r is a CRLF ending, as save_model escapes every \r it writes
    lines = [line.removesuffix("\r") for line in text.split("\n")]
    if not text:
        raise ModelFormatError("empty model text")
    head = lines[0].split("\t")
    if len(head) != 2 or head[0] != _FORMAT_NAME:
        raise ModelFormatError("not a model file")
    if head[1] != _FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version {head[1]!r}")
    attrs: list[str] = []
    domains: dict[str, tuple[str, ...]] = {}
    parents: dict[str, tuple[str, ...]] = {}
    cpt_rows: dict[str, dict[tuple[str, ...], list[float]]] = {}
    parents_line: dict[str, int] = {}
    ended = False
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if ended:
            raise ModelFormatError(f"line {lineno}: content after end marker")
        parts = line.split("\t")
        kind = parts[0]
        if kind == "attribute":
            if len(parts) < 3:
                raise ModelFormatError(f"line {lineno}: attribute needs a domain")
            name = _unescape(parts[1])
            attrs.append(name)
            domains[name] = tuple(_unescape(t) for t in parts[2:])
        elif kind == "parents":
            if len(parts) < 2:
                raise ModelFormatError(f"line {lineno}: malformed parents line")
            name = _unescape(parts[1])
            if name in parents:
                raise ModelFormatError(f"line {lineno}: repeated parents record for {name!r}")
            parents[name] = tuple(_unescape(t) for t in parts[2:])
            parents_line[name] = lineno
        elif kind == "cpt":
            if len(parts) < 3:
                raise ModelFormatError(f"line {lineno}: malformed cpt line")
            name = _unescape(parts[1])
            if name not in parents:
                raise ModelFormatError(f"line {lineno}: cpt before parents for {name!r}")
            k = len(parents[name])
            combo = tuple(_unescape(t) for t in parts[2 : 2 + k])
            try:
                probs = [float(t) for t in parts[2 + k :]]
            except ValueError:
                raise ModelFormatError(f"line {lineno}: bad probability") from None
            if combo in cpt_rows.setdefault(name, {}):
                raise ModelFormatError(f"line {lineno}: repeated cpt row for {name!r}")
            cpt_rows[name][combo] = probs
        elif kind == "end":
            ended = True
        else:
            raise ModelFormatError(f"line {lineno}: unknown record {kind!r}")
    if not ended:
        raise ModelFormatError("missing end marker")
    if not attrs:
        raise ModelFormatError("model defines no attributes")
    try:
        schema = Schema(attrs, domains)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    for name, lineno in parents_line.items():
        if name not in domains:
            raise ModelFormatError(f"line {lineno}: parents for undeclared attribute {name!r}")
    cpts: dict[str, np.ndarray] = {}
    for attr in attrs:
        if attr not in parents:
            raise ModelFormatError(f"no parents record for {attr!r}")
        ps = parents[attr]
        if list(ps) != sorted(ps) or list(domains[attr]) != sorted(domains[attr]):
            raise ModelFormatError(f"{attr!r}: parents and labels must be listed in sorted order")
        parent_doms = []
        for p in ps:
            if p not in domains:
                raise ModelFormatError(f"unknown parent {p!r} of {attr!r}")
            parent_doms.append(schema.domain(p))
        dom = schema.domain(attr)
        shape = tuple(len(d) for d in parent_doms) + (len(dom),)
        arr = np.zeros(shape)
        rows = cpt_rows.get(attr, {})
        expected = int(np.prod(shape[:-1], dtype=np.int64)) if ps else 1
        if len(rows) != expected:
            raise ModelFormatError(
                f"{attr!r}: expected {expected} cpt rows, found {len(rows)}"
            )
        for combo, probs in rows.items():
            if len(probs) != len(dom):
                raise ModelFormatError(f"{attr!r}: cpt row has {len(probs)} entries")
            if abs(sum(probs) - 1.0) > _LOAD_ROW_SUM_TOL:
                raise ModelFormatError(f"{attr!r}: cpt row does not sum to 1")
            try:
                idx = tuple(parent_doms[i].index(v) for i, v in enumerate(combo))
            except ValueError:
                raise ModelFormatError(f"{attr!r}: unknown parent value in cpt row") from None
            row = np.array(probs)
            total = row.sum()
            if abs(total - 1.0) > _ROW_SUM_TOL:
                row = row / total  # within load tolerance but not save precision
            arr[idx] = row
        cpts[attr] = arr
    try:
        return BayesNet(schema, parents, cpts)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# sampling


def sample_rows(net: BayesNet, n: int, seed: int | Sequence[int]) -> Table:
    """Draw ``n`` complete rows, ids 1..n, by ancestral sampling.
    Deterministic per seed.

    Row i draws the k-th node in topological order from ``u``, column k of
    row i of one ``rng.random((n, d))`` block: the label's index counts the
    cumulative CPT weights but the last that are at or below ``u * total``.
    """
    _check_count("n", n)
    rng = np.random.default_rng(seed)
    schema = net.schema
    order = net.topological_order()
    draws = rng.random((n, len(order)))
    drawn = np.zeros((len(order), n), dtype=np.intp)
    for k, attr in enumerate(order):
        cpt = net.cpts[attr]
        parents = [schema.index(p) for p in net.parents[attr]]
        config = _radix_key(drawn[parents], cpt.shape[:-1])
        cum = np.cumsum(cpt.reshape(-1, cpt.shape[-1]), axis=1)
        u = draws[:, k] * cum[config, -1]
        column = drawn[schema.index(attr)]
        for boundary in cum.T[:-1]:
            column += boundary[config] <= u
    ids = np.arange(1, n + 1, dtype=np.int64)
    return Table._of(schema, ids, drawn.astype(np.int32))
