"""Posterior computation over discrete Bayesian networks.

Exact inference is variable elimination over factor tables (one ndarray
axis per variable, eliminated in min-degree order) over the ancestors of
the query's variables.  Approximate inference is Gibbs sampling over the
non-evidence variables.  Posteriors come back as JointDistribution objects:
a probability array over the target domains, in target order, summing to 1.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bayesnet import BayesNet, _alignment, _ancestors, _blanket_plan, _components, _getter
from .tabular import _check_count, _value_counts

__all__ = [
    "ImpossibleEvidenceError",
    "JointDistribution",
    "posterior_exact",
    "posterior_gibbs",
    "enumerate_joint",
    "map_assignment",
    "format_distribution",
]

_MAX_ENUM_STATES = 10_000_000


class ImpossibleEvidenceError(ValueError):
    """The evidence assignment has probability zero under the network."""


@dataclass(frozen=True)
class JointDistribution:
    """A normalized distribution over one or more target attributes.

    ``probs[i1, ..., ik]`` is the probability that target j takes
    ``domains[j][ij]`` for all j.  Domains are in sorted label order, so the
    C-order position of a combination is its lexicographic rank.
    """

    targets: tuple[str, ...]
    domains: tuple[tuple[str, ...], ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        if len(self.targets) != len(self.domains) or not self.targets:
            raise ValueError("targets and domains must align and be non-empty")
        if self.probs.shape != tuple(len(d) for d in self.domains):
            raise ValueError("probability array shape does not match domains")
        if np.any(self.probs < 0):
            raise ValueError("negative probability")
        if abs(float(self.probs.sum()) - 1.0) > 1e-6:
            raise ValueError("probabilities do not sum to 1")
        self.probs.flags.writeable = False

    def prob(self, combo: Sequence[str]) -> float:
        """Probability of one combination of target values."""
        return _prob(self.targets, self.domains, self.probs, combo)

    def items(self):
        """Yield (combination, probability) in C (= lexicographic) order."""
        return zip(itertools.product(*self.domains), self.probs.ravel().tolist())

    def marginal(self, attr: str) -> "JointDistribution":
        if attr not in self.targets:
            raise KeyError(f"{attr!r} is not a target")
        keep = self.targets.index(attr)
        axes = tuple(i for i in range(len(self.targets)) if i != keep)
        return JointDistribution((attr,), (self.domains[keep],), self.probs.sum(axis=axes))


def _prob(targets, domains, probs: np.ndarray, combo: Sequence[str]) -> float:
    if len(combo) != len(targets):
        raise ValueError(f"expected {len(targets)} values, got {len(combo)}")
    idx = []
    for value, dom, attr in zip(combo, domains, targets):
        try:
            idx.append(dom.index(value))
        except ValueError:
            raise KeyError(f"value {value!r} not in domain of {attr!r}") from None
    return float(probs[tuple(idx)])


def map_assignment(dist: JointDistribution) -> tuple[str, ...]:
    """Most probable combination; ties go to the lexicographically smallest.

    Entries within a relative 1e-9 of the maximum count as tied.  That bounds
    the rounding of an elimination over up to 1e7 states, so a tie in exact
    arithmetic stays one however the posterior was computed.  The result is
    thus a near-maximizer: it can lie up to 1e-9 below the maximum.
    """
    return tuple(d[i] for d, i in zip(dist.domains, _lex_argmax(dist.probs)))


def _lex_argmax(probs: np.ndarray) -> tuple[int, ...]:
    # the first entry in C order, which is lexicographic order over sorted domains
    flat = probs.ravel()
    return np.unravel_index(int((flat >= flat.max() * (1 - 1e-9)).argmax()), probs.shape)


def format_distribution(dist: JointDistribution) -> str:
    """Render as sorted ``value,value<TAB>probability`` lines."""
    lines = [f"{','.join(combo)}\t{p:.12g}" for combo, p in dist.items()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# variable elimination: a plan per DAG and query shape, then array products


def _laid_out(arr: np.ndarray, perm, index) -> np.ndarray:
    """``arr`` transposed by ``perm``, then indexed by ``index``: a view."""
    if perm is not None:
        arr = arr.transpose(perm)
    return arr if index is None else arr[index]


def _planned_product(arrays: list[np.ndarray], inputs) -> np.ndarray:
    """Product, in ``inputs`` order, of ``arrays[slot]`` laid out as planned."""
    values = None
    for slot, perm, index in inputs:
        arr = _laid_out(arrays[slot], perm, index)
        values = arr if values is None else values * arr
    return values


@lru_cache(maxsize=1024)
def _elimination_plan(families, free: tuple[str, ...], observed: frozenset[str]):
    """How to eliminate for P(free | evidence on ``observed``) in the DAG of
    ``families`` (a net's ``_families``).

    Only the CPTs of ancestors of ``free`` and ``observed`` are kept; the rest
    are barren and sum to 1.  Returns, per kept CPT, its attribute and each
    axis's evidence attribute (None where free, or None for the whole CPT
    if no axis is observed); per elimination step, the live factors it
    multiplies (slot, transpose order, index) and the axis it sums out,
    each result taking the next slot; and the final product's inputs,
    aligned on ``free``.  Unit axes are inserted by index, not reshape, so
    the plan holds no domain sizes.
    """
    kept = _ancestors({vs[-1]: vs[:-1] for vs in families}, (*free, *observed))
    cpts, live = [], []
    for family in families:
        if family[-1] in kept:
            axes = tuple(v if v in observed else None for v in family)
            cpts.append((family[-1], axes if observed.intersection(family) else None))
            live.append(tuple(v for v in family if v not in observed))
    factors = list(range(len(live)))
    eliminate = kept - observed - set(free)
    steps = []
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
        steps.append((tuple((f, *_alignment(live[f], out_vars)) for f in touching), axis))
        factors = [f for f in factors if victim not in live[f]] + [len(live)]
        live.append(out_vars[:axis] + out_vars[axis + 1 :])
        eliminate.discard(victim)
    final = tuple((f, *_alignment(live[f], free)) for f in factors)
    return tuple(cpts), tuple(steps), final


def _check_query(net: BayesNet, targets: Sequence[str], evidence: Mapping[str, str]) -> None:
    if not targets:
        raise ValueError("no target attributes")
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate target attribute")
    for t in targets:
        net.schema.index(t)
    for attr, value in evidence.items():
        if value not in net.schema.domain(attr):
            raise ValueError(f"evidence value {value!r} not in domain of {attr!r}")


def _expand_clamped(
    net: BayesNet, targets: Sequence[str], evidence: Mapping[str, str], free_probs: np.ndarray
) -> JointDistribution:
    # free_probs has one axis per free target, in target order; a clamped
    # target's axis is zero but at its evidence value
    domains = tuple(net.schema.domain(t) for t in targets)
    probs = np.zeros(tuple(map(len, domains)))
    at = tuple(net.schema.code(t, evidence[t]) if t in evidence else slice(None) for t in targets)
    probs[at] = free_probs
    return JointDistribution(tuple(targets), domains, probs)


def posterior_exact(
    net: BayesNet, targets: Sequence[str], evidence: Mapping[str, str] | None = None, *, _at=None
):
    """Exact joint posterior P(targets | evidence) by variable elimination.

    Only the CPTs of ancestors of the targets and the evidence enter; every
    other variable is barren and sums to 1 (Koller & Friedman, §9.3).  The
    remaining non-target, non-evidence variables are eliminated in
    min-degree order (lexicographic tie-break, so results are
    deterministic).  Evidence on a target clamps that target's axis to the
    evidence value.

    The elimination plan (order, factor products, axis layouts) depends only
    on the DAG, the free targets and the evidence attributes, so it is
    memoized on those (a bounded cache holding no CPTs); a call then slices
    the CPTs at the evidence codes and runs the planned products and sums.
    Results can differ from eliminating every variable in the last ulp.

    ``_at`` (private to ``rewriting``; no target may be evidence) is one
    combination of target values: its ``prob`` is returned, unbuilt.

    Raises
    ------
    ImpossibleEvidenceError
        If the evidence has probability zero.
    """
    evidence = dict(evidence or {})
    _check_query(net, targets, evidence)
    free = [t for t in targets if t not in evidence]
    cpts, steps, final = _elimination_plan(net._families, tuple(free), frozenset(evidence))
    codes = {a: net.schema.code(a, v) for a, v in evidence.items()}
    arrays = [
        net.cpts[attr] if axes is None
        else net.cpts[attr][tuple(slice(None) if v is None else codes[v] for v in axes)]
        for attr, axes in cpts
    ]
    for inputs, axis in steps:
        arrays.append(_planned_product(arrays, inputs).sum(axis=axis))
    values = _normalized(_planned_product(arrays, final))
    if _at is not None:
        return _prob(targets, [net.schema.domains[t] for t in targets], values, _at)
    return _expand_clamped(net, targets, evidence, values)


def _normalized(values: np.ndarray) -> np.ndarray:
    """``values`` over their sum; a sum of zero means impossible evidence."""
    z = float(values.sum())
    if z <= 0.0:
        raise ImpossibleEvidenceError("impossible evidence: zero probability")
    return values / z


def _refuse_impossible(net: BayesNet, codes: np.ndarray) -> None:
    """Raise ``ImpossibleEvidenceError`` if a column of ``codes`` (``(d, n)``,
    -1 where unobserved) observes a whole family at a zero of its CPT."""
    for vs in net._zeros:
        cells = codes[[net.schema.index(v) for v in vs]]
        if not net.cpts[vs[-1]][tuple(cells[:, (cells >= 0).all(axis=0)])].all():
            raise ImpossibleEvidenceError("impossible evidence: zero probability")


def enumerate_joint(net: BayesNet) -> JointDistribution:
    """The full joint over all attributes (schema order) by brute force.

    Intended as a test oracle; refuses joints beyond 1e7 states.
    """
    if math.prod(net.schema.sizes) > _MAX_ENUM_STATES:
        raise ValueError(f"joint has more than {_MAX_ENUM_STATES} states")
    attrs = tuple(net.schema.attributes)
    full = _planned_product(
        [net.cpts[a] for a in attrs],
        [(i, *_alignment(family, attrs)) for i, family in enumerate(net._families)],
    )
    domains = tuple(net.schema.domain(a) for a in attrs)
    return JointDistribution(attrs, domains, _normalized(full))


# ---------------------------------------------------------------------------
# Gibbs sampling


def posterior_gibbs(
    net: BayesNet,
    targets: Sequence[str],
    evidence: Mapping[str, str] | None = None,
    samples: int = 250,
    burn_in: int = 100,
    seed: int | Sequence[int] = 0,
    *,
    _codes: list[int] | None = None,
):
    """Gibbs-sampled posterior P(targets | evidence).

    One sweep updates every non-evidence variable once, in schema order,
    from its full conditional (own CPT row times each child's CPT entry).
    The first ``burn_in`` sweeps are discarded; each of the following
    ``samples`` sweeps contributes one state.  Deterministic per seed.

    A full conditional depends only on the Markov blanket (Koller &
    Friedman, §12.3.1), so a free variable alone in its component of the
    free set's moral graph has one conditional for the whole chain: its
    kept states are drawn in one ``np.searchsorted`` over its column of the
    uniforms.  The others run the per-update loop on their columns, so the
    states are those of one loop over every free variable.

    A conditional is ``bayesnet._blanket_plan``'s product for a component
    of one variable, the plan built once per net.  What depends on the CPTs is
    kept on the net's memo across calls: per free set its split, per
    variable its CPT views and conditionals keyed by its blanket.
    ``_codes`` (private to ``imputation``) is a row's codes, -1 at
    ``targets``, which must then be every unobserved attribute in schema
    order: the kept states come back as one int array, a row per sample,
    never an array over the joint.  Evidence at a zero of a fully observed
    family's CPT raises, as in ``posterior_exact``.
    """
    if _codes is not None:
        return _chain(net, _codes, tuple(targets), samples, burn_in, seed)
    evidence = dict(evidence or {})
    _check_query(net, targets, evidence)
    _check_chain(samples, burn_in)
    schema = net.schema
    state = [-1] * len(schema.attributes)
    for attr, value in evidence.items():
        state[schema.index(attr)] = schema.code(attr, value)
    _refuse_impossible(net, np.array(state)[:, None])
    if all(t in evidence for t in targets):
        return _expand_clamped(net, targets, evidence, np.array(1.0))

    free = tuple(a for a in schema.attributes if a not in evidence)
    free_targets = [t for t in targets if t not in evidence]
    kept = _chain(net, state, free, samples, burn_in, seed)
    columns = kept[:, [free.index(t) for t in free_targets]].T
    counts = _value_counts(columns, [schema.sizes[schema.index(t)] for t in free_targets])
    return _expand_clamped(net, targets, evidence, counts / float(samples))


def _chain(net: BayesNet, state: list[int], free: tuple[str, ...], samples, burn_in, seed):
    """The kept states, ``(samples, len(free))`` codes, of a chain over
    ``free`` (the unobserved attributes, in schema order) from ``state``."""
    n = len(free)
    # one block of uniforms in the scalar-draw order: the init draws in
    # topological order, then per sweep one per free variable (column k)
    uniforms = np.random.default_rng(seed).random(n * (1 + burn_in + samples))
    block = uniforms[n:].reshape(burn_in + samples, n)
    if free not in net._memo.splits:
        net._memo.splits[free] = _split_chain(net, free)
    init, lone, columns, plans = net._memo.splits[free]
    kept = np.empty((samples, n), dtype=np.intp)
    for k, (_, blanket, conditionals, views) in lone:
        key = blanket(state)
        if key not in conditionals:
            conditionals[key] = _full_conditional(views, state)
        cut, total = conditionals[key]
        kept[:, k] = np.searchsorted(cut, block[burn_in:, k] * total, side="right")
    if not plans:
        return kept
    # ancestral init draws; the bound keeps a draw at or past the last
    # boundary, which rounding can produce, on the last category
    for i, (at, _, _, views) in init:
        cpt, parents = views[0]  # the variable's own CPT, planned first
        cum = np.cumsum(cpt[parents(state)]).tolist()
        state[at] = bisect_right(cum, uniforms[i] * cum[-1], 0, len(cum) - 1)
    values, trace = _getter([plan[0] for plan in plans]), []
    for row in block[:, columns].tolist():
        for (my_pos, blanket, conditionals, views), u in zip(plans, row):
            key = blanket(state)
            try:
                cut, total = conditionals[key]
            except KeyError:
                cut, total = conditionals[key] = _full_conditional(views, state)
            state[my_pos] = bisect_right(cut, u * total)
        trace.append(values(state))
    kept[:, columns] = trace[burn_in:]
    return kept


def _split_chain(net: BayesNet, free: tuple[str, ...]):
    """The connected variables' (uniform index, entry) for their init draws,
    in topological order; (column, entry) of each lone variable, alone in
    its moral-graph component of ``free`` so its blanket is all evidence;
    the connected variables' columns and entries.  A variable's entry, kept
    on the net's memo under its name, is its position, a getter of its
    blanket's codes, its full conditionals keyed by those, and its CPT views."""
    memo = net._memo.variables
    for attr in free:
        if attr not in memo:
            (at,), blanket, factors = _blanket_plan(net._families, (attr,))
            memo[attr] = at, _getter(blanket), {}, _cpt_views(net, factors)
    lone = {members[0] for members in _components(net._families, free) if len(members) == 1}
    order = [a for a in net.topological_order() if a in free]
    init = [(i, memo[a]) for i, a in enumerate(order) if a not in lone]
    columns = [k for k, a in enumerate(free) if a not in lone]
    lone_plans = [(k, memo[a]) for k, a in enumerate(free) if a in lone]
    return init, lone_plans, columns, [memo[free[k]] for k in columns]


def _check_chain(samples: int, burn_in: int) -> None:
    _check_count("samples", samples, 1)
    _check_count("burn_in", burn_in)


def _cpt_views(net: BayesNet, factors):
    """A ``_blanket_plan``'s factors: each CPT laid out as planned, and its getter."""
    return [(_laid_out(net.cpts[a], perm, index), get) for a, perm, index, get in factors]


def _blanket_product(views, codes: list[int]) -> np.ndarray:
    """The product of ``_cpt_views`` at a row's ``codes``, unnormalized: one
    axis per member of the plan's set."""
    values = None
    for cpt, observed in views:
        factor = cpt[observed(codes)]
        values = factor if values is None else values * factor
    return values


def _full_conditional(views, state) -> tuple[list[float], float]:
    """Cumulative weights without the last boundary, and the total, of
    P(X | Markov blanket) at ``state``: the blanket product for X alone.

    The weights are X's own CPT row times, for each child, the child's CPT
    entries along X's axis.  ``bisect_right`` of a draw in the cut weights
    is ``np.searchsorted(cum, u, side="right")`` capped at the last category.
    """
    weights = _blanket_product(views, state)
    total = float(weights.sum())
    if total <= 0.0:
        raise ImpossibleEvidenceError(
            "impossible evidence: zero-probability conditional in Gibbs sweep"
        )
    return weights.cumsum()[:-1].tolist(), total
