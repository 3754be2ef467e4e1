"""Posterior computation over discrete Bayesian networks.

Exact inference is variable elimination over factor tables (one ndarray
axis per variable, eliminated in min-degree order) over the ancestors of
the query's variables.  Approximate inference is Gibbs sampling over the
non-evidence variables.  Posteriors come back as JointDistribution objects:
a probability array over the target domains, in target order, summing to 1.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

import numpy as np

from .bayesnet import BayesNet, _ancestors, _components

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
        for flat, p in enumerate(self.probs.ravel()):
            idx = np.unravel_index(flat, self.probs.shape)
            yield tuple(d[i] for d, i in zip(self.domains, idx)), float(p)

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


def _alignment(variables: tuple[str, ...], out_vars: tuple[str, ...]):
    """The transpose order, then the index inserting a unit axis per absent
    variable, that lay an array over ``variables`` on ``out_vars``' axes;
    None where either is the identity."""
    perm = tuple(variables.index(v) for v in out_vars if v in variables)
    index = tuple(slice(None) if v in variables else None for v in out_vars)
    return (
        None if perm == tuple(range(len(perm))) else perm,
        None if len(index) == len(variables) else index,
    )


def _planned_product(arrays: list[np.ndarray], inputs) -> np.ndarray:
    """Product, in ``inputs`` order, of ``arrays[slot]`` laid out as planned."""
    values = None
    for slot, perm, index in inputs:
        arr = arrays[slot] if perm is None else arrays[slot].transpose(perm)
        if index is not None:
            arr = arr[index]
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
            dom = net.schema.domain(t)
            onehot = np.zeros(len(dom))
            onehot[dom.index(evidence[t])] = 1.0
            arrays = np.multiply.outer(arrays, onehot)
            out_order.append(t)
    perm = [out_order.index(t) for t in targets]
    probs = np.transpose(arrays, perm) if len(out_order) > 1 else arrays
    domains = tuple(net.schema.domain(t) for t in targets)
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
    if _at is not None:
        return _prob(targets, [net.schema.domains[t] for t in targets], values, _at)
    if not free:
        # every target clamped by evidence
        return _expand_clamped(net, targets, evidence, [], np.array(1.0))
    if len(free) == len(targets):  # then ``free`` is ``targets``, in order
        domains = tuple(net.schema.domain(t) for t in targets)
        return JointDistribution(tuple(targets), domains, values)
    return _expand_clamped(net, targets, evidence, free, values)


def enumerate_joint(net: BayesNet) -> JointDistribution:
    """The full joint over all attributes (schema order) by brute force.

    Intended as a test oracle; refuses joints beyond 1e7 states.
    """
    sizes = [len(net.schema.domain(a)) for a in net.schema.attributes]
    states = 1
    for s in sizes:
        states *= s
        if states > _MAX_ENUM_STATES:
            raise ValueError(f"joint has more than {_MAX_ENUM_STATES} states")
    attrs = tuple(net.schema.attributes)
    full = _planned_product(
        [net.cpts[a] for a in attrs],
        [(i, *_alignment(family, attrs)) for i, family in enumerate(net._families)],
    )
    total = float(full.sum())
    return JointDistribution(attrs, tuple(net.schema.domain(a) for a in attrs), full / total)


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
    _memo: dict | None = None,
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

    ``_memo`` (private to ``imputation``) is a dict shared by the chains of
    one imputation call: per free set its split, per variable its
    conditionals keyed by its blanket.  ``_codes`` (private too) is a row's
    codes, -1 at ``targets``, which must then be every unobserved attribute
    in schema order: the kept states come back as one int array, a row per
    sample, never an array over the joint.
    """
    memo = {} if _memo is None else _memo
    if _codes is not None:
        return _chain(net, _codes, tuple(targets), samples, burn_in, seed, memo)
    evidence = dict(evidence or {})
    _check_query(net, targets, evidence)
    _check_chain(samples, burn_in)
    if all(t in evidence for t in targets):
        return _expand_clamped(net, targets, evidence, [], np.array(1.0))

    schema = net.schema
    state = [-1] * len(schema.attributes)
    for attr, value in evidence.items():
        state[schema._index[attr]] = schema.domain(attr).index(value)
    free = tuple(a for a in schema.attributes if a not in evidence)
    free_targets = [t for t in targets if t not in evidence]
    kept = _chain(net, state, free, samples, burn_in, seed, memo)
    counts = np.zeros(tuple(len(schema.domain(t)) for t in free_targets))
    np.add.at(counts, tuple(kept[:, [free.index(t) for t in free_targets]].T), 1.0)
    return _expand_clamped(net, targets, evidence, free_targets, counts / float(samples))


def _chain(net: BayesNet, state: list[int], free: tuple[str, ...], samples, burn_in, seed, memo):
    """The kept states, ``(samples, len(free))`` codes, of a chain over
    ``free`` (the unobserved attributes, in schema order) from ``state``."""
    n = len(free)
    # one block of uniforms in the scalar-draw order: the init draws in
    # topological order, then per sweep one per free variable (column k)
    uniforms = np.random.default_rng(seed).random(n * (1 + burn_in + samples))
    block = uniforms[n:].reshape(burn_in + samples, n)
    if free not in memo:
        memo[free] = _split_chain(net, free, memo)
    init, lone, columns, plans = memo[free]
    kept = np.empty((samples, n), dtype=np.intp)
    for k, (_, blanket_values, conditionals, own, kids) in lone:
        key = blanket_values(state)
        if key not in conditionals:
            conditionals[key] = _full_conditional(state, own, kids)
        cut, total = conditionals[key]
        kept[:, k] = np.searchsorted(cut, block[burn_in:, k] * total, side="right")
    if not plans:
        return kept
    # ancestral init draws; the bound keeps a draw at or past the last
    # boundary, which rounding can produce, on the last category
    for i, at, cpt, parents in init:
        cum = np.cumsum(cpt[parents(state)]).tolist()
        state[at] = bisect_right(cum, uniforms[i] * cum[-1], 0, len(cum) - 1)
    values, trace = _getter([plan[0] for plan in plans]), []
    for row in block[:, columns].tolist():
        for (my_pos, blanket_values, conditionals, own, kids), u in zip(plans, row):
            key = blanket_values(state)
            try:
                cut, total = conditionals[key]
            except KeyError:
                cut, total = conditionals[key] = _full_conditional(state, own, kids)
            state[my_pos] = bisect_right(cut, u * total)
        trace.append(values(state))
    kept[:, columns] = trace[burn_in:]
    return kept


def _split_chain(net: BayesNet, free: tuple[str, ...], memo: dict):
    """The connected variables' init draws (uniform index, position, CPT,
    parent getter) in topological order; (column, blanket plan) of each lone
    variable, alone in its moral-graph component of ``free`` so its blanket
    is all evidence; the connected variables' columns and blanket plans."""
    pos = net.schema._index
    lone = {members[0] for members in _components(net._families, free) if len(members) == 1}
    for attr in free:
        if attr not in memo:
            memo[attr] = _blanket_plan(net, attr)
    order = [a for a in net.topological_order() if a in free]
    init = [
        (i, pos[a], net.cpts[a], _getter([pos[p] for p in net.parents[a]]))
        for i, a in enumerate(order) if a not in lone
    ]
    columns = [k for k, a in enumerate(free) if a not in lone]
    lone_plans = [(k, memo[a]) for k, a in enumerate(free) if a in lone]
    return init, lone_plans, columns, [memo[free[k]] for k in columns]


def _check_chain(samples: int, burn_in: int) -> None:
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")


def _blanket_plan(net: BayesNet, attr: str):
    """``attr``'s position, a getter of its Markov-blanket values (parents,
    each child's other parents, each child), a memo of full conditionals
    keyed by those values, and what a miss needs to compute one."""
    pos = net.schema._index
    parents = [pos[p] for p in net.parents[attr]]
    blanket = list(parents)
    kids = []
    for child in net.children(attr):
        # the child's CPT with ``attr``'s axis last, read at the other axes
        cps = net.parents[child]
        axis = cps.index(attr)
        others = [pos[p] for p in cps if p != attr] + [pos[child]]
        kids.append((np.moveaxis(net.cpts[child], axis, -1), _getter(others)))
        blanket += others
    return pos[attr], _getter(blanket), {}, (net.cpts[attr], _getter(parents)), kids


def _full_conditional(state, own, kids) -> tuple[list[float], float]:
    """Cumulative weights without the last boundary, and the total, of
    P(X | Markov blanket) at ``state``.

    The weights are X's own CPT row times, for each child, the child's CPT
    entries along X's axis.  ``bisect_right`` of a draw in the cut weights
    is ``np.searchsorted(cum, u, side="right")`` capped at the last category.
    """
    own_cpt, own_parents = own
    weights = own_cpt[own_parents(state)].copy()
    for child_cpt, child_values in kids:
        weights *= child_cpt[child_values(state)]
    total = float(weights.sum())
    if total <= 0.0:
        raise ImpossibleEvidenceError(
            "impossible evidence: zero-probability conditional in Gibbs sweep"
        )
    return weights.cumsum()[:-1].tolist(), total


def _getter(positions: list[int]):
    """Callable reading ``state`` at ``positions``; the key of a memo entry."""
    return itemgetter(*positions) if positions else lambda state: ()
