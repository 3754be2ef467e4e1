"""Posterior computation over discrete Bayesian networks.

Exact inference is variable elimination over the query's ancestors, and
approximate inference Gibbs sampling over the non-evidence variables; both,
like exact imputation and ``enumerate_joint``, run ``bayesnet._plan``'s
plans through ``_product``.  Posteriors are JointDistribution objects:
probability arrays over the target domains, in target order, summing to 1.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .bayesnet import BayesNet, _ancestors, _blanket_plan, _components, _getter, _laid_out, _plan
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
# products: a ``bayesnet._plan``, its CPTs laid out, run at a row's codes


def _product(plan, codes) -> np.ndarray:
    """The product of a ``_plan`` at a row's ``codes``, unnormalized, an axis per
    free variable: each step's CPTs at their observed codes, then its inputs."""
    results = []
    for cpts, inputs, axis in plan:
        values = None
        for cpt, observed in cpts:
            factor = cpt if observed is None else cpt[observed(codes)]
            values = factor if values is None else values * factor
        for slot, perm, index in inputs:
            factor = _laid_out(results[slot], perm, index)
            values = factor if values is None else values * factor
        if axis is None:
            return values
        results.append(values.sum(axis=axis))


def _elimination_plan(net: BayesNet, free: tuple[str, ...], observed: frozenset[str]):
    """The ``_plan`` for P(free | evidence on ``observed``) in ``net``: the
    CPTs of ancestors of both, in family order; the rest are barren.  Kept
    on the net's memo by (free, observed)."""
    memo = net._memo.posteriors
    if (free, observed) not in memo:
        kept = _ancestors(net.parents, (*free, *observed))
        positions = {vs[-1]: i for i, vs in enumerate(net._families) if vs[-1] in observed}
        families = tuple(vs for vs in net._families if vs[-1] in kept)
        memo[free, observed] = _plan(families, free, positions, net.cpts)
    return memo[free, observed]


def _check_query(net: BayesNet, targets: Sequence[str], evidence: Mapping[str, str]) -> list[int]:
    """Refuse a malformed query; return a row's codes, the evidence's, -1 where unobserved."""
    if not targets:
        raise ValueError("no target attributes")
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate target attribute")
    for t in targets:
        net.schema.index(t)
    codes = [-1] * len(net.schema.attributes)
    for attr, value in evidence.items():
        if value not in net.schema.domain(attr):
            raise ValueError(f"evidence value {value!r} not in domain of {attr!r}")
        codes[net.schema.index(attr)] = net.schema.code(attr, value)
    return codes


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
    min-neighbours order (lexicographic tie-break, so results are
    deterministic).  Evidence on a target clamps that target's axis to the
    evidence value.  A blanket's CPTs alone could miss impossible evidence.

    The ``bayesnet._plan`` (order, factor products, the kept CPTs laid out)
    depends only on the net, the free targets and the evidence attributes,
    so it is kept on the net's memo by the last two; a call runs
    ``_product`` on it at the evidence codes.  Results can differ from
    eliminating every variable in the last ulp.

    ``_at`` (private to ``rewriting``; no target may be evidence) is one
    combination of target values: its ``prob`` is returned, unbuilt.

    Raises
    ------
    ImpossibleEvidenceError
        If the evidence has probability zero.
    """
    evidence = dict(evidence or {})
    codes = _check_query(net, targets, evidence)
    free = tuple(t for t in targets if t not in evidence)
    values = _normalized(_product(_elimination_plan(net, free, frozenset(evidence)), codes))
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
    full = _product(_plan(net._families, attrs, {}, net.cpts), ())
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

    A conditional is ``_product`` of the ``_blanket_plan`` of one variable.
    What depends on the CPTs is kept on the net's memo across calls: per
    variable the ``_entry`` exact imputation shares, with its plan (its CPT
    views) and conditionals keyed by its blanket.  A chain lays out its free
    set per call from those entries and the cached components.
    ``_codes`` (private to ``imputation``) is a row's codes, -1 at
    ``targets``, which must then be every unobserved attribute in schema
    order: the kept states come back as one int array, a row per sample,
    never an array over the joint.  Evidence at a zero of a fully observed
    family's CPT raises, as in ``posterior_exact``.
    """
    if _codes is not None:
        return _chain(net, _codes, tuple(targets), samples, burn_in, seed)
    evidence = dict(evidence or {})
    state = _check_query(net, targets, evidence)
    _check_chain(samples, burn_in)
    schema = net.schema
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
    ``free`` (the unobserved attributes, in schema order) from ``state``:
    each variable by its ``_entry``'s chain part, a lone one (alone in its
    moral-graph component of ``free``, so its blanket is all evidence) in
    one draw, the connected ones in the sweep loop."""
    n = len(free)
    # one block of uniforms in the scalar-draw order: the init draws in
    # topological order, then per sweep one per free variable (column k)
    uniforms = np.random.default_rng(seed).random(n * (1 + burn_in + samples))
    block = uniforms[n:].reshape(burn_in + samples, n)
    lone = {members[0] for members in _components(net._families, free) if len(members) == 1}
    kept = np.empty((samples, n), dtype=np.intp)
    connected = {}  # each connected variable's column and chain part, in free order
    for k, attr in enumerate(free):
        chain = _entry(net, (attr,))[4]
        if attr not in lone:
            connected[attr] = k, chain
            continue
        _, blanket, conditionals, views = chain
        key = blanket(state)
        if key not in conditionals:
            conditionals[key] = _full_conditional(views, state)
        cut, total = conditionals[key]
        kept[:, k] = np.searchsorted(cut, block[burn_in:, k] * total, side="right")
    if not connected:
        return kept
    # ancestral init draws, uniform i for the i-th free variable in topological
    # order; the bound keeps a draw at or past the last boundary, which
    # rounding can produce, on the last category
    for i, attr in enumerate(a for a in net.topological_order() if a in free):
        if attr in connected:
            at, _, _, views = connected[attr][1]
            cpt, parents = views[0][0][0]  # the variable's own CPT, planned first
            cum = np.cumsum(cpt if parents is None else cpt[parents(state)]).tolist()
            state[at] = bisect_right(cum, uniforms[i] * cum[-1], 0, len(cum) - 1)
    columns, plans = zip(*connected.values())
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


def _entry(net: BayesNet, members: tuple[str, ...]):
    """The net's memo entry for a set C (an exact component or a Gibbs variable):
    C's ``_blanket_plan``, exact fills by (joint, blanket codes), C's and its
    blanket's positions, and for C of one variable its chain part: its
    position, a getter of the blanket's codes, conditionals by those, the plan."""
    memo = net._memo.components
    if members not in memo:
        at, blanket, views = _blanket_plan(net._families, members, net.cpts)
        chain = (at[0], _getter(blanket), {}, views) if len(members) == 1 else None
        memo[members] = views, {}, at, blanket, chain
    return memo[members]


def _check_chain(samples: int, burn_in: int) -> None:
    _check_count("samples", samples, 1)
    _check_count("burn_in", burn_in)


def _full_conditional(views, state) -> tuple[list[float], float]:
    """Cumulative weights without the last boundary, and the total, of
    P(X | Markov blanket) at ``state``: the blanket product for X alone.

    The weights are X's own CPT row times, for each child, the child's CPT
    entries along X's axis.  ``bisect_right`` of a draw in the cut weights
    is ``np.searchsorted(cum, u, side="right")`` capped at the last category.
    """
    weights = _product(views, state)
    total = float(weights.sum())
    if total <= 0.0:
        raise ImpossibleEvidenceError(
            "impossible evidence: zero-probability conditional in Gibbs sweep"
        )
    return weights.cumsum()[:-1].tolist(), total
