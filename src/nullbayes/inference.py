"""Posterior computation over discrete Bayesian networks.

Exact inference is variable elimination over factor tables (one ndarray
axis per variable, eliminated in min-degree order).  Approximate inference
is Gibbs sampling over the non-evidence variables.  Posteriors come back as
JointDistribution objects: a probability array over the target domains, in
target order, summing to 1.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .bayesnet import BayesNet

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
        if len(combo) != len(self.targets):
            raise ValueError(f"expected {len(self.targets)} values, got {len(combo)}")
        idx = []
        for value, dom, attr in zip(combo, self.domains, self.targets):
            try:
                idx.append(dom.index(value))
            except ValueError:
                raise KeyError(f"value {value!r} not in domain of {attr!r}") from None
        return float(self.probs[tuple(idx)])

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
# factors


class _Factor:
    __slots__ = ("vars", "values")

    def __init__(self, variables: tuple[str, ...], values: np.ndarray):
        self.vars = variables
        self.values = values


def _aligned(factor: _Factor, out_vars: tuple[str, ...]) -> np.ndarray:
    present = [v for v in out_vars if v in factor.vars]
    arr = np.transpose(factor.values, [factor.vars.index(v) for v in present])
    shape = []
    j = 0
    for v in out_vars:
        if v in factor.vars:
            shape.append(arr.shape[j])
            j += 1
        else:
            shape.append(1)
    return arr.reshape(shape)


def _product(factors: list[_Factor]) -> _Factor:
    out_vars: list[str] = []
    for f in factors:
        for v in f.vars:
            if v not in out_vars:
                out_vars.append(v)
    ov = tuple(out_vars)
    values = _aligned(factors[0], ov)
    for f in factors[1:]:
        values = values * _aligned(f, ov)
    return _Factor(ov, values)


def _sum_out(factor: _Factor, var: str) -> _Factor:
    ax = factor.vars.index(var)
    new_vars = factor.vars[:ax] + factor.vars[ax + 1 :]
    return _Factor(new_vars, factor.values.sum(axis=ax))


def _restricted_factors(net: BayesNet, evidence: Mapping[str, str]) -> list[_Factor]:
    ev_idx = {a: net.schema.domain(a).index(v) for a, v in evidence.items()}
    factors = []
    for attr in net.schema.attributes:
        variables = net.parents[attr] + (attr,)
        values = net.cpts[attr]
        kept = []
        index: list[object] = []
        for v in variables:
            if v in ev_idx:
                index.append(ev_idx[v])
            else:
                index.append(slice(None))
                kept.append(v)
        factors.append(_Factor(tuple(kept), values[tuple(index)]))
    return factors


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
    net: BayesNet, targets: Sequence[str], evidence: Mapping[str, str] | None = None
) -> JointDistribution:
    """Exact joint posterior P(targets | evidence) by variable elimination.

    Non-target, non-evidence variables are eliminated in min-degree order
    (lexicographic tie-break, so results are deterministic).  Evidence on a
    target clamps that target's axis to the evidence value.

    Raises
    ------
    ImpossibleEvidenceError
        If the evidence has probability zero.
    """
    evidence = dict(evidence or {})
    _check_query(net, targets, evidence)
    free = [t for t in targets if t not in evidence]
    factors = _restricted_factors(net, evidence)
    eliminate = {
        v for v in net.schema.attributes if v not in evidence and v not in free
    }

    while eliminate:
        neighbors: dict[str, set[str]] = {v: set() for v in eliminate}
        for f in factors:
            for v in f.vars:
                if v in eliminate:
                    neighbors[v].update(f.vars)
        victim = min(eliminate, key=lambda v: (len(neighbors[v] - {v}), v))
        touching = [f for f in factors if victim in f.vars]
        rest = [f for f in factors if victim not in f.vars]
        factors = rest + [_sum_out(_product(touching), victim)]
        eliminate.discard(victim)

    joint = _product(factors)
    # collapse any stray scalar factors and order axes by `free`
    if free:
        values = _aligned(joint, tuple(free))
        values = values.reshape([len(net.schema.domain(t)) for t in free])
    else:
        values = joint.values.reshape(())
    z = float(values.sum())
    if z <= 0.0:
        raise ImpossibleEvidenceError("impossible evidence: zero probability")
    values = values / z
    if not free:
        # every target clamped by evidence
        return _expand_clamped(net, targets, evidence, [], np.array(1.0))
    if len(free) == len(targets):
        perm = [free.index(t) for t in targets]
        probs = np.transpose(values, perm)
        domains = tuple(net.schema.domain(t) for t in targets)
        return JointDistribution(tuple(targets), domains, probs)
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
    full = np.ones(sizes)
    for attr in attrs:
        f = _Factor(net.parents[attr] + (attr,), net.cpts[attr])
        full = full * _aligned(f, attrs)
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
) -> JointDistribution:
    """Gibbs-sampled posterior P(targets | evidence).

    One sweep updates every non-evidence variable once, in schema order,
    from its full conditional (own CPT row times each child's CPT entry).
    The first ``burn_in`` sweeps are discarded; each of the following
    ``samples`` sweeps contributes one state.  Deterministic per seed.
    """
    evidence = dict(evidence or {})
    _check_query(net, targets, evidence)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    if all(t in evidence for t in targets):
        return _expand_clamped(net, targets, evidence, [], np.array(1.0))

    schema = net.schema
    pos = {a: i for i, a in enumerate(schema.attributes)}
    state = [0] * len(schema.attributes)
    for attr, value in evidence.items():
        state[pos[attr]] = schema.domain(attr).index(value)
    free = [a for a in schema.attributes if a not in evidence]
    free_targets = [t for t in targets if t not in evidence]
    # one block of uniforms, consumed in the scalar-draw order: the init
    # draws in topological order, then one per free variable per sweep
    n_draws = len(free) * (1 + burn_in + samples)
    uniforms = np.random.default_rng(seed).random(n_draws).tolist()

    # initialize free variables by ancestral draw given current parents
    draw = 0
    for attr in net.topological_order():
        if attr in evidence:
            continue
        weights = net.cpts[attr][tuple(state[pos[p]] for p in net.parents[attr])]
        cum = np.cumsum(weights).tolist()
        state[pos[attr]] = _draw(cum, uniforms[draw] * cum[-1])
        draw += 1

    # per free variable: its position, a getter of its Markov-blanket values
    # (parents, each child's other parents, each child), a memo of full
    # conditionals keyed by those values, and what a miss needs to compute one
    plans = []
    for attr in free:
        parents = [pos[p] for p in net.parents[attr]]
        blanket = list(parents)
        kids = []
        for child in net.children(attr):
            cps = net.parents[child]
            kids.append(
                (net.cpts[child], [pos[p] for p in cps], cps.index(attr), pos[child])
            )
            blanket += [pos[p] for p in cps if p != attr] + [pos[child]]
        plans.append((pos[attr], _getter(blanket), {}, (net.cpts[attr], parents), kids))

    kept = []
    target_values = _getter([pos[t] for t in free_targets])
    for sweep in range(burn_in + samples):
        for my_pos, blanket_values, memo, own, kids in plans:
            key = blanket_values(state)
            entry = memo.get(key)
            if entry is None:
                entry = memo[key] = _full_conditional(state, own, kids)
            cum, total = entry
            if total <= 0.0:
                raise ImpossibleEvidenceError(
                    "impossible evidence: zero-probability conditional in Gibbs sweep"
                )
            state[my_pos] = _draw(cum, uniforms[draw] * total)
            draw += 1
        if sweep >= burn_in:
            kept.append(target_values(state))

    counts = np.zeros(tuple(len(schema.domain(t)) for t in free_targets))
    for combo, n in Counter(kept).items():
        counts[combo] = n
    probs = counts / float(samples)
    if len(free_targets) == len(targets):
        perm = [free_targets.index(t) for t in targets]
        domains = tuple(net.schema.domain(t) for t in targets)
        return JointDistribution(tuple(targets), domains, np.transpose(probs, perm))
    return _expand_clamped(net, targets, evidence, free_targets, probs)


def _full_conditional(state, own, kids) -> tuple[list[float], float]:
    """Cumulative weights and total of P(X | Markov blanket) at ``state``.

    The weights are X's own CPT row times, for each child, the child's CPT
    entries along X's axis.
    """
    own_cpt, own_parents = own
    weights = own_cpt[tuple(state[p] for p in own_parents)].copy()
    for child_cpt, child_parents, my_axis, child_pos in kids:
        index: list[object] = [state[p] for p in child_parents]
        index[my_axis] = slice(None)
        index.append(state[child_pos])
        weights *= child_cpt[tuple(index)]
    return np.cumsum(weights).tolist(), float(weights.sum())


def _getter(positions: list[int]):
    """Callable reading ``state`` at ``positions``; the key of a memo entry."""
    return itemgetter(*positions) if positions else lambda state: ()


def _draw(cum: list[float], u: float) -> int:
    """The category whose cumulative-weight interval holds ``u``.

    ``bisect_right`` is ``np.searchsorted(cum, u, side="right")``; the cap
    keeps a ``u`` at or past the last boundary, which rounding can produce,
    on the last category.
    """
    return min(bisect_right(cum, u), len(cum) - 1)
