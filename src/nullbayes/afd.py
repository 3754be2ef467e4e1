"""Approximate functional dependencies and the classifier built on them.

An AFD ``X -> A`` holds with the confidence that a tuple's A-value equals
the majority A-value of its X-group: the number of tuples kept by keeping
only each group's majority class, over the number of tuples with X and A
non-null.  Value distributions for prediction come from a naive Bayes model
over the determining set.  Prediction of a missing attribute chains through
other AFDs when determining values are themselves missing; a chain that
bites its own tail makes the attribute unpredictable.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .tabular import Row, Schema, Table, _check_count, _value_counts

__all__ = [
    "Afd",
    "NoRuleError",
    "NotApplicableError",
    "mine_afds",
    "best_afds",
    "NaiveBayesModel",
    "fit_naive_bayes",
    "afd_impute_tuple",
    "afd_to_line",
    "afd_from_line",
    "save_afds",
    "load_afds",
]


class NoRuleError(LookupError):
    """No AFD is available for the requested attribute."""


class NotApplicableError(ValueError):
    """The rewriting strategy's applicability condition fails."""


@dataclass(frozen=True)
class Afd:
    """``determining -> target`` with its confidence in [0, 1]."""

    determining: tuple[str, ...]
    target: str
    confidence: float

    def __post_init__(self) -> None:
        if not self.determining:
            raise ValueError("empty determining set")
        if tuple(sorted(set(self.determining))) != self.determining:
            raise ValueError("determining set must be sorted, without repeats")
        if self.target in self.determining:
            raise ValueError("target inside its own determining set")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence outside [0, 1]")


def mine_afds(
    train: Table, max_lhs: int = 2, min_confidence: float = 0.0
) -> list[Afd]:
    """Mine AFDs with determining sets of size 1..max_lhs for every target.

    Confidence for X -> A is computed over rows null-free on X and A; a
    candidate with no such rows is skipped.  Results are sorted by target,
    then determining-set size, then determining set.
    """
    _check_count("max_lhs", max_lhs, 1)
    if not 0.0 <= min_confidence <= 1.0:
        raise ValueError("min_confidence must be in [0, 1]")
    schema = train.schema
    codes = train._column_codes()
    sizes = schema.sizes
    out: list[Afd] = []
    for target in schema.attributes:
        others = [a for a in schema.attributes if a != target]
        for size in range(1, max_lhs + 1):
            for det in itertools.combinations(sorted(others), size):
                cols = [schema.index(a) for a in (*det, target)]
                groups, counts = _value_counts(codes[cols], [sizes[c] for c in cols], observed=True)
                if not len(counts):
                    continue
                # each determining group keeps the rows of its majority target value
                starts = np.flatnonzero(np.diff(groups, prepend=-1))
                conf = int(np.maximum.reduceat(counts, starts).sum()) / int(counts.sum())
                if conf < min_confidence:
                    continue
                out.append(Afd(det, target, conf))
    out.sort(key=lambda r: (r.target, len(r.determining), r.determining))
    return out


# the last rule tuple ranked, each target's rule positions in rank order, and
# every attribute its rules name
_ranked: tuple[tuple[Afd, ...], dict[str, list[int]], frozenset[str]] = ((), {}, frozenset())


def _ranking(afds: Iterable[Afd]) -> tuple[tuple[Afd, ...], dict[str, list[int]], frozenset[str]]:
    """The memo entry for the rule sequence ``afds``, holding the caller's
    own rule tuple; it is ranked once per sequence, and passing the entry's
    rule tuple back costs one identity check."""
    global _ranked
    rules = tuple(afds)
    cached, order, named = _ranked
    if rules is not cached:
        if rules != cached:
            positions: dict[str, list[int]] = {}
            for i, afd in enumerate(rules):
                positions.setdefault(afd.target, []).append(i)
            # a stable sort keeps equal-rank duplicates in list order
            order = {
                t: sorted(ix, key=lambda i: _afd_rank(rules[i])) for t, ix in positions.items()
            }
            named = frozenset(itertools.chain(positions, *(afd.determining for afd in rules)))
        _ranked = (rules, order, named)  # one assignment, so a reader never sees a mixed entry
    return rules, order, named


def best_afds(afds: Iterable[Afd], exclude: Iterable[str] = ()) -> dict[str, Afd]:
    """The strongest usable AFD per target attribute.

    AFDs whose determining set touches ``exclude``, a collection of
    attribute names, are skipped; a string is refused (TypeError), since
    iterating it would exclude its characters.  Ties in
    confidence go to the smaller determining set, then the lexicographically
    smaller one; equal rules resolve to the first listed.  The winners are
    the caller's own rule objects.  The iteration order of the returned dict
    is not part of the contract.

    The ranking is memoized for the last rule sequence seen, so repeated
    calls with an equal sequence cost one comparison and a walk of each
    target's ranked rules.  The memo keeps that last rule tuple alive.
    """
    if isinstance(exclude, str):
        raise TypeError(f"exclude must be a collection of attribute names, not the string {exclude!r}")
    rules, order, _ = _ranking(afds)
    banned = set(exclude)
    best: dict[str, Afd] = {}
    for target, ranked in order.items():
        for i in ranked:
            if not banned or banned.isdisjoint(rules[i].determining):
                best[target] = rules[i]
                break
    return best


def _afd_rank(afd: Afd) -> tuple[float, int, tuple[str, ...]]:
    return (-afd.confidence, len(afd.determining), afd.determining)


# ---------------------------------------------------------------------------
# naive Bayes value distributions


class NaiveBayesModel:
    """Laplace-smoothed naive Bayes over every (feature, target) attribute pair.

    For a target A with evidence x over features X the model scores
    P(a) * prod_i P(x_i | a), normalized over dom(A).  Counts for the pair
    (X_i, A) use the training rows null-free on both attributes.
    """

    def __init__(self, schema: Schema, class_counts, pair_counts):
        self.schema = schema
        self._class_counts = class_counts  # attr -> ndarray over dom(attr)
        self._pair_counts = pair_counts  # (feature, target) -> ndarray (|feat|, |tgt|)
        # smoothed class priors and per-class feature denominators; read, never mutated
        self._priors = {
            a: (c + 1.0) / (c.sum() + len(schema.domain(a))) for a, c in class_counts.items()
        }
        self._denoms = {
            (f, t): pair.sum(axis=0) + len(schema.domain(f)) for (f, t), pair in pair_counts.items()
        }
        self._smoothed = {key: pair + 1.0 for key, pair in pair_counts.items()}
        self._predictions: dict = {}  # predict's answers

    def posterior(self, target: str, evidence: Mapping[str, str]) -> np.ndarray:
        """P(target | evidence) as an array over the target's sorted domain."""
        schema = self.schema
        schema.index(target)  # KeyError for an unknown target
        probs = self._priors[target]
        for attr, value in sorted(evidence.items()):
            if attr == target:
                raise ValueError(f"evidence on the target attribute {target!r}")
            code = schema.code(attr, value)
            probs = probs * self._smoothed[(attr, target)][code] / self._denoms[(attr, target)]
        total = probs.sum()
        return probs / total

    def predict(self, target: str, evidence: Mapping[str, str]) -> tuple[str, float]:
        """Most probable target value and its probability (ties lexicographic), kept per evidence."""
        key = (target, *evidence.items())
        if key not in self._predictions:
            probs = self.posterior(target, evidence)
            i = int(probs.argmax())
            self._predictions[key] = self.schema.domain(target)[i], float(probs[i])
        return self._predictions[key]


def fit_naive_bayes(train: Table) -> NaiveBayesModel:
    schema = train.schema
    codes = train._column_codes()
    class_counts = {
        a: _value_counts(codes[[i]], [schema.sizes[i]]).astype(float)
        for i, a in enumerate(schema.attributes)
    }
    pair_counts = {
        (f, t): _value_counts(codes[[i, j]], [schema.sizes[i], schema.sizes[j]]).astype(float)
        for i, f in enumerate(schema.attributes)
        for j, t in enumerate(schema.attributes)
        if i != j
    }
    return NaiveBayesModel(schema, class_counts, pair_counts)


# ---------------------------------------------------------------------------
# imputation by chained AFD prediction


def afd_impute_tuple(
    afds: Sequence[Afd], model: NaiveBayesModel, row: Row
) -> tuple[Row, list[str]]:
    """Fill a row's missing cells from each attribute's best AFD.

    A missing determining value is predicted through that attribute's own
    best AFD, recursively.  A chain that revisits any attribute already on
    the path (the original target included) stops: that attribute is
    unpredictable and its cell stays null.  Returns the completed row and
    the sorted list of unpredictable attributes.

    Termination: the path only grows, so depth is bounded by the number of
    attributes.

    A rule naming an attribute outside the model's schema, as target or
    determining attribute, raises KeyError whether or not the row needs it.
    """
    schema = model.schema
    arity = len(schema.attributes)
    if len(row.cells) != arity:
        raise ValueError(f"row {row.id} has {len(row.cells)} cells, schema has {arity}")
    cells = dict(zip(schema.attributes, row.cells))
    rules, _, named = _ranking(afds)
    if not cells.keys() >= named:
        for attr in sorted(named):
            schema.index(attr)  # raises for the first unknown one
    best = best_afds(rules)

    def predict(attr: str, path: frozenset[str]) -> str | None:
        if attr in path:
            return None
        afd = best.get(attr)
        if afd is None:
            return None
        path = path | {attr}
        evidence: dict[str, str] = {}
        for det in afd.determining:
            value = cells[det]
            if value is None:
                value = predict(det, path)
                if value is None:
                    return None
            evidence[det] = value
        return model.predict(attr, evidence)[0]

    fills = {attr: predict(attr, frozenset()) for attr, value in cells.items() if value is None}
    new_cells = tuple(fills.get(attr, value) for attr, value in cells.items())
    return Row(row.id, new_cells), sorted(attr for attr, value in fills.items() if value is None)


# ---------------------------------------------------------------------------
# serialization

_ARROW = " -> "
_COLON = " : "


def afd_to_line(afd: Afd) -> str:
    return f"{','.join(afd.determining)}{_ARROW}{afd.target}{_COLON}{afd.confidence:.12g}"


def afd_from_line(line: str) -> Afd:
    try:
        lhs, rest = line.split("->", 1)
        target, conf = rest.rsplit(":", 1)
        det = tuple(sorted(p.strip() for p in lhs.split(",")))
        return Afd(det, target.strip(), float(conf.strip()))
    except (ValueError, TypeError):
        raise ValueError(f"malformed AFD line {line!r}") from None


def save_afds(afds: Iterable[Afd]) -> str:
    """One ``afd_to_line`` per rule.  Raises ValueError for a name ``load_afds``
    would misread: one holding ``,``, ``->`` or a line break, or padded."""
    afds = list(afds)
    for name in dict.fromkeys(n for a in afds for n in a.determining + (a.target,)):
        if "," in name or "->" in name or name != name.strip() or len(name.splitlines()) > 1:
            raise ValueError(f"attribute name {name!r} cannot be written to an AFD file")
    return "".join(afd_to_line(a) + "\n" for a in afds)


def load_afds(text: str) -> list[Afd]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            out.append(afd_from_line(line))
    return out
