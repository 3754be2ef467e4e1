"""Differential tests: d-separation and Markov blankets from the moral graph.

``d_separated`` asks whether ``x`` and ``y`` fall in different components
of the moral graph of the ancestors of {x, y} and the conditioning set,
with the conditioning set removed (Lauritzen, Dawid, Larsen & Leimer,
*Networks* 20(5), 1990).  ``markov_blanket`` and the candidate attributes of
``bn_all_mb`` read one blanket of a set of attributes: the other members of
every family that holds one of them.  The references below are the earlier
implementations, copied verbatim with their names prefixed ``_old``: a
two-phase ball-passing walk, and a walk over each attribute's children.
Every answer must be the same.
"""

from collections.abc import Iterable

from hypothesis import given, settings
from hypothesis import strategies as st

from nullbayes import BayesNet, SelectionQuery, d_separated, markov_blanket
from nullbayes.rewriting import _blanket_attrs
from nullbayes.synth import car_demo_net, random_net

# ---------------------------------------------------------------------------
# references


def _old_markov_blanket(net: BayesNet, attr: str) -> frozenset[str]:
    """Parents, children, and the children's other parents of ``attr``."""
    net.schema.index(attr)
    out: set[str] = set(net.parents[attr])
    for child in net.children(attr):
        out.add(child)
        out.update(net.parents[child])
    out.discard(attr)
    return frozenset(out)


def _old_blanket_attrs(net: BayesNet, query: SelectionQuery) -> list[str]:
    out: set[str] = set()
    for attr in query.attributes:
        out.update(_old_markov_blanket(net, attr))
    return sorted(out - set(query.attributes))


def _old_d_separated(net: BayesNet, x: str, y: str, given: Iterable[str] = ()) -> bool:
    """True iff every path between ``x`` and ``y`` is blocked by ``given``.

    Implemented as reachability of the ball-passing kind: the set of nodes
    reachable from ``x`` via active trails is computed in two phases
    (ancestors of the conditioning set, then a directed BFS over
    (node, direction) states).
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

    ancestors: set[str] = set()
    stack = list(z)
    while stack:
        node = stack.pop()
        if node in ancestors:
            continue
        ancestors.add(node)
        stack.extend(net.parents[node])

    UP, DOWN = 0, 1
    visited: set[tuple[str, int]] = set()
    frontier: list[tuple[str, int]] = [(x, UP)]
    reachable: set[str] = set()
    while frontier:
        node, direction = frontier.pop()
        if (node, direction) in visited:
            continue
        visited.add((node, direction))
        if node not in z:
            reachable.add(node)
        if direction == UP and node not in z:
            for p in net.parents[node]:
                frontier.append((p, UP))
            for c in net.children(node):
                frontier.append((c, DOWN))
        elif direction == DOWN:
            if node not in z:
                for c in net.children(node):
                    frontier.append((c, DOWN))
            if node in ancestors:
                for p in net.parents[node]:
                    frontier.append((p, UP))
    return y not in reachable


# ---------------------------------------------------------------------------
# strategies


@st.composite
def nets(draw, max_nodes=12):
    if draw(st.booleans()):
        return car_demo_net()
    n = draw(st.integers(2, max_nodes))
    parents = draw(st.integers(1, 4))
    return random_net(n, max_domain=2, seed=draw(st.integers(0, 10**6)), max_parents=parents)


@settings(max_examples=200, deadline=None)
@given(nets(), st.data())
def test_d_separation_matches_ball_passing(net, data):
    attrs = list(net.schema.attributes)
    x, y = data.draw(st.permutations(attrs))[:2]
    rest = [a for a in attrs if a not in (x, y)]
    given_ = data.draw(st.lists(st.sampled_from(rest), max_size=len(rest)) if rest else st.just([]))
    assert d_separated(net, x, y, given_) == _old_d_separated(net, x, y, given_)
    assert d_separated(net, y, x, given_) == _old_d_separated(net, x, y, given_)


@settings(max_examples=50, deadline=None)
@given(nets(max_nodes=6))
def test_every_d_separation_query_of_a_small_net(net):
    attrs = net.schema.attributes
    for x in attrs:
        for y in attrs:
            if x == y:
                continue
            rest = [a for a in attrs if a not in (x, y)]
            for mask in range(1 << len(rest)):
                given_ = [a for k, a in enumerate(rest) if mask >> k & 1]
                assert d_separated(net, x, y, given_) == _old_d_separated(net, x, y, given_)


@settings(max_examples=100, deadline=None)
@given(nets(), st.data())
def test_markov_blankets_match_the_children_walk(net, data):
    attrs = net.schema.attributes
    for attr in attrs:
        assert markov_blanket(net, attr) == _old_markov_blanket(net, attr)
        assert isinstance(markov_blanket(net, attr), frozenset)
    picked = data.draw(st.lists(st.sampled_from(attrs), min_size=1, unique=True))
    query = SelectionQuery({a: net.schema.domain(a)[0] for a in picked})
    assert _blanket_attrs(net, query) == _old_blanket_attrs(net, query)
