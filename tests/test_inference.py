"""Exact and sampled posteriors against brute-force oracles."""

import numpy as np
import pytest

from nullbayes import (
    BayesNet,
    ImpossibleEvidenceError,
    JointDistribution,
    Schema,
    enumerate_joint,
    format_distribution,
    map_assignment,
    posterior_exact,
    posterior_gibbs,
)
from nullbayes.synth import random_net

from conftest import dist_as_dict, oracle_conditional, oracle_joint


def _zero_link_net():
    """P(B=b1 | A=a0) is exactly zero, so {A=a0, B=b1} is impossible."""
    s = Schema(("A", "B"), {"A": ("a0", "a1"), "B": ("b0", "b1")})
    return BayesNet(
        s,
        {"B": ("A",)},
        {"A": np.array([0.5, 0.5]), "B": np.array([[1.0, 0.0], [0.3, 0.7]])},
    )


def _unconnected_target_net():
    """A -> B, and C unconnected: B = b1 has probability zero under either
    value of A, so evidence B = b1 is impossible, although C's Markov
    blanket is empty and C's posterior alone never meets B's CPT."""
    s = Schema(("A", "B", "C"), {"A": ("a0", "a1"), "B": ("b0", "b1"), "C": ("c0", "c1")})
    return BayesNet(
        s,
        {"B": ("A",)},
        {
            "A": np.array([0.5, 0.5]),
            "B": np.array([[1.0, 0.0], [1.0, 0.0]]),
            "C": np.array([0.4, 0.6]),
        },
    )


class TestJointDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            JointDistribution((), (), np.array(1.0))
        with pytest.raises(ValueError):
            JointDistribution(("A",), (("x", "y"),), np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            JointDistribution(("A",), (("x", "y"),), np.array([1.5, -0.5]))
        with pytest.raises(ValueError):
            JointDistribution(("A",), (("x", "y", "z"),), np.array([0.5, 0.5]))

    def test_prob_and_items(self):
        d = JointDistribution(
            ("A", "B"),
            (("x", "y"), ("0", "1")),
            np.array([[0.1, 0.2], [0.3, 0.4]]),
        )
        assert d.prob(("y", "0")) == pytest.approx(0.3)
        assert list(d.items()) == [
            (("x", "0"), 0.1),
            (("x", "1"), 0.2),
            (("y", "0"), 0.3),
            (("y", "1"), 0.4),
        ]
        with pytest.raises(KeyError):
            d.prob(("z", "0"))
        with pytest.raises(ValueError):
            d.prob(("x",))

    @pytest.mark.parametrize("transposed", [False, True])
    def test_items_are_those_of_the_per_entry_unravel(self, transposed):
        def old_items(dist):  # the earlier JointDistribution.items, verbatim
            for flat, p in enumerate(dist.probs.ravel()):
                idx = np.unravel_index(flat, dist.probs.shape)
                yield tuple(d[i] for d, i in zip(dist.domains, idx)), float(p)

        weights = np.random.default_rng(7).random((2, 3, 4))
        domains = (("a0", "a1"), ("b0", "b1", "b2"), ("c0", "c1", "c2", "c3"))
        probs = weights / weights.sum()
        if transposed:  # a non-contiguous view, axes in another order
            probs, domains = probs.transpose(2, 0, 1), (domains[2], domains[0], domains[1])
            assert not probs.flags.c_contiguous
        d = JointDistribution(("C", "A", "B") if transposed else ("A", "B", "C"), domains, probs)
        got, want = list(d.items()), list(old_items(d))
        assert got == want
        assert all(type(p) is float for _, p in got)

    def test_marginal(self):
        d = JointDistribution(
            ("A", "B"),
            (("x", "y"), ("0", "1")),
            np.array([[0.1, 0.2], [0.3, 0.4]]),
        )
        m = d.marginal("A")
        assert m.targets == ("A",)
        np.testing.assert_allclose(m.probs, [0.3, 0.7])
        with pytest.raises(KeyError):
            d.marginal("C")

    def test_probs_frozen(self):
        d = JointDistribution(("A",), (("x", "y"),), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            d.probs[0] = 1.0


class TestMapAssignment:
    def test_picks_mode(self):
        d = JointDistribution(("A",), (("x", "y"),), np.array([0.3, 0.7]))
        assert map_assignment(d) == ("y",)

    def test_exact_tie_goes_lexicographically_smallest(self):
        d = JointDistribution(
            ("A", "B"),
            (("x", "y"), ("0", "1")),
            np.array([[0.25, 0.25], [0.25, 0.25]]),
        )
        assert map_assignment(d) == ("x", "0")

    def test_rounding_tie_goes_lexicographically_smallest(self):
        # 0.3 and the next double up: a tie that summation order decides
        d = JointDistribution(
            ("A",), (("w", "x", "y", "z"),), np.array([0.2, 0.3, 0.30000000000000004, 0.2])
        )
        assert map_assignment(d) == ("x",)

    def test_format_distribution(self):
        d = JointDistribution(("A",), (("x", "y"),), np.array([0.25, 0.75]))
        assert format_distribution(d) == "x\t0.25\ny\t0.75\n"


class TestPosteriorExact:
    def test_prior_marginal_matches_oracle(self, fitted_demo_net):
        net = fitted_demo_net
        for attr in net.schema.attributes:
            want = oracle_conditional(net, [attr])
            got = dist_as_dict(posterior_exact(net, [attr]))
            for combo, p in want.items():
                assert got[combo] == pytest.approx(p, abs=1e-12)

    def test_conditional_matches_oracle(self, fitted_demo_net):
        net = fitted_demo_net
        cases = [
            (["Body"], {"Model": "A8", "Year": "2005"}),
            (["Make"], {"Body": "Sedan"}),
            (["Model", "Year"], {"Body": "Convt"}),
            (["Mileage"], {"Make": "BMW", "Body": "Coupe"}),
        ]
        for targets, evidence in cases:
            want = oracle_conditional(net, targets, evidence)
            got = dist_as_dict(posterior_exact(net, targets, evidence))
            assert set(got) == set(want)
            for combo, p in want.items():
                assert got[combo] == pytest.approx(p, abs=1e-10)

    def test_target_order_preserved(self, fitted_demo_net):
        d = posterior_exact(fitted_demo_net, ["Year", "Model"])
        assert d.targets == ("Year", "Model")
        d2 = posterior_exact(fitted_demo_net, ["Model", "Year"])
        np.testing.assert_allclose(d.probs, d2.probs.T)

    def test_evidence_on_target_clamps_it(self, fitted_demo_net):
        d = posterior_exact(
            fitted_demo_net, ["Body", "Model"], {"Body": "Sedan", "Year": "2005"}
        )
        m = d.marginal("Body")
        np.testing.assert_allclose(
            m.probs, [1.0 if v == "Sedan" else 0.0 for v in m.domains[0]], atol=1e-12
        )
        # the free target still matches the oracle
        want = oracle_conditional(
            fitted_demo_net, ["Model"], {"Body": "Sedan", "Year": "2005"}
        )
        got = dist_as_dict(d.marginal("Model"))
        for combo, p in want.items():
            assert got[combo] == pytest.approx(p, abs=1e-10)

    def test_impossible_evidence_raises(self):
        cases = [
            (_zero_link_net(), ["A"], {"A": "a0", "B": "b1"}),
            # the query's ancestors, not C's blanket, decide which CPTs enter
            (_unconnected_target_net(), ["C"], {"B": "b1"}),
        ]
        for net, targets, evidence in cases:
            with pytest.raises(ImpossibleEvidenceError):
                posterior_exact(net, targets, evidence)

    def test_bad_queries_rejected(self, fitted_demo_net):
        with pytest.raises(ValueError):
            posterior_exact(fitted_demo_net, [])
        with pytest.raises(ValueError):
            posterior_exact(fitted_demo_net, ["Body", "Body"])
        with pytest.raises(KeyError):
            posterior_exact(fitted_demo_net, ["Color"])
        with pytest.raises(ValueError):
            posterior_exact(fitted_demo_net, ["Body"], {"Make": "Lada"})

    def test_random_nets_match_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            net = random_net(
                n_nodes=int(rng.integers(2, 5)), max_domain=3, seed=int(rng.integers(1 << 30))
            )
            attrs = list(net.schema.attributes)
            k = int(rng.integers(1, len(attrs) + 1))
            targets = list(rng.choice(attrs, size=k, replace=False))
            rest = [a for a in attrs if a not in targets]
            evidence = {}
            if rest and rng.random() < 0.8:
                a = rest[int(rng.integers(len(rest)))]
                dom = net.schema.domain(a)
                evidence[a] = dom[int(rng.integers(len(dom)))]
            want = oracle_conditional(net, targets, evidence)
            got = dist_as_dict(posterior_exact(net, targets, evidence))
            for combo, p in want.items():
                assert got[combo] == pytest.approx(p, abs=1e-9)


class TestEnumerateJoint:
    def test_matches_oracle(self, fitted_demo_net):
        joint = enumerate_joint(fitted_demo_net)
        want = oracle_joint(fitted_demo_net)
        total = sum(want.values())
        for combo, p in joint.items():
            assert p == pytest.approx(want[combo] / total, abs=1e-12)

    def test_refuses_huge_state_space(self):
        attrs = tuple(f"V{i}" for i in range(24))
        s = Schema(attrs, {a: ("0", "1") for a in attrs})
        net = BayesNet(s, {}, {a: np.array([0.5, 0.5]) for a in attrs})
        with pytest.raises(ValueError, match="states"):
            enumerate_joint(net)


class TestPosteriorGibbs:
    def test_deterministic_per_seed(self, fitted_demo_net):
        a = posterior_gibbs(fitted_demo_net, ["Body"], {"Make": "BMW"}, seed=3)
        b = posterior_gibbs(fitted_demo_net, ["Body"], {"Make": "BMW"}, seed=3)
        np.testing.assert_array_equal(a.probs, b.probs)
        c = posterior_gibbs(fitted_demo_net, ["Body"], {"Make": "BMW"}, seed=4)
        assert not np.array_equal(a.probs, c.probs)

    def test_tracks_exact_posterior(self, fitted_demo_net):
        net = fitted_demo_net
        exact = posterior_exact(net, ["Body"], {"Make": "BMW"})
        approx = posterior_gibbs(
            net, ["Body"], {"Make": "BMW"}, samples=4000, burn_in=400, seed=0
        )
        tv = 0.5 * float(np.abs(exact.probs - approx.probs).sum())
        assert tv < 0.05

    def test_all_targets_clamped_is_exact(self, fitted_demo_net):
        d = posterior_gibbs(
            fitted_demo_net, ["Body"], {"Body": "Sedan", "Make": "BMW"}, seed=0
        )
        np.testing.assert_allclose(
            d.probs, [1.0 if v == "Sedan" else 0.0 for v in d.domains[0]]
        )

    def test_zero_conditional_detected(self):
        # deterministic chain with contradictory ends: every value of B has
        # probability zero, which the sampler must notice rather than spin
        s = Schema(("A", "B", "C"), {k: ("0", "1") for k in "ABC"})
        ident = np.array([[1.0, 0.0], [0.0, 1.0]])
        net = BayesNet(
            s,
            {"B": ("A",), "C": ("B",)},
            {"A": np.array([0.5, 0.5]), "B": ident, "C": ident},
        )
        with pytest.raises(ImpossibleEvidenceError):
            posterior_gibbs(net, ["B"], {"A": "0", "C": "1"}, seed=0)
        # A, free beside the target C, meets B's zero column
        with pytest.raises(ImpossibleEvidenceError):
            posterior_gibbs(_unconnected_target_net(), ["C"], {"B": "b1"}, seed=0)

    def test_bad_sample_count(self, fitted_demo_net):
        with pytest.raises(ValueError):
            posterior_gibbs(fitted_demo_net, ["Body"], samples=0)
