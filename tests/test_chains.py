"""Product chains, recurrent classes, exact mean payoffs."""

import importlib
import random
from fractions import Fraction

import pytest

from asmp import (
    Distr,
    FiniteMemoryStrategy,
    MarkovChain,
    MemorylessStrategy,
    ModelError,
    StrategyError,
    almost_sure_limavg_gt,
    alternating_strategy,
    bscc_mean_payoff,
    constant_strategy,
    decide_limavg1,
    fingerprints,
    limavg1_diagnosis,
    product_chain,
    recurrent_classes,
    uniform_strategy,
    validate_strategy,
)
from asmp import chains
from asmp.gadgets import ring_pomdp, trap_ring_pomdp, unavoidable_zero_pomdp

from helpers import (
    as_finite_memory,
    bsccs,
    hidden_model,
    oracle_node_wins,
    random_belief_obs_pomdp,
    random_tagged_strategy,
    reach_set,
    reference_product_chain,
    successors,
)

# The package exports a function named ``collapse``, which hides the module.
collapse_module = importlib.import_module("asmp.collapse")


def class_names(mc, cls):
    return frozenset(mc.label_texts[i] for i in cls)


def stationary_mean_float(mc, cls):
    """Mean payoff of one recurrent class by sparse power iteration."""
    rows = {n: [(t, float(p)) for t, p in mc.rows[n].items()] for n in cls}
    gains = {n: float(sum(pa * r for pa, r in mc.plays[n].values())) for n in cls}
    pi = dict.fromkeys(cls, 1.0 / len(cls))
    for _ in range(20_000):
        nxt = dict.fromkeys(cls, 0.0)
        for n, w in pi.items():
            for t, p in rows[n]:
                nxt[t] += w * p
        pi = nxt
    return sum(pi[n] * gains[n] for n in cls)


class TestProductChain:
    def test_alternation_splits_the_ring(self):
        g, r = ring_pomdp()
        mc = product_chain(g, r, alternating_strategy(g, 0, 1))
        got = {class_names(mc, cls) for cls in recurrent_classes(mc)}
        assert got == {
            frozenset({"X·a", "X'·b"}),
            frozenset({"Z·b", "Z'·a"}),
        }
        assert limavg1_diagnosis(mc) is None

    def test_constant_play_mixes_everything(self):
        g, r = ring_pomdp()
        mc = product_chain(g, r, constant_strategy(g, 0))
        classes = recurrent_classes(mc)
        assert len(classes) == 1
        states = {text.split("·")[0] for text in class_names(mc, classes[0])}
        assert states == {"X", "X'", "Y", "Y'", "Z", "Z'"}
        assert limavg1_diagnosis(mc) is not None

    def test_unavailable_action_rejected(self):
        g, r = ring_pomdp()
        restricted = type(g)(
            g.states,
            g.actions,
            g.observations,
            g.obs_of,
            g.rows,
            g.initial,
            availability={0: (0,), 1: (0,)},
        )
        with pytest.raises(StrategyError):
            product_chain(restricted, r, constant_strategy(restricted, 1))

    def test_missing_update_row_rejected(self):
        g, r = ring_pomdp()
        sigma = FiniteMemoryStrategy(
            memories=["only"],
            next_action=[Distr.dirac(0)],
            update={},
            initial=0,
        )
        with pytest.raises(StrategyError):
            product_chain(g, r, sigma)

    @pytest.mark.parametrize(
        "next_action, row",
        [
            # An empty action row would play nothing and pass as winning.
            (Distr({0: 0}), Distr.dirac(0)),
            # An empty update row would move nowhere and pass as winning.
            (Distr.dirac(0), Distr({})),
            # List indexing would play memory -1 as the last memory.
            (Distr.dirac(0), Distr.dirac(-1)),
            # Memory 1 does not exist.
            (Distr.dirac(0), Distr({0: Fraction(1, 2), 1: Fraction(1, 2)})),
        ],
        ids=["empty-action", "empty-update", "negative-memory", "memory-past-end"],
    )
    def test_rows_the_chain_would_misread_are_rejected(self, next_action, row):
        g, _ = ring_pomdp()
        update = {(0, o, a): row for o in range(g.n_observations) for a in (0, 1)}
        with pytest.raises(StrategyError):
            FiniteMemoryStrategy(["only"], [next_action], update, 0)

    def test_a_shared_bad_row_is_named_by_its_first_triple(self):
        g, _ = ring_pomdp()
        bad = Distr.dirac(3)
        update = {(0, 0, 0): Distr.dirac(0), (0, 1, 0): bad, (0, 1, 1): bad}
        with pytest.raises(StrategyError, match="observation id 1, action id 0 "):
            FiniteMemoryStrategy(["only"], [Distr.dirac(0)], update, 0)

    def test_memoryless_chain_agrees_with_the_lifted_build(self):
        g, r = trap_ring_pomdp()
        sigma = uniform_strategy(g)
        direct = product_chain(g, r, sigma)
        lifted = product_chain(g, r, as_finite_memory(sigma, g))
        lifted_states = {
            frozenset(t.split("·")[0] for t in class_names(lifted, c))
            for c in recurrent_classes(lifted)
        }
        direct_states = {
            frozenset(class_names(direct, c))
            for c in recurrent_classes(direct)
        }
        assert direct_states == lifted_states
        assert (limavg1_diagnosis(direct) is None) == (
            limavg1_diagnosis(lifted) is None
        )

    def test_reachable_lists_every_node_the_search_finds(self):
        rng = random.Random(4444)
        for k in range(60):
            g, r = random_belief_obs_pomdp(rng)
            sigma = random_tagged_strategy(rng, g, randomized=k % 2 == 1)
            mc = product_chain(g, r, sigma)
            succ = {i: successors(mc, i) for i in range(mc.n_nodes)}
            assert mc.reachable() == sorted(reach_set(succ, 0))


def hub_corpus():
    """The solver's witnesses for hidden-5 and hidden-6, whose update rows
    repeat a few supports many times, then seeded random strategies whose
    updates often move to three or four memories, each row its own
    object."""
    for n in (5, 6):
        g, r = hidden_model(n, 100 + n)
        yield g, r, decide_limavg1(g, r).witness
    rng = random.Random(4646)
    for _ in range(150):
        g, r = random_belief_obs_pomdp(rng)
        yield g, r, random_tagged_strategy(rng, g, randomized=True, max_tags=4)


class TestHubRouting:
    """The hub-routed chain against the builder that spells out every edge."""

    def test_chain_questions_match_the_reference_builder(self, monkeypatch):
        hubbed = 0
        for g, r, sigma in hub_corpus():
            mc = product_chain(g, r, sigma)
            ref = reference_product_chain(g, r, sigma)
            assert mc.labels == ref.labels
            assert mc.below_one == ref.below_one
            assert [successors(mc, i) for i in range(mc.n_nodes)] == ref.graph
            assert mc.recurrent == ref.recurrent
            assert limavg1_diagnosis(mc) == limavg1_diagnosis(ref)
            with monkeypatch.context() as patch:
                patch.setattr(collapse_module, "product_chain", reference_product_chain)
                want = fingerprints(g, r, sigma)
            assert fingerprints(g, r, sigma) == want
            hubbed += len(mc.graph) > mc.n_nodes
        # Over half of the chains route some move through a hub.
        assert hubbed >= 80

    def test_updates_to_one_or_two_memories_keep_direct_edges(self):
        g, r = trap_ring_pomdp()
        cases = [(g, r, uniform_strategy(g)), (g, r, alternating_strategy(g, 0, 1))]
        rng = random.Random(4747)
        for _ in range(40):
            g, r = random_belief_obs_pomdp(rng)
            cases.append((g, r, random_tagged_strategy(rng, g, randomized=True)))
        for g, r, sigma in cases:
            mc = product_chain(g, r, sigma)
            assert len(mc.graph) == mc.n_nodes
            assert all(mc.graph[i] == successors(mc, i) for i in range(mc.n_nodes))

    def test_one_hub_per_state_and_support(self):
        # The random strategies give every update triple its own row, so
        # rows with equal supports must still share their hubs.
        for g, r, sigma in hub_corpus():
            mc = product_chain(g, r, sigma)
            routes = [
                frozenset(mc.labels[j] for j in mc.graph[h])
                for h in range(mc.n_nodes, len(mc.graph))
            ]
            assert len(set(routes)) == len(routes)
            for route in routes:
                assert len({t for t, _ in route}) == 1 and len(route) > 2


def weights_read(mc):
    pytest.fail("a qualitative check derived the exact weights")


class TestSupportChain:
    """The support-only chain against the exact weights it derives on demand."""

    def test_diagnosis_matches_the_oracle_on_seeded_strategies(self, monkeypatch):
        rng = random.Random(4242)
        for k in range(120):
            g, r = random_belief_obs_pomdp(rng)
            sigma = random_tagged_strategy(rng, g, randomized=k % 2 == 1)
            mc = product_chain(g, r, sigma)
            succ = {i: successors(mc, i) for i in range(mc.n_nodes)}
            assert reach_set(succ, 0) == set(range(mc.n_nodes))
            with monkeypatch.context() as patch:
                patch.setattr(MarkovChain, "_weights", property(weights_read))
                found = limavg1_diagnosis(mc)
                ok, _ = validate_strategy(g, r, sigma)
                fingerprints(g, r, sigma)
            assert ok == (found is None)
            for i in range(mc.n_nodes):
                assert mc.rows[i].support() == successors(mc, i)
            assert (found is None) == oracle_node_wins(mc, 0)
            if found is None:
                continue
            succ = {i: mc.rows[i].support() for i in range(mc.n_nodes)}
            reachable = reach_set(succ, 0)
            bad = [
                (i, a)
                for cls in sorted(sorted(c) for c in bsccs(succ) if c & reachable)
                for i in cls
                for a, (_, reward) in sorted(mc.plays[i].items())
                if reward < 1
            ]
            cls, pair = found
            assert pair == bad[0]
            assert cls == sorted(next(c for c in bsccs(succ) if pair[0] in c))

    def test_memoryless_verdict_matches_the_lifted_strategy(self):
        rng = random.Random(4343)
        for _ in range(120):
            g, r = random_belief_obs_pomdp(rng)
            ml = MemorylessStrategy(
                {
                    o: Distr.uniform(rng.sample(g.avail(o), rng.randint(1, len(g.avail(o)))))
                    for o in range(g.n_observations)
                }
            )
            direct, _ = validate_strategy(g, r, ml)
            lifted, _ = validate_strategy(g, r, as_finite_memory(ml, g))
            assert direct == lifted


class TestMeanPayoff:
    def test_exact_mean_matches_power_iteration(self):
        g, r = ring_pomdp()
        for sigma in (constant_strategy(g, 0), constant_strategy(g, 1)):
            mc = product_chain(g, r, sigma)
            for cls in recurrent_classes(mc):
                exact = bscc_mean_payoff(mc, cls)
                approx = stationary_mean_float(mc, cls)
                assert abs(float(exact) - approx) < 1e-12

    def test_each_class_is_solved_once(self, monkeypatch):
        solves = []

        def counting_solve(a, b):
            solves.append(len(b))
            return real_solve(a, b)

        real_solve = chains._solve_exact
        monkeypatch.setattr(chains, "_solve_exact", counting_solve)
        g, r = ring_pomdp()
        mc = product_chain(g, r, alternating_strategy(g, 0, 1))
        # The analyze-chain sequence: print each class mean, then threshold.
        classes = recurrent_classes(mc)
        means = [bscc_mean_payoff(mc, cls) for cls in classes]
        assert almost_sure_limavg_gt(mc, Fraction(1, 2))
        assert means == [1, 1]
        assert solves == [len(cls) for cls in classes]

    def test_threshold_verdicts_bracket_the_mean(self):
        g, r = unavoidable_zero_pomdp()
        mc = product_chain(g, r, constant_strategy(g, 0))
        (cls,) = recurrent_classes(mc)
        mean = bscc_mean_payoff(mc, cls)
        assert mean == Fraction(1, 2)
        assert almost_sure_limavg_gt(mc, mean - Fraction(1, 100))
        assert not almost_sure_limavg_gt(mc, mean)

    def test_a_node_set_that_is_not_a_recurrent_class_is_refused(self):
        g, r = unavoidable_zero_pomdp()
        mc = product_chain(g, r, constant_strategy(g, 0))
        (cls,) = mc.recurrent
        assert len(cls) > 1
        with pytest.raises(ModelError) as e:
            bscc_mean_payoff(mc, cls[1:])
        assert str(e.value) == f"{cls[1:]} is not a recurrent class of this chain"


class TestDiagnosis:
    def test_bad_class_is_named(self):
        g, r = ring_pomdp()
        mc = product_chain(g, r, constant_strategy(g, 0))
        found = limavg1_diagnosis(mc)
        assert found is not None
        cls, (node, action) = found
        assert {mc.label_texts[i].split("·")[0] for i in cls} == {
            "X", "X'", "Y", "Y'", "Z", "Z'",
        }
        assert mc.label_texts[node].startswith(("Y", "Y'"))
        assert mc.action_names[action] == "a"

    def test_winning_chain_has_no_diagnosis(self):
        g, r = ring_pomdp()
        mc = product_chain(g, r, alternating_strategy(g, 0, 1))
        assert limavg1_diagnosis(mc) is None

