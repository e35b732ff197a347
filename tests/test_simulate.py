"""Monte Carlo runs: reproducibility, burn-in handling, and agreement
with the exact chain analysis."""

import random
from fractions import Fraction

import pytest

from asmp import (
    Distr,
    MemorylessStrategy,
    ModelError,
    Pomdp,
    RewardFn,
    SimConfig,
    StrategyError,
    alternating_strategy,
    bscc_mean_payoff,
    interleaved_word_strategy,
    product_chain,
    recurrent_classes,
    reduce_quantitative,
    simulate,
    uniform_strategy,
)
from asmp.gadgets import ring_pomdp, trap_ring_pomdp, two_state_pfa

from helpers import as_finite_memory, random_belief_obs_pomdp
from test_pfa import coin_pfa


def restricted_pomdp() -> Pomdp:
    """Two states with one-sided availability, to provoke illegal moves."""
    rows = {
        (0, 0): Distr.dirac(1),
        (1, 0): Distr.dirac(0),
        (1, 1): Distr.dirac(1),
    }
    return Pomdp(
        states=["A", "B"],
        actions=["go", "stay"],
        observations=["oA", "oB"],
        obs_of=[0, 1],
        rows=rows,
        initial=0,
        availability={0: (0,), 1: (0, 1)},
        name="one-sided",
    )


class TestDeterminism:
    def test_same_config_reproduces_every_average(self):
        g, r = ring_pomdp()
        sigma = alternating_strategy(g, 0, 1)
        cfg = SimConfig(steps=400, runs=10, seed=3)
        assert simulate(g, r, sigma, cfg).averages == simulate(
            g, r, sigma, cfg
        ).averages

    def test_trials_are_independent_of_the_run_count(self):
        g, r = ring_pomdp()
        sigma = alternating_strategy(g, 0, 1)
        few = simulate(g, r, sigma, SimConfig(steps=300, runs=3, seed=9))
        many = simulate(g, r, sigma, SimConfig(steps=300, runs=8, seed=9))
        assert many.averages[:3] == few.averages

    def test_the_seed_matters(self):
        g, r = trap_ring_pomdp()
        sigma = uniform_strategy(g)
        one = simulate(g, r, sigma, SimConfig(steps=500, runs=5, seed=0))
        two = simulate(g, r, sigma, SimConfig(steps=500, runs=5, seed=1))
        assert one.averages != two.averages


class TestMemorylessPlay:
    def test_observation_memory_matches_the_lifted_strategy(self):
        rng = random.Random(5151)
        for k in range(40):
            g, r = random_belief_obs_pomdp(rng)
            sigma = MemorylessStrategy(
                {
                    o: Distr.uniform(rng.sample(sorted(g.avail(o)), rng.randint(1, len(g.avail(o)))))
                    for o in range(g.n_observations)
                }
            )
            cfg = SimConfig(steps=200, runs=3, seed=k)
            assert simulate(g, r, sigma, cfg).averages == simulate(
                g, r, as_finite_memory(sigma, g), cfg
            ).averages

    def test_uncovered_observation_is_named(self):
        g = restricted_pomdp()
        r = RewardFn.from_state_rewards(g, {0: 1, 1: 1})
        only_a = MemorylessStrategy({0: Distr.dirac(0)})
        with pytest.raises(StrategyError) as e:
            simulate(g, r, only_a, SimConfig(steps=10, runs=1))
        assert str(e.value) == "no action choice for observation id 1"


class TestAgreementWithExactAnalysis:
    def test_constant_reward_one_gives_mean_exactly_one(self):
        g, _ = ring_pomdp()
        r = RewardFn.from_state_rewards(g, {s: 1 for s in range(g.n_states)})
        res = simulate(g, r, uniform_strategy(g), SimConfig(steps=200, runs=5))
        assert res.averages == (1.0,) * 5
        assert res.mean == 1.0
        assert res.stderr == 0.0

    def test_winning_alternation_pays_one_after_absorption(self):
        g, r = ring_pomdp()
        res = simulate(
            g, r, alternating_strategy(g, 0, 1), SimConfig(steps=2000, runs=20)
        )
        # Burn-in dwarfs the absorption time into the rewarded two-cycles.
        assert res.averages == (1.0,) * 20

    def test_deterministic_round_means_are_exact(self):
        g, r = reduce_quantitative(two_state_pfa())
        sigma = interleaved_word_strategy(g, ["a"])
        res = simulate(g, r, sigma, SimConfig(steps=10_000, runs=10))
        # Window length and burn-in are multiples of the five-step round,
        # so every trial averages one full cycle set: exactly 3/5.
        assert res.averages == (float(Fraction(3, 5)),) * 10

    def test_random_rounds_agree_within_three_standard_errors(self):
        p = coin_pfa()
        g, r = reduce_quantitative(p)
        sigma = interleaved_word_strategy(g, ["a"])
        res = simulate(g, r, sigma, SimConfig(steps=4000, runs=40))
        assert res.stderr > 0
        assert abs(res.mean - 0.5) <= 3 * res.stderr

    def test_uniform_play_matches_the_stationary_mean(self):
        g, r = trap_ring_pomdp()
        sigma = uniform_strategy(g)
        mc = product_chain(g, r, sigma)
        classes = recurrent_classes(mc)
        assert len(classes) == 1
        exact = bscc_mean_payoff(mc, classes[0])
        res = simulate(g, r, sigma, SimConfig(steps=6000, runs=40))
        assert abs(res.mean - float(exact)) <= 3 * res.stderr + 1e-9


class TestConfigAndErrors:
    def test_default_burn_in_is_a_tenth(self):
        assert SimConfig(steps=5000).resolved_burn_in() == 500
        assert SimConfig(steps=5000, burn_in=7).resolved_burn_in() == 7

    def test_burn_in_must_leave_a_window(self):
        with pytest.raises(ModelError, match="burn-in"):
            SimConfig(steps=100, burn_in=100).resolved_burn_in()
        with pytest.raises(ModelError, match="burn-in"):
            SimConfig(steps=100, burn_in=-1).resolved_burn_in()
        with pytest.raises(ModelError, match="burn-in"):
            simulate(*ring_pomdp(), uniform_strategy(ring_pomdp()[0]),
                     SimConfig(steps=10, burn_in=10))

    @pytest.mark.parametrize("field", ["steps", "runs"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_steps_and_runs_must_be_positive(self, field, value):
        with pytest.raises(ModelError, match=f"{field} must be at least 1, not {value}"):
            SimConfig(**{field: value})

    def test_illegal_moves_are_reported_with_state_and_action(self):
        g = restricted_pomdp()
        r = RewardFn.from_state_rewards(g, {0: 1, 1: 1})
        greedy = MemorylessStrategy(
            {0: Distr.dirac(1), 1: Distr.dirac(0)}
        )
        with pytest.raises(ModelError, match="'stay' at state 'A'"):
            simulate(g, r, greedy, SimConfig(steps=10, runs=1))

    def test_unavailable_action_raises_what_the_chain_raises(self):
        g = restricted_pomdp()
        r = RewardFn.from_state_rewards(g, {0: 1, 1: 1})
        stay_go = MemorylessStrategy({0: Distr.dirac(1), 1: Distr.dirac(0)})
        errors = []
        for play in (
            lambda: simulate(g, r, stay_go, SimConfig(steps=10, runs=1)),
            lambda: product_chain(g, r, stay_go),
        ):
            with pytest.raises(ModelError) as err:
                play()
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1] == (
            StrategyError,
            "strategy plays 'stay' at state 'A', unavailable at observation 'oA'",
        )

    def test_result_carries_its_configuration(self):
        g, r = ring_pomdp()
        cfg = SimConfig(steps=120, runs=4, seed=11, burn_in=20)
        res = simulate(g, r, alternating_strategy(g, 0, 1), cfg)
        assert res.config == cfg
        assert len(res.averages) == 4
        assert res.low <= res.mean <= res.high
        text = res.render()
        assert "runs=4 steps=120 burn-in=20 seed=11" in text
        assert text.startswith("mean=")

    def test_a_single_run_has_no_standard_error(self):
        g, r = ring_pomdp()
        cfg = SimConfig(steps=120, runs=1, seed=11)
        res = simulate(g, r, alternating_strategy(g, 0, 1), cfg)
        assert res.stderr == 0.0
        assert " stderr=0.000000 " in res.render()
