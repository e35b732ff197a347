"""
From word acceptance to long-run average rewards
================================================

Two reductions turn questions about a probabilistic finite automaton into
mean-payoff questions on a partially observable model with one observation.
The first makes the exact acceptance probability of a word readable off a
cycle mean; the second makes "some word is accepted with probability one"
equivalent to winning average 1 almost surely.
"""

from fractions import Fraction

from asmp import (
    Distr,
    Pfa,
    SimConfig,
    acceptance_probability,
    almost_sure_limavg_gt,
    bscc_mean_payoff,
    check_loop_strategy,
    decide_limavg1,
    interleaved_word_strategy,
    product_chain,
    recurrent_classes,
    reduce_quantitative,
    reduce_value1,
    simulate,
)
from asmp.gadgets import two_state_pfa

# The automaton accepts exactly a b* : one a, then any number of b's.
p = two_state_pfa()
for w in ([], ["a"], ["a", "b"], ["b"], ["a", "a"]):
    print(f"accept({''.join(w) or 'empty'}) = {acceptance_probability(p, w)}")
print()


def cycle_mean(g, rewards, sigma) -> Fraction:
    """Mean payoff of the single recurrent class the strategy reaches."""
    mc = product_chain(g, rewards, sigma)
    (mean,) = {bscc_mean_payoff(mc, cls) for cls in recurrent_classes(mc)}
    return mean


# Quantitative reduction: each automaton state splits into a rewarding and
# a silent copy, and a strategy that replays one word forever alternates
# advance steps with the word's letters. Reading a word w of length n this
# way takes 2(n+1)+1 steps per round, n+1 of them rewarding, plus the final
# check that pays off only with the acceptance probability. The cycle mean
# is therefore (n+1+accept)/(2n+3), which crosses 1/2 exactly when the
# acceptance probability does.
g, rewards = reduce_quantitative(p)
print("reduced model:", g.name, "with", g.n_states, "states")
half = Fraction(1, 2)
for w in ([], ["a"], ["a", "b"], ["b"]):
    sigma = interleaved_word_strategy(g, w)
    mean = cycle_mean(g, rewards, sigma)
    above = almost_sure_limavg_gt(product_chain(g, rewards, sigma), half)
    print(
        f"word {''.join(w) or 'empty':>5}: cycle mean {mean},"
        f" above 1/2: {above},"
        f" acceptance above 1/2: {acceptance_probability(p, w) > half}"
    )
print()

# The cycle mean is also what a long simulation measures.
sigma = interleaved_word_strategy(g, ["a"])
res = simulate(g, rewards, sigma, SimConfig(steps=10_000, runs=50))
print("simulated:", res.render())
print("exact    :", cycle_mean(g, rewards, sigma), "=", float(Fraction(3, 5)))
print()

# Value-1 reduction: replay a word, then check finality k times before
# starting over. If the word is accepted with probability one the checks
# never fail, and stretching k pushes the mean toward 1; the solver finds
# the strategy that parks on the accepting state and checks forever.
g1, r1 = reduce_value1(p)
for k in (1, 3, 10):
    mean = cycle_mean(g1, r1, check_loop_strategy(g1, ["a"], k))
    print(f"replay a, check x{k}: cycle mean {mean}")
report = decide_limavg1(g1, r1)
print("average 1 almost surely:", report.verdict)
print()

# Acceptance probabilities that only approach one are not enough. This
# automaton accepts a^n with probability 1 - 2^-n: the supremum over words
# is 1 but no single word attains it, and the verdict flips to NO.
flaky = Pfa(
    states=["try", "done"],
    alphabet=["a"],
    final=[1],
    initial=0,
    rows={
        (0, 0): Distr({0: half, 1: half}),
        (1, 0): Distr.dirac(1),
    },
    name="flaky",
)
g2, r2 = reduce_value1(flaky)
for n in (1, 2, 3, 8):
    print(f"accept(a^{n}) = {acceptance_probability(flaky, ['a'] * n)}")
print("average 1 almost surely:", decide_limavg1(g2, r2).verdict)
