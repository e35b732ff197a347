"""
Synthesizing an almost-sure mean-payoff strategy for a hidden ring
==================================================================

Builds a seven-state model from scratch, asks the solver for a strategy
whose long-run average reward is 1 with probability one, and shows how
the validator rejects the obvious strategies that do not work.
"""

from asmp import (
    Distr,
    Pomdp,
    RewardFn,
    bscc_mean_payoff,
    constant_strategy,
    decide_limavg1,
    product_chain,
    recurrent_classes,
    uniform_strategy,
    validate_strategy,
)

# Two deterministic 3-cycles, interleaved. After the first move the agent
# is somewhere on the ring but every ring state looks identical, so its
# belief never shrinks: it must win by pure timing.
names = ["s0", "X", "X'", "Y", "Y'", "Z", "Z'"]
ids = {n: i for i, n in enumerate(names)}
ring = [ids[n] for n in names[1:]]

rows = {
    (ids["s0"], 0): Distr.uniform(ring),
    (ids["s0"], 1): Distr.uniform(ring),
    (ids["X"], 0): Distr.dirac(ids["X'"]),
    (ids["X"], 1): Distr.dirac(ids["Y"]),
    (ids["X'"], 0): Distr.dirac(ids["Y'"]),
    (ids["X'"], 1): Distr.dirac(ids["X"]),
    (ids["Z"], 0): Distr.dirac(ids["Y"]),
    (ids["Z"], 1): Distr.dirac(ids["Z'"]),
    (ids["Z'"], 0): Distr.dirac(ids["Z"]),
    (ids["Z'"], 1): Distr.dirac(ids["Y'"]),
}
# The crossing states Y and Y' shuffle the agent between the cycles no
# matter what it plays; they are also the only states that pay nothing.
for act in (0, 1):
    rows[(ids["Y"], act)] = Distr.uniform([ids["X"], ids["Z"]])
    rows[(ids["Y'"], act)] = Distr.uniform([ids["X'"], ids["Z'"]])

g = Pomdp(
    states=names,
    actions=["a", "b"],
    observations=["start", "u"],
    obs_of=[0] + [1] * 6,
    rows=rows,
    initial=ids["s0"],
    name="ring",
)
rewards = RewardFn.from_state_rewards(
    g, {ids[n]: 1 for n in ("s0", "X", "X'", "Z", "Z'")}
)

# The solver reduces the model to a belief-observation game, runs the
# safety and reachability fixpoints, and folds the memoryless winner it
# finds there back into a finite-memory strategy for the original model.
report = decide_limavg1(g, rewards)
print(report.render())
print()

# The witness was already validated inside decide_limavg1; doing it again
# here shows the call you would use on a strategy of your own.
ok, _ = validate_strategy(g, rewards, report.witness)
print("witness revalidates:", ok)
print()

# Single-minded play loses: always-a keeps each cycle spinning through its
# zero-reward crossing, and coin-flipping mixes the cycles forever.
for label, sigma in [
    ("always a", constant_strategy(g, 0)),
    ("always b", constant_strategy(g, 1)),
    ("uniform coin", uniform_strategy(g)),
]:
    ok, diag = validate_strategy(g, rewards, sigma)
    print(f"{label}: {'winning' if ok else diag.message}")

# "Below 1" can be made exact: fix the coin strategy, take the Markov
# chain it induces, and solve the stationary distribution of its single
# recurrent class in rational arithmetic.
mc = product_chain(g, rewards, uniform_strategy(g))
(cls,) = recurrent_classes(mc)
print()
print("coin strategy long-run average:", bscc_mean_payoff(mc, cls))
