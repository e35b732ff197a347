"""Monte Carlo estimation of long-run average rewards under a strategy.

Runs are independent: trial i draws from random.Random(f"{seed}:{i}"), so
any single trial can be reproduced without replaying the ones before it.
Distributions are compiled once into cumulative float tables and sampled
by bisection; exact arithmetic stays in the analytic modules.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass

from .chains import (
    FiniteMemoryStrategy,
    MemorylessStrategy,
    _playable,
    _unavailable_play,
)
from .model import ModelError, Pomdp, RewardFn


@dataclass(frozen=True)
class SimConfig:
    steps: int = 10_000
    runs: int = 100
    seed: int = 0
    burn_in: int | None = None  # None: a tenth of the steps

    def __post_init__(self):
        for name, value in (("steps", self.steps), ("runs", self.runs)):
            if value < 1:
                raise ModelError(f"{name} must be at least 1, not {value}")

    def resolved_burn_in(self) -> int:
        b = self.steps // 10 if self.burn_in is None else self.burn_in
        if not 0 <= b < self.steps:
            raise ModelError(f"burn-in {b} must lie in [0, steps)")
        return b


@dataclass(frozen=True)
class SimResult:
    averages: tuple[float, ...]
    config: SimConfig

    @property
    def mean(self) -> float:
        return sum(self.averages) / len(self.averages)

    @property
    def stderr(self) -> float:
        n = len(self.averages)
        if n < 2:
            return 0.0
        m = self.mean
        var = sum((x - m) ** 2 for x in self.averages) / (n - 1)
        return math.sqrt(var / n)

    @property
    def low(self) -> float:
        return min(self.averages)

    @property
    def high(self) -> float:
        return max(self.averages)

    def render(self) -> str:
        c = self.config
        return (
            f"mean={self.mean:.6f} stderr={self.stderr:.6f}"
            f" min={self.low:.6f} max={self.high:.6f}"
            f" runs={c.runs} steps={c.steps} burn-in={c.resolved_burn_in()}"
            f" seed={c.seed}"
        )


class _Sampler:
    """Cumulative-weight table for one distribution."""

    __slots__ = ("items", "cum")

    def __init__(self, distr):
        self.items = []
        self.cum = []
        total = 0.0
        for k, p in distr.items():
            total += float(p)
            self.items.append(k)
            self.cum.append(total)

    def draw(self, rng: random.Random):
        return self.items[bisect_right(self.cum, rng.random() * self.cum[-1])]


def simulate(
    g: Pomdp,
    rewards: RewardFn,
    sigma: FiniteMemoryStrategy | MemorylessStrategy,
    config: SimConfig = SimConfig(),
) -> SimResult:
    """Estimate the long-run average reward of ``sigma`` on ``g``.

    Each run walks ``steps`` steps and averages the rewards after the
    burn-in prefix; the result collects the per-run averages. Illegal moves
    surface as the same errors the chain construction would raise.
    """
    sigma = _playable(g, sigma)
    burn = config.resolved_burn_in()

    act_of: dict[int, _Sampler] = {}
    row_of: dict[tuple[int, int], _Sampler] = {}
    mem_of: dict[tuple[int, int, int], _Sampler] = {}
    reward_of: dict[tuple[int, int], float] = {}

    averages = []
    denom = config.steps - burn
    for trial in range(config.runs):
        rng = random.Random(f"{config.seed}:{trial}")
        s, m = g.initial, sigma.initial
        total = 0.0
        for step in range(config.steps):
            chooser = act_of.get(m)
            if chooser is None:
                chooser = act_of[m] = _Sampler(sigma.action_distr(m))
            a = chooser.draw(rng)
            key = (s, a)
            r = reward_of.get(key)
            if r is None:
                if a not in g.avail(g.obs(s)):
                    raise _unavailable_play(g, s, a)
                r = float(rewards.get(s, a))
                reward_of[key] = r
                row_of[key] = _Sampler(g.row(s, a))
            if step >= burn:
                total += r
            s = row_of[key].draw(rng)
            o = g.obs(s)
            mkey = (m, o, a)
            picker = mem_of.get(mkey)
            if picker is None:
                picker = _Sampler(sigma.update_row(m, o, a))
                mem_of[mkey] = picker
            m = picker.draw(rng)
        averages.append(total / denom)
    return SimResult(averages=tuple(averages), config=config)
