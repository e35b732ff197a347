"""Almost-sure mean-payoff analysis for partially observable MDPs.

The package decides whether a POMDP admits a strategy achieving long-run
average reward 1 almost surely, and if so synthesizes a finite-memory witness.
The pipeline: collapse an arbitrary finite-memory strategy to a canonical
belief-supported form, reduce the POMDP to a belief-observation model whose
states track (state, memory) pairs, run observation-based safety and
reachability fixpoints there, and map the resulting memoryless strategy back.
Hardness gadgets reduce probabilistic-automaton emptiness questions to
mean-payoff thresholds.
"""

from .model import (
    CapacityError,
    Distr,
    ModelError,
    Pfa,
    Pomdp,
    RewardFn,
    StrategyError,
    is_belief_observation,
    validate,
    validate_pfa,
)
from .chains import (
    FiniteMemoryStrategy,
    MarkovChain,
    MemorylessStrategy,
    almost_sure_limavg_gt,
    alternating_strategy,
    bscc_mean_payoff,
    constant_strategy,
    limavg1_diagnosis,
    product_chain,
    recurrent_classes,
    uniform_strategy,
)
from .collapse import (
    CollapsedMemory,
    MemoryFingerprint,
    ProjectionGraph,
    collapse,
    fingerprints,
    projection_graph,
)
from .reduction import BeliefObsPomdp, reduce_pomdp
from .fixpoint import (
    ReachResult,
    SafetyResult,
    almost_reach,
    almost_safe,
    restrict_safe,
)
from .solver import (
    Diagnosis,
    SolveReport,
    decide_limavg1,
    memoryless_to_finite_memory,
    validate_strategy,
)
from .pfa import (
    acceptance_probability,
    check_loop_strategy,
    interleaved_word_strategy,
    reduce_quantitative,
    reduce_value1,
    word_strategy,
)
from .simulate import SimConfig, SimResult, simulate
from .fileformat import (
    ParseError,
    emit_model,
    emit_pfa,
    emit_rewards,
    emit_strategy,
    parse_model,
    parse_pfa,
    parse_rewards,
    parse_strategy,
    strategy_memory_names,
)
from .dot import chain_dot, projection_dot

__all__ = [
    "BeliefObsPomdp",
    "CapacityError",
    "CollapsedMemory",
    "Diagnosis",
    "Distr",
    "FiniteMemoryStrategy",
    "MarkovChain",
    "MemoryFingerprint",
    "MemorylessStrategy",
    "ModelError",
    "ParseError",
    "Pfa",
    "Pomdp",
    "ProjectionGraph",
    "ReachResult",
    "RewardFn",
    "SafetyResult",
    "SimConfig",
    "SimResult",
    "SolveReport",
    "StrategyError",
    "acceptance_probability",
    "almost_reach",
    "almost_safe",
    "almost_sure_limavg_gt",
    "alternating_strategy",
    "bscc_mean_payoff",
    "chain_dot",
    "check_loop_strategy",
    "collapse",
    "constant_strategy",
    "decide_limavg1",
    "emit_model",
    "emit_pfa",
    "emit_rewards",
    "emit_strategy",
    "fingerprints",
    "interleaved_word_strategy",
    "is_belief_observation",
    "limavg1_diagnosis",
    "memoryless_to_finite_memory",
    "parse_model",
    "parse_pfa",
    "parse_rewards",
    "parse_strategy",
    "product_chain",
    "projection_dot",
    "projection_graph",
    "recurrent_classes",
    "reduce_pomdp",
    "reduce_quantitative",
    "reduce_value1",
    "restrict_safe",
    "simulate",
    "strategy_memory_names",
    "uniform_strategy",
    "validate",
    "validate_pfa",
    "validate_strategy",
    "word_strategy",
]
