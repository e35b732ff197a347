"""Frozen diagnostics: the full problem lists of `validate` and
`validate_pfa`, the text, line and column of each `ParseError` branch of
the four parsers, and the errors of the `Pomdp`, `Pfa` and strategy
constructors.

Each case is one malformed input aimed at one error branch, and the
expected values are the whole texts, not substrings, so a refactor of the
checkers or the parsers that changes anything a user reads fails here.
"""

from fractions import Fraction

import pytest

from asmp import (
    Distr,
    FiniteMemoryStrategy,
    MemorylessStrategy,
    ModelError,
    ParseError,
    Pfa,
    Pomdp,
    parse_model,
    parse_pfa,
    parse_rewards,
    parse_strategy,
    validate,
    validate_pfa,
)


def sections(defaults: dict[str, str], changes: dict) -> str:
    """File text from ``defaults`` with sections replaced, added at the end,
    or left out (a value of None)."""
    merged = {**defaults, **changes}
    return "".join(
        f"{name}:\n{body}\n" for name, body in merged.items() if body is not None
    )


MODEL = {
    "states": "s t",
    "actions": "a b",
    "observations": "o p",
    "obs": "s=o t=p",
    "init": "s",
    "trans": "s a -> t:1\ns b -> s:1\nt a -> s:1\nt b -> t:1",
}
STRATEGY = {
    "memory": "m n",
    "init": "m",
    "next": "m -> a:1\nn -> b:1",
    "update": "m o a -> n:1\nn p b -> m:1",
}
PFA = {
    "states": "q r",
    "alphabet": "x y",
    "final": "r",
    "init": "q",
    "trans": "q x -> r:1\nq y -> q:1\nr x -> r:1\nr y -> q:1/2 r:1/2",
}


def model(**changes) -> str:
    return sections(MODEL, changes)


def strategy(**changes) -> str:
    return sections(STRATEGY, changes)


def pfa_text(**changes) -> str:
    return sections(PFA, changes)


def parse_model_rewards(text: str):
    return parse_rewards(text, parse_model(model())[0])


def parse_model_strategy(text: str):
    return parse_strategy(text, parse_model(model())[0])


PARSE_CASES = {
    # Sections, shared by every format.
    "model/unknown-section": (parse_model, model(wat="x")),
    "model/header-not-alone": (parse_model, "states: s\n" + model()),
    "model/duplicate-section": (parse_model, model() + "states:\nu\n"),
    "model/content-before-sections": (parse_model, "s\n" + model()),
    "model/missing-section": (parse_model, model(actions=None)),
    "model/empty-section": (parse_model, model(init="")),
    # Names.
    "model/bad-name": (parse_model, model(states="s t=u")),
    "model/duplicate-name": (parse_model, model(states="s t s")),
    # obs: and init:.
    "model/obs-shape": (parse_model, model(obs="s t=p")),
    "model/obs-undefined-state": (parse_model, model(obs="u=o t=p")),
    "model/obs-undefined-observation": (parse_model, model(obs="s=q t=p")),
    "model/obs-mapped-twice": (parse_model, model(obs="s=o s=p t=p")),
    "model/obs-missing": (parse_model, model(obs="s=o")),
    "model/init-two": (parse_model, model(init="s\nt")),
    "model/init-undefined": (parse_model, model(init="u")),
    # avail:.
    "model/avail-shape": (parse_model, model(avail="o")),
    "model/avail-undefined-observation": (parse_model, model(avail="q=a")),
    "model/avail-twice": (parse_model, model(avail="o=a o=b")),
    "model/avail-undefined-action": (parse_model, model(avail="o=a,c")),
    # trans:.
    "model/trans-no-arrow": (parse_model, model(trans="s a t:1")),
    "model/trans-short-head": (parse_model, model(trans="s -> t:1")),
    "model/trans-undefined-state": (parse_model, model(trans="u a -> t:1")),
    "model/trans-undefined-action": (parse_model, model(trans="s c -> t:1")),
    "model/trans-duplicate-row": (parse_model, model(trans="s a -> t:1\ns a -> s:1")),
    "model/trans-no-colon": (parse_model, model(trans="s a -> t")),
    "model/trans-undefined-target": (parse_model, model(trans="s a -> u:1")),
    "model/trans-repeated-target": (parse_model, model(trans="s a -> t:1/2 t:1/2")),
    "model/trans-float": (parse_model, model(trans="s a -> t:0.5 s:1/2")),
    "model/trans-zero-denominator": (parse_model, model(trans="s a -> t:1/0")),
    "model/trans-sum": (parse_model, model(trans="s a -> t:1/2")),
    # reward:, embedded.
    "model/reward-no-equals": (parse_model, model(reward="s a 1")),
    "model/reward-two-values": (parse_model, model(reward="s a = 1 0")),
    "model/reward-undefined-state": (parse_model, model(reward="u a = 1")),
    "model/reward-undefined-action": (parse_model, model(reward="s c = 1")),
    "model/reward-duplicate": (parse_model, model(reward="s a = 1\ns a = 0")),
    "model/reward-negative": (parse_model, model(reward="s a = -1")),
    # Standalone rewards, against MODEL.
    "rewards/empty-file": (parse_model_rewards, ""),
    "rewards/empty-section": (parse_model_rewards, "reward:\n"),
    "rewards/unknown-section": (parse_model_rewards, "trans:\n"),
    "rewards/undefined-action": (parse_model_rewards, "reward:\ns c = 1\n"),
    "rewards/duplicate": (parse_model_rewards, "reward:\ns a = 1\ns a = 1\n"),
    # Strategies, against MODEL.
    "strategy/missing-section": (parse_model_strategy, strategy(update=None)),
    "strategy/bad-memory-name": (parse_model_strategy, strategy(memory="m n:x")),
    "strategy/init-undefined": (parse_model_strategy, strategy(init="z")),
    "strategy/init-two": (parse_model_strategy, strategy(init="m n")),
    "strategy/next-no-arrow": (
        parse_model_strategy,
        strategy(next="m a:1\nn -> b:1"),
    ),
    "strategy/next-undefined-memory": (
        parse_model_strategy,
        strategy(next="z -> a:1\nn -> b:1"),
    ),
    "strategy/next-two-lines": (
        parse_model_strategy,
        strategy(next="m -> a:1\nm -> b:1\nn -> b:1"),
    ),
    "strategy/next-missing": (parse_model_strategy, strategy(next="m -> a:1")),
    "strategy/next-undefined-action": (
        parse_model_strategy,
        strategy(next="m -> c:1\nn -> b:1"),
    ),
    "strategy/next-sum": (
        parse_model_strategy,
        strategy(next="m -> a:1/2 b:1/3\nn -> b:1"),
    ),
    "strategy/update-short-head": (
        parse_model_strategy,
        strategy(update="m o -> n:1"),
    ),
    "strategy/update-undefined-observation": (
        parse_model_strategy,
        strategy(update="m q a -> n:1"),
    ),
    "strategy/update-undefined-action": (
        parse_model_strategy,
        strategy(update="m o c -> n:1"),
    ),
    "strategy/update-duplicate": (
        parse_model_strategy,
        strategy(update="m o a -> n:1\nm o a -> m:1"),
    ),
    "strategy/update-undefined-target": (
        parse_model_strategy,
        strategy(update="m o a -> z:1"),
    ),
    # Automata.
    "pfa/missing-section": (parse_pfa, pfa_text(alphabet=None)),
    "pfa/bad-letter-name": (parse_pfa, pfa_text(alphabet="x y,z")),
    "pfa/duplicate-letter": (parse_pfa, pfa_text(alphabet="x y x")),
    "pfa/final-undefined": (parse_pfa, pfa_text(final="z")),
    "pfa/init-two": (parse_pfa, pfa_text(init="q r")),
    "pfa/trans-undefined-letter": (parse_pfa, pfa_text(trans="q z -> r:1")),
    "pfa/trans-duplicate-row": (
        parse_pfa,
        pfa_text(trans="q x -> r:1\nq x -> q:1"),
    ),
    "pfa/invalid-automaton": (parse_pfa, pfa_text(trans="q x -> r:1")),
}

PARSE_EXPECTED = {
    "model/avail-shape": (
        "line 17, col 1: expected observation=actions, got 'o'",
        17,
        1,
    ),
    "model/avail-twice": ("line 17, col 5: observation 'o' listed twice", 17, 5),
    "model/avail-undefined-action": ("line 17, col 3: undefined action 'c'", 17, 3),
    "model/avail-undefined-observation": (
        "line 17, col 1: undefined observation 'q'",
        17,
        1,
    ),
    "model/bad-name": ("line 2, col 3: bad state name 't=u'", 2, 3),
    "model/content-before-sections": (
        "line 1, col 1: content before any section: 's'",
        1,
        1,
    ),
    "model/duplicate-name": ("line 2, col 5: duplicate state name 's'", 2, 5),
    "model/duplicate-section": ("line 16, col 1: duplicate section 'states:'", 16, 1),
    "model/empty-section": ("line 0, col 1: missing or empty section 'init:'", 0, 1),
    "model/header-not-alone": (
        "line 1, col 9: section header 'states:' must stand alone",
        1,
        9,
    ),
    "model/init-two": (
        "line 11, col 1: initial state must name exactly one entry",
        11,
        1,
    ),
    "model/init-undefined": ("line 10, col 1: undefined initial state 'u'", 10, 1),
    "model/missing-section": (
        "line 0, col 1: missing or empty section 'actions:'",
        0,
        1,
    ),
    "model/obs-mapped-twice": ("line 8, col 5: state 's' mapped twice", 8, 5),
    "model/obs-missing": ("line 0, col 1: state 't' has no observation", 0, 1),
    "model/obs-shape": ("line 8, col 1: expected state=observation, got 's'", 8, 1),
    "model/obs-undefined-observation": (
        "line 8, col 3: undefined observation 'q'",
        8,
        3,
    ),
    "model/obs-undefined-state": ("line 8, col 1: undefined state 'u'", 8, 1),
    "model/reward-duplicate": ("line 18, col 1: duplicate reward for 's' 'a'", 18, 1),
    "model/reward-negative": (
        "line 17, col 7: bad rational '-1' (write p/q or p)",
        17,
        7,
    ),
    "model/reward-no-equals": ("line 17, col 1: expected <name> <name> = ...", 17, 1),
    "model/reward-two-values": (
        "line 17, col 1: expected a single rational after '='",
        17,
        1,
    ),
    "model/reward-undefined-action": ("line 17, col 3: undefined action 'c'", 17, 3),
    "model/reward-undefined-state": ("line 17, col 1: undefined state 'u'", 17, 1),
    "model/trans-duplicate-row": ("line 13, col 1: duplicate row for 's' 'a'", 13, 1),
    "model/trans-float": (
        "line 12, col 10: bad rational '0.5' (write p/q or p)",
        12,
        10,
    ),
    "model/trans-no-arrow": ("line 12, col 1: expected <name> <name> -> ...", 12, 1),
    "model/trans-no-colon": (
        "line 12, col 8: expected state:probability, got 't'",
        12,
        8,
    ),
    "model/trans-repeated-target": ("line 12, col 14: repeated state 't'", 12, 14),
    "model/trans-short-head": ("line 12, col 1: expected <name> <name> -> ...", 12, 1),
    "model/trans-sum": ("line 12, col 8: probabilities must sum to 1", 12, 8),
    "model/trans-undefined-action": ("line 12, col 3: undefined action 'c'", 12, 3),
    "model/trans-undefined-state": ("line 12, col 1: undefined state 'u'", 12, 1),
    "model/trans-undefined-target": ("line 12, col 8: undefined state 'u'", 12, 8),
    "model/trans-zero-denominator": (
        "line 12, col 10: bad rational '1/0' (write p/q or p)",
        12,
        10,
    ),
    "model/unknown-section": ("line 16, col 1: unknown section 'wat:'", 16, 1),
    "pfa/bad-letter-name": ("line 4, col 3: bad letter name 'y,z'", 4, 3),
    "pfa/duplicate-letter": ("line 4, col 5: duplicate letter name 'x'", 4, 5),
    "pfa/final-undefined": ("line 6, col 1: undefined state 'z'", 6, 1),
    "pfa/init-two": ("line 8, col 1: initial state must name exactly one entry", 8, 1),
    "pfa/invalid-automaton": (
        (
            "line 0, col 1: missing transition row for state 'q', letter 'y'; "
            "missing transition row for state 'r', letter 'x'; "
            "missing transition row for state 'r', letter 'y'"
        ),
        0,
        1,
    ),
    "pfa/missing-section": (
        "line 0, col 1: missing or empty section 'alphabet:'",
        0,
        1,
    ),
    "pfa/trans-duplicate-row": ("line 11, col 1: duplicate row for 'q' 'x'", 11, 1),
    "pfa/trans-undefined-letter": ("line 10, col 3: undefined letter 'z'", 10, 3),
    "rewards/duplicate": ("line 3, col 1: duplicate reward for 's' 'a'", 3, 1),
    "rewards/empty-file": ("line 0, col 1: missing or empty section 'reward:'", 0, 1),
    "rewards/empty-section": (
        "line 0, col 1: missing or empty section 'reward:'",
        0,
        1,
    ),
    "rewards/undefined-action": ("line 2, col 3: undefined action 'c'", 2, 3),
    "rewards/unknown-section": ("line 1, col 1: unknown section 'trans:'", 1, 1),
    "strategy/bad-memory-name": ("line 2, col 3: bad memory name 'n:x'", 2, 3),
    "strategy/init-two": (
        "line 4, col 1: initial memory must name exactly one entry",
        4,
        1,
    ),
    "strategy/init-undefined": ("line 4, col 1: undefined initial memory 'z'", 4, 1),
    "strategy/missing-section": (
        "line 0, col 1: missing or empty section 'update:'",
        0,
        1,
    ),
    "strategy/next-missing": ("line 0, col 1: memory 'n' has no next line", 0, 1),
    "strategy/next-no-arrow": ("line 6, col 1: expected <name> -> ...", 6, 1),
    "strategy/next-sum": ("line 6, col 6: probabilities must sum to 1", 6, 6),
    "strategy/next-two-lines": ("line 7, col 1: memory 'm' has two next lines", 7, 1),
    "strategy/next-undefined-action": ("line 6, col 6: undefined action 'c'", 6, 6),
    "strategy/next-undefined-memory": ("line 6, col 1: undefined memory 'z'", 6, 1),
    "strategy/update-duplicate": ("line 10, col 1: duplicate update line", 10, 1),
    "strategy/update-short-head": (
        "line 9, col 1: expected <name> <name> <name> -> ...",
        9,
        1,
    ),
    "strategy/update-undefined-action": ("line 9, col 5: undefined action 'c'", 9, 5),
    "strategy/update-undefined-observation": (
        "line 9, col 3: undefined observation 'q'",
        9,
        3,
    ),
    "strategy/update-undefined-target": ("line 9, col 10: undefined memory 'z'", 9, 10),
}


def test_every_parse_case_is_frozen():
    assert sorted(PARSE_EXPECTED) == sorted(PARSE_CASES)


@pytest.mark.parametrize("case", sorted(PARSE_CASES))
def test_parse_error_text_and_position(case):
    parse, text = PARSE_CASES[case]
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (str(e.value), e.value.line, e.value.col) == PARSE_EXPECTED[case]


# Rows of the two-state models below, and rows that break a distribution.
ROWS = {
    (0, 0): Distr({1: 1}),
    (0, 1): Distr({0: 1}),
    (1, 0): Distr({0: 1}),
    (1, 1): Distr({1: 1}),
}
BAD_WEIGHTS = {
    (0, 0): Distr({0: Fraction(-1, 2), 1: Fraction(3, 2)}),
    (0, 1): Distr({}),
    (1, 0): Distr({0: Fraction(1, 2)}),
}
WITHOUT_LAST_ROW = {k: d for k, d in ROWS.items() if k != (1, 1)}


def pomdp(**changes) -> Pomdp:
    fields = dict(
        states=["s", "t"],
        actions=["a", "b"],
        observations=["o", "p"],
        obs_of=[0, 1],
        rows=ROWS,
        initial=0,
    )
    return Pomdp(**{**fields, **changes})


VALIDATE_CASES = {
    "clean": (pomdp(), True),
    "duplicate-names": (
        pomdp(states=["s", "s"], actions=["a", "a"], observations=["o", "o"]),
        True,
    ),
    "no-available-action": (pomdp(availability={1: []}), True),
    "bad-action-id": (pomdp(availability={0: [-1]}), True),
    "bad-action-id-high": (pomdp(availability={0: [5]}), True),
    "missing-row": (pomdp(rows=WITHOUT_LAST_ROW), True),
    "bad-weights": (pomdp(rows={**ROWS, **BAD_WEIGHTS}), True),
    "successor-out-of-range": (pomdp(rows={**ROWS, (1, 1): Distr({2: 1})}), True),
    "unavailable-row": (pomdp(availability={1: [0]}), True),
    "shared-initial-observation": (pomdp(obs_of=[0, 0]), True),
    "shared-initial-observation-lenient": (pomdp(obs_of=[0, 0]), False),
}

VALIDATE_EXPECTED = {
    "bad-action-id": [
        "availability of 'o' names bad action id -1",
        "transition row for state 's' under unavailable action 'a'",
        "transition row for state 's' under unavailable action 'b'",
    ],
    "bad-action-id-high": [
        "availability of 'o' names bad action id 5",
        "transition row for state 's' under unavailable action 'a'",
        "transition row for state 's' under unavailable action 'b'",
    ],
    "bad-weights": [
        "state 's', action 'a': negative weight -1/2 at 0",
        "state 's', action 'b': empty distribution",
        "state 't', action 'a': weights sum to 1/2, not 1",
    ],
    "clean": [],
    "duplicate-names": [
        "duplicate state name 's'",
        "duplicate action name 'a'",
        "duplicate observation name 'o'",
    ],
    "missing-row": ["missing transition row for state 't', action 'b'"],
    "no-available-action": [
        "observation 'p' has no available actions",
        "transition row for state 't' under unavailable action 'a'",
        "transition row for state 't' under unavailable action 'b'",
    ],
    "shared-initial-observation": ["initial state 's' shares its observation with 't'"],
    "shared-initial-observation-lenient": [],
    "successor-out-of-range": ["state 't', action 'b': successor id 2 out of range"],
    "unavailable-row": ["transition row for state 't' under unavailable action 'b'"],
}


def test_every_validate_case_is_frozen():
    assert sorted(VALIDATE_EXPECTED) == sorted(VALIDATE_CASES)


@pytest.mark.parametrize("case", sorted(VALIDATE_CASES))
def test_validate_problem_list(case):
    g, unique_initial = VALIDATE_CASES[case]
    assert (
        validate(g, require_unique_initial_obs=unique_initial)
        == VALIDATE_EXPECTED[case]
    )


def pfa(**changes) -> Pfa:
    fields = dict(
        states=["q", "r"],
        alphabet=["x", "y"],
        final=[1],
        initial=0,
        rows=ROWS,
    )
    return Pfa(**{**fields, **changes})


VALIDATE_PFA_CASES = {
    "clean": pfa(),
    "duplicate-names": pfa(states=["q", "q"], alphabet=["x", "x"]),
    "final-out-of-range": pfa(final=[1, 5]),
    "missing-row": pfa(rows=WITHOUT_LAST_ROW),
    "bad-weights": pfa(rows={**ROWS, **BAD_WEIGHTS}),
    "successor-out-of-range": pfa(rows={**ROWS, (1, 1): Distr({2: 1})}),
    "out-of-range-pair": pfa(
        rows={**ROWS, (2, 0): Distr({0: 1}), (0, 3): Distr({0: 1})}
    ),
}

VALIDATE_PFA_EXPECTED = {
    "bad-weights": [
        "state 'q', letter 'x': negative weight -1/2 at 0",
        "state 'q', letter 'y': empty distribution",
        "state 'r', letter 'x': weights sum to 1/2, not 1",
    ],
    "clean": [],
    "duplicate-names": ["duplicate state name 'q'", "duplicate letter name 'x'"],
    "final-out-of-range": ["final state id 5 out of range"],
    "missing-row": ["missing transition row for state 'r', letter 'y'"],
    "out-of-range-pair": [
        "transition row at out-of-range pair (0, 3)",
        "transition row at out-of-range pair (2, 0)",
    ],
    "successor-out-of-range": ["state 'r', letter 'y': successor id 2 out of range"],
}


def test_every_validate_pfa_case_is_frozen():
    assert sorted(VALIDATE_PFA_EXPECTED) == sorted(VALIDATE_PFA_CASES)


@pytest.mark.parametrize("case", sorted(VALIDATE_PFA_CASES))
def test_validate_pfa_problem_list(case):
    assert validate_pfa(VALIDATE_PFA_CASES[case]) == VALIDATE_PFA_EXPECTED[case]


def strategy_object(**changes) -> FiniteMemoryStrategy:
    """The strategy of STRATEGY, built directly, with its update rows
    extended by ``update`` and other fields replaced."""
    fields = dict(
        memories=["m", "n"],
        next_action=[Distr.dirac(0), Distr.dirac(1)],
        update={(0, 0, 0): Distr.dirac(1), (1, 1, 1): Distr.dirac(0)},
        initial=0,
    )
    update = {**fields["update"], **changes.pop("update", {})}
    return FiniteMemoryStrategy(**{**fields, **changes, "update": update})


CONSTRUCTOR_CASES = {
    "pomdp/obs-of-length": lambda: pomdp(obs_of=[0]),
    "pomdp/initial-out-of-range": lambda: pomdp(initial=2),
    "pomdp/observation-out-of-range": lambda: pomdp(obs_of=[0, 2]),
    "pomdp/negative-observation": lambda: pomdp(obs_of=[-1, 0]),
    "pfa/initial-out-of-range": lambda: pfa(initial=-1),
    "strategy/empty-action-distribution": lambda: strategy_object(
        next_action=[Distr.dirac(0), Distr({1: 0})]
    ),
    "strategy/empty-update": lambda: strategy_object(update={(1, 1, 1): Distr({})}),
    "strategy/negative-update-memory": lambda: strategy_object(
        update={(1, 1, 1): Distr.dirac(-1)}
    ),
    "strategy/update-memory-out-of-range": lambda: strategy_object(
        update={(1, 1, 1): Distr({0: Fraction(1, 2), 2: Fraction(1, 2)})}
    ),
    "memoryless/empty-choice": lambda: MemorylessStrategy(
        {0: Distr.dirac(0), 1: Distr({})}
    ),
}

CONSTRUCTOR_EXPECTED = {
    "pfa/initial-out-of-range": "initial state id -1 out of range",
    "pomdp/initial-out-of-range": "initial state id 2 out of range",
    "pomdp/negative-observation": "state 's' has observation id -1 out of range",
    "pomdp/obs-of-length": "obs_of has 1 entries for 2 states",
    "pomdp/observation-out-of-range": "state 't' has observation id 2 out of range",
    "memoryless/empty-choice": "empty action choice for observation id 1",
    "strategy/empty-action-distribution": (
        "memory id 1 has an empty action distribution"
    ),
    "strategy/empty-update": (
        "memory update for memory id 1, observation id 1, action id 1 is empty"
    ),
    "strategy/negative-update-memory": (
        "memory update for memory id 1, observation id 1, action id 1"
        " names memory id -1, out of range"
    ),
    "strategy/update-memory-out-of-range": (
        "memory update for memory id 1, observation id 1, action id 1"
        " names memory id 2, out of range"
    ),
}


def test_every_constructor_case_is_frozen():
    assert sorted(CONSTRUCTOR_EXPECTED) == sorted(CONSTRUCTOR_CASES)


@pytest.mark.parametrize("case", sorted(CONSTRUCTOR_CASES))
def test_constructor_error_text(case):
    with pytest.raises(ModelError) as e:
        CONSTRUCTOR_CASES[case]()
    assert str(e.value) == CONSTRUCTOR_EXPECTED[case]
