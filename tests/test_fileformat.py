"""Text formats: canonical layout, byte-stable round-trips, and located
diagnostics for malformed input."""

import random
from fractions import Fraction

import pytest

from asmp import (
    ModelError,
    ParseError,
    RewardFn,
    alternating_strategy,
    almost_sure_limavg_gt,
    collapse,
    decide_limavg1,
    emit_model,
    emit_pfa,
    emit_rewards,
    emit_strategy,
    interleaved_word_strategy,
    parse_model,
    parse_pfa,
    parse_rewards,
    parse_strategy,
    product_chain,
    reduce_quantitative,
    strategy_memory_names,
    uniform_strategy,
    validate,
    validate_strategy,
)
from asmp.gadgets import ring_pomdp, trap_ring_pomdp, two_state_pfa
from asmp.reduction import reduce_pomdp

from helpers import (
    all_words,
    as_finite_memory,
    hidden_model,
    random_belief_obs_pomdp,
    random_tagged_strategy,
    reduced_pomdp,
)
from test_simulate import restricted_pomdp

TINY_CANONICAL = """states:
A
B
actions:
go
stay
observations:
oA
oB
obs:
A=oA
B=oB
init:
A
avail:
oA=go
oB=go,stay
trans:
A go -> B:1
B go -> A:1
B stay -> B:1
reward:
A go = 1
B go = 0
B stay = 0
"""


def model_text(s: str) -> str:
    """Minimal one-state model with a custom trans section body."""
    return (
        "states:\ns\nactions:\na\nobservations:\no\nobs:\ns=o\ninit:\ns\n"
        "trans:\n" + s
    )


class TestModelRoundTrip:
    def test_tiny_model_emits_the_frozen_layout(self):
        g = restricted_pomdp()
        rewards = RewardFn.from_state_rewards(g, {0: 1})
        assert emit_model(g, rewards) == TINY_CANONICAL

    def test_emit_parse_emit_is_byte_stable(self):
        for g, rewards in (ring_pomdp(), trap_ring_pomdp()):
            text = emit_model(g, rewards)
            g2, r2 = parse_model(text)
            assert emit_model(g2, r2) == text
            assert r2 is not None and r2.table == rewards.table

    def test_parse_recovers_every_field(self):
        g = restricted_pomdp()
        g2, r2 = parse_model(emit_model(g))
        assert r2 is None
        assert g2.states == g.states
        assert g2.actions == g.actions
        assert g2.observations == g.observations
        assert [g2.obs(s) for s in range(2)] == [g.obs(s) for s in range(2)]
        assert g2.initial == g.initial
        assert g2.availability == g.availability
        assert g2.rows == g.rows

    def test_full_availability_is_left_implicit(self):
        g, _ = ring_pomdp()
        text = emit_model(g)
        assert "avail:" not in text
        g2, _ = parse_model(text)
        assert all(g2.avail(o) == g.avail(o) for o in range(g.n_observations))

    def test_reduction_output_survives_the_format(self):
        from asmp.gadgets import unavoidable_zero_pomdp

        base, base_rewards = unavoidable_zero_pomdp()
        bg = reduce_pomdp(base, base_rewards)
        g, rewards = reduced_pomdp(bg, base_rewards, name="reduced")
        text = emit_model(g, rewards)
        g2, r2 = parse_model(text)
        assert emit_model(g2, r2) == text
        assert validate(g2, require_unique_initial_obs=False) == []

    def test_comments_and_spacing_are_immaterial(self):
        text = TINY_CANONICAL.replace("init:\n", "init:   # the start\n")
        text = "# banner\n\n" + text.replace("A go -> B:1", "  A   go ->  B:1/1")
        g, rewards = parse_model(text)
        assert emit_model(g, rewards) == TINY_CANONICAL

    def test_unicode_names_round_trip(self):
        text = (
            "states:\népée\nactions:\nà\nobservations:\nø\nobs:\népée=ø\n"
            "init:\népée\ntrans:\népée à -> épée:1\n"
        )
        g, _ = parse_model(text)
        assert g.states == ["épée"] and g.actions == ["à"]
        assert emit_model(parse_model(emit_model(g))[0]) == emit_model(g)

    def test_parsing_does_not_imply_validity(self):
        # A missing row is a model problem, not a syntax problem.
        text = TINY_CANONICAL.replace("B stay -> B:1\n", "")
        g, _ = parse_model(text)
        assert any("missing transition row" in p for p in validate(g))


class TestModelDiagnostics:
    def test_unknown_section(self):
        with pytest.raises(ParseError, match="unknown section 'wat:'") as e:
            parse_model("wat:\n")
        assert (e.value.line, e.value.col) == (1, 1)

    def test_header_must_stand_alone(self):
        with pytest.raises(ParseError, match="must stand alone") as e:
            parse_model("states: s\n")
        assert (e.value.line, e.value.col) == (1, 9)

    def test_content_before_any_section(self):
        with pytest.raises(ParseError, match="content before any section") as e:
            parse_model("s0\nstates:\n")
        assert e.value.line == 1

    def test_duplicate_section(self):
        with pytest.raises(ParseError, match="duplicate section") as e:
            parse_model("states:\ns\nstates:\n")
        assert e.value.line == 3

    def test_duplicate_name_is_located(self):
        text = model_text("s a -> s:1\n").replace("states:\ns\n", "states:\ns\ns\n")
        with pytest.raises(ParseError, match="duplicate state name 's'") as e:
            parse_model(text)
        assert (e.value.line, e.value.col) == (3, 1)

    def test_missing_section_reports_line_zero(self):
        with pytest.raises(ParseError, match="missing or empty section 'actions:'") as e:
            parse_model("states:\ns\n")
        assert e.value.line == 0

    def test_floats_are_rejected_with_position(self):
        with pytest.raises(ParseError, match=r"bad rational '0.5'") as e:
            parse_model(model_text("s a -> s:0.5\n"))
        assert (e.value.line, e.value.col) == (12, 10)
        assert str(e.value).startswith("line 12, col 10: ")

    def test_negative_and_zero_denominator_rationals_are_rejected(self):
        for bad in ("-1/2", "1/0", "1e-1", "½"):
            with pytest.raises(ParseError, match="bad rational"):
                parse_model(model_text(f"s a -> s:{bad}\n"))

    def test_probability_sum_violation(self):
        with pytest.raises(ParseError, match="must sum to 1") as e:
            parse_model(model_text("s a -> s:1/2\n"))
        assert (e.value.line, e.value.col) == (12, 8)

    def test_undefined_identifier(self):
        with pytest.raises(ParseError, match="undefined state 't'") as e:
            parse_model(model_text("s a -> t:1\n"))
        assert (e.value.line, e.value.col) == (12, 8)

    def test_repeated_target_in_one_row(self):
        with pytest.raises(ParseError, match="repeated state 's'"):
            parse_model(model_text("s a -> s:1/2 s:1/2\n"))

    def test_duplicate_transition_row(self):
        with pytest.raises(ParseError, match="duplicate row for 's' 'a'") as e:
            parse_model(model_text("s a -> s:1\ns a -> s:1\n"))
        assert e.value.line == 13

    def test_obs_pair_shape(self):
        bad = model_text("s a -> s:1\n").replace("s=o", "so")
        with pytest.raises(ParseError, match="expected state=observation"):
            parse_model(bad)

    def test_state_mapped_twice(self):
        bad = model_text("s a -> s:1\n").replace("s=o", "s=o s=o")
        with pytest.raises(ParseError, match="mapped twice"):
            parse_model(bad)

    def test_initial_state_must_be_single(self):
        bad = model_text("s a -> s:1\n").replace("init:\ns\n", "init:\ns s\n")
        with pytest.raises(ParseError, match="initial state must name exactly one"):
            parse_model(bad)

    def test_arrow_is_required(self):
        with pytest.raises(ParseError, match=r"expected <name> <name> -> "):
            parse_model(model_text("s a s:1\n"))

    def test_avail_errors(self):
        base = model_text("s a -> s:1\n")
        bad = base.replace("trans:", "avail:\no=zz\ntrans:")
        with pytest.raises(ParseError, match="undefined action 'zz'"):
            parse_model(bad)
        twice = base.replace("trans:", "avail:\no=a\no=a\ntrans:")
        with pytest.raises(ParseError, match="listed twice"):
            parse_model(twice)


class TestRewards:
    def test_standalone_round_trip(self):
        g, rewards = trap_ring_pomdp()
        text = emit_rewards(g, rewards)
        r2 = parse_rewards(text, g)
        assert r2.table == rewards.table
        assert emit_rewards(g, r2) == text

    def test_embedded_and_standalone_agree(self):
        g, rewards = ring_pomdp()
        embedded = parse_model(emit_model(g, rewards))[1]
        standalone = parse_rewards(emit_rewards(g, rewards), g)
        assert embedded.table == standalone.table

    def test_reward_line_needs_a_single_rational(self):
        with pytest.raises(ParseError, match="single rational"):
            parse_model(model_text("s a -> s:1\nreward:\ns a = 1 2\n"))
        with pytest.raises(ParseError, match=r"expected <name> <name> = "):
            parse_model(model_text("s a -> s:1\nreward:\ns a -> 1\n"))

    def test_duplicate_reward_entry(self):
        with pytest.raises(ParseError, match="duplicate reward for 's' 'a'"):
            parse_model(model_text("s a -> s:1\nreward:\ns a = 1\ns a = 0\n"))

    def test_reward_file_requires_its_section(self):
        g, _ = ring_pomdp()
        with pytest.raises(ParseError, match="missing or empty section 'reward:'"):
            parse_rewards("# nothing here\n", g)
        with pytest.raises(ParseError, match="missing or empty section 'reward:'"):
            parse_rewards("reward:\n", g)
        with pytest.raises(ParseError, match="unknown section"):
            parse_rewards("states:\ns\n", g)


def reference_emit_strategy(sigma, g) -> str:
    """The strategy text with every update row formatted on its own."""
    names = strategy_memory_names(sigma)
    out = ["memory:", *names, "init:", names[sigma.initial], "next:"]
    for m, d in enumerate(sigma.next_action):
        row = " ".join(f"{g.actions[a]}:{p}" for a, p in d.items())
        out.append(f"{names[m]} -> {row}")
    out.append("update:")
    for (m, o, a) in sorted(sigma.update):
        row = " ".join(f"{names[m2]}:{p}" for m2, p in sigma.update[(m, o, a)].items())
        out.append(f"{names[m]} {g.observations[o]} {g.actions[a]} -> {row}")
    return "\n".join(out) + "\n"


class TestStrategies:
    def test_emit_matches_the_per_row_reference(self):
        cases = []
        for g, r in (ring_pomdp(), trap_ring_pomdp(), hidden_model(5, 105)):
            witness = decide_limavg1(g, r).witness
            cases += [(witness, g), (collapse(g, r, witness), g)]
        rng = random.Random(5151)
        for k in range(60):
            g, _ = random_belief_obs_pomdp(rng)
            cases.append((random_tagged_strategy(rng, g, randomized=k % 2 == 1), g))
        for sigma, g in cases:
            assert emit_strategy(sigma, g) == reference_emit_strategy(sigma, g)

    def test_alternation_round_trips(self):
        g, r = ring_pomdp()
        sigma = alternating_strategy(g, 0, 1)
        text = emit_strategy(sigma, g)
        back = parse_strategy(text, g)
        assert emit_strategy(back, g) == text
        assert back.memories == ["a", "b"]
        assert back.initial == 0
        assert validate_strategy(g, r, back)[0]

    def test_fractional_rows_round_trip(self):
        g, r = trap_ring_pomdp()
        sigma = as_finite_memory(uniform_strategy(g), g)
        text = emit_strategy(sigma, g)
        assert "1/2" in text
        back = parse_strategy(text, g)
        assert emit_strategy(back, g) == text
        assert back.next_action == sigma.next_action
        assert back.update == sigma.update

    def test_collapsed_memories_get_synthetic_names(self):
        g, r = ring_pomdp()
        collapsed = collapse(g, r, alternating_strategy(g, 0, 1))
        names = strategy_memory_names(collapsed)
        assert names == [f"m{i}" for i in range(collapsed.n_memories)]
        back = parse_strategy(emit_strategy(collapsed, g), g)
        assert validate_strategy(g, r, back)[0]

    def test_name_collisions_fall_back_to_positions(self):
        g, _ = ring_pomdp()
        sigma = alternating_strategy(g, 0, 0)
        assert sigma.memories == ["a", "a"]
        assert strategy_memory_names(sigma) == ["m0", "m1"]
        assert "m0" in emit_strategy(sigma, g)

    def test_word_strategies_survive_the_format(self):
        # Word strategies label memories step<i>:<action>, which the format
        # cannot hold, so they are written as m<i> and keep their verdict.
        g, r = reduce_quantitative(two_state_pfa())
        half = Fraction(1, 2)
        verdicts = set()
        for word in all_words(["a", "b"], 3):
            sigma = interleaved_word_strategy(g, word)
            text = emit_strategy(sigma, g)
            back = parse_strategy(text, g)
            assert back.memories == [f"m{i}" for i in range(sigma.n_memories)]
            assert emit_strategy(back, g) == text
            verdict = almost_sure_limavg_gt(product_chain(g, r, sigma), half)
            assert almost_sure_limavg_gt(product_chain(g, r, back), half) == verdict
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_diagnostics(self):
        g, _ = ring_pomdp()
        sigma = alternating_strategy(g, 0, 1)
        text = emit_strategy(sigma, g)
        with pytest.raises(ParseError, match="has two next lines"):
            parse_strategy(text.replace("b -> b:1", "b -> b:1\nb -> a:1"), g)
        with pytest.raises(ParseError, match="memory 'b' has no next line"):
            parse_strategy(text.replace("b -> b:1\n", ""), g)
        with pytest.raises(ParseError, match="duplicate update line"):
            parse_strategy(
                text.replace("a start a -> b:1", "a start a -> b:1\na start a -> b:1"),
                g,
            )
        with pytest.raises(ParseError, match="undefined initial memory 'zz'"):
            parse_strategy(text.replace("init:\na", "init:\nzz"), g)
        with pytest.raises(ParseError, match="missing or empty section 'update:'"):
            parse_strategy(text[: text.index("update:")], g)

    def test_undefined_action_in_next_row(self):
        g, _ = ring_pomdp()
        text = emit_strategy(alternating_strategy(g, 0, 1), g)
        with pytest.raises(ParseError, match="undefined action"):
            parse_strategy(text.replace("a -> a:1\n", "a -> zz:1\n", 1), g)


class TestAutomata:
    def test_round_trip(self):
        p = two_state_pfa()
        text = emit_pfa(p)
        p2 = parse_pfa(text)
        assert emit_pfa(p2) == text
        assert p2.states == p.states
        assert p2.alphabet == p.alphabet
        assert p2.final == p.final
        assert p2.initial == p.initial
        assert p2.rows == p.rows

    def test_empty_final_section_is_fine(self):
        text = emit_pfa(two_state_pfa())
        head, _, tail = text.partition("final:\nq1\n")
        p = parse_pfa(head + "final:\n" + tail)
        assert p.final == frozenset()

    def test_automaton_problems_surface_as_parse_errors(self):
        text = emit_pfa(two_state_pfa()).replace("q0 b -> dead:1\n", "")
        with pytest.raises(ParseError, match="missing transition row") as e:
            parse_pfa(text)
        assert e.value.line == 0

    def test_duplicate_letter_row(self):
        text = emit_pfa(two_state_pfa())
        with pytest.raises(ParseError, match="duplicate row for 'q1' 'b'"):
            parse_pfa(text.replace("q1 b -> q1:1", "q1 b -> q1:1\nq1 b -> q1:1"))


class TestFuzzing:
    ALPH = " \n\t#:=,->/abqsx0139"

    def mutate(self, rng: random.Random, text: str) -> str:
        op = rng.randrange(5)
        if op == 0 and len(text) > 1:
            i = rng.randrange(len(text))
            return text[:i] + text[i + 1 :]
        if op == 1:
            i = rng.randrange(len(text) + 1)
            return text[:i] + rng.choice(self.ALPH) + text[i:]
        if op == 2 and text:
            i = rng.randrange(len(text))
            return text[:i] + rng.choice(self.ALPH) + text[i + 1 :]
        lines = text.splitlines(keepends=True)
        if not lines:
            return text
        i = rng.randrange(len(lines))
        if op == 3:
            del lines[i]
        else:
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        return "".join(lines)

    def test_mutated_models_never_crash_the_parser(self):
        g, rewards = ring_pomdp()
        base = emit_model(g, rewards)
        rng = random.Random(2024)
        survived = 0
        for _ in range(400):
            text = base
            for _ in range(rng.randint(1, 4)):
                text = self.mutate(rng, text)
            try:
                parse_model(text)
                survived += 1
            except ModelError:
                pass
        # Sanity: some mutations must still parse, some must fail.
        assert 0 < survived < 400

    def test_mutated_strategies_and_automata_never_crash(self):
        g, _ = ring_pomdp()
        sbase = emit_strategy(alternating_strategy(g, 0, 1), g)
        pbase = emit_pfa(two_state_pfa())
        rng = random.Random(77)
        for base, parse in ((sbase, lambda t: parse_strategy(t, g)), (pbase, parse_pfa)):
            for _ in range(200):
                text = self.mutate(rng, base)
                try:
                    parse(text)
                except ModelError:
                    pass
