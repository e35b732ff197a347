"""Command-line behavior: exit codes, report text, artifacts, chaining."""

import json
from pathlib import Path

import pytest

from asmp import (
    Distr,
    MemorylessStrategy,
    RewardFn,
    alternating_strategy,
    chain_dot,
    constant_strategy,
    emit_model,
    emit_pfa,
    emit_strategy,
    parse_model,
    parse_strategy,
    product_chain,
    reduce_quantitative,
    validate_strategy,
)
from asmp.cli import main
from asmp.gadgets import (
    ring_pomdp,
    ring_pomdp_with_orphan,
    two_state_pfa,
    unavoidable_zero_pomdp,
)

from helpers import as_finite_memory
from test_simulate import restricted_pomdp


@pytest.fixture
def files(tmp_path):
    """Write the fixture corpus once per test."""
    g, r = ring_pomdp()
    paths = {"dir": tmp_path}

    def put(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)

    put("ring.txt", emit_model(g, r))
    put("ring-bare.txt", emit_model(g))
    from asmp import emit_rewards

    put("ring-rewards.txt", emit_rewards(g, r))
    put("sigma4.txt", emit_strategy(alternating_strategy(g, 0, 1), g))
    put("const-a.txt", emit_strategy(constant_strategy(g, 0), g))
    zg, zr = unavoidable_zero_pomdp()
    put("zero.txt", emit_model(zg, zr))
    put("zero-const.txt", emit_strategy(constant_strategy(zg, 0), zg))
    og, orw = ring_pomdp_with_orphan()
    put("orphan.txt", emit_model(og, orw))
    put("pfa.txt", emit_pfa(two_state_pfa()))
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FIXPOINT_PHASES = ["reduce_s", "safe_s", "restrict_s", "reach_s"]


class TestSolve:
    def test_ring_yes_with_frozen_report(self, files, capsys):
        code, out, err = run(capsys, ["solve", files["ring.txt"]])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "verdict: YES"
        assert lines[1] == "model: ring"
        assert (
            "reduction: states=1592 observations=272 rows=30964"
            " memory-actions=198" in lines
        )
        assert (
            "safety: 39 of 272 observations almost-surely safe (4 iterations)"
            in lines
        )
        assert "target: 16 winning-recurrent states" in lines
        assert any(
            l.startswith("reachability: 39 of 39 observations") for l in lines
        )
        assert (
            "witness: finite-memory strategy with 16 memories (validated)"
            in lines
        )
        assert err.startswith("wall ") and err.rstrip().endswith("s")

    def test_zero_no_exit_one(self, files, capsys):
        code, out, _ = run(capsys, ["solve", files["zero.txt"]])
        assert code == 1
        assert out.splitlines()[0] == "verdict: NO"
        assert "cannot almost-surely reach" in out

    def test_stdout_is_byte_reproducible(self, files, capsys):
        one = run(capsys, ["solve", files["ring.txt"], "--trace-fixpoints"])
        two = run(capsys, ["solve", files["ring.txt"], "--trace-fixpoints"])
        assert one[0] == two[0] == 0
        assert one[1] == two[1]
        assert "trace safety sizes: 271 127 75 39" in one[1]

    def test_witness_file_chains_into_validate(self, files, capsys):
        wit = str(files["dir"] / "wit.txt")
        code, _, _ = run(
            capsys, ["solve", files["ring.txt"], "--strategy-out", wit]
        )
        assert code == 0
        code, out, _ = run(
            capsys, ["validate", files["ring.txt"], "--strategy", wit]
        )
        assert code == 0
        assert out == "winning: long-run average reward is 1 almost surely\n"

    def test_dot_artifact(self, files, capsys):
        dot = str(files["dir"] / "wit.dot")
        code, _, _ = run(capsys, ["solve", files["ring.txt"], "--dot", dot])
        assert code == 0
        text = (files["dir"] / "wit.dot").read_text()
        assert text.startswith("digraph")
        assert "recurrent class" in text

    @pytest.mark.parametrize(
        "model, phases",
        [
            ("ring.txt", FIXPOINT_PHASES + ["unfold_s", "validate_s"]),
            ("zero.txt", FIXPOINT_PHASES),
        ],
    )
    def test_stats_file_leaves_the_report_alone(self, files, capsys, model, phases):
        """The JSON record holds the report's sizes and phase times; stdout
        and the exit code are those of a run without the flag."""
        path = files["dir"] / "stats.json"
        argv = ["solve", files[model], "--trace-fixpoints"]
        code, out, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv + ["--stats", str(path)])
        assert (code2, out2) == (code, out)
        record = json.loads(path.read_text())
        assert list(record) == ["reduction_stats", "stats"]
        rs = record["reduction_stats"]
        assert (
            f"reduction: states={rs['states']} observations={rs['observations']}"
            f" rows={rs['rows']} memory-actions={rs['memory_actions']}"
        ) in out.splitlines()
        assert list(record["stats"]) == phases + ["wall_s"]
        assert all(t > 0 for t in record["stats"].values())

    def test_capacity_cap_exits_three(self, files, capsys):
        code, out, err = run(
            capsys, ["solve", files["ring.txt"], "--max-states", "100"]
        )
        assert code == 3
        assert out == ""
        assert err.startswith("capacity: ")

    @pytest.mark.parametrize("cap", ["-5", "0"])
    def test_cap_below_one_is_invalid_input(self, files, capsys, cap):
        argv = ["solve", files["ring.txt"], "--max-states", cap]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"input error: max_states must be at least 1, not {cap}")

    def test_missing_rewards_exit_two(self, files, capsys):
        code, _, err = run(capsys, ["solve", files["ring-bare.txt"]])
        assert code == 2
        assert "input error: no reward section" in err

    def test_separate_reward_file(self, files, capsys):
        code, out, _ = run(
            capsys,
            [
                "solve",
                files["ring-bare.txt"],
                "--rewards",
                files["ring-rewards.txt"],
            ],
        )
        assert code == 0
        assert out.splitlines()[0] == "verdict: YES"

    def test_missing_file_exit_two(self, files, capsys):
        code, _, err = run(
            capsys, ["solve", str(files["dir"] / "missing.txt")]
        )
        assert code == 2
        assert "input error:" in err


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["analyze-chain", "--threshold", "1"], ["collapse"], ["simulate"]],
    ids=lambda argv: argv[0],
)
def test_strategy_commands_reject_rewards_above_one(files, capsys, tmp_path, argv):
    text = (files["dir"] / "ring.txt").read_text()
    over = tmp_path / "over.txt"
    over.write_text(text.replace("X a = 1\n", "X a = 3/2\n"))
    code, out, err = run(
        capsys, [argv[0], str(over), "--strategy", files["sigma4.txt"], *argv[1:]]
    )
    assert code == 2
    assert out == ""
    assert "input error: state 'X', action 'a': reward 3/2 outside [0, 1]\n" in err


class TestValidate:
    def test_clean_model(self, files, capsys):
        code, out, _ = run(capsys, ["validate", files["ring.txt"]])
        assert code == 0
        assert out == "valid\n"

    def test_model_problems_are_listed(self, files, capsys, tmp_path):
        text = (files["dir"] / "ring.txt").read_text()
        broken = text.replace("X a -> X':1\n", "")
        bad = tmp_path / "broken.txt"
        bad.write_text(broken)
        code, out, _ = run(capsys, ["validate", str(bad)])
        assert code == 1
        assert "missing transition row" in out

    def test_blind_models_need_the_lenient_flag(self, files, capsys, tmp_path):
        blind = tmp_path / "blind.txt"
        blind.write_text(emit_model(*reduce_quantitative(two_state_pfa())))
        code, out, _ = run(capsys, ["validate", str(blind)])
        assert code == 1
        code, out, _ = run(capsys, ["validate", str(blind), "--lenient"])
        assert code == 0
        assert out == "valid\n"

    def test_losing_strategy_prints_the_diagnosis(self, files, capsys):
        code, out, _ = run(
            capsys,
            ["validate", files["ring.txt"], "--strategy", files["const-a.txt"]],
        )
        assert code == 1
        assert out.startswith("not winning: recurrent class {")
        assert "for reward below 1" in out


class TestSimulate:
    def test_winning_strategy_simulates_to_one(self, files, capsys):
        code, out, _ = run(
            capsys,
            [
                "simulate",
                files["ring.txt"],
                "--strategy",
                files["sigma4.txt"],
                "--steps",
                "600",
                "--runs",
                "5",
            ],
        )
        assert code == 0
        assert out.startswith("mean=1.000000 stderr=0.000000")
        assert "runs=5 steps=600 burn-in=60 seed=0" in out

    def test_seed_flag_reaches_the_generator(self, files, capsys):
        argv = [
            "simulate",
            files["zero.txt"],
            "--strategy",
            files["zero-const.txt"],
            "--steps",
            "300",
            "--runs",
            "3",
        ]
        base = run(capsys, argv)
        again = run(capsys, argv)
        other = run(capsys, argv + ["--seed", "5"])
        assert base[1] == again[1]
        assert "seed=5" in other[1]
        assert other[1].split(" stderr")[0] != base[1].split(" stderr")[0]

    @pytest.mark.parametrize(
        "flag, value", [("--runs", "0"), ("--runs", "-2"), ("--steps", "0")]
    )
    def test_empty_runs_are_invalid_input(self, files, capsys, flag, value):
        argv = ["simulate", files["ring.txt"], "--strategy", files["sigma4.txt"]]
        code, out, err = run(capsys, argv + [flag, value])
        assert code == 2
        assert out == ""
        assert f"{flag[2:]} must be at least 1, not {value}" in err

    def test_unavailable_action_is_invalid_input(self, files, capsys, tmp_path):
        g = restricted_pomdp()
        model = tmp_path / "one-sided.txt"
        model.write_text(emit_model(g, RewardFn.from_state_rewards(g, {0: 1, 1: 1})))
        stay_go = MemorylessStrategy({0: Distr.dirac(1), 1: Distr.dirac(0)})
        strategy = tmp_path / "stay-go.txt"
        strategy.write_text(emit_strategy(as_finite_memory(stay_go, g), g))
        argv = ["simulate", str(model), "--strategy", str(strategy), "--runs", "1"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith(
            "input error: strategy plays 'stay' at state 'A',"
            " unavailable at observation 'oA'\n"
        )


class TestCollapse:
    def test_winning_alternation(self, files, capsys):
        out_path = str(files["dir"] / "collapsed.txt")
        dot_path = str(files["dir"] / "proj.dot")
        code, out, _ = run(
            capsys,
            [
                "collapse",
                files["ring.txt"],
                "--strategy",
                files["sigma4.txt"],
                "--strategy-out",
                out_path,
                "--dot",
                dot_path,
            ],
        )
        assert code == 0
        assert out.splitlines()[0] == "memories: 2 -> 3"
        assert "collapsed strategy is winning" in out
        g, r = ring_pomdp()
        back = parse_strategy((files["dir"] / "collapsed.txt").read_text(), g)
        assert validate_strategy(g, r, back)[0]
        dot = (files["dir"] / "proj.dot").read_text()
        assert dot.startswith("digraph") and "shape=box" in dot

    def test_losing_input_stays_losing(self, files, capsys):
        code, out, _ = run(
            capsys,
            ["collapse", files["ring.txt"], "--strategy", files["const-a.txt"]],
        )
        assert code == 1
        assert out.splitlines()[0].startswith("memories: 1 -> ")
        assert "collapsed strategy is not winning:" in out


class TestPfaReductions:
    def test_quant_reduction_to_stdout(self, files, capsys):
        code, out, _ = run(capsys, ["reduce-pfa-quant", files["pfa.txt"]])
        assert code == 0
        g, rewards = reduce_quantitative(two_state_pfa())
        assert out == emit_model(g, rewards)

    def test_value1_reduction_written_and_solved(self, files, capsys):
        model_path = str(files["dir"] / "limit.txt")
        code, out, _ = run(
            capsys,
            ["reduce-pfa-value1", files["pfa.txt"], "--out", model_path],
        )
        assert code == 0
        assert out == (
            "model: pfa\nstates: 6\nactions: 4\nobservations: 1\n"
            f"written: {model_path}\n"
        )
        code, out, _ = run(capsys, ["solve", model_path])
        assert code == 0
        assert out.splitlines()[0] == "verdict: YES"

    def test_quant_model_solves_to_no(self, files, capsys):
        model_path = str(files["dir"] / "halves.txt")
        run(capsys, ["reduce-pfa-quant", files["pfa.txt"], "--out", model_path])
        code, out, _ = run(capsys, ["solve", model_path])
        assert code == 1
        assert out.splitlines()[0] == "verdict: NO"

    def test_reduced_model_passes_lenient_validation(self, files, capsys):
        model_path = str(files["dir"] / "halves.txt")
        run(capsys, ["reduce-pfa-quant", files["pfa.txt"], "--out", model_path])
        code, out, _ = run(capsys, ["validate", model_path, "--lenient"])
        assert code == 0
        assert out == "valid\n"


class TestBeliefObservationCheck:
    def test_yes_on_the_ring(self, files, capsys):
        code, out, _ = run(capsys, ["check-belief-obs", files["ring.txt"]])
        assert code == 0
        assert out == "belief-observation: yes\n"

    def test_no_with_witness_on_the_orphan(self, files, capsys):
        code, out, _ = run(capsys, ["check-belief-obs", files["orphan.txt"]])
        assert code == 1
        assert out.splitlines()[0] == "belief-observation: no"
        assert out.splitlines()[1] == "witness: start -> a -> u"


class TestAnalyzeChain:
    def test_alternation_classes_on_the_ring(self, files, capsys):
        code, out, _ = run(
            capsys,
            ["analyze-chain", files["ring.txt"], "--strategy", files["sigma4.txt"]],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "nodes: 13"
        assert any("mean=1 {X'·b, X·a}" in l for l in lines)
        assert any("mean=1 {Z·b, Z'·a}" in l for l in lines)
        assert lines[-1] == "almost-sure average 1: yes"

    def test_dot_artifact_draws_the_analyzed_chain(self, files, capsys):
        dot = files["dir"] / "chain.dot"
        argv = ["analyze-chain", files["ring.txt"], "--strategy", files["sigma4.txt"]]
        code, _, _ = run(capsys, argv + ["--dot", str(dot)])
        assert code == 0
        g, r = parse_model(Path(files["ring.txt"]).read_text(encoding="utf-8"))
        sigma = parse_strategy(Path(files["sigma4.txt"]).read_text(encoding="utf-8"), g)
        expected = chain_dot(product_chain(g, r, sigma), title="ring")
        assert dot.read_text(encoding="utf-8") == expected
        assert expected.count("subgraph cluster_") == 2

    def test_threshold_bracketing_on_the_zero_fixture(self, files, capsys):
        argv = [
            "analyze-chain",
            files["zero.txt"],
            "--strategy",
            files["zero-const.txt"],
        ]
        code, out, _ = run(capsys, argv)
        assert code == 1
        assert "mean=1/2 {p·a, q·a}" in out
        assert out.splitlines()[-1] == "almost-sure average 1: no"
        code, out, _ = run(capsys, argv + ["--threshold", "1/3"])
        assert code == 0
        assert out.splitlines()[-1] == "almost-sure average > 1/3: yes"
        code, out, _ = run(capsys, argv + ["--threshold", "1/2"])
        assert code == 1
        assert out.splitlines()[-1] == "almost-sure average > 1/2: no"

    def test_bad_threshold_exits_two_before_any_analysis(self, files, capsys):
        code, out, err = run(
            capsys,
            [
                "analyze-chain",
                files["zero.txt"],
                "--strategy",
                files["zero-const.txt"],
                "--threshold",
                "0.3",
            ],
        )
        assert code == 2
        assert "input error: bad rational '0.3'" in err
        assert out == ""


class TestParserPlumbing:
    def test_unknown_command_is_a_usage_error(self, files, capsys):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2

    def test_options_are_accepted_only_where_they_are_read(self, files, capsys):
        for argv in (
            ["validate", files["ring.txt"], "--seed", "3"],
            ["validate", files["ring.txt"], "--stats", "x.json"],
            ["check-belief-obs", files["ring.txt"], "--dot", "x.dot"],
            ["collapse", files["ring.txt"], "--strategy", files["sigma4.txt"], "--max-states", "9"],
            ["simulate", files["ring.txt"], "--strategy", files["sigma4.txt"], "--trace-fixpoints"],
        ):
            with pytest.raises(SystemExit) as e:
                main(argv)
            assert e.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_every_command_reports_wall_time_on_stderr(self, files, capsys):
        for argv in (
            ["validate", files["ring.txt"]],
            ["check-belief-obs", files["ring.txt"]],
        ):
            _, out, err = run(capsys, argv)
            assert "wall " in err
            assert "wall " not in out
