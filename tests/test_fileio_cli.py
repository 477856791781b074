import json
import time
from types import SimpleNamespace

import pytest

from dire import fileio, solver
from dire.cli import TIMED_OUT_NOTE, build_parser, main
from dire.constraints import InstanceError
from dire.experiment import ExperimentConfig
from dire.profiles import ProfileError
from dire.reductions import reduce_vc_representation, InputGraph
from dire.rules import SatisfactionTable, betacc, unconstrained_winner
from dire.synth import gen_syndata
from conftest import build_example1, random_instance

TRIANGLE_TEXT = "3 3\n0 1\n0 2\n1 2\n"


@pytest.fixture
def example1_path(tmp_path, example1):
    path = tmp_path / "example1.json"
    fileio.write_instance(example1, path)
    return path


def test_parse_golden_example1(example1_path):
    instance = fileio.parse_instance(example1_path)
    result = unconstrained_winner(instance.profile, instance.rule, instance.k)
    assert result.score == 17


def test_round_trip_identity(example1):
    assert fileio.instance_from_dict(json.loads(fileio.dumps_instance(example1))) == example1


def test_round_trip_various_instances():
    candidates = [
        random_instance(3),
        random_instance(8, rule=betacc()),
        gen_syndata("syn1", mu=2, pi=1, seed=4, m=9, n=7, k=3),
        reduce_vc_representation(InputGraph(3, [(0, 1), (1, 2)]), pi=1, k=2).instance,
    ]
    for instance in candidates:
        rebuilt = fileio.instance_from_dict(json.loads(fileio.dumps_instance(instance)))
        assert rebuilt == instance


def test_zero_bound_needs_permissive_flag(example1):
    data = json.loads(fileio.dumps_instance(example1))
    data["diversity_bounds"]["gender"]["male"] = 0
    with pytest.raises(InstanceError):
        fileio.instance_from_dict(data)
    data["allow_zero_bounds"] = True
    instance = fileio.instance_from_dict(data)
    assert [c.key for c in instance.constraints()] == [
        "D:gender:female",
        "R:state:CA",
        "R:state:IL",
    ]


def test_winning_committee_with_a_repeated_id_is_rejected(example1):
    # [0, 0, 1] at k = 2 was once accepted and written back out as it came
    data = json.loads(fileio.dumps_instance(example1))
    data["winning_committees"]["state"]["CA"] = [0, 0, 1]
    with pytest.raises(InstanceError, match="winning committee for state:CA repeats a candidate id"):
        fileio.instance_from_dict(data)


def test_an_explicit_empty_priority_is_rejected(example1, tmp_path, capsys):
    # "priority": [] once meant ascending ids, and the fixture then solved to
    # committee 0 2 at score 13 instead of 0 3 at 12
    data = json.loads(fileio.dumps_instance(example1))
    data["priority"] = []
    with pytest.raises(ProfileError, match="not a permutation"):
        fileio.instance_from_dict(data)
    path = tmp_path / "empty_priority.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["solve", str(path)]) == 1
    assert "not a permutation" in capsys.readouterr().err
    del data["priority"]  # omitted, it is ascending ids
    assert fileio.instance_from_dict(data).profile.priority == (0, 1, 2, 3)


def test_an_unknown_top_level_key_is_rejected(example1):
    # a misspelled "priority" was once ignored, and the fixture then solved
    # to committee 0 2 at score 13 instead of 0 3 at 12
    data = json.loads(fileio.dumps_instance(example1))
    data["priorty"] = data.pop("priority")
    with pytest.raises(fileio.ParseError, match=r"^\$\.priorty: unknown key"):
        fileio.instance_from_dict(data)


def test_a_round_trip_writes_only_known_keys(example1):
    data = json.loads(fileio.dumps_instance(example1))
    data["scoring"] = [5, 5, 1, 0]
    data["allow_zero_bounds"] = True
    instance = fileio.instance_from_dict(data)
    written = json.loads(fileio.dumps_instance(instance))
    assert len(written) == 13  # every key the writer knows
    assert fileio.instance_from_dict(written) == instance


@pytest.mark.parametrize("key, attr, label, value", [
    ("diversity_bounds", "gender", "femal", 2),
    ("diversity_bounds", "state", "CA", 1),  # a voter attribute
    ("representation_bounds", "ghost", "x", 5),
    ("representation_bounds", "state", "NY", 1),
    ("winning_committees", "nope", "y", [0, 1]),
    ("winning_committees", "gender", "male", [0, 1]),  # a candidate attribute
])
def test_bounds_and_committees_of_unknown_groups_are_rejected(example1, key, attr, label, value):
    # each was once accepted: the bounds were written back out by
    # dumps_instance and the committee was dropped
    data = json.loads(fileio.dumps_instance(example1))
    data[key].setdefault(attr, {})[label] = value
    with pytest.raises(InstanceError, match=f"for {attr}:{label} names no "):
        fileio.instance_from_dict(data)


def test_parse_error_paths(example1):
    data = json.loads(fileio.dumps_instance(example1))
    del data["rankings"]
    with pytest.raises(fileio.ParseError, match=r"\$\.rankings"):
        fileio.instance_from_dict(data)

    data = json.loads(fileio.dumps_instance(example1))
    data["rankings"][2] = [0, 1, "x", 3]
    with pytest.raises(fileio.ParseError, match=r"rankings\[2\]"):
        fileio.instance_from_dict(data)

    data = json.loads(fileio.dumps_instance(example1))
    data["rule"] = "approval"
    with pytest.raises(fileio.ParseError, match=r"\$\.rule"):
        fileio.instance_from_dict(data)

    data = json.loads(fileio.dumps_instance(example1))
    data["m"] = True
    with pytest.raises(fileio.ParseError, match="boolean"):
        fileio.instance_from_dict(data)


def test_allow_zero_bounds_must_be_a_json_boolean(example1):
    data = json.loads(fileio.dumps_instance(example1))
    for value in ("false", 0, 1, None):  # "false" once turned zero bounds on
        data["allow_zero_bounds"] = value
        with pytest.raises(fileio.ParseError, match=r"^\$\.allow_zero_bounds: expected a boolean"):
            fileio.instance_from_dict(data)
    for value in (False, True):
        data["allow_zero_bounds"] = value
        assert fileio.instance_from_dict(data).allow_zero_bounds is value


def test_scoring_is_checked_against_m_at_parse_time(example1):
    data = json.loads(fileio.dumps_instance(example1))
    for scoring in ([], [3, 2, 1], [3, 2, 1, 0, 0], [0, 1, 2, 3], [3, 2, 1, -1], "3,2,1,0"):
        data["scoring"] = scoring  # [] once fell back to the Borda vector
        with pytest.raises(fileio.ParseError, match=r"^\$\.scoring: "):
            fileio.instance_from_dict(data)
        with pytest.raises(fileio.ParseError, match=r"^\$\.scoring: "):
            fileio.instance_from_dict(data, rule_override=betacc())
    data["scoring"] = [5, 5, 1, 0]
    assert fileio.instance_from_dict(data).rule.scoring == (5, 5, 1, 0)


def test_winning_committees_computed_when_absent(example1):
    data = json.loads(fileio.dumps_instance(example1))
    del data["winning_committees"]
    instance = fileio.instance_from_dict(data)
    assert instance.winning_committees == example1.winning_committees


def test_rule_override_recomputes_committees(example1):
    data = json.loads(fileio.dumps_instance(example1))
    del data["winning_committees"]
    instance = fileio.instance_from_dict(data, rule_override=betacc())
    assert instance.rule.kind == "betacc"
    for wc in instance.winning_committees.values():
        assert len(wc) == 2


SOC_TEXT = """# strict-order fixture
3
1, alpha
2, beta
3, gamma
4, 4, 2
3, 1, 2, 3
1, 3, 2, 1
"""


def test_read_soc(tmp_path):
    path = tmp_path / "votes.soc"
    path.write_text(SOC_TEXT, encoding="utf-8")
    profile, names = fileio.read_soc(path)
    assert names == ["alpha", "beta", "gamma"]
    assert profile.n == 4
    assert profile.rankings[0] == (0, 1, 2)
    assert profile.rankings[3] == (2, 1, 0)


def test_read_soc_errors(tmp_path):
    path = tmp_path / "bad.soc"
    path.write_text("2\n1, a\n2, b\n3, 3, 1\n2, 1, 2\n", encoding="utf-8")
    with pytest.raises(fileio.ParseError):
        fileio.read_soc(path)  # counts do not add up


def test_read_soc_rejects_a_negative_ranking_count(tmp_path):
    path = tmp_path / "bad.soc"
    path.write_text("2\n1, a\n2, b\n2, 2, 1\n2, 1, 2\n-1, 2, 1\n", encoding="utf-8")
    with pytest.raises(fileio.ParseError, match="soc:6"):
        fileio.read_soc(path)


def test_read_soc_rejects_a_negative_candidate_count(tmp_path):
    path = tmp_path / "bad.soc"
    path.write_text("-5\n", encoding="utf-8")
    with pytest.raises(fileio.ParseError, match="soc:1"):
        fileio.read_soc(path)


def test_read_soc_rejects_a_repeated_candidate_id(tmp_path):
    # the error names the line of the file, comment and blank lines counted
    path = tmp_path / "bad.soc"
    path.write_text("# votes\n\n2\n1, a\n1, b\n1, 1, 1\n1, 1, 2\n", encoding="utf-8")
    with pytest.raises(fileio.ParseError, match="soc:5"):
        fileio.read_soc(path)


@pytest.mark.parametrize("line", ["1, 1, 1", "1, 1, 3", "1, 0, 1", "1, 2"])
def test_read_soc_names_the_line_of_a_ranking_that_is_no_permutation(tmp_path, line):
    path = tmp_path / "bad.soc"
    path.write_text(f"2\n1, a\n2, b\n2, 2, 2\n1, 2, 1\n# note\n{line}\n", encoding="utf-8")
    with pytest.raises(fileio.ParseError, match=r"^soc:7: ranking is not a permutation of 1\.\.2$"):
        fileio.read_soc(path)


def test_cli_solve_exhaustive(example1_path, capsys):
    code = main(["solve", str(example1_path), "--exhaustive"])
    out = capsys.readouterr().out
    assert code == 0
    assert "committee: 0 3" in out
    assert "score: 12" in out
    assert "status: optimal" in out


def test_cli_solve_rule_override(example1_path, capsys):
    code = main(["solve", str(example1_path), "--rule", "betacc", "--exhaustive"])
    assert code == 0
    assert "status: optimal" in capsys.readouterr().out


def test_cli_feasible_and_solve_share_the_solver_flags():
    parser = build_parser()
    flags = ("exhaustive", "max_committees", "timeout")
    for argv, expected in (
        ([], (False, 100_000, 2000.0)),
        (["--exhaustive", "--max-committees", "7", "--timeout", "3"], (True, 7, 3.0)),
    ):
        for command in ("feasible", "solve"):
            args = parser.parse_args([command, "x.json", *argv])
            assert tuple(getattr(args, flag) for flag in flags) == expected, command
    # the defaults are the solver's own, and so is the experiment timeout
    defaults = solver.SolverConfig()
    for command in ("feasible", "solve"):
        args = parser.parse_args([command, "x.json"])
        assert (args.max_committees, args.timeout) == (defaults.max_committees, defaults.timeout), command
    args = parser.parse_args(["experiment", "--dataset", "syn1", "--out", "x.csv"])
    assert args.timeout == defaults.timeout == ExperimentConfig("syn1").timeout


def test_cli_feasible_and_solve_take_no_seed(example1_path, capsys):
    for command in ("feasible", "solve"):
        assert main([command, str(example1_path), "--seed", "1"]) == 1
        assert "--seed" in capsys.readouterr().err


def test_cli_feasible_lists_committees(example1_path, capsys):
    code = main(["feasible", str(example1_path), "--exhaustive"])
    out = capsys.readouterr().out
    assert code == 0
    assert sorted(out.strip().splitlines()) == ["0 3", "1 2", "1 3"]


def test_cli_score(example1_path, capsys):
    code = main(["score", str(example1_path), "--committee", "0,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "score: 17" in out
    assert "satisfies: no" in out
    assert "D:gender:female" in out


def test_cli_score_rejects_a_repeated_id(example1_path, capsys):
    # "0,0,1" at k = 2 once printed the score of {0, 1} and exited 0
    assert main(["score", str(example1_path), "--committee", "0,0,1"]) == 1
    assert capsys.readouterr().err == "error: committee (0, 0, 1) repeats a candidate id\n"


def test_cli_infeasible_exit_code(tmp_path, capsys):
    instance = build_example1()
    data = json.loads(fileio.dumps_instance(instance))
    data["diversity_bounds"]["gender"]["male"] = 2
    data["diversity_bounds"]["gender"]["female"] = 2
    path = tmp_path / "packed.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["feasible", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "INFEASIBLE\n"
    assert captured.err == "reason: pairwise infeasible: D:gender:male vs D:gender:female\n"
    assert main(["solve", str(path)]) == 2


def test_cli_infeasible_by_search_names_no_pair(tmp_path, capsys):
    # K4 needs a cover of 3; every pair of edges passes preprocessing at k=2
    k4 = InputGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    path = tmp_path / "k4.json"
    path.write_text(fileio.dumps_instance(reduce_vc_representation(k4, 1, 2).instance),
                    encoding="utf-8")
    assert main(["feasible", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "INFEASIBLE\n"
    assert captured.err == "reason: search space exhausted\n"


def test_cli_solve_explains_infeasible(tmp_path, capsys):
    instance = build_example1()
    data = json.loads(fileio.dumps_instance(instance))
    data["diversity_bounds"]["gender"]["male"] = 2
    data["diversity_bounds"]["gender"]["female"] = 2
    packed = tmp_path / "packed.json"
    packed.write_text(json.dumps(data), encoding="utf-8")
    k4 = InputGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    uncovered = tmp_path / "k4.json"
    uncovered.write_text(fileio.dumps_instance(reduce_vc_representation(k4, 1, 2).instance),
                         encoding="utf-8")
    for path, reason in ((packed, "pairwise infeasible: D:gender:male vs D:gender:female"),
                         (uncovered, "search space exhausted")):
        assert main(["solve", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "INFEASIBLE\n"
        assert captured.err == f"reason: {reason}\n"


def test_cli_timeout_exit_code(example1_path, capsys):
    assert main(["solve", str(example1_path), "--timeout", "1e-12"]) == 3
    assert "TIMEOUT" in capsys.readouterr().out


def test_cli_solve_notes_a_timeout_after_a_committee(example1_path, monkeypatch, capsys):
    score = SatisfactionTable.score

    def slow_score(*args):
        time.sleep(0.1)
        return score(*args)

    monkeypatch.setattr(SatisfactionTable, "score", slow_score)
    assert main(["solve", str(example1_path), "--exhaustive", "--timeout", "0.05"]) == 0
    captured = capsys.readouterr()
    assert "status: feasible-heuristic" in captured.out
    assert TIMED_OUT_NOTE in captured.err.splitlines()


def test_cli_feasible_notes_a_timeout_after_a_committee(example1_path, monkeypatch, capsys):
    assert main(["feasible", str(example1_path)]) == 0
    assert TIMED_OUT_NOTE not in capsys.readouterr().err
    # the clock jumps past the budget as soon as the first committee is found
    now = [0.0]
    pad = solver.fill_seats

    def pad_then_jump(*args):
        now[0] = 1e9
        return pad(*args)

    monkeypatch.setattr(solver, "fill_seats", pad_then_jump)
    monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: now[0]))
    assert main(["feasible", str(example1_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "1 3\n"
    assert TIMED_OUT_NOTE in captured.err.splitlines()


def test_cli_rejects_a_nan_timeout(example1_path, capsys):
    assert main(["solve", str(example1_path), "--timeout", "nan"]) == 1
    assert "timeout must be positive" in capsys.readouterr().err


def test_cli_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["solve"]) == 1
    assert main([]) == 1


def test_cli_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["solve", str(path)]) == 1


def test_cli_generate_deterministic(tmp_path):
    args = ["generate", "--kind", "syn1", "--mu", "1", "--pi", "1", "--seed", "6",
            "--m", "10", "--n", "8", "--k", "3"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_generate_reduction_with_sidecar(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text(TRIANGLE_TEXT, encoding="utf-8")
    out = tmp_path / "rep.json"
    code = main(["generate", "--kind", "vc-rep", "--graph", str(graph),
                 "--cover-size", "2", "--pi", "1", "--out", str(out)])
    assert code == 0
    assert out.exists()
    sidecar = json.loads((tmp_path / "rep.json.map.json").read_text())
    assert sidecar["vertex_to_candidate"] == {"0": 0, "1": 1, "2": 2}
    instance = fileio.parse_instance(out)
    assert instance.k == 2


def test_cli_generate_requires_graph(tmp_path):
    assert main(["generate", "--kind", "vc-cc", "--cover-size", "2",
                 "--out", str(tmp_path / "x.json")]) == 1


def test_cli_generate_seed_defaults_to_zero(tmp_path, monkeypatch):
    # no environment variable stands in for a missing --seed
    args = ["generate", "--kind", "syn1", "--mu", "1", "--pi", "0",
            "--m", "8", "--n", "6", "--k", "2"]
    monkeypatch.setenv("DIRE_SEED", "11")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--seed", "0", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_experiment_round(tmp_path):
    out = tmp_path / "exp.csv"
    args = ["experiment", "--dataset", "syn1", "--seeds", "1,2", "--rules", "kborda",
            "--mu-values", "0,1", "--pi-values", "0,1", "--m", "8", "--n", "6", "--k", "2",
            "--exhaustive", "--out", str(out)]
    assert main(args) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("instance_id,mu,pi,phi,rule,status,elapsed_s")
    assert len(lines) == 1 + 2 * 2 * 2  # header + mu x pi x seeds
    statuses = {line.split(",")[5] for line in lines[1:]}
    assert statuses <= {"optimal", "infeasible"}


@pytest.mark.parametrize("repetitions", ["0", "-2"])
def test_cli_experiment_rejects_fewer_than_one_repetition(repetitions, tmp_path, capsys):
    out = tmp_path / "exp.csv"
    args = ["experiment", "--dataset", "syn1", "--seeds", "1", "--mu-values", "0", "--pi-values", "0",
            "--m", "8", "--n", "6", "--k", "2", "--repetitions", repetitions, "--out", str(out)]
    assert main(args) == 1
    assert "repetitions must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_convert_soc(tmp_path, capsys):
    soc = tmp_path / "votes.soc"
    soc.write_text(SOC_TEXT, encoding="utf-8")
    out = tmp_path / "converted.json"
    assert main(["convert", str(soc), "--k", "2", "--out", str(out)]) == 0
    instance = fileio.parse_instance(out)
    assert instance.m == 3 and instance.n == 4 and instance.k == 2
