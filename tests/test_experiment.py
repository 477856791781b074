import dataclasses
import json
import time
from fractions import Fraction

import pytest

import scoring_reference as ref
import dire.experiment as experiment
import dire.synth as synth
from dire.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    ExperimentError,
    best_unsatisfied_fraction,
    run_experiment,
    write_csv,
)
from dire.constraints import Attribute, AttributeScheme, make_instance
from dire.fileio import write_instance
from dire.profiles import make_profile
from dire.rules import Rule, SatisfactionTable, _depth_first
from conftest import build_example1, random_instance


def desk_config(**overrides):
    base = dict(
        dataset="syn1", seeds=(1, 2, 3, 4, 5), rules=("kborda",),
        mu_values=(0,), pi_values=(0,), m=8, n=6, k=2,
        timeout=60, exhaustive=True,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_unconstrained_rows_all_feasible_ratio_one():
    rows = run_experiment(desk_config())
    assert len(rows) == 5
    for row in rows:
        assert row["status"] == "optimal"
        assert row["utility_ratio"] == "1.000000"
        assert row["max_unsat_fraction"] == "0.000000"
        assert row["timed_out"] == "false"


def test_rows_sorted_and_schema_stable():
    rows = run_experiment(desk_config(mu_values=(0, 1), pi_values=(0, 1), rules=("kborda", "betacc")))
    ids = [(row["instance_id"], row["rule"]) for row in rows]
    assert ids == sorted(ids)
    for row in rows:
        assert list(row) == CSV_COLUMNS
        assert row["status"] in ("optimal", "feasible-heuristic", "infeasible", "timeout")


def test_deterministic_rerun():
    config = desk_config(mu_values=(0, 1), pi_values=(1,), rules=("kborda", "monroe"))
    assert run_experiment(config) == run_experiment(config)


def test_syn2_dataset_rows():
    config = ExperimentConfig(
        dataset="syn2", seeds=(1,), rules=("kborda",),
        phi_values=(0.2, 0.8), m=8, n=6, k=2, timeout=60, exhaustive=True,
    )
    rows = run_experiment(config)
    assert [row["phi"] for row in rows] == ["0.2", "0.8"]
    assert all(row["mu"] == "2" and row["pi"] == "2" for row in rows)


def test_files_dataset(tmp_path):
    path = tmp_path / "golden.json"
    write_instance(build_example1(), path)
    config = ExperimentConfig(
        dataset="files", files=(str(path),), seeds=(0,), rules=("kborda",),
        timeout=60, exhaustive=True,
    )
    rows = run_experiment(config)
    assert len(rows) == 1
    row = rows[0]
    assert row["instance_id"] == "golden"
    assert row["score"] == "12"
    assert row["unconstrained_score"] == "17"
    assert row["mu"] == "1" and row["pi"] == "1"


def test_zero_best_score_row(tmp_path):
    # the only feasible committee is the voter's last choice, which k-Borda
    # scores 0, so the utility ratio is 0 and cannot give back the denominator
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({
        "m": 2, "n": 1, "k": 1, "rule": "kborda", "rankings": [[0, 1]],
        "voter_attributes": [{"name": "B", "groups": {"p": [0]}}],
        "representation_bounds": {"B": {"p": 1}}, "winning_committees": {"B": {"p": [1]}},
    }), encoding="utf-8")
    (row,) = run_experiment(ExperimentConfig(dataset="files", files=(str(path),), timeout=60))
    assert row["score"] == "0"
    assert row["unconstrained_score"] == "1"
    assert row["utility_ratio"] == "0.000000"
    assert row["timed_out"] == "false"


def test_each_instance_is_sampled_once_for_every_rule(monkeypatch):
    sample, calls = synth.sample_mallows, []

    def counted(*args):
        calls.append(args)
        return sample(*args)

    monkeypatch.setattr(synth, "sample_mallows", counted)
    rows = run_experiment(desk_config(seeds=(0,), mu_values=(0, 1), pi_values=(0, 2),
                                      rules=("kborda", "betacc", "monroe")))
    assert len(rows) == 12
    assert len(calls) == 4


def test_repetitions_multiply_rows():
    rows = run_experiment(desk_config(seeds=(7,), repetitions=3))
    assert len(rows) == 3
    assert len({row["instance_id"] for row in rows}) == 3


def test_config_validation():
    for empty in ("seeds", "mu_values", "pi_values", "phi_values"):  # no rows at all
        with pytest.raises(ExperimentError, match="must be nonempty"):
            ExperimentConfig(dataset="syn1", **{empty: ()})
    with pytest.raises(ExperimentError):
        ExperimentConfig(dataset="syn1", rules=("plurality",))
    with pytest.raises(ExperimentError):
        ExperimentConfig(dataset="files")
    with pytest.raises(ExperimentError):
        ExperimentConfig(dataset="syn1", timeout=0)
    with pytest.raises(ExperimentError):
        ExperimentConfig(dataset="syn1", timeout=float("nan"))
    for repetitions in (0, -2):  # no rows at all, which is no experiment
        with pytest.raises(ExperimentError):
            ExperimentConfig(dataset="syn1", repetitions=repetitions)
    assert ExperimentConfig(dataset="syn1", timeout=float("inf")).timeout == float("inf")


def test_config_fields():
    # the CSV path is the CLI's business (write_csv), not a config field
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert fields == ["dataset", "seeds", "rules", "timeout", "repetitions", "mu_values",
                      "pi_values", "phi_values", "m", "n", "k", "files", "exhaustive"]


def test_unconstrained_recomputation_keeps_to_the_timeout(monkeypatch):
    # No constraints: the solve finds a committee at once, and then the
    # unconstrained Monroe search over C(26, 5) committees is cut, as every
    # table score sleeps 0.04 s and the search would score 5 committees here
    # (0.2 s, four times the budget).  The row must not start that search
    # again without a deadline.
    score = SatisfactionTable.score

    def slow_score(*args):
        time.sleep(0.04)
        return score(*args)

    monkeypatch.setattr(SatisfactionTable, "score", slow_score)
    config = desk_config(seeds=(0,), rules=("monroe",), m=26, n=60, k=5, timeout=0.05, exhaustive=False)
    start = time.monotonic()
    (row,) = run_experiment(config)
    assert time.monotonic() - start < 0.3
    assert row["status"] == "feasible-heuristic"
    assert row["utility_ratio"] == ""
    assert row["unconstrained_score"] == ""
    assert row["timed_out"] == "true"


def test_best_unsatisfied_fraction_exact():
    instance = build_example1()
    value, approx = best_unsatisfied_fraction(instance, found=False)
    assert value == Fraction(0)  # a feasible committee exists
    assert not approx


def test_best_unsatisfied_fraction_greedy_flagged(monkeypatch):
    monkeypatch.setattr(experiment, "METRIC_ORACLE_CAP", 1)
    instance = random_instance(2, mu=2, pi=0)
    value, approx = best_unsatisfied_fraction(instance, found=False)
    assert approx
    assert 0 <= value <= 1


def test_best_unsatisfied_fraction_at_depth_beyond_the_recursion_limit():
    # C(1200, 1199) = 1,200 lies below the metric cap; a committee of 1,199
    # meets only one of two disjoint 600-member bounds of 600
    m = 1200
    profile = make_profile(m, [list(range(m))])
    scheme = AttributeScheme((Attribute("A", {"g1": range(600), "g2": range(600, m)}),), ())
    instance = make_instance(profile, scheme, k=m - 1, diversity_bounds={("A", "g1"): 600, ("A", "g2"): 600})
    assert best_unsatisfied_fraction(instance, found=False) == (Fraction(1, 2), False)


@pytest.mark.parametrize("rule", ["kborda", "betacc", "monroe"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("mu, pi", [(1, 1), (2, 1), (2, 2)])
def test_best_unsatisfied_fraction_matches_enumeration_on_desk_rows(mu, pi, seed, rule):
    instance = synth.gen_syndata(synth.SYN1, mu=mu, pi=pi, seed=seed, m=16, n=20, k=4, rule=Rule(rule))
    assert best_unsatisfied_fraction(instance, found=False) == ref.best_unsatisfied_fraction(instance, False)


# Infeasible syn1 rows at paper scale (m=50, n=100, k=6), seed 0, k-Borda:
# (mu, pi, fewest unmet, constraints).  Above the metric cap the greedy
# shortfall estimate reads 5/6, 1/4, 4/5 and 3/4 on these.
PAPER_ROWS = [(1, 0, 3, 6), (2, 0, 1, 8), (3, 0, 5, 10), (1, 1, 4, 8)]
# the nodes _fewest_unmet visits on those rows; without its packing term it
# visits 8, 54, 119 and 72
PAPER_NODES = [7, 13, 34, 15]


def paper_row(mu, pi):
    instance = synth.gen_syndata(synth.SYN1, mu=mu, pi=pi, seed=0, rule=Rule("kborda"))
    return instance, instance.constraints()


@pytest.mark.parametrize("mu, pi, unmet, total", PAPER_ROWS)
def test_fewest_unmet_at_paper_scale(mu, pi, unmet, total):
    instance, constraints = paper_row(mu, pi)
    assert len(constraints) == total
    assert experiment._fewest_unmet(instance, constraints) == unmet


@pytest.mark.parametrize("mu, pi, unmet, nodes",
                         [(mu, pi, unmet, nodes) for (mu, pi, unmet, _), nodes in zip(PAPER_ROWS, PAPER_NODES)])
def test_fewest_unmet_packing_term_cuts_at_paper_scale(monkeypatch, mu, pi, unmet, nodes):
    visited = 0

    def counting(expand, *root):
        def node(*args):
            nonlocal visited
            visited += 1
            return expand(*args)
        _depth_first(node, *root)

    monkeypatch.setattr(experiment, "_depth_first", counting)
    assert experiment._fewest_unmet(*paper_row(mu, pi)) == unmet
    assert visited == nodes


@pytest.mark.parametrize("mu, pi, unmet, total", PAPER_ROWS)
def test_fewest_unmet_matches_an_ilp_at_paper_scale(mu, pi, unmet, total):
    # x_c picks candidate c, y_i lets constraint i go unmet:
    # sum over its domain of x_c + bound_i * y_i >= bound_i, sum of x = k
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    instance, constraints = paper_row(mu, pi)
    m, rows = instance.m, len(constraints)
    bounds = np.array([con.bound for con in constraints], dtype=float)
    held = np.zeros((rows, m))
    for i, con in enumerate(constraints):
        held[i, sorted(con.domain)] = 1
    seats = optimize.LinearConstraint(np.hstack([np.ones((1, m)), np.zeros((1, rows))]), instance.k, instance.k)
    met = optimize.LinearConstraint(np.hstack([held, np.diag(bounds)]), bounds, np.inf)
    res = optimize.milp(np.concatenate([np.zeros(m), np.ones(rows)]), constraints=[seats, met],
                        integrality=np.ones(m + rows), bounds=optimize.Bounds(0, 1))
    assert res.status == 0
    assert experiment._fewest_unmet(instance, constraints) == round(res.fun) == unmet


@pytest.mark.parametrize("rule", ["kborda", "betacc", "monroe"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("mu, pi", [(1, 1), (2, 2), (3, 0)])
def test_greedy_unsatisfied_fraction_matches_the_reference(mu, pi, seed, rule, monkeypatch):
    # above the cap both take, at each step, the candidate that leaves the
    # least total shortfall, ties by priority: the package by counting the
    # short constraints that hold each candidate, the reference by
    # recounting the shortfall of every trial set
    monkeypatch.setattr(experiment, "METRIC_ORACLE_CAP", 0)
    monkeypatch.setattr(ref, "METRIC_ORACLE_CAP", 0)
    instance = synth.gen_syndata(synth.SYN1, mu=mu, pi=pi, seed=seed, m=16, n=20, k=4, rule=Rule(rule))
    assert best_unsatisfied_fraction(instance, found=False) == ref.best_unsatisfied_fraction(instance, False)


def test_write_csv_layout(tmp_path):
    rows = run_experiment(desk_config(seeds=(1,)))
    out = tmp_path / "rows.csv"
    write_csv(rows, out)
    text = out.read_text(encoding="utf-8")
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
