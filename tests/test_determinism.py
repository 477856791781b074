"""Outputs stay byte-identical across processes with different hash seeds,
and within one process whatever ran before."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

from dire import fileio
from dire.experiment import best_unsatisfied_fraction
from dire.rules import RULE_KINDS, Rule
from dire.solver import SolverConfig
from dire.synth import gen_syndata
from dire.winner import solve_drcwd
from conftest import build_example1

SRC = Path(__file__).resolve().parents[1] / "src"


def run_dire(args, hash_seed, cwd):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "dire", *args], cwd=cwd, env=env,
                          capture_output=True, timeout=120, check=True)
    return done.stdout


def test_feasible_and_experiment_outputs_ignore_the_hash_seed(tmp_path):
    instance = tmp_path / "example1.json"
    fileio.write_instance(build_example1(), instance)
    feasible = [run_dire(["feasible", str(instance)], seed, tmp_path) for seed in (1, 2)]
    assert len(feasible[0].splitlines()) >= 2  # the default mode harvests several committees
    assert feasible[0] == feasible[1]

    outputs = []
    for seed in (1, 2):
        csv = tmp_path / f"exp{seed}.csv"
        stdout = run_dire(["experiment", "--dataset", "syn1", "--seeds", "1", "--rules", "kborda,betacc",
                           "--mu-values", "0,1", "--pi-values", "0,1", "--m", "8", "--n", "6",
                           "--k", "2", "--out", str(csv)], seed, tmp_path)
        outputs.append((stdout, csv.read_bytes()))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][1].splitlines()) == 1 + 2 * 2 * 2  # header + mu x pi x rules


def test_no_state_carries_over_from_one_instance_to_the_next():
    # A (feasible), then B (infeasible), then A again in one process: the
    # second A gives what the first gave, under every rule and in both modes
    def outputs(mu, pi, seed, rule):
        instance = gen_syndata("syn1", mu=mu, pi=pi, seed=seed, m=16, n=20, k=4, rule=Rule(rule))
        out = [instance.winning_committees]
        for exhaustive in (False, True):
            report = solve_drcwd(instance, SolverConfig(timeout=60), exhaustive=exhaustive)
            out.append(dataclasses.replace(report, elapsed=0.0))
            out.append(best_unsatisfied_fraction(instance, report.committee is not None))
        return out

    for rule in RULE_KINDS:
        first = outputs(1, 1, 0, rule)
        outputs(1, 1, 1, rule)
        assert outputs(1, 1, 0, rule) == first
