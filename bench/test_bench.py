"""Tests of the benchmark's own machinery (run with pytest from the repo root)."""

import json
import sys
import types

import pytest

import graphs
import probe
import run
import spans

assert run.load_program(), "the benchmark needs the program's sources under src/"

import workloads  # noqa: E402


def test_self_time_subtracts_the_union_of_child_spans():
    records = [
        ("op", -1, 0, 100),
        ("a", 0, 10, 40),
        ("b", 0, 30, 60),  # overlaps a: the children cover 10..60
        ("c", 1, 15, 25),
    ]
    agg = spans.aggregate(records)
    assert agg["op"]["self_s"] * 1e9 == pytest.approx(50)
    assert agg["a"]["self_s"] * 1e9 == pytest.approx(20)
    assert agg["b"]["self_s"] * 1e9 == pytest.approx(30)
    assert agg["c"]["self_s"] * 1e9 == pytest.approx(10)
    assert agg["op"]["total_s"] * 1e9 == pytest.approx(100)


def test_total_time_counts_recursive_spans_once():
    agg = spans.aggregate([("r", -1, 0, 50), ("r", 0, 10, 20), ("x", 1, 12, 14)])
    assert agg["r"]["calls"] == 2
    assert agg["r"]["total_s"] * 1e9 == pytest.approx(50)
    assert agg["r"]["self_s"] * 1e9 == pytest.approx(40 + 8)


def test_tracer_wraps_every_binding_and_restores_them(monkeypatch):
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x + 1

    core.work = work
    user.work = work  # a caller that imported the function by name
    for module in (core, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))

    tracer = spans.Tracer()
    tracer.install({"core.work": ("work.out", lambda result: result)}, "fakepkg")
    assert user.work(1) == 2  # outside any span: no record
    assert tracer.call("op", lambda: core.work(1) + user.work(2)) == 5
    tracer.uninstall()
    assert core.work is work and user.work is work
    names = [(name, parent) for name, parent, _, _ in tracer.records()]
    assert names == [("op", -1), ("core.work", 0), ("core.work", 0)]
    assert tracer.counts["work.out"] == 5


def test_tail_percentile_leaves_ten_samples_beyond_in_each_pass():
    values = list(range(1, 101))
    assert run.tail_percentile(values, pass_len=100) == (90, 90.0)
    assert run.tail_percentile(values, pass_len=50) == (80, 80.0)  # two passes: 20 beyond
    assert run.tail_percentile(values[:11], pass_len=11) == (1, 100.0 / 11)
    assert run.tail_percentile(values[:10], pass_len=10) == (10, 100.0)


def test_probe_scaling_reads_each_time_by_the_probes_around_it():
    ref = probe.REF_S
    # the machine ran at half speed around the first operation, at reference speed later
    assert probe.scaled([0.2, 0.1, 0.3], [2 * ref, 2 * ref, ref, ref]) == pytest.approx([0.1, 0.1 / 1.5, 0.3])
    assert probe.Probe().time() > 0


@pytest.mark.parametrize("vertices", [4, 10, 12, 20])
def test_generator_yields_simple_cubic_graphs(vertices):
    for seed in range(20):
        edges = graphs.random_cubic_graph(vertices, seed)
        graphs.check_cubic(vertices, edges)
        assert len(edges) == vertices * 3 // 2
        assert edges == graphs.random_cubic_graph(vertices, seed)


@pytest.mark.parametrize("edges", [
    [(0, 0), (1, 2)],
    [(0, 1), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    [(0, 1), (0, 2), (1, 2)],
])
def test_cubic_check_rejects_loops_repeats_and_wrong_degrees(edges):
    with pytest.raises(ValueError):
        graphs.check_cubic(4, edges)


@pytest.mark.parametrize("name,limit", [("syn-paper", 3), ("desk-exact", 2), ("vc-rep", 2)])
def test_tiny_run_of_each_workload_passes_every_check(name, limit):
    workload = run.prepare(name, seed=5, limit=limit)
    ledger = run.Ledger(workload)
    times = run.closed_loop(workload, ledger, 0, probe.Probe())
    assert len(times) == ledger.attempted == limit
    assert ledger.failed == 0, ledger.messages
    metrics = run.end_to_end(times, ledger, setup_s=1.0)
    assert set(metrics) == set(run.END_TO_END)


def test_traced_pass_reports_every_layer_metric():
    workload = run.prepare("syn-paper", seed=5, limit=2)
    ledger = run.Ledger(workload)
    times = run.closed_loop(workload, ledger, 0, probe.Probe())
    metrics = run.traced_pass(workload, ledger, times, None, probe.Probe())
    assert ledger.failed == 0, ledger.messages
    assert set(metrics) == set(run.PER_LAYER)
    shares = sum(value for name, value in metrics.items() if name.startswith("layer."))
    assert shares == pytest.approx(1.0)
    assert metrics["rules.score_committee.calls"] > 0
    assert not hasattr(workloads.winner.score_committee, "__wrapped__")


def test_benchmark_json_matches_the_runner():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
