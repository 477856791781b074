"""Benchmark entry point: one seeded workload, one process, one thread.

    python3 bench/run.py --workload syn-paper --seed 1 --seconds 15 --trace 0

A closed loop keeps one operation in flight: it makes whole passes over the
workload's operation list, as many as come closest to ``--seconds``, timing
each operation and checking its output against the pinned references
(outside the timing).  Whole passes keep the mix of operations the same in
every run.  The last stdout line is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
one untraced pass is followed by one traced pass over the operation list,
and the metrics are per-layer span totals of the traced pass; the spans
are written to ``.bench_out/`` in the checkout.

See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("syn-paper", "desk-exact", "vc-rep")

# Fresh processes whose set-up is timed; setup_s is their median.
SETUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "ok_frac": "ratio",
    "utility_ratio_mean": "ratio",
    "unsat_frac_mean": "ratio",
    "peak_rss_mb": "MB",
}

# Public functions traced at every module attribute that binds them, with
# the counters read off their results.
TRACE_TARGETS = {
    "synth.gen_syndata": None,
    "synth.sample_mallows": None,
    "constraints.make_instance": None,
    "constraints.satisfies": None,
    "constraints.unsatisfied_fraction": None,
    "rules.population_winning_committee": None,
    "rules.unconstrained_winner": None,
    "rules.score_committee": None,
    "winner.solve_drcwd": ("winner.committees_examined", lambda report: report.committees_examined),
    "solver.solve_feasibility": None,
    "solver.build_diregraph": None,
    "solver.preprocess": None,
    "solver.domain_reduce": None,
    "solver.enumerate_feasible": ("solver.enumerate_feasible.committees", lambda res: len(res.committees)),
    "solver.heuristic_backtrack": None,
    "experiment.best_unsatisfied_fraction": None,
}
COUNTERS = {counter[0] for counter in TRACE_TARGETS.values() if counter}
LAYERS = ("synth", "rules", "constraints", "solver", "winner", "experiment")

PER_LAYER = {
    "synth.sample_mallows.self_s": "s",
    "synth.gen_syndata.total_s": "s",
    "rules.score_committee.calls": "count",
    "rules.score_committee.self_s": "s",
    "rules.population_winning_committee.total_s": "s",
    "rules.unconstrained_winner.total_s": "s",
    "constraints.unsatisfied_fraction.calls": "count",
    "constraints.unsatisfied_fraction.self_s": "s",
    "experiment.best_unsatisfied_fraction.total_s": "s",
    "winner.solve_drcwd.total_s": "s",
    "winner.committees_examined": "count",
    "solver.solve_feasibility.total_s": "s",
    "solver.build_diregraph.self_s": "s",
    "solver.preprocess.total_s": "s",
    "solver.domain_reduce.calls": "count",
    "solver.domain_reduce.self_s": "s",
    "solver.heuristic_backtrack.calls": "count",
    "solver.heuristic_backtrack.self_s": "s",
    "solver.enumerate_feasible.committees": "count",
    "solver.restart_yield": "ratio",
    **{f"layer.{layer}.share": "ratio" for layer in LAYERS},
    "layer.bench.share": "ratio",
    "trace.ops": "count",
    "trace.op_s": "s",
    "trace.ops_per_s_ratio": "ratio",
}


def load_program() -> bool:
    """Put the checkout's ``src`` first on the import path; False if absent."""
    if not (SRC / "dire" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def tail_percentile(values, pass_len: int, beyond: int = 10) -> tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it in
    each pass of ``pass_len`` operations.

    Fixing the percentile by the pass length, not by the sample count, keeps
    it the same whether a run made one pass or several.  Returns (value,
    percentile) by the nearest-rank rule.  With ``beyond`` or fewer
    operations per pass it falls back to the maximum, the 100th percentile.
    """
    ordered = sorted(values)
    if pass_len <= beyond:
        return ordered[-1], 100.0
    rank = -(-len(ordered) * (pass_len - beyond) // pass_len)
    return ordered[rank - 1], 100.0 * (pass_len - beyond) / pass_len


class Ledger:
    """Attempts, failures, first-pass signatures and quality values per row."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.signatures: dict[int, object] = {}
        self.quality: dict[int, tuple[str, Fraction]] = {}

    def record(self, index: int, out, error: Exception | None) -> None:
        self.attempted += 1
        if error is not None:
            self.fail(index, [f"{type(error).__name__}: {error}"])
            return
        try:
            check = self.workload.check(self.workload.rows[index], out)
        except Exception as exc:  # a malformed output must count as a failure
            self.fail(index, [f"check raised {type(exc).__name__}: {exc}"])
            return
        errors = list(check.errors)
        if self.signatures.setdefault(index, check.signature) != check.signature:
            errors.append("output differs from an earlier pass over the same row")
        if check.quality is not None:
            self.quality.setdefault(index, check.quality)
        self.fail(index, errors)

    def fail(self, index: int, errors: list[str]) -> None:
        if errors:
            self.failed += 1
            self.messages.append(f"row {index}: {'; '.join(errors)}")

    def mean(self, kind: str) -> float | None:
        values = [value for k, value in self.quality.values() if k == kind]
        return float(sum(values, Fraction(0)) / len(values)) if values else None


def run_op(workload, index: int, ledger: Ledger, call=None) -> float:
    """Run one operation, record its checked outcome, return its wall time."""
    row = workload.rows[index]
    start = time.perf_counter()
    try:
        out, error = (call("op", workload.run, row) if call else workload.run(row)), None
    except Exception as exc:  # any exception is a failed operation
        out, error = None, exc
    elapsed = time.perf_counter() - start
    ledger.record(index, out, error)
    return elapsed


def one_pass(workload, ledger: Ledger, speed: probe.Probe, call=None) -> list[float]:
    """Every row once, between speed probes; the times read at the reference speed."""
    times, probes = [], [speed.time()]
    for index in range(len(workload.rows)):
        times.append(run_op(workload, index, ledger, call))
        probes.append(speed.time())
    return probe.scaled(times, probes)


def prepare(name: str, seed: int, limit: int | None = None):
    """Set-up: build the workload's inputs, load references, warm up."""
    import workloads

    workload = workloads.make(name, seed, limit)
    workload.run(workload.warm_up)
    return workload


def setup_seconds(name: str, seed: int, speed: probe.Probe) -> float:
    """Median wall time of fresh processes that only set up and exit, each
    read at the reference speed by the probes around it."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = speed.median()
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                        "--seed", str(seed), "--setup-only"],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        samples += probe.scaled([elapsed], [before, speed.median()])
    return statistics.median(samples)


def closed_loop(workload, ledger: Ledger, seconds: float, speed: probe.Probe) -> list[float]:
    """Whole passes over the rows, as many as the first pass's time says
    come closest to ``seconds``, and at least one.  Returns the operation
    times read at the reference speed."""
    start = time.perf_counter()
    times = one_pass(workload, ledger, speed)
    passes = max(1, round(seconds / (time.perf_counter() - start)))
    for _ in range(passes - 1):
        times += one_pass(workload, ledger, speed)
    for index, errors, quality in workload.post():
        ledger.fail(index, errors)
        ledger.quality.setdefault(index, quality)
    return times


def end_to_end(times: list[float], ledger: Ledger, setup_s: float) -> dict[str, float]:
    tail, percentile = tail_percentile(times, len(ledger.workload.rows))
    print(f"op_tail_ms is the p{percentile:.2f} latency of {len(times)} operations")
    return {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": tail * 1e3,
        "ops_per_s": len(times) / sum(times),
        "ok_frac": 1 - ledger.failed / ledger.attempted,
        "utility_ratio_mean": ledger.mean("ratio"),
        "unsat_frac_mean": ledger.mean("unsat"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_pass(workload, ledger: Ledger, times: list[float], spans_path: Path | None,
                speed: probe.Probe) -> dict[str, float]:
    """One traced pass over the operation list; per-layer metrics of it."""
    import spans

    tracer = spans.Tracer()
    tracer.install(TRACE_TARGETS, "dire")
    try:
        traced = one_pass(workload, ledger, speed, tracer.call)
    finally:
        tracer.uninstall()
    if spans_path is not None:
        tracer.write(spans_path)
    agg = spans.aggregate(tracer.records())
    op_total = agg["op"]["total_s"]
    metrics: dict[str, float] = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("calls", "self_s", "total_s") and span in TRACE_TARGETS:
            metrics[name] = agg.get(span, {}).get(field, 0)
        elif name in COUNTERS:
            metrics[name] = tracer.counts[name]
    backtracks = agg.get("solver.heuristic_backtrack", {}).get("calls", 0)
    metrics["solver.restart_yield"] = (
        tracer.counts["solver.enumerate_feasible.committees"] / backtracks if backtracks else 0.0)
    for layer in LAYERS:
        busy = sum(row["self_s"] for span, row in agg.items() if span.startswith(layer + "."))
        metrics[f"layer.{layer}.share"] = busy / op_total
    metrics["layer.bench.share"] = agg["op"]["self_s"] / op_total
    metrics["trace.ops"] = len(traced)
    metrics["trace.op_s"] = op_total
    # the untraced pass ran the same operations
    metrics["trace.ops_per_s_ratio"] = sum(times[:len(traced)]) / sum(traced)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not load_program():
        print(f"run.py: no program sources under {SRC}", file=sys.stderr)
        return 2
    # One processor for the whole run, set-up processes included, so that the
    # speed probe and the operations it scales run on the same one.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.setup_only:
        prepare(args.workload, args.seed)
        return 0

    speed = probe.Probe()
    setup_s = 0.0 if args.trace else setup_seconds(args.workload, args.seed, speed)
    workload = prepare(args.workload, args.seed)
    gc.collect()
    gc.freeze()  # the references stay alive all run; keep them out of collections
    ledger = Ledger(workload)
    times = closed_loop(workload, ledger, 0 if args.trace else args.seconds, speed)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        metrics = traced_pass(workload, ledger, times, OUT / f"{args.workload}-seed{args.seed}.spans.tsv.gz",
                              speed)
        units = PER_LAYER
    else:
        metrics = end_to_end(times, ledger, setup_s)
        units = END_TO_END
    for message in ledger.messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(times)} timed operations over "
          f"{len(workload.rows)} rows, {ledger.failed} of {ledger.attempted} attempts failed")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
