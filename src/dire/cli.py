"""Command-line interface.

Subcommands: generate / feasible / solve / score / experiment / convert.
Exit codes: 0 success, 1 usage or parse error, 2 infeasible instance,
3 timeout.  Diagnostics and timings go to stderr so stdout and output
files stay byte-identical across reruns with the same flags and seeds
(``generate`` defaults to ``--seed 0`` and ``experiment`` to
``--seeds 0``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from dire import fileio
from dire.constraints import AttributeScheme, make_instance, satisfies, unsatisfied_fraction
from dire.experiment import ExperimentConfig, run_experiment, write_csv
from dire.reductions import (
    parse_graph,
    reduce_vc_cc,
    reduce_vc_diversity,
    reduce_vc_representation,
)
from dire.rules import Rule, RULE_KINDS, score_committee
from dire.solver import SolverConfig, solve_feasibility
from dire.synth import DEFAULT_K, DEFAULT_M, DEFAULT_N, SYN1, SYN2, gen_syndata
from dire.winner import STATUS_INFEASIBLE, STATUS_TIMEOUT, solve_drcwd

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_TIMEOUT = 3

# stderr note when the budget ran out after a result was found (exit code stays 0)
TIMED_OUT_NOTE = "timeout: the budget ran out; the result is the best found in time"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); infeasible owns that code
        raise UsageError(message)


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def build_parser() -> _Parser:
    parser = _Parser(prog="dire", description="Committee selection under diversity and representation constraints")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic or reduction instance")
    gen.add_argument("--kind", required=True, choices=[SYN1, SYN2, "vc-div", "vc-rep", "vc-cc"])
    gen.add_argument("--mu", type=int)
    gen.add_argument("--pi", type=int)
    gen.add_argument("--phi", type=float)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--graph", help="graph file for the vc-* kinds")
    gen.add_argument("--cover-size", type=int, help="vertex cover budget k for the vc-* kinds")
    gen.add_argument("--m", type=int, default=DEFAULT_M)
    gen.add_argument("--n", type=int, default=DEFAULT_N)
    gen.add_argument("--k", type=int, default=DEFAULT_K)
    gen.add_argument("--rule", choices=RULE_KINDS, default="kborda")
    gen.add_argument("--out", required=True)

    solver_flags = argparse.ArgumentParser(add_help=False)  # shared by feasible and solve
    solver_flags.add_argument("--max-committees", type=int, default=SolverConfig.max_committees)
    solver_flags.add_argument("--timeout", type=float, default=SolverConfig.timeout)

    feas = sub.add_parser("feasible", parents=[solver_flags], help="find feasible committees")
    feas.add_argument("instance")

    solve = sub.add_parser("solve", parents=[solver_flags], help="find the best feasible committee")
    solve.add_argument("instance")
    solve.add_argument("--rule", choices=RULE_KINDS)
    solve.add_argument("--exhaustive", action="store_true")

    score = sub.add_parser("score", help="evaluate a given committee")
    score.add_argument("instance")
    score.add_argument("--committee", required=True, help="comma-separated candidate ids")
    score.add_argument("--rule", choices=RULE_KINDS)

    exp = sub.add_parser("experiment", help="batch run with CSV metrics")
    exp.add_argument("--dataset", required=True, choices=[SYN1, SYN2, "files"])
    exp.add_argument("--seeds", type=_int_list, default=[0])
    exp.add_argument("--rules", default="kborda", help="comma-separated rule kinds")
    exp.add_argument("--timeout", type=float, default=SolverConfig.timeout)
    exp.add_argument("--repetitions", type=int, default=1)
    exp.add_argument("--mu-values", type=_int_list)
    exp.add_argument("--pi-values", type=_int_list)
    exp.add_argument("--phi-values", type=_float_list)
    exp.add_argument("--m", type=int, default=DEFAULT_M)
    exp.add_argument("--n", type=int, default=DEFAULT_N)
    exp.add_argument("--k", type=int, default=DEFAULT_K)
    exp.add_argument("--exhaustive", action="store_true")
    exp.add_argument("--files", nargs="*", default=[])
    exp.add_argument("--out", required=True)

    conv = sub.add_parser("convert", help="convert a .soc ballot file to an instance skeleton")
    conv.add_argument("soc")
    conv.add_argument("--k", type=int, required=True)
    conv.add_argument("--rule", choices=RULE_KINDS, default="kborda")
    conv.add_argument("--out", required=True)

    return parser


def _cmd_generate(args) -> int:
    if args.kind in (SYN1, SYN2):
        instance = gen_syndata(
            args.kind, mu=args.mu, pi=args.pi, phi=args.phi, seed=args.seed,
            m=args.m, n=args.n, k=args.k, rule=Rule(args.rule),
        )
        fileio.write_instance(instance, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
        return EXIT_OK
    if not args.graph:
        raise UsageError(f"--graph is required for kind {args.kind}")
    if args.cover_size is None:
        raise UsageError(f"--cover-size is required for kind {args.kind}")
    graph = parse_graph(Path(args.graph).read_text(encoding="utf-8"))
    if args.kind == "vc-div":
        if args.mu is None:
            raise UsageError("--mu is required for vc-div")
        artifact = reduce_vc_diversity(graph, args.mu, args.cover_size, seed=args.seed)
    elif args.kind == "vc-rep":
        pi = args.pi if args.pi is not None else 1
        artifact = reduce_vc_representation(graph, pi, args.cover_size)
    else:
        artifact = reduce_vc_cc(graph, args.cover_size)
    fileio.write_instance(artifact.instance, args.out)
    map_path = str(args.out) + ".map.json"
    fileio.write_sidecar(artifact, map_path)
    print(f"wrote {args.out} and {map_path}", file=sys.stderr)
    return EXIT_OK


def _solver_config(args) -> SolverConfig:
    return SolverConfig(timeout=args.timeout, max_committees=args.max_committees)


def _cmd_feasible(args) -> int:
    instance = fileio.parse_instance(args.instance)
    result = solve_feasibility(instance, _solver_config(args))
    if result.proven_infeasible:
        print("INFEASIBLE")
        print(f"reason: {result.reason}", file=sys.stderr)
        return EXIT_INFEASIBLE
    if result.timed_out and not result.committees:
        print("TIMEOUT")
        return EXIT_TIMEOUT
    for committee in result.committees:
        print(" ".join(str(c) for c in committee))
    if result.timed_out:
        print(TIMED_OUT_NOTE, file=sys.stderr)
    print(f"elapsed: {result.elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK


def _cmd_solve(args) -> int:
    rule = Rule(args.rule) if args.rule else None
    instance = fileio.parse_instance(args.instance, rule_override=rule)
    report = solve_drcwd(instance, _solver_config(args), exhaustive=args.exhaustive)
    if report.status == STATUS_INFEASIBLE:
        print("INFEASIBLE")
        print(f"reason: {report.reason}", file=sys.stderr)
        return EXIT_INFEASIBLE
    if report.status == STATUS_TIMEOUT:
        print("TIMEOUT")
        return EXIT_TIMEOUT
    print(f"committee: {' '.join(str(c) for c in report.committee)}")
    print(f"score: {report.score}")
    ratio = "n/a" if report.utility_ratio is None else f"{float(report.utility_ratio):.6f}"
    print(f"utility_ratio: {ratio}")
    print(f"status: {report.status}")
    if report.timed_out:
        print(TIMED_OUT_NOTE, file=sys.stderr)
    print(f"elapsed: {report.elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK


def _cmd_score(args) -> int:
    rule = Rule(args.rule) if args.rule else None
    instance = fileio.parse_instance(args.instance, rule_override=rule)
    members = _int_list(args.committee)
    if len(set(members)) != instance.k:
        raise UsageError(f"committee size {len(set(members))} does not match k={instance.k}")
    value = score_committee(instance.profile, instance.rule, members)
    print(f"score: {value}")
    check = satisfies(instance, members)
    print(f"satisfies: {'yes' if check.ok else 'no'}")
    for key, shortfall in check.violations:
        print(f"violation: {key} shortfall {shortfall}")
    fraction = unsatisfied_fraction(instance, members)
    print(f"unsatisfied_fraction: {fraction.numerator}/{fraction.denominator}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    kwargs = dict(
        dataset=args.dataset,
        seeds=tuple(args.seeds),
        rules=tuple(r.strip() for r in args.rules.split(",") if r.strip()),
        timeout=args.timeout,
        repetitions=args.repetitions,
        m=args.m,
        n=args.n,
        k=args.k,
        files=tuple(args.files),
        exhaustive=args.exhaustive,
    )
    if args.mu_values:
        kwargs["mu_values"] = tuple(args.mu_values)
    if args.pi_values:
        kwargs["pi_values"] = tuple(args.pi_values)
    if args.phi_values:
        kwargs["phi_values"] = tuple(args.phi_values)
    config = ExperimentConfig(**kwargs)
    rows = run_experiment(config)
    write_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_convert(args) -> int:
    profile, names = fileio.read_soc(args.soc)
    instance = make_instance(
        profile=profile,
        scheme=AttributeScheme(),
        k=args.k,
        rule=Rule(args.rule),
    )
    fileio.write_instance(instance, args.out)
    print(f"converted {args.soc} ({len(names)} candidates) to {args.out}", file=sys.stderr)
    return EXIT_OK


_HANDLERS = {
    "generate": _cmd_generate,
    "feasible": _cmd_feasible,
    "solve": _cmd_solve,
    "score": _cmd_score,
    "experiment": _cmd_experiment,
    "convert": _cmd_convert,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:  # every library error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
