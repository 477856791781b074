"""Regenerate the pinned references in ``refs/``.

    python3 bench/make_refs.py [syn-paper|desk-exact|vc-rep ...]

The answers come from ``oracle.py`` and, for syn-paper, from
``scipy.optimize.milp``; nothing is taken from ``dire.winner`` or
``dire.rules``.  The program is used only to draw the inputs: Mallows
profiles, partitions and bounds from ``dire.synth`` (whose own winning
committees are discarded and recomputed here), and the reduction profiles
from ``dire.reductions``.  scipy is needed here only, never by ``run.py``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
from scipy.optimize import Bounds, LinearConstraint, milp  # noqa: E402

from dire import reductions, synth  # noqa: E402

import graphs  # noqa: E402
import oracle  # noqa: E402
from workloads import DESK_CELLS, REFS, SYN1_CELLS, SYN2_CELLS, input_digest, instance_key  # noqa: E402

# Pool seeds per cell; every run of the workload performs all of them.
POOL_SEEDS = {"syn-paper": [0], "desk-exact": [0, 1]}
# vc-rep keeps graphs with the most common minimum cover at each size.
VC_POOL = {10: (6, 2), 12: (7, 36)}  # vertices -> (cover size, graphs kept)


def ilp(m: int, k: int, constraints, weights=None) -> dict:
    """Feasibility, best weighted committee, and fewest unmet constraints."""
    rows = len(constraints)
    seats = LinearConstraint(np.ones((1, m)), k, k)
    hard = np.zeros((rows, m))
    for j, (domain, _) in enumerate(constraints):
        hard[j, list(domain)] = 1
    lower = np.array([bound for _, bound in constraints], dtype=float)
    cons = [seats] + ([LinearConstraint(hard, lower, np.inf)] if rows else [])
    cost = -np.array(weights, dtype=float) if weights is not None else np.zeros(m)
    res = milp(cost, constraints=cons, integrality=np.ones(m), bounds=Bounds(0, 1))
    if res.status not in (0, 2):
        raise RuntimeError(f"milp failed: {res.message}")
    feasible = res.status == 0
    opt = round(-res.fun) if feasible and weights is not None else None
    if feasible or not rows:
        return {"feasible": feasible, "opt": opt, "min_unmet": 0}
    # slack y_j lets constraint j go unmet: sum_{c in D_j} x_c + S_j y_j >= S_j
    soft = np.hstack([hard, np.diag(lower)])
    res = milp(np.concatenate([np.zeros(m), np.ones(rows)]),
               constraints=[LinearConstraint(np.hstack([np.ones((1, m)), np.zeros((1, rows))]), k, k),
                            LinearConstraint(soft, lower, np.inf)],
               integrality=np.ones(m + rows), bounds=Bounds(0, 1))
    if res.status != 0:
        raise RuntimeError(f"milp failed: {res.message}")
    return {"feasible": False, "opt": None, "min_unmet": round(res.fun)}


def experiment_refs(name: str, cells, m: int, n: int, k: int, exhaustive: bool) -> dict:
    instances = {}
    for kind, mu, pi, phi in cells:
        for seed in POOL_SEEDS[name]:
            inst = synth.gen_syndata(kind, mu=mu, pi=pi, phi=phi, seed=seed * 1000, m=m, n=n, k=k)
            election = oracle.Election(m, inst.profile.rankings, inst.profile.priority)
            diversity = [(members, inst.diversity_bounds[(a.name, label)])
                         for a in inst.scheme.candidate_attributes for label, members in a.groups]
            populations = [(voters, inst.representation_bounds[(a.name, label)])
                           for a in inst.scheme.voter_attributes for label, voters in a.groups]
            per_rule = {}
            for rule in oracle.RULES:
                winning = [election.winner(rule, k, voters)[0] for voters, _ in populations]
                constraints = diversity + [(w, b) for w, (_, b) in zip(winning, populations)]
                weights = [election.borda(c) for c in range(m)] if rule == oracle.KBORDA else None
                ref = ilp(m, k, constraints, weights)
                ref["committee"] = None
                if exhaustive:
                    exact = oracle.brute_force(election, rule, k, constraints)
                    if exact["feasible"] != ref["feasible"] or exact["min_unmet"] != ref["min_unmet"] or (
                            ref["opt"] is not None and ref["opt"] != exact["score"]):
                        raise RuntimeError(f"brute force and ILP disagree on {kind} mu={mu} pi={pi} s={seed}")
                    ref.update(opt=exact["score"], committee=exact["committee"])
                ref["winning"] = [list(w) for w in winning]
                ref["uncon"] = election.winner(rule, k)[1]
                per_rule[rule] = ref
            instances[instance_key(kind, mu, pi, phi, seed)] = {"inputs": input_digest(inst), "rules": per_rule}
        print(f"{name}: {kind} mu={mu} pi={pi} phi={phi} done", file=sys.stderr)
    return {"workload": name, "m": m, "n": n, "k": k, "exhaustive": exhaustive,
            "pool_seeds": POOL_SEEDS[name], "instances": instances}


def vc_refs() -> dict:
    pool = {}
    for vertices, (cover, keep) in VC_POOL.items():
        kept, seed = [], 0
        while len(kept) < keep:
            edges = graphs.random_cubic_graph(vertices, seed)
            if oracle.min_cover(vertices, edges) == cover:
                inst = reductions.reduce_vc_representation(
                    reductions.InputGraph(vertices, edges), pi=1, k=cover).instance
                borda = [0] * inst.m
                for ranking in inst.profile.rankings:
                    for rank, cand in enumerate(ranking):
                        borda[cand] += inst.m - 1 - rank
                borda.sort(reverse=True)
                budgets = {
                    str(k): {"uncon": sum(borda[:k]),
                             "min_unmet": len(edges) - oracle.vc_rep_max_hit(vertices, edges, k)}
                    for k in (cover - 1, cover)
                }
                kept.append({"seed": seed, "vertices": vertices, "edges": [list(e) for e in edges],
                             "cover": cover, "profile": oracle.rankings_digest(inst.profile.rankings),
                             "budgets": budgets})
            seed += 1
        pool[str(vertices)] = kept
    return {"workload": "vc-rep", "pi": 1, "pool": pool}


def main(names) -> None:
    generators = {
        "syn-paper": lambda: experiment_refs("syn-paper", SYN1_CELLS + SYN2_CELLS, 50, 100, 6, False),
        "desk-exact": lambda: experiment_refs("desk-exact", DESK_CELLS, 16, 20, 4, True),
        "vc-rep": vc_refs,
    }
    for name in names or generators:
        start = time.perf_counter()
        refs = generators[name]()
        with open(REFS / f"{name}.json", "w", encoding="utf-8") as handle:
            json.dump(refs, handle, sort_keys=True, separators=(",", ":"))
            handle.write("\n")
        print(f"{name}: wrote refs in {time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
