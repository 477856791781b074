"""Committee selection with diversity and representation constraints.

The package models multiwinner elections where candidates are partitioned
into groups (per candidate attribute) and voters into populations (per voter
attribute).  A committee is *feasible* when it meets a lower bound of members
from every group and from every population's own winning committee.  On top
of the data model it provides scoring rules (k-Borda, Borda-CC, Monroe),
exact and heuristic solvers for finding feasible and score-maximal
committees, synthetic and reduction-based instance generators, and a CLI /
experiment harness.
"""

from dire.profiles import Committee, PreferenceProfile, break_tie, make_profile, position, validate_profile
from dire.rules import (
    Rule,
    borda_vector,
    candidate_score,
    kborda,
    betacc,
    monroe,
    monroe_assign,
    population_winning_committee,
    score_committee,
    unconstrained_winner,
)
from dire.constraints import (
    Attribute,
    AttributeScheme,
    DiReInstance,
    apportionment_bounds,
    make_instance,
    necessary_condition_report,
    satisfies,
    unsatisfied_fraction,
)
from dire.solver import SolverConfig, solve_feasibility
from dire.winner import SolveReport, brute_force_oracle, fpt_rep_solver, mu1_fast_path, solve_drcwd

__all__ = [
    "Attribute",
    "AttributeScheme",
    "Committee",
    "DiReInstance",
    "PreferenceProfile",
    "Rule",
    "SolveReport",
    "SolverConfig",
    "apportionment_bounds",
    "betacc",
    "borda_vector",
    "break_tie",
    "brute_force_oracle",
    "candidate_score",
    "fpt_rep_solver",
    "kborda",
    "make_instance",
    "make_profile",
    "monroe",
    "monroe_assign",
    "mu1_fast_path",
    "necessary_condition_report",
    "population_winning_committee",
    "position",
    "satisfies",
    "score_committee",
    "solve_drcwd",
    "solve_feasibility",
    "unconstrained_winner",
    "unsatisfied_fraction",
    "validate_profile",
]
