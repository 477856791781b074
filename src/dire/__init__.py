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

from dire.profiles import Committee, PreferenceProfile, make_profile, position, validate_profile
from dire.rules import (
    Rule,
    borda_vector,
    kborda,
    betacc,
    monroe,
    population_winning_committee,
    score_committee,
    unconstrained_winner,
)
from dire.constraints import (
    Attribute,
    AttributeScheme,
    DiReInstance,
    make_instance,
    satisfies,
    unsatisfied_fraction,
)
from dire.solver import SolverConfig, solve_feasibility
from dire.winner import SolveReport, brute_force_oracle, solve_drcwd

__all__ = [
    "Attribute",
    "AttributeScheme",
    "Committee",
    "DiReInstance",
    "PreferenceProfile",
    "Rule",
    "SolveReport",
    "SolverConfig",
    "betacc",
    "borda_vector",
    "brute_force_oracle",
    "kborda",
    "make_instance",
    "make_profile",
    "monroe",
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
