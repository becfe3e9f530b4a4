"""POMDP planning via multiplicity-automaton basis discovery.

Pipeline: load a ``.POMDP`` model, view it as a multiplicity automaton
with one matrix per (action, Signal(observation, reward)) test step,
discover a minimal spanning basis of states and tests, improve it to a
barycentric spanner, then discretize the resulting low-dimensional
coefficient dynamics and solve by value iteration.  A classical belief-simplex grid planner and an
exact finite-horizon oracle are included for comparison.
"""

from .baseline import (
    act_baseline,
    build_delta_grid,
    plan_baseline,
    simplex_round,
)
from .cassandra import load_pomdp, parse_pomdp
from .decomposition import (
    CoreDecomposition,
    discover_basis,
    improve_to_spanner,
    solve_coefficients,
)
from .errors import (
    ConvergenceError,
    DegenerateBasisError,
    OracleBudgetError,
    ParseError,
    PsrPlanError,
    StateCapExceededError,
    UnsupportedConstructError,
    ValidationError,
)
from .grid import GridMdp, PlanResult, solve
from .model import (
    PomdpModel,
    Signal,
    belief_update,
    expected_reward_matrix,
    sample_trajectory,
)
from .oracle import (
    evaluate_policy,
    exact_q,
    exact_value,
    horizon_for_slack,
    truncation_slack,
)
from .planner import (
    SignalDynamics,
    act,
    belief_coefficients,
    build_grid,
    plan,
    precompute_dynamics,
    round_to_grid,
)
from .zoo import random_pomdp

__version__ = "0.1.0"

__all__ = [
    "act_baseline",
    "build_delta_grid",
    "plan_baseline",
    "simplex_round",
    "load_pomdp",
    "parse_pomdp",
    "CoreDecomposition",
    "discover_basis",
    "improve_to_spanner",
    "solve_coefficients",
    "ConvergenceError",
    "DegenerateBasisError",
    "OracleBudgetError",
    "ParseError",
    "PsrPlanError",
    "StateCapExceededError",
    "UnsupportedConstructError",
    "ValidationError",
    "GridMdp",
    "PlanResult",
    "solve",
    "PomdpModel",
    "Signal",
    "belief_update",
    "expected_reward_matrix",
    "sample_trajectory",
    "evaluate_policy",
    "exact_q",
    "exact_value",
    "horizon_for_slack",
    "truncation_slack",
    "SignalDynamics",
    "act",
    "belief_coefficients",
    "build_grid",
    "plan",
    "precompute_dynamics",
    "round_to_grid",
    "random_pomdp",
    "__version__",
]
