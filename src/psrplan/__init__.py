"""POMDP planning via multiplicity-automaton basis discovery.

Pipeline: load a ``.POMDP`` model, view it as a multiplicity automaton over
(action, Signal(observation, reward)) test steps, discover a minimal
spanning basis of states and tests, improve it to a barycentric spanner,
then discretize the resulting low-dimensional coefficient dynamics and
solve by value iteration.  A classical belief-simplex grid planner and an
exact finite-horizon oracle are included for comparison.
"""

from .automaton import (
    MultiplicityAutomaton,
    enumerate_tests,
    evaluate,
    from_pomdp,
    hankel_submatrix,
    numerical_rank,
    stabilized_rank,
    state_test_values,
)
from .baseline import (
    act_baseline,
    build_delta_grid,
    plan_baseline,
    simplex_round,
)
from .cassandra import load_pomdp, parse_pomdp
from .decomposition import (
    CoreDecomposition,
    SpannerBasis,
    discover_basis,
    improve_to_spanner,
    solve_coefficients,
    state_coefficients,
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
    sequence_probability,
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
from .zoo import (
    cloned_states,
    fully_observable_chain,
    near_duplicate_states,
    random_pomdp,
)

__version__ = "0.1.0"

__all__ = [
    "MultiplicityAutomaton",
    "enumerate_tests",
    "evaluate",
    "from_pomdp",
    "hankel_submatrix",
    "numerical_rank",
    "stabilized_rank",
    "state_test_values",
    "act_baseline",
    "build_delta_grid",
    "plan_baseline",
    "simplex_round",
    "load_pomdp",
    "parse_pomdp",
    "CoreDecomposition",
    "SpannerBasis",
    "discover_basis",
    "improve_to_spanner",
    "solve_coefficients",
    "state_coefficients",
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
    "sequence_probability",
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
    "cloned_states",
    "fully_observable_chain",
    "near_duplicate_states",
    "random_pomdp",
    "__version__",
]
