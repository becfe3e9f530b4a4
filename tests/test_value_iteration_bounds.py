"""What ``grid.solve`` guarantees, checked against the exact optimum of the grid MDP.

The optimum V* comes from policy iteration with a dense linear solve per
policy.  For vi_tol, ``solve`` promises: its greedy policy loses at most
vi_tol at every state, its values are within gamma * vi_tol / 2 of V*
(asserted as vi_tol / 2), and V*(s0) lies in [lowerBound, upperBound].
"""

import numpy as np
import pytest

from psrplan import baseline as baselinemod
from psrplan import grid as gridmod
from psrplan import planner as plannermod
from psrplan.zoo import random_pomdp

from reference import csr_rows
from test_grid_reference import ragged_grid

# floating-point slack for the bounds only: when V*(s0) is approached
# geometrically (s0 alone in a closed class), a bound equals V*(s0) exactly
# and the dense solve lands a few ulps either side
BOUND_FP_SLACK = 1e-9


def dense_model(grid):
    """(trans, rewards): trans[s, a] is the successor distribution of row (s, a)."""
    n, k = grid.n_states, grid.n_actions
    csr = csr_rows(grid)
    rows = np.repeat(np.arange(n * k), np.diff(csr["indptr"]))
    trans = np.zeros((n * k, n))
    np.add.at(trans, (rows, csr["succ"]), csr["prob"])
    return trans.reshape(n, k, n), csr["rewards"].reshape(n, k)


def policy_value(trans, rewards, gamma, policy):
    states = np.arange(policy.size)
    lhs = np.eye(policy.size) - gamma * trans[states, policy]
    return np.linalg.solve(lhs, rewards[states, policy])


def optimal_value(trans, rewards, gamma):
    """V* by policy iteration; an action changes only if it gains over 1e-12."""
    states = np.arange(rewards.shape[0])
    policy = np.zeros(states.size, dtype=np.int64)
    while True:
        values = policy_value(trans, rewards, gamma, policy)
        q = rewards + gamma * (trans @ values)
        best = q.argmax(axis=1)
        gains = q[states, best] > q[states, policy] + 1e-12
        if not gains.any():
            return values
        policy = np.where(gains, best, policy)


def check_guarantee(grid, vi_tol):
    res = gridmod.solve(grid, vi_tol)
    trans, rewards = dense_model(grid)
    gamma = grid.discount
    v_star = optimal_value(trans, rewards, gamma)
    loss = v_star - policy_value(trans, rewards, gamma, res.policy)
    assert loss.max() <= vi_tol
    assert np.abs(res.values - v_star).max() <= vi_tol / 2
    s0 = grid.initial_state
    assert res.metadata["lowerBound"] <= v_star[s0] + BOUND_FP_SLACK
    assert v_star[s0] <= res.metadata["upperBound"] + BOUND_FP_SLACK
    assert res.residual <= vi_tol * (1.0 - gamma)


@pytest.mark.parametrize("vi_tol", [1e-4, 1e-6])
@pytest.mark.parametrize("gamma", [0.5, 0.95, 0.99])
def test_ragged_grids_meet_the_guarantee(gamma, vi_tol):
    for seed in (10, 11, 12):
        for n_actions in (1, 2, 3):
            check_guarantee(ragged_grid(seed, 40, n_actions, gamma), vi_tol)


@pytest.mark.parametrize("vi_tol", [1e-4, 1e-6])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_random_model_grids_meet_the_guarantee(n, vi_tol):
    model = random_pomdp(n, 2, 2, 2, seed=1, discount=0.99)
    check_guarantee(plannermod.plan(model, epsilon=0.2).grid, vi_tol)
    check_guarantee(baselinemod.build_delta_grid(model, 0.25), vi_tol)
