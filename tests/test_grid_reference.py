"""The column-layout Bellman sweep against the bincount sweep it replaced.

``reference_solve`` below runs a fixed number of Jacobi sweeps, each
summing the grid's (state, action)-row CSR entries, decoded by
``reference.csr_rows``, per flat row with one ``np.bincount``, and
applies ``grid.solve``'s documented midpoint shift to its last iterate.
The column sweep adds the same products onto 0.0 in the same CSR order,
so run for ``solve``'s sweep count the two must agree byte for byte in
values, and equal in the policy, the last span, the bounds and the
metadata; and ``solve`` must have stopped at the first sweep whose span
is within its threshold.
"""

import numpy as np
import pytest

from psrplan import baseline as baselinemod
from psrplan import grid as gridmod
from psrplan import planner as plannermod
from psrplan.cassandra import load_pomdp
from psrplan.errors import ConvergenceError, ValidationError
from psrplan.grid import GridMdp, PlanResult, sweep_layout
from psrplan.zoo import random_pomdp

from conftest import DATA
from reference import csr_rows


def reference_solve(grid: GridMdp, sweeps: int, vi_tol: float = 1e-4) -> PlanResult:
    """Exactly ``sweeps`` Jacobi sweeps, then the MacQueen midpoint shift.

    Each sweep sums the CSR entries per flat row with one bincount; the
    policy is greedy against the values fed to the last sweep.  With
    Delta the last sweep's change, the values are shifted by
    gamma / (1 - gamma) * (min Delta + max Delta) / 2 and the residual is
    the span max Delta - min Delta.  A non-finite span raises.
    """
    gamma = grid.discount
    csr = csr_rows(grid)
    entry_row = np.repeat(np.arange(csr["indptr"].size - 1), np.diff(csr["indptr"]))
    values = np.zeros(grid.n_states)
    for sweep in range(1, sweeps + 1):
        future = np.bincount(
            entry_row, weights=csr["prob"] * values[csr["succ"]], minlength=csr["rewards"].size
        )
        q = (csr["rewards"] + gamma * future).reshape(-1, grid.n_actions)
        new_values = q.max(axis=1)
        low = float(np.min(new_values - values))
        high = float(np.max(new_values - values))
        if not np.isfinite(high - low):
            raise ConvergenceError(
                f"value iteration residual is {high - low} at sweep {sweep}"
            )
        values = new_values
    scale = gamma / (1.0 - gamma)
    v0 = float(values[grid.initial_state])
    return PlanResult(
        values=values + scale * (0.5 * (low + high)),
        policy=q.argmax(axis=1).astype(np.int32),
        residual=high - low,
        iterations=sweeps,
        metadata={
            "gridStates": grid.n_states,
            "mesh": grid.mesh,
            "viThreshold": vi_tol * (1.0 - gamma),
            "lowerBound": v0 + scale * low,
            "upperBound": v0 + scale * high,
        },
    )


def check(grid, vi_tol=1e-4):
    new = gridmod.solve(grid, vi_tol)
    ref = reference_solve(grid, new.iterations, vi_tol)
    assert new.values.dtype == ref.values.dtype
    assert new.values.tobytes() == ref.values.tobytes()
    assert new.policy.dtype == ref.policy.dtype
    assert np.array_equal(new.policy, ref.policy)
    assert new.residual == ref.residual
    assert new.iterations == ref.iterations
    assert new.metadata == ref.metadata
    assert new.residual <= new.metadata["viThreshold"]
    if new.iterations > 1:
        earlier = reference_solve(grid, new.iterations - 1, vi_tol)
        assert earlier.residual > new.metadata["viThreshold"]
    return new


def ragged_grid(seed, n, n_actions, discount, width_range=(1, 6), dead_frac=0.1):
    """Random grid with row widths in width_range and some self-looped dead rows."""
    rng = np.random.default_rng(seed)
    n_rows = n * n_actions
    lo, hi = width_range
    widths = rng.integers(lo, hi + 1, size=n_rows)
    dead = rng.random(n_rows) < dead_frac
    widths[dead] = 1
    succ, prob = [], []
    for row, width in enumerate(widths):
        if dead[row]:
            succ.append([row // n_actions])
            prob.append([1.0])
            continue
        succ.append(np.sort(rng.choice(n, size=min(width, n), replace=False)))
        prob.append(rng.dirichlet(np.ones(len(succ[-1]))))
    widths = np.array([len(s) for s in succ])
    rewards = rng.uniform(-1.0, 1.0, size=(n, n_actions))
    return GridMdp(
        mesh=0.5,
        coords=np.arange(n, dtype=np.int64)[:, None],
        n_actions=n_actions,
        **sweep_layout(rewards, widths, [np.concatenate(succ).astype(np.int64)],
                       [np.concatenate(prob)]),
        discount=discount,
        initial_state=0,
    )


def test_sweep_layout_stores_action_major_columns():
    """Three states, two actions; CSR entry e carries probability e, so the
    stored order names the entries."""
    widths = np.array([2, 1, 3, 1, 1, 2])  # rows (0, 0), (0, 1), (1, 0), ...
    succ = np.array([0, 2, 1, 0, 1, 2, 2, 1, 0, 1])
    rewards = np.array([[10.0, 11.0], [20.0, 21.0], [30.0, 31.0]])
    succ_parts, prob_parts = [succ[:4], succ[4:]], [np.arange(10.0)]
    layout = sweep_layout(rewards, widths, succ_parts, prob_parts)
    assert succ_parts == [] and prob_parts == []
    # rows a * 3 + s have widths 2, 3, 1, 1, 1, 2; column 0 holds all six
    # rows, column 1 rows 0, 1 and 5, column 2 row 1
    np.testing.assert_array_equal(layout["indptr"], [0, 2, 5, 6, 7, 8, 10])
    np.testing.assert_array_equal(layout["prob"], [0, 3, 7, 2, 6, 8, 1, 4, 9, 5])
    np.testing.assert_array_equal(layout["succ"], succ[[0, 3, 7, 2, 6, 8, 1, 4, 9, 5]])
    np.testing.assert_array_equal(layout["rewards"], [10, 20, 30, 11, 21, 31])
    grid = GridMdp(mesh=1.0, coords=np.zeros((3, 1), dtype=np.int64), n_actions=2,
                   **layout, discount=0.5, initial_state=0)
    csr = csr_rows(grid)
    np.testing.assert_array_equal(csr["indptr"], np.concatenate([[0], np.cumsum(widths)]))
    np.testing.assert_array_equal(csr["succ"], succ)
    np.testing.assert_array_equal(csr["prob"], np.arange(10.0))
    np.testing.assert_array_equal(csr["rewards"], rewards.reshape(-1))


@pytest.mark.parametrize("name", ["tiger", "fair_coin", "clones"])
@pytest.mark.parametrize("vi_tol", [1e-4, 1e-7])
def test_data_planner_grids_match_reference(name, vi_tol):
    model = load_pomdp(DATA / f"{name}.POMDP")
    for eps in (0.5, 0.1):
        check(plannermod.plan(model, epsilon=eps).grid, vi_tol)


@pytest.mark.parametrize("name, eps", [("fair_coin", 0.4), ("tiger", 0.5)])
def test_a8_full_lattice_grids_match_reference(name, eps):
    model = load_pomdp(DATA / f"{name}.POMDP")
    for mode in ("full", "reachable"):
        check(plannermod.plan(model, epsilon=eps, mode=mode).grid)


@pytest.mark.parametrize("name", ["tiger", "fair_coin", "clones"])
def test_data_baseline_grids_match_reference(name):
    model = load_pomdp(DATA / f"{name}.POMDP")
    for delta in (0.25, 0.05):
        check(baselinemod.build_delta_grid(model, delta))


@pytest.mark.parametrize("gamma", [0.4, 0.9, 0.99])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_models_match_reference(gamma, seed):
    model = random_pomdp(3, 2, 2, 2, seed=seed, discount=gamma)
    check(plannermod.plan(model, epsilon=0.1).grid)
    check(baselinemod.build_delta_grid(model, 0.1))


@pytest.mark.parametrize("n_actions", [1, 2, 3])
@pytest.mark.parametrize("seed", [10, 11, 12])
def test_ragged_grids_match_reference(n_actions, seed):
    for gamma in (0.5, 0.95):
        grid = ragged_grid(seed, 40, n_actions, gamma)
        widths = np.diff(grid.indptr)
        assert widths.min() == 1 and widths.max() == 6
        check(grid)


def test_uniform_rows_match_reference():
    # every column full: rows of one entry each, and rows of three
    for width in (1, 3):
        check(ragged_grid(5, 30, 2, 0.9, width_range=(width, width), dead_frac=0.0))


def test_all_dead_rows_match_reference():
    grid = ragged_grid(7, 12, 3, 0.9, dead_frac=1.0)
    assert np.array_equal(csr_rows(grid)["succ"], np.repeat(np.arange(12), 3))
    check(grid)


def test_nan_residual_raises_like_reference():
    grid = ragged_grid(3, 10, 2, 0.9)
    grid.rewards[5] = np.nan
    for solver in (lambda g: reference_solve(g, 1), gridmod.solve):
        with pytest.raises(ConvergenceError, match=r"residual is nan at sweep 1$"):
            solver(grid)


def test_sweep_cap_raises(monkeypatch):
    monkeypatch.setattr(gridmod, "MAX_VI_ITERATIONS", 3)
    with pytest.raises(ConvergenceError, match="after 3 sweeps"):
        gridmod.solve(ragged_grid(4, 10, 2, 0.99))


@pytest.mark.parametrize("vi_tol", [0.0, -1e-3, np.inf, -np.inf, np.nan])
def test_vi_tol_must_be_finite_and_positive(vi_tol):
    with pytest.raises(ValidationError, match="vi_tol must be finite and > 0"):
        gridmod.solve(ragged_grid(4, 10, 2, 0.9), vi_tol)
