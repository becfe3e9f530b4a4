import numpy as np
import pytest

from psrplan.baseline import (
    act_baseline,
    build_delta_grid,
    plan_baseline,
    simplex_round,
    solve_baseline,
)
from psrplan.cassandra import load_pomdp
from psrplan.errors import StateCapExceededError, ValidationError
from psrplan.model import expected_reward_matrix
from psrplan.oracle import (
    evaluate_policy,
    exact_q,
    exact_value,
    horizon_for_slack,
    truncation_slack,
)
from psrplan.zoo import fully_observable_chain, random_pomdp

from conftest import DATA


def test_simplex_round_keeps_lattice_points_fixed():
    b = np.array([0.25, 0.5, 0.25])
    np.testing.assert_array_equal(simplex_round(b, 0.25), [1, 2, 1])


def test_simplex_round_largest_remainder():
    b = np.array([0.26, 0.26, 0.48])
    # scaled by 2: floors (0,0,0); the two leftover units go to the largest
    # remainders, index 2 first, then the tie at index 0
    np.testing.assert_array_equal(simplex_round(b, 0.5), [1, 0, 1])


def test_simplex_round_always_sums_to_resolution():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        b = rng.dirichlet([0.5] * n)
        coords = simplex_round(b, 0.1)
        assert coords.sum() == 10
        assert np.all(coords >= 0)


def test_simplex_round_error_bound():
    # each coordinate moves by less than one lattice unit
    rng = np.random.default_rng(2)
    for _ in range(200):
        b = rng.dirichlet([1.0] * 4)
        rounded = simplex_round(b, 0.05) * 0.05
        assert np.abs(rounded - b).max() < 0.05 + 1e-12


def test_simplex_round_stack_matches_rows():
    rng = np.random.default_rng(5)
    beliefs = rng.dirichlet([0.7] * 5, size=300)
    stacked = simplex_round(beliefs, 0.05)
    for b, row in zip(beliefs, stacked):
        np.testing.assert_array_equal(simplex_round(b, 0.05), row)


def test_non_integral_resolution_rejected():
    with pytest.raises(ValidationError, match="integer"):
        simplex_round(np.array([0.5, 0.5]), 0.3)


def test_single_state_model_has_one_grid_state(fair_coin):
    for delta in (1.0, 0.5, 0.1):
        grid = build_delta_grid(fair_coin, delta)
        assert grid.n_states == 1


def test_delta_one_grid_is_corners(tiger):
    grid = build_delta_grid(tiger, 1.0)
    for coords in grid.coords:
        assert sorted(coords) == [0, 1]  # every state is a simplex corner


def test_state_cap_enforced(tiger):
    with pytest.raises(StateCapExceededError):
        build_delta_grid(tiger, 0.02, state_cap=3)


def test_geometric_series_value(fair_coin):
    grid = build_delta_grid(fair_coin, 0.5)
    res = solve_baseline(grid, vi_tol=1e-6)
    assert res.values[0] == pytest.approx(0.5 / (1 - 0.9), abs=1e-4)


def test_matches_exact_mdp_when_fully_observable():
    m = fully_observable_chain(discount=0.5)
    res = plan_baseline(m, delta=0.05, vi_tol=1e-6)
    r_sa = expected_reward_matrix(m)
    v = np.zeros(m.n)
    for _ in range(200):
        v = (r_sa + m.discount * np.einsum("saj,j->sa", m.transition, v)).max(axis=1)
    bound = 1e-6 + 2 * 0.05 / (1 - m.discount) ** 3
    k = 20  # resolution for delta=0.05
    sid = res.grid.index.find(k * np.eye(m.n, dtype=np.int64))
    for s in np.flatnonzero(sid >= 0):
        assert abs(res.values[sid[s]] - v[s]) <= bound


def test_tiger_baseline_inside_accuracy_bound(tiger):
    res = plan_baseline(tiger, delta=0.05, vi_tol=1e-4)
    slack = 1e-2
    H = horizon_for_slack(tiger.discount, slack)
    v_opt, _ = exact_value(tiger, tiger.initial_belief, H)
    v_pol = evaluate_policy(
        tiger, lambda b: act_baseline(res, b), tiger.initial_belief, H
    )
    bound = 2 * 0.05 / (1 - tiger.discount) ** 3
    assert v_pol >= v_opt - bound - 2 * slack


def test_same_cell_q_values_close():
    m = random_pomdp(3, 2, 2, 1, seed=21, discount=0.3)
    delta = 0.2
    H = horizon_for_slack(m.discount, 1e-3)
    slack = truncation_slack(m.discount, H)
    rng = np.random.default_rng(3)
    pairs = 0
    cells = {}
    for _ in range(200):
        b = rng.dirichlet([1.0] * m.n)
        cells.setdefault(tuple(simplex_round(b, delta)), []).append(b)
    for bucket in cells.values():
        for i in range(len(bucket)):
            for j in range(i + 1, len(bucket)):
                for a in range(m.n_actions):
                    qx = exact_q(m, bucket[i], a, H)
                    qy = exact_q(m, bucket[j], a, H)
                    assert abs(qx - qy) <= delta / (1 - m.discount) + 2 * slack
                pairs += 1
                if pairs >= 30:
                    return
    assert pairs > 0


def test_grid_value_close_to_true_value_at_grid_beliefs():
    m = random_pomdp(3, 2, 2, 1, seed=33, discount=0.3)
    delta = 0.1
    res = plan_baseline(m, delta=delta, vi_tol=1e-6)
    H = horizon_for_slack(m.discount, 1e-3)
    slack = truncation_slack(m.discount, H)
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(100):
        b = rng.dirichlet([1.0] * m.n)
        sid = res.grid.index.find(simplex_round(b, delta)[None])[0]
        if sid < 0:
            continue
        v_true, _ = exact_value(m, b, H)
        v_grid = res.values[sid]
        assert abs(v_true - v_grid) <= delta / (1 - m.discount) ** 2 + slack + 1e-6
        checked += 1
    assert checked > 10


def test_halving_delta_never_hurts_much(tiger):
    H = horizon_for_slack(tiger.discount, 1e-3)
    slack = truncation_slack(tiger.discount, H)
    values = []
    for delta in (0.2, 0.1, 0.05):
        res = plan_baseline(tiger, delta=delta, vi_tol=1e-5)
        v = evaluate_policy(
            tiger, lambda b: act_baseline(res, b), tiger.initial_belief, H
        )
        values.append(v)
    for coarse, fine in zip(values, values[1:]):
        assert fine >= coarse - 2 * slack - 1e-3


def test_act_fallback_counts():
    model = load_pomdp(DATA / "clones.POMDP")
    res = plan_baseline(model, delta=0.25)
    # a lattice belief off the closure, one the oracle meets from b0
    cell = np.array([0, 0, 0, 1, 2, 1])
    assert res.grid.index.find(cell[None])[0] == -1
    nearest = np.argmin(np.abs(res.grid.coords - cell).sum(axis=1))
    before = res.grid.diagnostics.get("actFallbacks", 0)
    actions = act_baseline(res, np.stack([cell, cell]) * 0.25)
    assert res.grid.diagnostics["actFallbacks"] == before + 2
    np.testing.assert_array_equal(actions, res.policy[[nearest, nearest]])
