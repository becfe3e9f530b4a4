import math

import numpy as np
import pytest

from psrplan import baseline as baselinemod
from psrplan import grid as gridmod
from psrplan import oracle as oraclemod
from psrplan import planner as plannermod
from psrplan.cassandra import load_pomdp
from psrplan.errors import OracleBudgetError, ValidationError
from psrplan.grid import Interner
from psrplan.model import PomdpModel, expected_reward_matrix
from psrplan.oracle import (
    dedupe,
    evaluate_policy,
    exact_q,
    exact_value,
    HASH_MULTIPLIER,
    horizon_for_slack,
    max_over_actions,
    row_hash,
    search,
    truncation_slack,
)
from psrplan.zoo import random_pomdp

from conftest import DATA
from reference import parsed_per_signal
from test_oracle_reference import reference_tree

TIGER_GOLDEN_H20 = 3.777986364180994  # pinned output of this oracle


def two_action_coin(discount=0.6):
    """Two identical actions; rewards ignore the action entirely."""
    transition = np.ones((1, 2, 1))
    # signals (o0, r=0.2) and (o1, r=0.8), each with probability 1/2
    signal_kernel = np.zeros((1, 2, 4))
    signal_kernel[0, :, 0] = 0.5
    signal_kernel[0, :, 3] = 0.5
    return PomdpModel(
        states=["s0"],
        actions=["a0", "a1"],
        observations=["o0", "o1"],
        reward_values=np.array([0.2, 0.8]),
        transition=transition,
        signal_kernel=signal_kernel,
        discount=discount,
        initial_belief=np.array([1.0]),
    )


def test_horizon_zero_is_best_immediate_reward(fair_coin):
    v, a = exact_value(fair_coin, np.array([1.0]), 0)
    assert v == pytest.approx(0.5, abs=1e-12)
    assert a == 0


def test_constant_reward_geometric_sum(fair_coin):
    g = fair_coin.discount
    for H in (0, 1, 5, 10):
        v, _ = exact_value(fair_coin, np.array([1.0]), H)
        want = 0.5 * (1 - g ** (H + 1)) / (1 - g)
        assert v == pytest.approx(want, abs=1e-12)


def test_tiger_golden_value(tiger):
    v, a = exact_value(tiger, tiger.initial_belief, 20)
    assert v == pytest.approx(TIGER_GOLDEN_H20, abs=1e-9)
    assert tiger.actions[a] == "listen"


def test_greedy_policy_recovers_optimal_value(tiger):
    H = 8
    pol = lambda beliefs: [exact_value(tiger, b, H)[1] for b in beliefs]
    v_pol = evaluate_policy(tiger, pol, tiger.initial_belief, H)
    v_opt, _ = exact_value(tiger, tiger.initial_belief, H)
    assert v_pol == pytest.approx(v_opt, abs=1e-9)


def test_single_action_policy_value_is_exact(fair_coin):
    g = fair_coin.discount
    always_0 = lambda beliefs: np.zeros(len(beliefs))
    v = evaluate_policy(fair_coin, always_0, np.array([1.0]), 7)
    assert v == pytest.approx(0.5 * (1 - g**8) / (1 - g), abs=1e-12)


def test_policy_must_return_one_action_per_row(tiger):
    # the root is one row, so a constant passes there; the next level fails
    with pytest.raises(ValidationError, match=r"policy returned 1 action\(s\) for \d+ belief"):
        evaluate_policy(tiger, lambda beliefs: 0, tiger.initial_belief, 3)


def test_policy_returning_one_action_too_many_is_rejected():
    # numpy's reshape used to raise its own ValueError
    m = random_pomdp(3, 2, 2, 2, seed=0)
    one_too_many = lambda beliefs: np.ones(len(beliefs) + 1, dtype=int)
    with pytest.raises(ValidationError, match=r"policy returned 2 action\(s\) for 1 belief"):
        evaluate_policy(m, one_too_many, m.initial_belief, 3)


@pytest.mark.parametrize("bad", [1.7, np.nan, -np.inf])
def test_policy_action_that_is_not_a_whole_number_is_rejected(bad):
    # 1.7 used to be valued as action 1; NaN and inf warned in the int64 cast
    m = random_pomdp(3, 2, 2, 2, seed=0)
    policy = lambda beliefs: np.full(len(beliefs), bad)
    with pytest.raises(ValidationError, match=rf"action {bad} is not a whole number"):
        evaluate_policy(m, policy, m.initial_belief, 3)


@pytest.mark.parametrize("bad", [-1, 2])
@pytest.mark.parametrize("horizon, where", [(3, "root"), (3, "below"), (1, "below")])
def test_policy_action_outside_the_model_is_rejected(bad, horizon, where):
    # -1 used to be evaluated as the last action, and A died in an
    # IndexError; at horizon 1 the level below the root is the leaves,
    # which are valued without filtering
    m = random_pomdp(3, 2, 2, 2, seed=0)
    root = m.initial_belief

    def policy(beliefs):
        at_root = len(beliefs) == 1 and np.array_equal(beliefs[0], root)
        return np.full(len(beliefs), bad if at_root == (where == "root") else 1)

    assert evaluate_policy(m, lambda beliefs: np.ones(len(beliefs)), root, 3) == (
        pytest.approx(2.174879685258355, abs=1e-12)
    )
    with pytest.raises(ValidationError, match=rf"action {bad} outside \[0, 2\)"):
        evaluate_policy(m, policy, root, horizon)


@pytest.mark.parametrize("bad", [-1, 3])
def test_exact_q_refuses_an_action_outside_the_model(tiger, bad):
    with pytest.raises(ValidationError, match=rf"action {bad} outside \[0, 3\)"):
        exact_q(tiger, tiger.initial_belief, bad, 3)


@pytest.mark.parametrize("bad", [1.5, np.nan])
def test_exact_q_refuses_an_action_that_is_not_a_whole_number(bad):
    # 1.5 used to return action 1's Q
    m = random_pomdp(3, 2, 2, 2, seed=0)
    with pytest.raises(ValidationError, match=rf"action {bad} is not a whole number"):
        exact_q(m, m.initial_belief, bad, 3)
    assert exact_q(m, m.initial_belief, 1.0, 3) == exact_q(m, m.initial_belief, 1, 3)


@pytest.mark.parametrize(
    "belief, message",
    [([0.5, 0.3, 0.2], r"belief has length \(3,\), expected \(2,\)"),
     ([0.5, 0.4], "belief is not a probability vector")],
    ids=["wrong-length", "sums-to-0.9"],
)
def test_search_refuses_a_belief_validate_would(tiger, belief, message):
    # the search used to value a belief summing to 0.9, and a wrong length
    # died in numpy's matvec
    with pytest.raises(ValidationError, match=message):
        search(tiger, np.array(belief), 3)


def test_value_is_max_of_q(tiger):
    b = np.array([0.3, 0.7])
    H = 6
    v, a = exact_value(tiger, b, H)
    qs = [exact_q(tiger, b, a_, H) for a_ in range(tiger.n_actions)]
    assert v == pytest.approx(max(qs), abs=1e-12)
    assert a == int(np.argmax(qs))


def optimum_bound_models():
    models = [load_pomdp(DATA / f"{name}.POMDP") for name in ("tiger", "clones", "fair_coin")]
    models += [
        random_pomdp(3 + i % 4, 2, 2, 2, seed=700 + i, discount=0.4) for i in range(10)
    ]
    return models


def test_optimum_bounds_every_policy_exactly():
    """v_opt >= v_pol with no tolerance: the optimum and a policy are summed
    over the same nodes with the same products, and the max over actions
    at each node is at least the policy's action there."""
    for model in optimum_bound_models():
        horizon = horizon_for_slack(model.discount, 1e-2)
        b = model.initial_belief
        planned = plannermod.plan(model, epsilon=0.1)
        base = baselinemod.plan_baseline(model, delta=0.05)
        policies = [
            lambda x: plannermod.act(planned, x),
            lambda x: baselinemod.act_baseline(base, x),
            lambda x: np.argmax(x, axis=1) % model.n_actions,
        ]
        v_opt, a_opt, values, _ = search(model, b, horizon, policies)
        assert (v_opt, a_opt) == exact_value(model, b, horizon)
        for policy, v_pol in zip(policies, values):
            assert v_opt >= v_pol
            # one tree whichever policies share it
            assert evaluate_policy(model, policy, b, horizon) == v_pol


def test_q_symmetric_under_identical_actions():
    m = two_action_coin()
    b = np.array([1.0])
    for H in (0, 3, 6):
        q0 = exact_q(m, b, 0, H)
        q1 = exact_q(m, b, 1, H)
        assert q0 == pytest.approx(q1, abs=1e-12)


def test_lipschitz_in_belief_small_sample():
    m = random_pomdp(3, 2, 2, 1, seed=41, discount=0.3)
    H = horizon_for_slack(m.discount, 1e-3)
    slack = truncation_slack(m.discount, H)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.dirichlet([1.0] * m.n)
        y = rng.dirichlet([1.0] * m.n)
        for a in range(m.n_actions):
            qx = exact_q(m, x, a, H)
            qy = exact_q(m, y, a, H)
            bound = np.abs(x - y).sum() / (1 - m.discount) + 2 * slack
            assert abs(qx - qy) <= bound


def test_value_monotone_in_horizon(tiger):
    b = tiger.initial_belief
    g = tiger.discount
    prev = -1.0
    for H in range(8):
        v, _ = exact_value(tiger, b, H)
        assert v >= prev - 1e-12
        if H > 0:
            assert v - prev <= g**H / (1 - g) + 1e-12
        prev = v


def test_value_convex_over_beliefs(tiger):
    rng = np.random.default_rng(8)
    H = 6
    for _ in range(20):
        x = rng.dirichlet([1.0, 1.0])
        y = rng.dirichlet([1.0, 1.0])
        mid = 0.5 * x + 0.5 * y
        vx, _ = exact_value(tiger, x, H)
        vy, _ = exact_value(tiger, y, H)
        vm, _ = exact_value(tiger, mid, H)
        assert vm <= 0.5 * vx + 0.5 * vy + 1e-12


def test_memoization_does_not_change_values():
    m = random_pomdp(3, 2, 2, 1, seed=55, discount=0.4)
    b = m.initial_belief
    H = 4
    with_memo = exact_value(m, b, H)
    without = reference_tree(m, b, H, use_memo=False).root  # every branch its own node
    assert with_memo[0] == pytest.approx(without[0], abs=1e-9)
    assert with_memo[1] == without[1]


def test_block_size_does_not_change_values(monkeypatch):
    """Every value is summed per node, so the batches the filter and the
    leaves run in change no bit of Q or of a policy's value: at the default
    branch budget, at one node or seven per batch, and at the floors, a
    budget below A·Z (one node per batch) and one below A (one leaf per
    chunk)."""
    default = gridmod.BLOCK_BRANCHES
    models = [load_pomdp(DATA / f"{name}.POMDP") for name in ("tiger", "clones")]
    horizons = [horizon_for_slack(m.discount, 1e-2) for m in models] + [5]
    models.append(random_pomdp(4, 2, 2, 2, seed=0))
    models.append(parsed_per_signal(models[-1]))  # half of its symbols dead
    horizons.append(5)
    for model, horizon in zip(models, horizons):
        policies = [
            lambda x: np.argmax(x, axis=1) % model.n_actions,
            lambda x: (x[:, 0] > 0.5).astype(np.int64),
        ]
        runs = []
        branches = model.n_actions * model.n_signals
        assert model.n_actions > 1
        for budget in (default, branches, 7 * branches, branches - 1, 1):
            monkeypatch.setattr(gridmod, "BLOCK_BRANCHES", budget)
            runs.append(search(model, model.initial_belief, horizon, policies)[2:])
        (values, q), *others = runs
        for other_values, other_q in others:
            np.testing.assert_array_equal(other_q, q)
            assert other_values == values


def test_node_budget_enforced(tiger, monkeypatch):
    monkeypatch.setattr(oraclemod, "NODE_BUDGET", 5)
    with pytest.raises(OracleBudgetError, match="nodes"):
        exact_value(tiger, tiger.initial_belief, 10)


def test_horizon_for_slack_is_minimal():
    for g in (0.3, 0.75, 0.9, 0.999999, 1 - 1e-9):
        for slack in (1e-300, 1e-1, 1e-2, 1e-3, 1e300):
            H = horizon_for_slack(g, slack)
            assert truncation_slack(g, H) <= slack
            if H > 0:
                assert truncation_slack(g, H - 1) > slack


def test_a_horizon_past_the_node_budget_is_refused_before_filtering(tiger, monkeypatch):
    # every level holds at least one node, so horizon + 1 nodes is a floor
    calls = []
    real = oraclemod.belief_update_state_major
    monkeypatch.setattr(
        oraclemod, "belief_update_state_major", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    monkeypatch.setattr(oraclemod, "NODE_BUDGET", 5)
    with pytest.raises(OracleBudgetError, match="would have expanded more than 5 nodes"):
        search(tiger, tiger.initial_belief, 5)
    assert calls == []
    # one level fewer fits the floor: the search filters, then runs out
    with pytest.raises(OracleBudgetError, match="expectimax expanded more than 5 nodes"):
        search(tiger, tiger.initial_belief, 4)
    assert calls


@pytest.mark.parametrize("slack", [0.0, -1e-3, -math.inf, math.inf, math.nan])
def test_horizon_for_slack_rejects_nonpositive_or_nonfinite(slack):
    with pytest.raises(ValidationError, match="slack"):
        horizon_for_slack(0.4, slack)


def test_immediate_reward_uses_expected_matrix(tiger):
    r_sa = expected_reward_matrix(tiger)
    b = np.array([0.25, 0.75])
    v, a = exact_value(tiger, b, 0)
    assert v == pytest.approx((b @ r_sa).max(), abs=1e-12)


def planted_keys(seed, rows=3000, dim=4):
    """Random int64 rows, a third of them overwritten by copies of others,
    and a block of rows from {0, 1, 2}^dim that repeat among themselves."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(-(2**40), 2**40, size=(rows, dim))
    copies = rng.choice(rows, size=rows // 3, replace=False)
    keys[copies] = keys[rng.integers(rows, size=copies.size)]
    keys[rows // 2 : rows // 2 + 500] = rng.integers(3, size=(500, dim))
    return keys


def powers(width):
    """HASH_MULTIPLIER**(j + 1) for j < width, wrapping: what a search over
    beliefs of ``width`` states hands ``row_hash``."""
    return np.cumprod(np.full(width, HASH_MULTIPLIER))


# hash functions that dedupe must give the same answer under: the real one,
# one where many different rows collide, and one where all rows do
HASHES = {
    "row_hash": lambda keys: row_hash(keys, powers(keys.shape[1])),
    "low_bits": lambda keys: (keys[:, 0] & 3).astype(np.uint64),
    "constant": lambda keys: np.zeros(len(keys), dtype=np.uint64),
}


@pytest.mark.parametrize("hash_name", sorted(HASHES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dedupe_numbers_rows_as_one_interner_call(seed, hash_name, lexsort_calls):
    keys = planted_keys(seed)
    ids, first = dedupe(keys, HASHES[hash_name](keys), lambda rows: rows)
    expected = Interner(keys.shape[1], 2**40)(keys)
    np.testing.assert_array_equal(ids, expected)
    np.testing.assert_array_equal(first, np.unique(expected, return_index=True)[1])
    # the real hash has no collision here; the others force the key sort
    assert bool(lexsort_calls) == (hash_name != "row_hash")


@pytest.mark.parametrize("width", range(1, 13))
def test_row_hash_is_the_wrapping_dot_with_multiplier_powers(width):
    rng = np.random.default_rng(width)
    keys = rng.integers(-(2**63), 2**63 - 1, size=(50, width), endpoint=True)
    keys[0] = np.iinfo(np.int64).min
    keys[1] = np.iinfo(np.int64).max
    # the search's multipliers for a model of ``width`` states
    multipliers = oraclemod._Tree(random_pomdp(width, 2, 2, 1, seed=width)).multipliers
    np.testing.assert_array_equal(multipliers, powers(width))
    got = row_hash(keys, multipliers)
    assert got.dtype == np.uint64
    h, wrap = int(HASH_MULTIPLIER), 2**64
    expected = [
        sum(int(k) * pow(h, j + 1, wrap) for j, k in enumerate(row)) % wrap for row in keys
    ]
    assert got.tolist() == expected


@pytest.mark.parametrize("k", [0, 1, 4097])
@pytest.mark.parametrize("actions", [1, 2, 3, 9])
def test_max_over_actions_is_the_row_max_bit_for_bit(actions, k):
    """Nonnegative tables with exact ties, all-zero rows among them."""
    rng = np.random.default_rng(actions * 10_000 + k)
    q = rng.integers(4, size=(k, actions)) / 4 + rng.choice([0.0, 1e-300], size=(k, actions))
    q[::5] = 0.0
    got = max_over_actions(q)
    assert got.dtype == np.float64 and got.shape == (k,)
    np.testing.assert_array_equal(got.view(np.uint64), q.max(axis=1).view(np.uint64))
