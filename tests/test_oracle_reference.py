"""The level-synchronous oracle against a recursive memoized reference.

``_Expectimax`` below is the depth-first expectimax the package used before
its search went level by level.  Both merge beliefs that round to the same
multiple of the memo precision, and both keep the first belief met for
each (depth, key): the level order meets them in the same order as the
depth-first one, so values and node counts must agree.  A policy is valued
on that one tree: the reference walks, from the root, the representative
of each (depth, key) that ``value`` met first, so the policy's value and
the belief rows it is asked about must agree bit for bit.
"""

import math

import numpy as np
import pytest

from psrplan import baseline as baselinemod
from psrplan import oracle as oraclemod
from psrplan import planner as plannermod
from psrplan.cassandra import load_pomdp
from psrplan.errors import OracleBudgetError
from psrplan.model import PomdpModel, belief_update, expected_reward_matrix
from psrplan.oracle import (
    MEMO_PRECISION,
    evaluate_policy,
    exact_q,
    exact_value,
    horizon_for_slack,
)
from psrplan.zoo import random_pomdp

from conftest import DATA

VALUE_TOL = 1e-9  # the memo precision
TIE_TOL = 1e-12


class _Expectimax:
    """With ``use_memo`` False, every branch is its own node: the tree the
    memo merges, for checking that merging moves values by at most the
    memo precision."""

    def __init__(self, model: PomdpModel, use_memo=True):
        self.model = model
        self.use_memo = use_memo
        self.r_sa = expected_reward_matrix(model)
        self.memo = {}
        self.representative = {}  # (depth, key) -> the first belief met
        self.nodes = 0

    def _key(self, b, depth):
        q = np.round(b / MEMO_PRECISION).astype(np.int64)
        return (depth, q.tobytes())

    def q_value(self, b, a, depth):
        m = self.model
        total = float(b @ self.r_sa[:, a])
        if depth == 0:
            return total
        for z in range(m.n_signals):
            p, post = belief_update(m, b, a, z)
            if p <= 0.0 or post is None:
                continue
            total += m.discount * p * self.value(post, depth - 1)[0]
        return total

    def value(self, b, depth):
        key = self._key(b, depth) if self.use_memo else None
        if key is not None:
            hit = self.memo.get(key)
            if hit is not None:
                return hit
        self.nodes += 1
        if key is not None:
            self.representative[key] = b
        best, best_a = -math.inf, 0
        for a in range(self.model.n_actions):
            q = self.q_value(b, a, depth)
            if q > best:
                best, best_a = q, a
        out = (best, best_a)
        if key is not None:
            self.memo[key] = out
        return out

    def policy_value(self, b, depth, policy, memo):
        """The policy's value on the tree ``value`` built from this root:
        each node stands for its (depth, key), as its representative.
        ``memo`` holds this policy's values by (depth, key)."""
        key = self._key(b, depth) if self.use_memo else None
        if key is not None:
            hit = memo.get(key)
            if hit is not None:
                return hit
            b = self.representative[key]
        m = self.model
        a = int(policy(b))
        total = float(b @ self.r_sa[:, a])
        if depth > 0:
            for z in range(m.n_signals):
                p, post = belief_update(m, b, a, z)
                if p <= 0.0 or post is None:
                    continue
                total += m.discount * p * self.policy_value(post, depth - 1, policy, memo)
        if key is not None:
            memo[key] = total
        return total


class _Recorder:
    """A stack -> actions map that keeps every belief row it was asked about."""

    def __init__(self, policy):
        self.policy = policy
        self.seen = []

    def __call__(self, beliefs):
        self.seen.extend(np.array(beliefs, dtype=np.float64))
        return self.policy(beliefs)

    def beliefs(self):
        return sorted(b.tobytes() for b in self.seen)


def _budget_is_exact(run, nodes):
    """``run()`` fits a node budget of the reference's node count and not
    one fewer."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oraclemod, "NODE_BUDGET", nodes)
        run()
        mp.setattr(oraclemod, "NODE_BUDGET", nodes - 1)
        with pytest.raises(OracleBudgetError, match="expanded more than"):
            run()


def reference_tree(model, b, horizon, use_memo=True):
    """The reference's one tree from b: its root's (value, action), nodes
    and representatives."""
    ref = _Expectimax(model, use_memo)
    ref.root = ref.value(b, horizon)
    return ref


def check_value(model, b, horizon, ref=None):
    ref = ref or reference_tree(model, b, horizon)
    v_ref, a_ref = ref.root
    v, a = exact_value(model, b, horizon)
    assert abs(v - v_ref) <= VALUE_TOL
    if a != a_ref:
        qs = [_Expectimax(model).q_value(b, x, horizon) for x in (a, a_ref)]
        assert abs(qs[0] - qs[1]) <= TIE_TOL
    _budget_is_exact(lambda: exact_value(model, b, horizon), ref.nodes)


def check_q(model, b, horizon):
    ref = reference_tree(model, b, horizon)  # every first action's tree
    for a in range(model.n_actions):
        q_ref = ref.q_value(b, a, horizon)
        assert abs(exact_q(model, b, a, horizon) - q_ref) <= VALUE_TOL
        _budget_is_exact(lambda: exact_q(model, b, a, horizon), ref.nodes)


def check_policy(model, policy, b, horizon, ref=None):
    ref = ref or reference_tree(model, b, horizon)
    ref_policy, new_policy = _Recorder(policy), _Recorder(policy)
    v_ref = ref.policy_value(b, horizon, lambda x: ref_policy(x[None])[0], {})
    v = evaluate_policy(model, new_policy, b, horizon)
    assert v == v_ref
    # the same beliefs, bit for bit: one row per node the policy reaches
    assert len(new_policy.seen) == len(ref_policy.seen)
    assert new_policy.beliefs() == ref_policy.beliefs()
    _budget_is_exact(lambda: evaluate_policy(model, policy, b, horizon), ref.nodes)


def belief_policy(model):
    """A cheap policy that changes with the belief (most likely state)."""
    return lambda beliefs: np.argmax(beliefs, axis=1) % model.n_actions


def a5_corpus():
    """The A5/A6 acceptance corpus."""
    corpus = [load_pomdp(DATA / "tiger.POMDP")]
    corpus += [random_pomdp(4, 2, 2, 2, seed=s, discount=0.4) for s in range(300, 310)]
    return corpus


@pytest.mark.parametrize("name", ["tiger", "fair_coin", "clones"])
def test_data_models_match_reference(name):
    model = load_pomdp(DATA / f"{name}.POMDP")
    horizon = horizon_for_slack(model.discount, 1e-2)
    b = model.initial_belief
    check_value(model, b, horizon)
    check_q(model, b, min(horizon, 6))
    check_policy(model, belief_policy(model), b, horizon)


def test_a5_a6_corpus_matches_reference():
    # the reference takes about 1 s per random model to build its tree, so
    # one tree per model serves the optimal value and both policies
    for model in a5_corpus():
        horizon = horizon_for_slack(model.discount, 1e-2)
        b = model.initial_belief
        ref = reference_tree(model, b, horizon)
        check_value(model, b, horizon, ref=ref)
        planned = plannermod.plan(model, epsilon=0.1)
        act = lambda x: plannermod.act(planned, x)
        check_policy(model, act, b, horizon, ref=ref)
        base = baselinemod.plan_baseline(model, delta=0.05)
        check_policy(model, lambda x: baselinemod.act_baseline(base, x), b, horizon, ref=ref)


def test_a7_corpus_matches_reference():
    for gamma, seed in ((0.2, 500), (0.3, 501)):
        model = random_pomdp(3, 2, 2, 1, seed=seed, discount=gamma)
        horizon = horizon_for_slack(gamma, 1e-3)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            check_q(model, rng.dirichlet(np.ones(model.n)), horizon)


@pytest.mark.parametrize("reference_memo", [True, False])
@pytest.mark.parametrize("seed", [55, 56, 57])
def test_random_models_match_reference(seed, reference_memo):
    model = random_pomdp(3, 2, 2, 1, seed=seed, discount=0.4)
    b = np.random.default_rng(seed).dirichlet(np.ones(model.n))
    horizon = 4
    if reference_memo:
        check_value(model, b, horizon)
        check_q(model, b, horizon)
        check_policy(model, belief_policy(model), b, horizon)
        return
    # memoization moves values by at most the memo precision: against the
    # unmerged tree, the same value within VALUE_TOL and the same first action
    for root in (model.initial_belief, b):
        ref = reference_tree(model, root, horizon, use_memo=False)
        v, a = exact_value(model, root, horizon)
        assert abs(v - ref.root[0]) <= VALUE_TOL
        assert a == ref.root[1]
        for x in range(model.n_actions):
            q_ref = ref.q_value(root, x, horizon)
            assert abs(exact_q(model, root, x, horizon) - q_ref) <= VALUE_TOL


def test_horizon_zero_matches_reference(tiger):
    b = np.array([0.3, 0.7])
    check_value(tiger, b, 0)
    check_q(tiger, b, 0)
    check_policy(tiger, belief_policy(tiger), b, 0)


@pytest.mark.parametrize("horizon", [0, 1, 3])
def test_nine_actions_with_exact_ties_match_reference(horizon):
    """Actions 4 and 7 copy action 0 and action 8 copies action 2, so Q
    ties exactly at every node: the max over nine actions, at the leaves
    and at every level, keeps the reference's values and policy rows."""
    model = random_pomdp(3, 9, 2, 1, seed=9, discount=0.4)
    for copy, source in ((4, 0), (7, 0), (8, 2)):
        model.transition[:, copy] = model.transition[:, source]
        model.signal_kernel[:, copy] = model.signal_kernel[:, source]
    model.validate()
    b = np.random.default_rng(9).dirichlet(np.ones(model.n))
    ref = reference_tree(model, b, horizon)
    check_value(model, b, horizon, ref=ref)
    check_q(model, b, horizon)
    # a policy that plays the copies
    copies = np.array([4, 7, 8])
    check_policy(model, lambda x: copies[np.argmax(x, axis=1)], b, horizon, ref=ref)


@pytest.mark.parametrize("name", ["tiger", "random-n4"])
def test_hash_collisions_fall_back_to_a_key_sort(name, monkeypatch, lexsort_calls):
    """With every belief hashed alike, each level is grouped by a lexsort of
    its keys: the same nodes, values and policy rows, bit for bit."""
    if name == "tiger":
        model, horizon = load_pomdp(DATA / "tiger.POMDP"), 8
    else:
        model, horizon = random_pomdp(4, 2, 2, 2, seed=1207, discount=0.4), 4
    b = model.initial_belief
    policy = belief_policy(model)
    hashed = (
        exact_value(model, b, horizon),
        exact_q(model, b, 1, horizon),
        evaluate_policy(model, policy, b, horizon),
    )
    assert not lexsort_calls
    monkeypatch.setattr(oraclemod, "HASH_MULTIPLIER", np.uint64(0))  # every hash 0
    sorted_by_key = (
        exact_value(model, b, horizon),
        exact_q(model, b, 1, horizon),
        evaluate_policy(model, policy, b, horizon),
    )
    assert lexsort_calls
    assert sorted_by_key == hashed
    check_value(model, b, horizon)
    check_q(model, b, horizon)
    check_policy(model, policy, b, horizon)
