"""Exact finite-horizon expectimax on the true belief MDP.

Brute-force ground truth for tiny models: V_H*(b) maximizes expected
immediate reward plus discounted continuation over every signal branch,
with V_0*(b) the best immediate reward.  Values are exact up to the
truncation slack gamma^(H+1) / (1 - gamma), which callers must account
for when comparing against infinite-horizon quantities.

The search is level-synchronous and memoized.  A forward pass filters one
depth level at a time with ``belief_update_batch`` and merges successors
whose beliefs round to the same multiple of ``memo_precision``: the first
one met stands for all, and ids follow first occurrence in (node, action,
signal) order, which is the order a depth-first search with the same memo
would meet them in.  A backward pass then sums each level's Q values from
the level below, signal by signal in the filter's order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import OracleBudgetError, ValidationError
from .grid import BLOCK_STATES, Interner

# Not called here: pipebench/tracer.py wraps psrplan.oracle.belief_update and
# reports a missing target, so the name stays importable from this module.
from .model import belief_update  # noqa: F401
from .model import PomdpModel, belief_update_batch, expected_reward_matrix

MEMO_PRECISION = 1e-9
DEFAULT_NODE_BUDGET = 10_000_000


@dataclass
class OracleConfig:
    horizon: int
    memo_precision: float = MEMO_PRECISION
    node_budget: int = DEFAULT_NODE_BUDGET
    use_memo: bool = True


def truncation_slack(gamma: float, horizon: int) -> float:
    """Largest possible discounted reward beyond the horizon ([0,1] rewards)."""
    return gamma ** (horizon + 1) / (1.0 - gamma)


def horizon_for_slack(gamma: float, slack: float) -> int:
    """Smallest H with truncation slack at most the requested amount."""
    if not (math.isfinite(slack) and slack > 0.0):
        raise ValidationError(f"oracle slack must be a positive number, got {slack}")
    h = 0
    while truncation_slack(gamma, h) > slack:
        h += 1
    return h


def _best(q):
    """Row maxima of q and their first column, as a strict ``>`` scan picks."""
    col = np.argmax(q, axis=1)
    return q[np.arange(q.shape[0]), col], col


class _Search:
    """One expectimax tree: ``choose`` maps a (k, n) stack of beliefs to the
    (k, m) actions searched at each, all actions or the policy's one."""

    def __init__(self, model: PomdpModel, config: OracleConfig, choose):
        self.model = model
        self.config = config
        self.choose = choose
        self.r_sa = expected_reward_matrix(model)
        self.nodes = 0

    def _count(self, k):
        self.nodes += k
        if self.nodes > self.config.node_budget:
            raise OracleBudgetError(
                f"expectimax expanded more than {self.config.node_budget} nodes; "
                "shrink the horizon or the model"
            )

    def _rewards(self, beliefs, actions):
        # one strided dot per (belief, action), as b @ r_sa[:, a]; a matrix
        # product would round differently
        r = np.vecdot(beliefs[:, None, :], self.r_sa.T[None])
        return np.take_along_axis(r, actions, axis=1)

    def _leaf_values(self, beliefs):
        return _best(self._rewards(beliefs, self.choose(beliefs)))[0]

    def _expand(self, beliefs, actions, leaf):
        """Successors of one level: (p, succ, next) with p and succ shaped
        like (k, m, Z), succ = -1 where p <= 0, and next the distinct
        successors' beliefs, or their values when they are leaves."""
        precision = self.config.memo_precision
        interner = Interner(self.model.n) if self.config.use_memo else None
        p_parts, succ_parts, next_parts = [], [], []
        n_next = 0
        for lo in range(0, beliefs.shape[0], BLOCK_STATES):
            p, post = belief_update_batch(self.model, beliefs[lo : lo + BLOCK_STATES])
            rows = np.arange(p.shape[0])[:, None]
            acts = actions[lo : lo + BLOCK_STATES]
            p, post = p[rows, acts], post[rows, acts]
            live = p > 0.0
            post = post[live]  # (node, action, signal) order
            if interner is None:
                ids = n_next + np.arange(post.shape[0])
                fresh = np.arange(post.shape[0])
            else:
                ids = interner(np.round(post / precision).astype(np.int64))
                fresh = np.flatnonzero(ids >= n_next)
                fresh = fresh[np.unique(ids[fresh], return_index=True)[1]]
            self._count(fresh.size)
            n_next += fresh.size
            reps = post[fresh]
            next_parts.append(self._leaf_values(reps) if leaf else reps)
            succ = np.full(p.shape, -1, dtype=np.int64)
            succ[live] = ids
            p_parts.append(p)
            succ_parts.append(succ)
        return (
            np.concatenate(p_parts),
            np.concatenate(succ_parts),
            np.concatenate(next_parts),
        )

    def root_q(self, b, horizon, root_action=None):
        """Q at the root over its searched actions; the root is a node of
        the tree unless its action is fixed."""
        beliefs = np.asarray(b, dtype=np.float64)[None]
        if root_action is None:
            self._count(1)
            actions = self.choose(beliefs)
        else:
            actions = np.array([[root_action]])
        levels = []
        for depth in range(horizon, 0, -1):
            rewards = self._rewards(beliefs, actions)
            p, succ, below = self._expand(beliefs, actions, leaf=depth == 1)
            levels.append((rewards, p, succ))
            if depth > 1:
                beliefs, actions = below, self.choose(below)
        if not levels:
            return self._rewards(beliefs, actions)[0]

        gamma = self.model.discount
        values = below  # the leaves' values
        for rewards, p, succ in reversed(levels):
            q = rewards.copy()
            for z in range(p.shape[2]):
                live = p[:, :, z] > 0.0
                q[live] += gamma * p[:, :, z][live] * values[succ[:, :, z][live]]
            values = _best(q)[0]
        return q[0]


def _config(model, horizon, config):
    if config is None:
        return OracleConfig(horizon=horizon)
    return config


def _all_actions(model):
    return lambda beliefs: np.broadcast_to(
        np.arange(model.n_actions), (beliefs.shape[0], model.n_actions)
    )


def exact_value(model: PomdpModel, b, horizon: int, config: OracleConfig = None):
    """(V_H*(b), optimal first action); exact up to truncation slack."""
    search = _Search(model, _config(model, horizon, config), _all_actions(model))
    q = search.root_q(b, horizon)
    best = int(np.argmax(q))
    return float(q[best]), best


def exact_q(model: PomdpModel, b, a: int, horizon: int, config: OracleConfig = None):
    """Q_H*(b, a): fix the first action, then act optimally."""
    search = _Search(model, _config(model, horizon, config), _all_actions(model))
    return float(search.root_q(b, horizon, root_action=a)[0])


def evaluate_policy(
    model: PomdpModel, policy, b, horizon: int, config: OracleConfig = None
):
    """Truncated discounted value of following the belief -> action map.

    ``policy`` maps a (k, n) stack of beliefs to k actions, one call per
    level of distinct nodes (per block on the last level), the root's included;
    a result whose size is not k fails.
    """

    def choose(beliefs):
        return np.asarray(policy(beliefs), dtype=np.int64).reshape(len(beliefs), 1)

    search = _Search(model, _config(model, horizon, config), choose)
    return float(search.root_q(b, horizon)[0])
