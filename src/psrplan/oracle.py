"""Exact finite-horizon expectimax on the true belief MDP.

Brute-force ground truth for tiny models: V_H*(b) maximizes expected
immediate reward plus discounted continuation over every signal branch,
with V_0*(b) the best immediate reward.  Values are exact up to the
truncation slack gamma^(H+1) / (1 - gamma), which callers must account
for when comparing against infinite-horizon quantities.

The search is level-synchronous and memoized.  A forward pass filters one
depth level at a time with ``belief_update_batch``, for the searched
actions only, and merges successors whose beliefs round to the same
multiple of ``memo_precision``: the first one met stands for all, and ids
follow first occurrence in (node, action, signal) order, which is the order
a depth-first search with the same memo would meet them in.  Each level is
merged once, by one sort of a hash of the rounded beliefs (``dedupe``).  A
backward pass then sums each level's Q values from the level below, signal
by signal in the filter's order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import OracleBudgetError, ValidationError
from .grid import BLOCK_STATES

# Not called here: pipebench/tracer.py wraps psrplan.oracle.belief_update and
# reports a missing target, so the name stays importable from this module.
from .model import belief_update  # noqa: F401
from .model import PomdpModel, belief_update_batch, expected_reward_matrix

MEMO_PRECISION = 1e-9
DEFAULT_NODE_BUDGET = 10_000_000
HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)  # odd, so are its powers
LEAF_ROWS = 16 * BLOCK_STATES  # distinct leaves valued per call


@dataclass
class OracleConfig:
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


def row_hash(keys):
    """One uint64 per row of a (k, d) int64 stack: its dot product with the
    odd multipliers HASH_MULTIPLIER**(j + 1), wrapping mod 2**64.  Equal rows
    hash alike; different rows rarely do, and ``dedupe`` checks."""
    multipliers = np.cumprod(np.full(keys.shape[1], HASH_MULTIPLIER))
    return keys.view(np.uint64) @ multipliers


def dedupe(rows, hashes, key):
    """Ids of a stack of rows by their int64 keys, in order of first occurrence.

    ``key`` maps a stack of rows to their (k, d) keys and ``hashes`` holds
    ``row_hash(key(rows))``.  Returns ``(ids, first)``: ``ids[i]`` is the id
    of row i's key, ids numbered 0, 1, ... as the keys first occur, and
    ``first[j]`` is the index of the first row with id j.  Rows are grouped
    by an ``argsort`` of their hashes once adjacent rows with equal hashes
    are checked to have equal keys; if two do not, by a ``lexsort`` of the
    keys instead.
    """
    order = np.argsort(hashes)
    starts = np.ones(rows.shape[0], dtype=bool)  # where a group begins
    sorted_hashes = hashes[order]
    np.not_equal(sorted_hashes[1:], sorted_hashes[:-1], out=starts[1:])
    del sorted_hashes
    tied = np.flatnonzero(~starts[1:])
    pairs = key(rows[order[np.stack((tied, tied + 1))]])
    if not (pairs[0] == pairs[1]).all():
        keys = key(rows)  # a hash collision
        order = np.lexsort(keys.T)
        sorted_keys = keys[order]
        np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1, out=starts[1:])
    first = np.minimum.reduceat(order, np.flatnonzero(starts))
    # number the groups by their first rows, without sorting them
    is_first = np.zeros(rows.shape[0], dtype=bool)
    is_first[first] = True
    group_id = np.cumsum(is_first)[first]
    group_id -= 1
    group = np.cumsum(starts)
    group -= 1
    ids = np.empty(rows.shape[0], dtype=np.int64)
    ids[order] = group_id[group]
    return ids, np.flatnonzero(is_first)


class _Search:
    """One expectimax tree: ``choose`` maps a (k, n) stack of beliefs to the
    (k, m) actions searched at each, the policy's one, or to None for all."""

    def __init__(self, model: PomdpModel, config: OracleConfig, choose):
        self.model = model
        self.config = config or OracleConfig()
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
        return r if actions is None else np.take_along_axis(r, actions, axis=1)

    def _leaf_values(self, beliefs):
        return _best(self._rewards(beliefs, self.choose(beliefs)))[0]

    def _key(self, post):
        return np.round(post / self.config.memo_precision).astype(np.int64)

    def _expand(self, beliefs, actions, leaf):
        """Successors of one level: (p, succ, next) with p and succ shaped
        like (k, m, Z), succ = -1 where p <= 0, and next the distinct
        successors' beliefs, or their values when they are leaves."""
        p_parts, post_parts, hash_parts = [], [], []
        for lo in range(0, beliefs.shape[0], BLOCK_STATES):
            block = slice(lo, lo + BLOCK_STATES)
            searched = None if actions is None else actions[block]
            p, post = belief_update_batch(self.model, beliefs[block], searched)
            post = post[p > 0.0]  # (node, action, signal) order
            p_parts.append(p)
            post_parts.append(post)
            if self.config.use_memo:
                hash_parts.append(row_hash(self._key(post)))
        p, post = np.concatenate(p_parts), np.concatenate(post_parts)
        post_parts.clear()
        if self.config.use_memo:
            hashes = np.concatenate(hash_parts)
            hash_parts.clear()
            ids, first = dedupe(post, hashes, self._key)
        else:
            ids = first = np.arange(post.shape[0])
        self._count(first.size)
        succ = np.full(p.shape, -1, dtype=np.int64)
        succ[p > 0.0] = ids
        if not leaf:
            return p, succ, post[first]
        values = [
            self._leaf_values(post[first[lo : lo + LEAF_ROWS]])
            for lo in range(0, first.size, LEAF_ROWS)
        ]
        return p, succ, np.concatenate(values)

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
        for q, p, succ in reversed(levels):
            weight = gamma * p
            for z in range(p.shape[2]):
                # a dead branch (p = 0, succ = -1) adds exactly +0.0 to q >= 0
                q += weight[:, :, z] * values[succ[:, :, z]]
            values = _best(q)[0]
        return q[0]


def _all_actions(beliefs):
    return None  # every action, in belief_update_batch's terms


def exact_value(model: PomdpModel, b, horizon: int, config: OracleConfig = None):
    """(V_H*(b), optimal first action); exact up to truncation slack."""
    search = _Search(model, config, _all_actions)
    q = search.root_q(b, horizon)
    best = int(np.argmax(q))
    return float(q[best]), best


def exact_q(model: PomdpModel, b, a: int, horizon: int, config: OracleConfig = None):
    """Q_H*(b, a): fix the first action, then act optimally."""
    search = _Search(model, config, _all_actions)
    return float(search.root_q(b, horizon, root_action=a)[0])


def evaluate_policy(
    model: PomdpModel, policy, b, horizon: int, config: OracleConfig = None
):
    """Truncated discounted value of following the belief -> action map.

    ``policy`` maps a (k, n) stack of beliefs to k actions.  It is asked
    about each distinct node once: one call per level, the root's included,
    and one per chunk of ``LEAF_ROWS`` nodes on the last level; a result
    whose size is not k fails.
    """

    def choose(beliefs):
        return np.asarray(policy(beliefs), dtype=np.int64).reshape(len(beliefs), 1)

    search = _Search(model, config, choose)
    return float(search.root_q(b, horizon)[0])
