"""Exact finite-horizon expectimax on the true belief MDP.

Brute-force ground truth for tiny models: V_H*(b) maximizes expected
immediate reward plus discounted continuation over every signal branch,
with V_0*(b) the best immediate reward.  Values are exact up to the
truncation slack gamma^(H+1) / (1 - gamma), which callers must account
for when comparing against infinite-horizon quantities.

``search`` builds one level-synchronous, memoized tree over every action
and values the optimum and any number of policies on it.  A forward pass
filters one depth level at a time with ``belief_update_state_major``, bit
for bit ``belief_update``, in batches of ``grid.BLOCK_BRANCHES`` (node,
action, signal) branches, and gathers the kept branches' posteriors by
one ``take`` of columns per batch.  The filter computes the model's live
symbols only; a dead one's branches are stored with p = 0, as the filter
would give them.  It merges successors whose beliefs round to the same
multiple of ``MEMO_PRECISION``: the first one met stands for all, and ids
follow first occurrence in (node, action, signal) order, which is the
order a depth-first search with the same memo would meet them in.  Each
level is merged once, by one sort of a hash of the rounded beliefs
(``dedupe``).  ``NODE_BUDGET`` caps the tree's distinct nodes; every
level holds at least one, so a horizon of ``NODE_BUDGET`` or more is
refused before anything is filtered.
Each policy is asked once per level about the nodes its actions reach,
with the representative beliefs the tree holds for them.

A backward pass then sums each level's Q values from the level below,
signal by signal in the filter's order, skipping the signals that no
action emits: over every action for the max, and over each reached node's
chosen action for a policy.  Both add the same products in the same
order, so the optimum is at least every policy's value exactly, not only
up to rounding.  Every table is stored as the filter gives it, the short
axis first and the nodes innermost: signal probabilities and successor
ids (Z, A, k), rewards and Q values (A, k), so the max over actions
reduces the leading axis, as ``grid.solve`` does.
"""

import math

import numpy as np

from .errors import OracleBudgetError, ValidationError
from .grid import batch_size, number_groups, sort_groups

# Not called here: pipebench/tracer.py wraps psrplan.oracle.belief_update and
# reports a missing target, so the name stays importable from this module.
from .model import belief_update  # noqa: F401
from .model import PomdpModel, belief_update_state_major, expected_reward_matrix
from .model import ask_policy, check_actions, check_belief, check_horizon

MEMO_PRECISION = 1e-9
DEFAULT_SLACK = 1e-2  # the CLI's default truncation slack
NODE_BUDGET = 10_000_000  # distinct nodes per tree; read at each search
HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)  # odd, so are its powers


def truncation_slack(gamma: float, horizon: int) -> float:
    """Largest possible discounted reward beyond the horizon ([0,1] rewards)."""
    return gamma ** (horizon + 1) / (1.0 - gamma)


def check_slack(slack: float):
    """Refuse a truncation slack that is not a positive finite number."""
    if not (math.isfinite(slack) and slack > 0.0):
        raise ValidationError(f"oracle slack must be a positive number, got {slack}")


def horizon_for_slack(gamma: float, slack: float) -> int:
    """Smallest H with truncation slack at most the requested amount: the
    closed form ceil(log(slack (1 - gamma)) / log gamma) - 1, at least 0,
    then stepped by one while ``truncation_slack`` says it is not the
    smallest, so float rounding in the logarithms cannot move it."""
    check_slack(slack)
    h = max(math.ceil((math.log(slack) + math.log1p(-gamma)) / math.log(gamma)) - 1, 0)
    while h > 0 and truncation_slack(gamma, h - 1) <= slack:
        h -= 1
    while truncation_slack(gamma, h) > slack:
        h += 1
    return h


def row_hash(keys, multipliers):
    """One uint64 per row of a (k, d) int64 stack: its dot product with
    ``multipliers``, the odd HASH_MULTIPLIER**(j + 1) for j < d, wrapping
    mod 2**64.  Equal rows hash alike; different rows rarely do, and
    ``dedupe`` checks."""
    return keys.view(np.uint64) @ multipliers


def dedupe(rows, hashes, key):
    """Ids of a stack of rows by their int64 keys, in order of first occurrence.

    ``key`` maps a stack of rows to their (k, d) keys and ``hashes`` holds
    ``row_hash(key(rows))``.  Returns ``(ids, first)``: ``ids[i]`` is the id
    of row i's key, ids numbered 0, 1, ... as the keys first occur, and
    ``first[j]`` is the index of the first row with id j.  Rows are grouped
    by an ``argsort`` of their hashes once adjacent rows with equal hashes
    are checked to have equal keys; if two do not, by a ``lexsort`` of the
    keys instead.  Every group is new, so ``number_groups`` numbers them
    all by their first rows.
    """
    order, starts = sort_groups(hashes)
    tied = np.flatnonzero(~starts[1:])
    pairs = key(rows[order[np.stack((tied, tied + 1))]])
    if not (pairs[0] == pairs[1]).all():
        keys = key(rows)  # a hash collision
        order = np.lexsort(keys.T)
        sorted_keys = keys[order]
        np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1, out=starts[1:])
    return number_groups(order, starts)


class _Tree:
    """The memoized expectimax tree from one root belief, over every action."""

    def __init__(self, model: PomdpModel):
        self.model = model
        self.r_sa = expected_reward_matrix(model)
        self.multipliers = np.cumprod(np.full(model.n, HASH_MULTIPLIER))
        self.live = model.live_symbols
        self.emitted = np.unique(self.live % model.n_signals)  # signals some action emits
        self.nodes = 0

    def _count(self, k):
        self.nodes += k
        if self.nodes > NODE_BUDGET:
            raise OracleBudgetError(
                f"expectimax expanded more than {NODE_BUDGET} nodes; "
                "shrink the horizon or the model"
            )

    def _rewards(self, beliefs):
        # (A, k): one strided dot per (belief, action), as b @ r_sa[:, a]; a
        # matrix product would round differently
        return np.vecdot(beliefs[None], self.r_sa.T[:, None])

    def _key(self, post):
        return np.round(post / MEMO_PRECISION).astype(np.int64)

    def _expand(self, beliefs):
        """Successors of a level's k beliefs: (p, succ, post, first) with p
        and succ (Z, A, k) views of tables with a row per symbol a·Z + z,
        p = 0 and succ = -1 where p <= 0, ``post`` a row per kept branch
        and ``post[first]`` the distinct successors in id order."""
        na, nz = self.model.n_actions, self.model.n_signals
        block = batch_size(na * nz)
        p_parts, post_parts, hash_parts = [], [], []
        for lo in range(0, beliefs.shape[0], block):
            p, post = belief_update_state_major(self.model, beliefs[lo : lo + block])
            # number the (L, k) branches in memory order, then take the
            # kept ones' posterior columns in (node, action, signal) order
            cols = np.arange(p.size).reshape(p.shape).T
            post = post.reshape(post.shape[0], -1).take(cols[p.T > 0.0], axis=1)
            p_parts.append(p)
            post_parts.append(post)
            hash_parts.append(row_hash(self._key(post.T), self.multipliers))
        p = np.zeros((na * nz, beliefs.shape[0]))
        p[self.live] = np.concatenate(p_parts, axis=1)
        post = np.concatenate(post_parts, axis=1).T  # a row per kept branch
        post_parts.clear()
        hashes = np.concatenate(hash_parts)
        hash_parts.clear()
        ids, first = dedupe(post, hashes, self._key)
        self._count(first.size)
        succ = np.full(p.shape, -1, dtype=np.int64)
        succ.T[p.T > 0.0] = ids
        p, succ = (t.reshape(na, nz, -1).transpose(1, 0, 2) for t in (p, succ))
        return p, succ, post, first

    def run(self, b, horizon, policies):
        """Q at the root over every action, and each policy's value there.

        A level's distinct beliefs are the rows ``first`` of a stack
        ``post``; the root's stack is b alone."""
        # exact: a node's signal probabilities sum to 1, so each level holds one
        if horizon + 1 > NODE_BUDGET:
            raise OracleBudgetError(
                f"expectimax to horizon {horizon} would have expanded more than "
                f"{NODE_BUDGET} nodes; shrink the horizon or raise the slack"
            )
        post = b[None]
        first = np.zeros(1, dtype=np.int64)
        self._count(1)
        reached = [first] * len(policies)  # each policy's nodes on the level
        na = self.model.n_actions
        levels = []
        for _ in range(horizon):
            beliefs, post = post[first], None  # free the rows before filtering
            chosen = [ask_policy(f, beliefs[ids], na) for f, ids in zip(policies, reached)]
            p, succ, post, first = self._expand(beliefs)
            levels.append((self._rewards(beliefs), p, succ, reached, chosen))
            # the next level's nodes each policy reaches, in id order
            live = [succ[:, a, ids] for ids, a in zip(reached, chosen)]
            reached = [np.flatnonzero(np.bincount(s[s >= 0], minlength=first.size)) for s in live]

        # the leaves' Q values, a branch per (action, leaf)
        chunk = batch_size(na)
        chunks = np.split(first, range(chunk, first.size, chunk))
        q = np.concatenate([self._rewards(post[ids]) for ids in chunks], axis=1)
        values = q.max(axis=0)
        policy_values = []
        for f, ids in zip(policies, reached):
            v = np.zeros(first.size)
            v[ids] = q[ask_policy(f, post[first[ids]], na), ids]
            policy_values.append(v)
        del post

        gamma = self.model.discount
        for rewards, p, succ, reached, chosen in reversed(levels):
            weight = gamma * p
            for i, (ids, a) in enumerate(zip(reached, chosen)):
                v = np.zeros(rewards.shape[1])
                v[ids] = _backup(
                    rewards[a, ids], weight[:, a, ids], succ[:, a, ids], policy_values[i],
                    self.emitted,
                )
                policy_values[i] = v
            q = _backup(rewards, weight, succ, values, self.emitted)
            values = q.max(axis=0)
        return q[:, 0], [float(v[0]) for v in policy_values]


def _backup(q, weight, succ, values, signals):
    """Add weight[z] * values[succ[z]] into q for each of the ascending
    ``signals`` z in order: the one sum of the optimum's Q, (A, k) from
    (Z, A, k) tables, and of each policy's, (m,) from (Z, m) slices.  It
    skips the signals that no action emits: a dead branch (weight 0,
    succ -1) would add exactly +0.0 to q >= 0."""
    for z in signals:
        q += weight[z] * values[succ[z]]
    return q


def search(model: PomdpModel, b, horizon: int, policies=()):
    """(V_H*(b), optimal first action, [each policy's value], the root's Q
    over every action) on one tree, from b as ``check_belief`` reads it,
    to the depth ``check_horizon`` reads.

    Each of ``policies`` maps a (k, n) stack of beliefs to k actions; one
    outside [0, A) raises ValidationError.  A policy is asked once per level
    about the distinct nodes its actions reach, the root included, with the
    beliefs the tree holds for them.
    """
    q, values = _Tree(model).run(check_belief(b, model.n), check_horizon(horizon), policies)
    best = int(np.argmax(q))
    return float(q[best]), best, values, q


def exact_value(model: PomdpModel, b, horizon: int):
    """(V_H*(b), optimal first action); exact up to truncation slack."""
    return search(model, b, horizon)[:2]


def exact_q(model: PomdpModel, b, a: int, horizon: int):
    """Q_H*(b, a), read off the full tree: the first action fixed, then optimal play."""
    a = check_actions(a, model.n_actions)
    return float(search(model, b, horizon)[3][a])


def evaluate_policy(model: PomdpModel, policy, b, horizon: int):
    """Truncated discounted value of following the belief -> action map,
    on the tree ``search`` builds."""
    return search(model, b, horizon, [policy])[2][0]
