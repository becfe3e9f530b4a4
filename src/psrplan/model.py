"""Finite POMDP model with exact Bayesian filtering.

Conventions fixed here and relied on everywhere else:

* hidden states, actions and observations are integer indices into the
  name lists stored on the model;
* a *signal* is an (observation, reward-value) pair, emitted conditioned
  on the **arriving** state and the action; signals are enumerated as
  ``z = observation * n_rewards + reward``;
* reward values are normalized into [0, 1]; ``reward_scale`` and
  ``reward_offset`` map them back (``raw = value * scale + offset``).
"""

import json
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError

STOCHASTIC_TOL = 1e-9
DRIFT_TOL = 1e-12


class Signal(NamedTuple):
    """One observable symbol: indices into observations and reward_values."""

    observation: int
    reward: int


# A test is a finite sequence of (action, Signal) steps; () is the empty test.
Test = tuple


@dataclass
class PomdpModel:
    states: list
    actions: list
    observations: list
    reward_values: np.ndarray  # normalized scalars, ascending
    transition: np.ndarray  # [s, a, s']
    signal_kernel: np.ndarray  # [s_arriving, a, z]
    discount: float
    initial_belief: np.ndarray
    reward_scale: float = 1.0
    reward_offset: float = 0.0

    @property
    def n(self):
        return len(self.states)

    @property
    def n_actions(self):
        return len(self.actions)

    @property
    def n_observations(self):
        return len(self.observations)

    @property
    def n_rewards(self):
        return len(self.reward_values)

    @property
    def n_signals(self):
        return self.n_observations * self.n_rewards

    def signals(self):
        """All signals in index order (observation-major)."""
        return [
            Signal(o, r)
            for o in range(self.n_observations)
            for r in range(self.n_rewards)
        ]

    def signal_index(self, sig: Signal) -> int:
        return sig.observation * self.n_rewards + sig.reward

    def signal_from_index(self, z: int) -> Signal:
        return Signal(z // self.n_rewards, z % self.n_rewards)

    def validate(self, tol: float = STOCHASTIC_TOL) -> None:
        """Raise ValidationError on any violated structural invariant."""
        n, na, nz = self.n, self.n_actions, self.n_signals
        if self.transition.shape != (n, na, n):
            raise ValidationError(
                f"transition shape {self.transition.shape} != {(n, na, n)}"
            )
        if self.signal_kernel.shape != (n, na, nz):
            raise ValidationError(
                f"signal kernel shape {self.signal_kernel.shape} != {(n, na, nz)}"
            )
        # NaN passes every tolerance comparison below, so test finiteness first
        for name in ("transition", "signal_kernel", "reward_values", "initial_belief"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValidationError(f"non-finite entry in {name}")
        if not (np.isfinite(self.reward_scale) and np.isfinite(self.reward_offset)):
            raise ValidationError("reward scale and offset must be finite")
        t_sums = self.transition.sum(axis=2)
        bad = np.argwhere(np.abs(t_sums - 1.0) > tol)
        if bad.size:
            s, a = bad[0]
            raise ValidationError(
                f"transition row (state={self.states[s]}, action={self.actions[a]}) "
                f"sums to {t_sums[s, a]:.12g}, not 1"
            )
        k_sums = self.signal_kernel.sum(axis=2)
        bad = np.argwhere(np.abs(k_sums - 1.0) > tol)
        if bad.size:
            s, a = bad[0]
            raise ValidationError(
                f"signal row (arriving state={self.states[s]}, action={self.actions[a]}) "
                f"sums to {k_sums[s, a]:.12g}, not 1"
            )
        if np.any(self.transition < -tol) or np.any(self.signal_kernel < -tol):
            raise ValidationError("negative kernel entry")
        if np.any(self.reward_values < -tol) or np.any(self.reward_values > 1 + tol):
            raise ValidationError("reward values must lie in [0, 1] after normalization")
        if not (0.0 < self.discount < 1.0):
            raise ValidationError(f"discount {self.discount} not strictly inside (0, 1)")
        if self.initial_belief.shape != (n,):
            raise ValidationError("initial belief has wrong length")
        if np.any(self.initial_belief < -tol) or abs(self.initial_belief.sum() - 1) > tol:
            raise ValidationError("initial belief is not a probability vector")


def check_belief(b: np.ndarray, n: int, tol: float = 1e-10) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValidationError(f"belief has length {b.shape}, expected ({n},)")
    if np.any(b < -tol) or abs(b.sum() - 1.0) > tol:
        raise ValidationError("belief is not a probability vector")
    return b


def _clean_probabilities(v: np.ndarray) -> np.ndarray:
    """Clamp tiny negatives to 0; genuinely negative entries are an error."""
    if np.any(v < -DRIFT_TOL):
        raise ValidationError(f"probability went negative: {v.min():.3e}")
    return np.maximum(v, 0.0)


def belief_update(model: PomdpModel, b: np.ndarray, a: int, sig):
    """One Bayes filter step.

    Returns ``(p, posterior)`` where ``p = P(sig | b, a)``; when the signal
    is impossible (p <= 0) the posterior is None and the caller must branch.
    """
    z = model.signal_index(sig) if isinstance(sig, Signal) else int(sig)
    pushed = b @ model.transition[:, a, :]
    joint = pushed * model.signal_kernel[:, a, z]
    joint = _clean_probabilities(joint)
    p = float(joint.sum())
    if p <= 0.0:
        return 0.0, None
    post = joint / p
    drift = abs(post.sum() - 1.0)
    if drift > DRIFT_TOL:
        post = post / post.sum()
    return p, post


def belief_update_batch(model: PomdpModel, beliefs: np.ndarray, actions=None):
    """belief_update for every signal of each searched action from each row
    of ``beliefs``.

    ``actions`` is a (k, m) stack of the actions searched from each row, by
    default all A of them.  Returns ``(p, post)`` with shapes (k, m, Z) and
    (k, m, Z, n).  Where ``p <= 0`` the posterior is all zeros
    (belief_update returns None).  Every other entry equals belief_update's
    bit for bit: the push-forward is one matrix-vector product per belief
    and action, as there, since a matrix product over the stack would sum
    in another order and move the ties that simplex rounding breaks.
    """
    beliefs = np.asarray(beliefs, dtype=np.float64)
    # None broadcasts one copy of every action over the rows; a stack
    # gathers each row's actions.  Either way a row's [s', s] matrix keeps
    # belief_update's strides (s' contiguous).
    searched = np.newaxis if actions is None else np.asarray(actions, dtype=np.int64)
    transition = model.transition[:, searched].transpose(1, 2, 3, 0)
    pushed = np.matvec(transition, beliefs[:, None, :])
    # C order along the state axis, so each row's sum is the same pairwise sum
    emit = np.ascontiguousarray(model.signal_kernel.transpose(1, 2, 0))[searched]
    joint = pushed[:, :, None, :] * emit
    joint = _clean_probabilities(joint)
    p = joint.sum(axis=-1)
    possible = p[..., None] > 0.0
    post = np.divide(joint, p[..., None], out=np.zeros_like(joint), where=possible)
    total = post.sum(axis=-1, keepdims=True)
    drifted = possible & (np.abs(total - 1.0) > DRIFT_TOL)
    np.divide(post, total, out=post, where=drifted)
    return p, post


def sequence_probability(model: PomdpModel, b: np.ndarray, test: Test) -> float:
    """Probability that running the test's actions from b yields its signals.

    The empty test succeeds with probability 1.
    """
    prob = 1.0
    cur = b
    for a, sig in test:
        p, cur = belief_update(model, cur, a, sig)
        prob *= p
        if prob == 0.0:
            return 0.0
    return prob


def expected_reward_matrix(model: PomdpModel) -> np.ndarray:
    """[s, a] expected one-step normalized reward from hidden state s."""
    rv = model.reward_values
    per_arrival = np.einsum(
        "saz,z->sa",
        model.signal_kernel,
        np.tile(rv, model.n_observations),
    )
    return np.einsum("saj,ja->sa", model.transition, per_arrival)


def sample_trajectory(
    model: PomdpModel,
    b: np.ndarray,
    policy: Callable[[np.ndarray], np.ndarray],
    horizon: int,
    rng_seed: int,
):
    """Simulate ``horizon`` steps; deterministic given the seed.

    Returns a list of (action, Signal, reward) with rewards in normalized
    units; the belief fed to the policy is the exact Bayes filter state.
    ``policy`` maps a (k, n) stack of beliefs to k actions, as ``act`` does;
    it is asked about one belief at a time.
    """
    rng = np.random.default_rng(rng_seed)
    belief = check_belief(b, model.n)
    state = int(rng.choice(model.n, p=belief))
    out = []
    for _ in range(horizon):
        a = int(policy(belief[None])[0])
        state = int(rng.choice(model.n, p=model.transition[state, a]))
        z = int(rng.choice(model.n_signals, p=model.signal_kernel[state, a]))
        sig = model.signal_from_index(z)
        out.append((a, sig, float(model.reward_values[sig.reward])))
        _, belief = belief_update(model, belief, a, sig)
        if belief is None:  # unreachable for a consistent simulator
            raise ValidationError("simulated signal has zero filter probability")
    return out


# ---------------------------------------------------------------------------
# Canonical JSON serialization (field names are a wire contract).

def to_json_dict(model: PomdpModel) -> dict:
    return {
        "states": list(model.states),
        "actions": list(model.actions),
        "observations": list(model.observations),
        "rewardValues": [float(v) for v in model.reward_values],
        "transition": model.transition.tolist(),
        "signalKernel": model.signal_kernel.tolist(),
        "discount": float(model.discount),
        "initialBelief": model.initial_belief.tolist(),
        "rewardScale": float(model.reward_scale),
        "rewardOffset": float(model.reward_offset),
    }


def to_json(model: PomdpModel) -> str:
    return json.dumps(to_json_dict(model), sort_keys=True, indent=2)


def from_json_dict(d: dict) -> PomdpModel:
    model = PomdpModel(
        states=list(d["states"]),
        actions=list(d["actions"]),
        observations=list(d["observations"]),
        reward_values=np.asarray(d["rewardValues"], dtype=np.float64),
        transition=np.asarray(d["transition"], dtype=np.float64),
        signal_kernel=np.asarray(d["signalKernel"], dtype=np.float64),
        discount=float(d["discount"]),
        initial_belief=np.asarray(d["initialBelief"], dtype=np.float64),
        reward_scale=float(d["rewardScale"]),
        reward_offset=float(d["rewardOffset"]),
    )
    model.validate()
    return model


def from_json(text: str) -> PomdpModel:
    return from_json_dict(json.loads(text))
