"""Finite POMDP model with exact Bayesian filtering.

Conventions fixed here and relied on everywhere else:

* hidden states, actions and observations are integer indices into the
  name lists stored on the model;
* a *signal* is an (observation, reward-value) pair, emitted conditioned
  on the **arriving** state and the action; signals are enumerated as
  ``z = observation * n_rewards + reward``;
* a *test* is a tuple of (action, Signal) steps, () the empty test; the
  step (a, z) is symbol ``a * n_signals + z``;
* a symbol is *live* when ``signal_kernel[:, a, z]`` has a nonzero entry:
  some arriving state emits it.  A dead symbol has probability 0 from
  every belief, so the kernels that loop over symbols run over
  ``live_symbols`` only;
* reward values are normalized into [0, 1]; ``reward_scale`` and
  ``reward_offset`` map them back (``raw = value * scale + offset``).
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ValidationError

STOCHASTIC_TOL = 1e-9  # slack on every probability's sign and every row's sum


class Signal(NamedTuple):
    """One observable symbol: indices into observations and reward_values."""

    observation: int
    reward: int


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

    @property
    def signal_rewards(self) -> np.ndarray:
        """[z] the normalized reward value signal z carries."""
        return np.tile(self.reward_values, self.n_observations)

    @property
    def live_symbols(self) -> np.ndarray:
        """The live symbols ``a * Z + z``, ascending: (action, signal) order."""
        return np.flatnonzero(self.signal_kernel.reshape(self.n, -1).any(axis=0))

    def symbol_matrix(self, k: int) -> np.ndarray:
        """The (n, n) matrix of test step (a, z), k = a * Z + z in symbol
        order: entry [i, j] is P(j | i, a) * P(z | j, a).  Times a table u
        of per-state test probabilities, it gives those of the tests
        prefixed by the step."""
        a, z = divmod(k, self.n_signals)
        return self.transition[:, a, :] * self.signal_kernel[:, a, z][None, :]

    def symbol_matrices(self) -> list:
        """``symbol_matrix(k)`` for every k, in symbol order: A·Z·n² numbers
        at once, so discovery builds one at a time."""
        return [self.symbol_matrix(k) for k in range(self.n_actions * self.n_signals)]

    def validate(self) -> None:
        """Raise ValidationError on any violated structural invariant, then
        read each accepted entry below 0 as 0 (``_zero_negatives``)."""
        tol = STOCHASTIC_TOL
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
        check_rows(self.transition.sum(axis=2), "transition", self.states, self.actions)
        check_rows(
            self.signal_kernel.sum(axis=2), "signal", self.states, self.actions, arriving=True
        )
        if np.any(self.transition < -tol) or np.any(self.signal_kernel < -tol):
            raise ValidationError("negative kernel entry")
        if np.any(self.reward_values < -tol) or np.any(self.reward_values > 1 + tol):
            raise ValidationError("reward values must lie in [0, 1] after normalization")
        if not (0.0 < self.discount < 1.0):
            raise ValidationError(f"discount {self.discount} not strictly inside (0, 1)")
        self.initial_belief = check_belief(self.initial_belief, n, "initial belief")
        self.transition = _zero_negatives(self.transition)
        self.signal_kernel = _zero_negatives(self.signal_kernel)


def check_rows(sums, kind, states, actions, arriving=False):
    """Refuse the first (state, action) row of a kernel whose probabilities,
    summed to ``sums[s, a]``, miss 1 by more than STOCHASTIC_TOL."""
    bad = np.argwhere(np.abs(sums - 1.0) > STOCHASTIC_TOL)
    if bad.size:
        s, a = bad[0]
        role = "arriving state" if arriving else "state"
        raise ValidationError(
            f"{kind} row ({role}={states[s]}, action={actions[a]}) sums to "
            f"{sums[s, a]:.12g}, not 1"
        )


def is_distribution(v: np.ndarray) -> bool:
    """Whether v is a probability vector within STOCHASTIC_TOL: no entry
    below -STOCHASTIC_TOL, and a sum within it of 1, which a NaN fails."""
    return not np.any(v < -STOCHASTIC_TOL) and abs(v.sum() - 1.0) <= STOCHASTIC_TOL


def _zero_negatives(v: np.ndarray) -> np.ndarray:
    """v with its entries below 0 as 0, re-divided by its sums along the last
    axis; v itself, every bit, when it holds none (-0.0 is not below 0)."""
    if not (v < 0.0).any():
        return v
    v = np.where(v < 0.0, 0.0, v)
    return v / v.sum(axis=-1, keepdims=True)


def check_belief(b: np.ndarray, n: int, what: str = "belief") -> np.ndarray:
    """b as a length-n probability vector, read through ``_zero_negatives``."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValidationError(f"{what} has length {b.shape}, expected ({n},)")
    if not is_distribution(b):
        raise ValidationError(f"{what} is not a probability vector")
    return _zero_negatives(b)


def check_actions(actions, n_actions: int) -> np.ndarray:
    """actions as int64, refused unless every one is a whole number in
    [0, n_actions): a value the int64 cast would change (1.7, NaN, inf)
    is refused, not truncated."""
    actions = np.asarray(actions)
    if actions.dtype.kind not in "biu":
        with np.errstate(invalid="ignore"):  # NaN and inf cast with a warning
            cast = actions.astype(np.int64)
        changed = cast != actions
        if changed.any():
            raise ValidationError(f"action {actions[changed][0]} is not a whole number")
        actions = cast
    actions = actions.astype(np.int64, copy=False)
    # as uint64 a negative action is above 2**63, so one maximum checks both ends
    if actions.view(np.uint64).max(initial=0) >= n_actions:
        bad = actions[(actions < 0) | (actions >= n_actions)][0]
        raise ValidationError(f"action {bad} outside [0, {n_actions})")
    return actions


def ask_policy(policy, beliefs: np.ndarray, n_actions: int) -> np.ndarray:
    """The policy's k actions at a (k, n) stack of beliefs, checked by
    ``check_actions``: a result of any shape but size k is refused."""
    k = len(beliefs)
    actions = np.asarray(policy(beliefs))
    if actions.size != k:
        raise ValidationError(f"policy returned {actions.size} action(s) for {k} belief(s)")
    return check_actions(actions.reshape(k), n_actions)


def _clean_probabilities(v: np.ndarray) -> np.ndarray:
    """v, in place, with entries in [-STOCHASTIC_TOL, 0], -0.0 included, as
    +0.0; lower is refused."""
    if v.min(initial=0.0) < -STOCHASTIC_TOL:
        raise ValidationError(f"probability went negative: {v.min():.3e}")
    return np.maximum(v, 0.0, out=v)


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
    return p, joint / p


def state_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the leading axis, bit for bit as numpy's ``sum`` adds a
    contiguous row: one elementwise add per row of x.

    numpy sums a row of fewer than 8 numbers in order and a row of up to
    128 in eight interleaved accumulators, combined pairwise, plus the rest
    in order; a longer row is the sum of its two halves, split at a
    multiple of 8.  It starts from +0.0, so a row of -0.0 sums to +0.0;
    adding +0.0 to the first rows does the same and changes nothing else.
    """
    n = x.shape[0]
    if n > 128:
        half = n // 2
        half -= half % 8
        return state_sum(x[:half]) + state_sum(x[half:])
    if n < 8:
        total = x[0] + 0.0
        for row in x[1:]:
            total += row
        return total
    acc = x[:8] + 0.0
    for lo in range(8, n - n % 8, 8):
        acc += x[lo : lo + 8]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for row in x[n - n % 8 :]:
        total += row
    return total


def belief_update_state_major(model: PomdpModel, beliefs: np.ndarray):
    """belief_update for every live symbol and each row of a (k, n) stack
    of beliefs, with the hidden state leading and the stack innermost:
    ``(p, post)`` shaped (L, k) and (n, L, k), slot l holding symbol
    ``model.live_symbols[l]``.  A dead symbol's p is 0 from every belief.

    Where ``p <= 0`` the posterior is all +0.0 (belief_update returns
    None).  The push-forward is belief_update's, one matrix-vector product
    per belief and action: a matrix product over the stack would sum in
    another order and move the ties that simplex rounding breaks.
    Everything after it (the emission product, the clamp, one sum over
    states and one division) is one elementwise pass over the k beliefs
    per hidden state, and ``state_sum`` adds the states in the order numpy
    sums a row, so every other entry is belief_update's bit for bit.
    """
    beliefs = np.asarray(beliefs, dtype=np.float64)
    live = model.live_symbols
    # each action's [s', s] matrix keeps belief_update's strides (s' contiguous)
    pushed = np.matvec(model.transition.transpose(1, 2, 0), beliefs[:, None, :])
    # slot l reads the push-forward at its symbol's action: (n, L, k)
    joint = np.take(pushed.transpose(2, 1, 0), live // model.n_signals, axis=1)
    joint *= model.signal_kernel.reshape(model.n, -1)[:, live, np.newaxis]
    _clean_probabilities(joint)
    p = state_sum(joint)
    # where p = 0 every entry of joint is +0.0 (the clamp maps -0.0 to
    # +0.0), so dividing by 1 there leaves the all-zero posterior
    return p, np.divide(joint, np.where(p > 0.0, p, 1.0), out=joint)


def expected_reward_matrix(model: PomdpModel) -> np.ndarray:
    """[s, a] expected one-step normalized reward from hidden state s."""
    per_arrival = np.einsum("saz,z->sa", model.signal_kernel, model.signal_rewards)
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
        a = int(ask_policy(policy, belief[None], model.n_actions)[0])
        state = int(rng.choice(model.n, p=model.transition[state, a]))
        z = int(rng.choice(model.n_signals, p=model.signal_kernel[state, a]))
        sig = model.signal_from_index(z)
        out.append((a, sig, float(model.reward_values[sig.reward])))
        _, belief = belief_update(model, belief, a, sig)
        if belief is None:  # unreachable for a consistent simulator
            raise ValidationError("simulated signal has zero filter probability")
    return out

