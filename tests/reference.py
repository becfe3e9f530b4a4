"""Test-only references and fixture models, kept out of the package so
the cross-checks stay independent of the code they check.  The automaton
here is built entry by entry, not through ``PomdpModel.symbol_matrices``,
and test probabilities come from the Bayes filter."""

from dataclasses import dataclass

import numpy as np

from psrplan.decomposition import solve_coefficients
from psrplan.errors import ValidationError
from psrplan.model import PomdpModel, belief_update


@dataclass
class MultiplicityAutomaton:
    size: int
    alphabet: list  # symbol labels, fixed order
    mu: dict  # label -> (size, size) matrix
    terminal: np.ndarray
    initial: np.ndarray

    def __post_init__(self):
        r = self.size
        for sym, mat in self.mu.items():
            if mat.shape != (r, r):
                raise ValidationError(f"matrix for symbol {sym!r} is not {r}x{r}")
        if self.terminal.shape != (r,) or self.initial.shape != (r,):
            raise ValidationError("terminal/initial weight vectors must have length r")


def evaluate(ma: MultiplicityAutomaton, w, start=None) -> float:
    """start^T · μ_σ1 ··· μ_σk · terminal for the word w = σ1…σk, start
    defaulting to the automaton's initial vector (empty word:
    start·terminal).  For a POMDP's automaton and a point mass on row i
    this is the probability that test w succeeds from hidden state i."""
    v = ma.initial if start is None else np.asarray(start, dtype=np.float64)
    if v.shape != (ma.size,):
        raise ValidationError(f"weight vector has shape {v.shape}, expected ({ma.size},)")
    for sym in w:
        mat = ma.mu.get(sym)
        if mat is None:
            raise ValidationError(f"unknown symbol {sym!r}")
        v = v @ mat
    return float(v @ ma.terminal)


def from_pomdp(model: PomdpModel) -> MultiplicityAutomaton:
    """One matrix per test step (a, Signal(o, r)), action-major, then in
    signal index order: mu[(a, sig)][i, j] = P(j | i, a) * P(sig | j, a),
    one product per entry."""
    n = model.n
    alphabet = [(a, sig) for a in range(model.n_actions) for sig in model.signals()]
    mu = {}
    for a, sig in alphabet:
        z = model.signal_index(sig)
        mu[(a, sig)] = np.array(
            [
                [model.transition[i, a, j] * model.signal_kernel[j, a, z] for j in range(n)]
                for i in range(n)
            ]
        )
    return MultiplicityAutomaton(
        size=n,
        alphabet=alphabet,
        mu=mu,
        terminal=np.ones(n),
        initial=model.initial_belief.copy(),
    )


def sequence_probability(model: PomdpModel, b: np.ndarray, test) -> float:
    """Probability that running the test's actions from b yields its signals,
    by the Bayes filter.  The empty test succeeds with probability 1."""
    prob = 1.0
    cur = b
    for a, sig in test:
        p, cur = belief_update(model, cur, a, sig)
        prob *= p
        if prob == 0.0:
            return 0.0
    return prob


def hankel_submatrix(model: PomdpModel, rows, cols) -> np.ndarray:
    """Entry (i, j) = probability of test cols[j] from belief rows[i], by the
    filter route."""
    return np.array([[sequence_probability(model, b, t) for t in cols] for b in rows])


def enumerate_tests(model: PomdpModel, max_len: int):
    """All tests of length <= max_len, by length, then in test-step order."""
    symbols = [(a, sig) for a in range(model.n_actions) for sig in model.signals()]
    tests = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [t + (s,) for t in frontier for s in symbols]
        tests.extend(frontier)
    return tests


def state_coefficients(dec) -> np.ndarray:
    """Expansion coefficients of every hidden state in the basis."""
    return solve_coefficients(dec, dec.state_test_matrix)


def fully_observable_chain(discount: float = 0.5) -> PomdpModel:
    """Two states, two actions, observation reveals the state exactly.

    Action a0 keeps the current state, a1 swaps it; reward 1 is emitted
    exactly when the arriving state is s1.  The belief MDP collapses onto
    the corners, which makes hand computation of values trivial.
    """
    transition = np.zeros((2, 2, 2))
    transition[0, 0, 0] = 1.0
    transition[1, 0, 1] = 1.0
    transition[0, 1, 1] = 1.0
    transition[1, 1, 0] = 1.0
    # signals: z = obs * 2 + reward, observation i fires in state i
    signal_kernel = np.zeros((2, 2, 4))
    signal_kernel[0, :, 0] = 1.0  # state 0 -> (o0, r=0)
    signal_kernel[1, :, 3] = 1.0  # state 1 -> (o1, r=1)
    return PomdpModel(
        states=["s0", "s1"],
        actions=["stay", "swap"],
        observations=["o0", "o1"],
        reward_values=np.array([0.0, 1.0]),
        transition=transition,
        signal_kernel=signal_kernel,
        discount=discount,
        initial_belief=np.array([1.0, 0.0]),
    )


def near_duplicate_states(eps: float = 1e-3, discount: float = 0.5) -> PomdpModel:
    """Three hidden states whose middle state is a convex blend of the others.

    Row s1 of every kernel equals (1-eps) * row s0 + eps * row s2, so the
    observable process has rank exactly 2 while naive one-step dependence
    checks sit within eps of firing — a stress case for basis discovery.
    """
    rng = np.random.default_rng(7)
    n, na = 3, 2
    transition = rng.dirichlet([1.0] * n, size=(n, na))
    n_sig = 2 * 2
    signal_kernel = rng.dirichlet([1.0] * n_sig, size=(n, na))
    transition[1] = (1 - eps) * transition[0] + eps * transition[2]
    signal_kernel[1] = (1 - eps) * signal_kernel[0] + eps * signal_kernel[2]
    model = PomdpModel(
        states=["s0", "s1", "s2"],
        actions=["a0", "a1"],
        observations=["o0", "o1"],
        reward_values=np.array([0.2, 0.8]),
        transition=transition,
        signal_kernel=signal_kernel,
        discount=discount,
        initial_belief=np.array([0.3, 0.4, 0.3]),
    )
    model.validate()
    return model


def cloned_states(seed: int = 11, discount: float = 0.5) -> PomdpModel:
    """Four hidden states where s2 and s3 are exact behavioral clones of s0/s1.

    Built by duplicating the rows of a random 2-state model and splitting
    incoming probability across each clone pair; observable rank is 2.
    """
    rng = np.random.default_rng(seed)
    base_t = rng.dirichlet([1.0] * 2, size=(2, 2))  # [s, a, s']
    n_sig = 2 * 2
    base_k = rng.dirichlet([1.0] * n_sig, size=(2, 2))
    transition = np.zeros((4, 2, 4))
    signal_kernel = np.zeros((4, 2, n_sig))
    for s in range(4):
        b = s % 2
        # split mass into the two clones of each base successor
        transition[s, :, 0] = base_t[b, :, 0] * 0.6
        transition[s, :, 2] = base_t[b, :, 0] * 0.4
        transition[s, :, 1] = base_t[b, :, 1] * 0.7
        transition[s, :, 3] = base_t[b, :, 1] * 0.3
        signal_kernel[s] = base_k[b]
    model = PomdpModel(
        states=["s0", "s1", "s0c", "s1c"],
        actions=["a0", "a1"],
        observations=["o0", "o1"],
        reward_values=np.array([0.1, 0.9]),
        transition=transition,
        signal_kernel=signal_kernel,
        discount=discount,
        initial_belief=np.array([0.25, 0.25, 0.25, 0.25]),
    )
    model.validate()
    return model
