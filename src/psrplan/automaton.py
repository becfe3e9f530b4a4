"""Multiplicity automata: evaluation, POMDP embedding, Hankel rank audits.

A multiplicity automaton of size r assigns every word w = σ1…σk the value
``initial^T · μ_σ1 ··· μ_σk · terminal``.  A POMDP embeds into one whose
symbols are the test steps (action, Signal(observation, reward-index)), so
its words are tests, and whose word values are exactly the test success
probabilities of the Bayes filter; that equivalence is the backbone oracle
for everything downstream.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import PomdpModel, sequence_probability

RANK_TOL = 1e-8


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


def evaluate(ma: MultiplicityAutomaton, w) -> float:
    """Value of the word under the automaton (empty word: initial·terminal)."""
    return test_probability(ma, ma.initial, w)


def test_probability(ma: MultiplicityAutomaton, b: np.ndarray, w) -> float:
    """Evaluate with the given row-weight vector in place of the initial one.

    Runs left-to-right vector-matrix products, r^2 per symbol.  For a
    POMDP-derived automaton and a point mass on row i this is the
    probability that test w succeeds from hidden state i.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (ma.size,):
        raise ValidationError(f"weight vector has shape {b.shape}, expected ({ma.size},)")
    v = b
    for sym in w:
        mat = ma.mu.get(sym)
        if mat is None:
            raise ValidationError(f"unknown symbol {sym!r}")
        v = v @ mat
    return float(v @ ma.terminal)


test_probability.__test__ = False  # keep pytest from collecting the library fn


def from_pomdp(model: PomdpModel) -> MultiplicityAutomaton:
    """Embed the POMDP: one matrix per test step (a, Signal(o, r)).

    mu[(a, sig)][i, j] = P(i, a, j) * OB(sig | j, a); the word value from an
    initial belief equals the Bayes-filter probability of the same test.
    The alphabet is action-major, then in signal index order, so symbol
    a * Z + z is signal z after action a.
    """
    n = model.n
    alphabet = [(a, sig) for a in range(model.n_actions) for sig in model.signals()]
    mu = {}
    for a, sig in alphabet:
        z = model.signal_index(sig)
        mu[(a, sig)] = model.transition[:, a, :] * model.signal_kernel[:, a, z][None, :]
    return MultiplicityAutomaton(
        size=n,
        alphabet=alphabet,
        mu=mu,
        terminal=np.ones(n),
        initial=model.initial_belief.copy(),
    )


def hankel_submatrix(model: PomdpModel, rows, cols) -> np.ndarray:
    """Entry (i,j) = probability of test cols[j] from belief rows[i].

    Computed through the Bayes filter route on purpose, so it stays an
    independent cross-check of the automaton matrices.
    """
    return np.array([[sequence_probability(model, b, t) for t in cols] for b in rows])


def numerical_rank(matrix: np.ndarray) -> int:
    """Count singular values above RANK_TOL * largest."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    if matrix.size == 0:
        return 0
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv.size == 0 or sv[0] <= 0:
        return 0
    return int(np.sum(sv > RANK_TOL * sv[0]))


def enumerate_tests(model: PomdpModel, max_len: int):
    """All tests of length <= max_len, by length, then in test-step order."""
    symbols = from_pomdp(model).alphabet
    tests = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [t + (s,) for t in frontier for s in symbols]
        tests.extend(frontier)
    return tests


def state_test_values(model: PomdpModel, max_len: int):
    """Per-state probabilities of every test up to max_len, level-batched.

    Returns an n x N matrix whose columns line up with enumerate_tests
    output; column for test sigma∘y is mu_sigma @ (column for y), so the
    whole table costs one matrix product per symbol and level.
    """
    ma = from_pomdp(model)
    mats = [ma.mu[sym] for sym in ma.alphabet]
    levels = [np.ones((model.n, 1))]
    for _ in range(max_len):
        prev = levels[-1]
        levels.append(np.hstack([m @ prev for m in mats]))
    return np.hstack(levels)


def hankel_rank_profile(model: PomdpModel, max_len: int = 4):
    """Numerical rank of the all-states Hankel block at each test-length cap:
    the column prefixes of ``state_test_values`` that end at each length."""
    block = state_test_values(model, max_len)
    n_symbols = model.n_actions * model.n_signals
    widths = np.cumsum([n_symbols**k for k in range(max_len + 1)])
    return [numerical_rank(block[:, :w]) for w in widths]


def stabilized_rank(model: PomdpModel, max_len: int = 4) -> int:
    """First rank value repeated for two consecutive length caps."""
    ranks = hankel_rank_profile(model, max_len)
    for k in range(1, len(ranks)):
        if ranks[k] == ranks[k - 1]:
            return ranks[k]
    return ranks[-1]
