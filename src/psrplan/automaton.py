"""Multiplicity automata: evaluation, POMDP embedding, Hankel rank audits.

A multiplicity automaton of size r assigns every word w = σ1…σk the value
``initial^T · μ_σ1 ··· μ_σk · terminal``.  A POMDP embeds into one whose
symbols are (action, observation, reward-index) triples and whose word
values are exactly the test success probabilities of the Bayes filter;
that equivalence is the backbone oracle for everything downstream.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import PomdpModel, Signal, sequence_probability

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


def _as_word(w):
    """Accept either raw symbol labels or (action, Signal) test steps."""
    word = []
    for sym in w:
        if isinstance(sym, tuple) and len(sym) == 2 and isinstance(sym[1], Signal):
            a, sig = sym
            word.append((a, sig.observation, sig.reward))
        else:
            word.append(sym)
    return word


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
    for sym in _as_word(w):
        mat = ma.mu.get(sym)
        if mat is None:
            raise ValidationError(f"unknown symbol {sym!r}")
        v = v @ mat
    return float(v @ ma.terminal)


test_probability.__test__ = False  # keep pytest from collecting the library fn


def from_pomdp(model: PomdpModel) -> MultiplicityAutomaton:
    """Embed the POMDP: one matrix per (action, observation, reward) symbol.

    mu[(a,o,r)][i,j] = P(i, a, j) * OB((o,r) | j, a); the word value from an
    initial belief equals the Bayes-filter probability of the same test.
    """
    n = model.n
    alphabet = []
    mu = {}
    for a in range(model.n_actions):
        t_a = model.transition[:, a, :]
        for o in range(model.n_observations):
            for r in range(model.n_rewards):
                z = o * model.n_rewards + r
                alphabet.append((a, o, r))
                mu[(a, o, r)] = t_a * model.signal_kernel[:, a, z][None, :]
    return MultiplicityAutomaton(
        size=n,
        alphabet=alphabet,
        mu=mu,
        terminal=np.ones(n),
        initial=model.initial_belief.copy(),
    )


@dataclass
class HankelSubmatrix:
    row_labels: list  # belief vectors
    col_labels: list  # Tests
    values: np.ndarray


def hankel_submatrix(model: PomdpModel, rows, cols) -> HankelSubmatrix:
    """Entry (i,j) = probability of test cols[j] from belief rows[i].

    Computed through the Bayes filter route on purpose, so it stays an
    independent cross-check of the automaton matrices.
    """
    values = np.array(
        [[sequence_probability(model, b, t) for t in cols] for b in rows]
    )
    return HankelSubmatrix(row_labels=list(rows), col_labels=list(cols), values=values)


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
    """All tests of length <= max_len in (action, observation, reward) order."""
    symbols = [
        (a, Signal(o, r))
        for a in range(model.n_actions)
        for o in range(model.n_observations)
        for r in range(model.n_rewards)
    ]
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
    """Numerical rank of the all-states Hankel block at each test-length cap."""
    ma = from_pomdp(model)
    mats = [ma.mu[sym] for sym in ma.alphabet]
    block = np.ones((model.n, 1))
    frontier = block
    ranks = [numerical_rank(block)]
    for _ in range(max_len):
        frontier = np.hstack([m @ frontier for m in mats])
        block = np.hstack([block, frontier])
        ranks.append(numerical_rank(block))
    return ranks


def stabilized_rank(model: PomdpModel, max_len: int = 4) -> int:
    """First rank value repeated for two consecutive length caps."""
    ranks = hankel_rank_profile(model, max_len)
    for k in range(1, len(ranks)):
        if ranks[k] == ranks[k - 1]:
            return ranks[k]
    return ranks[-1]
