"""Hankel rank audit: the numerical rank of the all-states test table.

A POMDP's per-state test probabilities form the Hankel table of a
multiplicity automaton whose symbols are the test steps; its rank is the
dimension ``discover_basis`` finds.  This module computes that rank by
brute force over every test up to a length cap, as an independent check
of discovery; the planning pipeline does not import it.
"""

import numpy as np

from .decomposition import RANK_TOL
from .model import PomdpModel


def numerical_rank(matrix: np.ndarray) -> int:
    """Count singular values σ_i with σ_max / σ_i <= 1 / RANK_TOL, the ratio
    ``CoreDecomposition.well_conditioned`` bounds."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    sv = np.linalg.svd(matrix, compute_uv=False)
    sv = sv[sv > 0]
    return int(np.count_nonzero(sv[:1] / sv <= 1.0 / RANK_TOL))


def state_test_values(model: PomdpModel, max_len: int):
    """Per-state probabilities of every test up to max_len, level-batched.

    Returns an n x N matrix with one column per test, by length, then in
    symbol order from the first step on; the column for test σ∘y is
    ``symbol_matrices()[σ] @ (column for y)``, so the whole table costs one
    matrix product per symbol and level.
    """
    mats = model.symbol_matrices()
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
