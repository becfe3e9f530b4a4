"""Minimal state/test basis discovery and 2-barycentric spanner improvement.

``discover_basis`` grows a set B of hidden states and a set T of tests
(one-step extensions of earlier tests) until the matrix M(i,j) = P(t_j |
b_i) spans every state's test-probability row.  Each step pivots on the
largest gap, so a nearly dependent row never enters while a well-separated
one is left, and one rule decides the rank r: a row is admitted only if
the grown M keeps σ_max / σ_min <= 1 / RANK_TOL, the guard every
coefficient solve passes.  ``improve_to_spanner`` then swaps basis rows at
the largest coefficient |C[x, i]| of C = U M⁻¹, which by Cramer's rule
multiplies |det M| by |C[x, i]|, and stops at max |C| <= 2 (A4's bound):
the basis is then a 2-barycentric spanner of the state rows (Awerbuch &
Kleinberg 2004).
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateBasisError
from .model import PomdpModel

RANK_TOL = 1e-8  # M is well conditioned while σ_max / σ_min <= 1 / RANK_TOL
SPANNER_BOUND = 2.0
MAX_SWAPS = 10_000


@dataclass
class CoreDecomposition:
    """r basis states and r core tests.  ``improve_to_spanner`` returns a
    copy with rows swapped and its ledger fields set; a basis never
    improved keeps them empty and NaN, and ``build_grid`` refuses it."""

    basis_states: list  # r hidden-state indices
    core_tests: list  # r tests; core_tests[0] is the empty test
    state_test_matrix: np.ndarray  # all n states against the core tests
    extensions: np.ndarray = None  # [s, σ, j]: P(σ∘t_j | s), σ in symbol order
    det_log_ledger: list = field(default_factory=list)  # log|det M| at start, after each swap
    max_coefficient: float = np.nan  # max |C| once improved, at most SPANNER_BOUND
    condition_ratio: float = field(init=False)  # σ_max / σ_min of M

    def __post_init__(self):
        sv = np.linalg.svd(self.M, compute_uv=False)
        self.condition_ratio = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf

    @property
    def M(self) -> np.ndarray:
        """[basis state, test] success probabilities: the basis rows."""
        return self.state_test_matrix[self.basis_states]

    @property
    def rank(self) -> int:
        return len(self.basis_states)

    @property
    def well_conditioned(self) -> bool:
        """The one rank criterion: σ_max / σ_min of M at most 1 / RANK_TOL."""
        return self.condition_ratio <= 1.0 / RANK_TOL

    @property
    def swap_count(self) -> int:
        """Basis rows ``improve_to_spanner`` swapped; 0 if never improved."""
        return max(len(self.det_log_ledger) - 1, 0)


def discover_basis(model: PomdpModel) -> CoreDecomposition:
    """Grow (B, T) until every state's test row is spanned by the basis rows.

    Each step takes the (state s, symbol σ, test t_j) with the largest gap
    |P(σ∘t_j | s) − α_s · P(σ∘t_j | B)| between the extension and its
    prediction from the basis rows; ties go to the first in (state, symbol,
    test) order.  The candidate is admitted only if the grown M is
    ``well_conditioned``, the test ``solve_coefficients`` guards with, and
    growth stops at the first candidate that is not: discovery never
    returns an M the guard rejects.  Each α comes from
    ``solve_coefficients`` on the current basis.  Only live symbols'
    matrices are multiplied (``model.live_symbols``).  Terminates after at
    most n-1 additions.
    """
    nz, live = model.n_signals, model.live_symbols
    dec = CoreDecomposition(
        basis_states=[0], core_tests=[()], state_test_matrix=np.ones((model.n, 1))
    )
    while True:
        U = dec.state_test_matrix  # U[s, j] = P(core_tests[j] | s)
        alphas = solve_coefficients(dec, U)  # alphas[s] solves M^T alpha = U[s]
        # [s, σ, j]: P(σ∘t_j | s); a dead symbol's columns stay +0.0, the
        # product of its all-zero matrix with U >= 0
        ext = np.zeros((model.n, model.n_actions * nz, U.shape[1]))
        for k in live:  # one (n, n) symbol matrix at a time
            np.matmul(model.symbol_matrix(k), U, out=ext[:, k])
        gaps = np.abs(ext - np.tensordot(alphas, ext[dec.basis_states], axes=1))
        gaps[dec.basis_states] = 0.0
        s, k, j = np.unravel_index(np.argmax(gaps), gaps.shape)
        step = (int(k) // nz, model.signal_from_index(int(k) % nz))
        grown = CoreDecomposition(
            basis_states=dec.basis_states + [int(s)],
            core_tests=dec.core_tests + [(step,) + dec.core_tests[j]],
            state_test_matrix=np.hstack([U, ext[:, k, j : j + 1]]),
        )
        if not grown.well_conditioned:
            dec.extensions = ext
            return dec
        dec = grown


def solve_coefficients(decomp: CoreDecomposition, target: np.ndarray) -> np.ndarray:
    """Unique alpha with M^T alpha = target.

    ``target`` is one length-r row or any stack of them (shape (..., r));
    alpha has the same shape.
    """
    if not decomp.well_conditioned:
        raise DegenerateBasisError(
            f"basis matrix condition {decomp.condition_ratio:.3e} exceeds "
            f"{1.0 / RANK_TOL:.3e}"
        )
    target = np.asarray(target, dtype=np.float64)
    rows = target.reshape(-1, decomp.rank)
    return np.linalg.solve(decomp.M.T, rows.T).T.reshape(target.shape)


def improve_to_spanner(decomp: CoreDecomposition) -> CoreDecomposition:
    """A copy of the basis with rows swapped until every state's
    coefficients C are at most 2, its ledger fields set, as ``build_grid``
    requires.

    C = U M⁻¹ comes from ``solve_coefficients`` and its condition guard.
    While max |C| > SPANNER_BOUND, state x replaces basis row i at the
    largest |C[x, i]|, which by Cramer's rule multiplies |det M| by more
    than 2, and C is solved again.  The ledger takes log|det M| from
    ``slogdet`` of each swapped M, not from log|C|, so its growth of at
    least log 2 per swap stays an independent check.
    """
    U = decomp.state_test_matrix
    basis = list(decomp.basis_states)
    dec = decomp
    ledger = [np.linalg.slogdet(dec.M)[1]]
    while True:
        C = np.abs(solve_coefficients(dec, U))
        x, i = np.unravel_index(np.argmax(C), C.shape)
        if C[x, i] <= SPANNER_BOUND:
            break
        if len(ledger) > MAX_SWAPS:
            raise DegenerateBasisError(
                f"spanner improvement did not settle within {MAX_SWAPS} swaps"
            )
        basis[i] = int(x)
        dec = replace(dec, basis_states=list(basis))
        ledger.append(np.linalg.slogdet(dec.M)[1])
    return replace(dec, det_log_ledger=ledger, max_coefficient=float(C[x, i]))


def to_json_dict(dec: CoreDecomposition) -> dict:
    """JSON form of an improved basis for diagnostics."""
    return {
        "basisStates": list(dec.basis_states),
        "coreTests": [[[a, *signal] for a, signal in t] for t in dec.core_tests],
        "matrix": dec.M.tolist(),
        "rank": dec.rank,
        "conditionRatio": dec.condition_ratio,
        "spannerBound": SPANNER_BOUND,
        "maxCoefficient": dec.max_coefficient,
        "detLogLedger": list(dec.det_log_ledger),
        "swapCount": dec.swap_count,
    }
