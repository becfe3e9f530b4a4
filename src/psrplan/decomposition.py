"""Minimal state/test basis discovery and 2-barycentric spanner improvement.

``discover_basis`` grows a set B of hidden states and a set T of tests
(one-step extensions of earlier tests) until the matrix M(i,j) = P(t_j |
b_i) spans every state's test-probability row; its size equals the
numerical Hankel rank r.  Each step pivots on the largest gap, so a
nearly dependent row never enters while a well-separated one is left.
``improve_to_spanner`` then swaps basis rows at the largest coefficient
|C[x, i]| of C = U M⁻¹, which by Cramer's rule multiplies |det M| by
|C[x, i]|, and stops at max |C| <= 2 (A4's bound): the basis is then a
2-barycentric spanner of the state rows (Awerbuch & Kleinberg 2004).
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .automaton import RANK_TOL, from_pomdp, numerical_rank
from .errors import DegenerateBasisError
from .model import PomdpModel

DEP_TOL = 1e-7
SPANNER_BOUND = 2.0
MAX_SWAPS = 10_000


@dataclass
class CoreDecomposition:
    basis_states: list  # r hidden-state indices
    core_tests: list  # r tests; core_tests[0] is the empty test
    state_test_matrix: np.ndarray  # all n states against the core tests
    extensions: np.ndarray = None  # [s, σ, j]: P(σ∘t_j | s), σ in alphabet order
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


@dataclass
class SpannerBasis:
    decomposition: CoreDecomposition
    det_log_ledger: list  # log|det M| after start and after each swap
    max_coefficient: float = np.nan  # final max |C|, set by improve_to_spanner

    @property
    def swap_count(self):
        return len(self.det_log_ledger) - 1


def discover_basis(model: PomdpModel) -> CoreDecomposition:
    """Grow (B, T) until every state's test row is spanned by the basis rows.

    Each step admits the (state s, symbol σ, test t_j) with the largest gap
    |P(σ∘t_j | s) − α_s · P(σ∘t_j | B)| between the extension and its
    prediction from the basis rows; ties go to the first in (state, symbol,
    test) order.  Growth stops when that gap is at most DEP_TOL times the
    largest extension probability.  DEP_TOL is relative, as RANK_TOL is to
    σ_max, because extension probabilities shrink with the number of
    symbols: an absolute threshold would be looser on some models than on
    others.  Terminates after at most n-1 additions.

    Each step's α comes from a bare ``np.linalg.solve``, outside the
    condition guard of ``solve_coefficients``.  Growth keeps M nonsingular
    by construction: an admitted row's gap is the Schur complement of the
    grown M, so each admission multiplies |det M| by a gap above DEP_TOL
    times the largest extension.  The final M is held to the guard's own
    threshold: ``numerical_rank`` counts the singular values above RANK_TOL
    times σ_max, and a rank short of r raises.
    """
    ma = from_pomdp(model)
    mats = [ma.mu[sym] for sym in ma.alphabet]
    n = model.n

    tests = [()]
    basis = [0]
    U = np.ones((n, 1))  # U[s, j] = P(tests[j] | s)

    while True:
        try:
            # alphas[s] solves M^T alpha = U[s]
            alphas = np.linalg.solve(U[basis].T, U.T).T
        except np.linalg.LinAlgError as exc:
            raise DegenerateBasisError(
                f"basis matrix became singular at rank {len(basis)}: {exc}"
            ) from exc
        ext = np.stack([mat @ U for mat in mats], axis=1)  # [s, σ, j]: P(σ∘t_j | s)
        gaps = np.abs(ext - np.tensordot(alphas, ext[basis], axes=1))
        gaps[basis] = 0.0
        s, k, j = np.unravel_index(np.argmax(gaps), gaps.shape)
        if gaps[s, k, j] <= DEP_TOL * ext.max():
            break
        tests.append((ma.alphabet[k],) + tests[j])
        U = np.hstack([U, ext[:, k, j : j + 1]])
        basis.append(int(s))

    decomp = CoreDecomposition(
        basis_states=basis, core_tests=tests, state_test_matrix=U, extensions=ext
    )
    if numerical_rank(decomp.M) != decomp.rank:
        raise DegenerateBasisError(
            f"discovered {decomp.rank} basis rows but M has numerical rank "
            f"{numerical_rank(decomp.M)}"
        )
    return decomp


def solve_coefficients(decomp: CoreDecomposition, target: np.ndarray) -> np.ndarray:
    """Unique alpha with M^T alpha = target.

    ``target`` is one length-r row or any stack of them (shape (..., r));
    alpha has the same shape.
    """
    if decomp.condition_ratio > 1.0 / RANK_TOL:
        raise DegenerateBasisError(
            f"basis matrix condition {decomp.condition_ratio:.3e} exceeds "
            f"{1.0 / RANK_TOL:.3e}"
        )
    target = np.asarray(target, dtype=np.float64)
    rows = target.reshape(-1, decomp.rank)
    return np.linalg.solve(decomp.M.T, rows.T).T.reshape(target.shape)


def improve_to_spanner(model: PomdpModel, decomp: CoreDecomposition) -> SpannerBasis:
    """Swap basis rows until every state's coefficients C are at most 2.

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
    return SpannerBasis(decomposition=dec, det_log_ledger=ledger, max_coefficient=float(C[x, i]))


def state_coefficients(spanner: SpannerBasis) -> np.ndarray:
    """Expansion coefficients of every hidden state in the spanner basis."""
    dec = spanner.decomposition
    return solve_coefficients(dec, dec.state_test_matrix)


def to_json_dict(spanner: SpannerBasis) -> dict:
    """JSON form of a SpannerBasis for diagnostics."""
    dec = spanner.decomposition
    return {
        "basisStates": list(dec.basis_states),
        "coreTests": [[[a, *signal] for a, signal in t] for t in dec.core_tests],
        "matrix": dec.M.tolist(),
        "rank": dec.rank,
        "conditionRatio": dec.condition_ratio,
        "spannerBound": SPANNER_BOUND,
        "maxCoefficient": spanner.max_coefficient,
        "detLogLedger": list(spanner.det_log_ledger),
        "swapCount": spanner.swap_count,
    }
