"""Minimal state/test basis discovery and 2-barycentric spanner improvement.

``discover_basis`` grows a set B of hidden states and a set T of tests
(one-step extensions of earlier tests) until the matrix M(i,j) = P(t_j |
b_i) spans every state's test-probability row; its size equals the
numerical Hankel rank r.  ``improve_to_spanner`` then swaps basis rows
until no single replacement more than doubles |det M|, which bounds every
state's expansion coefficients by 2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .automaton import RANK_TOL, from_pomdp, numerical_rank
from .errors import DegenerateBasisError
from .model import PomdpModel, Signal

DEP_TOL = 1e-7
SPANNER_BOUND = 2.0


@dataclass
class CoreDecomposition:
    basis_states: list  # r hidden-state indices
    core_tests: list  # r tests; core_tests[0] is the empty test
    M: np.ndarray  # [basis state, test] success probabilities
    state_test_matrix: np.ndarray  # all n states against the core tests
    rank: int
    tau_rank: float = RANK_TOL
    condition_ratio: float = 0.0

    def __post_init__(self):
        sv = np.linalg.svd(self.M, compute_uv=False)
        self.condition_ratio = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf


@dataclass
class SpannerBasis:
    decomposition: CoreDecomposition
    spanner_bound: float
    det_log_ledger: list  # log|det M| after start and after each swap
    swap_count: int


def discover_basis(
    model: PomdpModel, tau_dep: float = DEP_TOL, tau_rank: float = RANK_TOL
) -> CoreDecomposition:
    """Grow (B, T) until every state's test row is spanned by the basis rows.

    Scan order is fixed (state, action, signal, test index) so the result
    is deterministic.  Terminates after at most n-1 additions.
    """
    ma = from_pomdp(model)
    mats = [ma.mu[sym] for sym in ma.alphabet]
    n = model.n

    tests = [()]
    basis = [0]
    U = np.ones((n, 1))  # U[s, j] = P(tests[j] | s)

    while True:
        M = U[basis, :]
        try:
            # alphas[s] solves M^T alpha = U[s]
            alphas = np.linalg.solve(M.T, U.T).T
        except np.linalg.LinAlgError as exc:
            raise DegenerateBasisError(
                f"basis matrix became singular at rank {len(basis)}: {exc}"
            ) from exc
        extensions = [mat @ U for mat in mats]  # per symbol: P(sym∘t_j | s)
        grown = False
        for b in range(n):
            if b in basis:
                continue
            for k, ext in enumerate(extensions):
                predicted = alphas[b] @ ext[basis, :]
                gaps = np.abs(ext[b, :] - predicted)
                hits = np.nonzero(gaps > tau_dep)[0]
                if hits.size:
                    j = int(hits[0])
                    a, o, r = ma.alphabet[k]
                    tests.append(((a, Signal(o, r)),) + tests[j])
                    U = np.hstack([U, ext[:, j : j + 1]])
                    basis.append(b)
                    grown = True
                    break
            if grown:
                break
        if not grown:
            break

    M = U[basis, :]
    decomp = CoreDecomposition(
        basis_states=basis,
        core_tests=tests,
        M=M,
        state_test_matrix=U,
        rank=len(basis),
        tau_rank=tau_rank,
    )
    if numerical_rank(M, tau_rank) != decomp.rank:
        raise DegenerateBasisError(
            f"discovered {decomp.rank} basis rows but M has numerical rank "
            f"{numerical_rank(M, tau_rank)}"
        )
    return decomp


def solve_coefficients(decomp: CoreDecomposition, target: np.ndarray):
    """Unique alpha with M^T alpha = target, plus the max-norm residual.

    ``target`` is one length-r row or any stack of them (shape (..., r));
    alpha has the same shape and the residual covers every row.
    """
    if decomp.condition_ratio > 1.0 / decomp.tau_rank:
        raise DegenerateBasisError(
            f"basis matrix condition {decomp.condition_ratio:.3e} exceeds "
            f"{1.0 / decomp.tau_rank:.3e}"
        )
    target = np.asarray(target, dtype=np.float64)
    rows = target.reshape(-1, decomp.rank)
    alpha = np.linalg.solve(decomp.M.T, rows.T).T.reshape(target.shape)
    residual = float(np.max(np.abs(alpha @ decomp.M - target), initial=0.0))
    return alpha, residual


def improve_to_spanner(
    model: PomdpModel, decomp: CoreDecomposition, max_swaps: int = 10_000
) -> SpannerBasis:
    """Swap basis rows while any replacement more than doubles |det M|.

    Determinants are handled in log-magnitude form; the recorded ledger is
    strictly increasing with at least a factor 2 per step.  On exit no
    single-row replacement by any state passes the doubling test, which is
    exactly the 2-barycentric-spanner condition over the state rows.
    """
    U = decomp.state_test_matrix
    n = U.shape[0]
    r = decomp.rank
    basis = list(decomp.basis_states)
    M = U[basis, :].copy()
    _, logdet = np.linalg.slogdet(M)
    ledger = [logdet]
    log2 = math.log(2.0)
    swaps = 0

    improved = True
    while improved:
        improved = False
        for x in range(n):
            for i in range(r):
                candidate = M.copy()
                candidate[i] = U[x]
                sign, cand_logdet = np.linalg.slogdet(candidate)
                if sign != 0 and cand_logdet > logdet + log2:
                    M = candidate
                    basis[i] = x
                    logdet = cand_logdet
                    ledger.append(logdet)
                    swaps += 1
                    improved = True
                    break
            if improved:
                break
        if swaps > max_swaps:
            raise DegenerateBasisError(
                f"spanner improvement did not settle within {max_swaps} swaps"
            )

    out = CoreDecomposition(
        basis_states=basis,
        core_tests=list(decomp.core_tests),
        M=M,
        state_test_matrix=U,
        rank=r,
        tau_rank=decomp.tau_rank,
    )
    return SpannerBasis(
        decomposition=out,
        spanner_bound=SPANNER_BOUND,
        det_log_ledger=ledger,
        swap_count=swaps,
    )


def state_coefficients(spanner: SpannerBasis) -> np.ndarray:
    """Expansion coefficients of every hidden state in the spanner basis."""
    dec = spanner.decomposition
    return solve_coefficients(dec, dec.state_test_matrix)[0]


def _test_to_json(test):
    return [[a, sig.observation, sig.reward] for a, sig in test]


def to_json_dict(obj) -> dict:
    """JSON form of a CoreDecomposition or SpannerBasis for diagnostics."""
    if isinstance(obj, SpannerBasis):
        body = to_json_dict(obj.decomposition)
        body["spannerBound"] = obj.spanner_bound
        body["detLogLedger"] = list(obj.det_log_ledger)
        body["swapCount"] = obj.swap_count
        return body
    return {
        "basisStates": list(obj.basis_states),
        "coreTests": [_test_to_json(t) for t in obj.core_tests],
        "matrix": obj.M.tolist(),
        "rank": obj.rank,
    }
