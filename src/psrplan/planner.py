"""Planning in the modified belief MDP over basis-coefficient vectors.

A belief b is represented by the r coefficients expressing its test-
probability row in the spanner basis.  One (action, signal) step maps
coefficients to coefficients linearly (up to a probability rescale), so
the planner discretizes the coefficient cube [-2, 2]^r with mesh
eps_tilde = epsilon / r, builds the induced finite MDP, and value-iterates.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import grid as gridmod
from .decomposition import SpannerBasis, discover_basis, improve_to_spanner, solve_coefficients
from .errors import ValidationError
from .model import PomdpModel

DEFAULT_STATE_CAP = gridmod.DEFAULT_STATE_CAP
COEFF_BOUND = 2.0
# absorbs float noise around exact half-cells so ties still go toward -inf
TIE_NUDGE = 1e-9


@dataclass
class SignalDynamics:
    v: np.ndarray  # (A, Z, r): P(z | basis state i, a)
    W: np.ndarray  # (A, Z, r, r): P((a,z) followed by core test j | basis state i)
    rho: np.ndarray  # (A, r): expected one-step reward from basis state i
    # (r, A * Z * r): column (a * Z + z) * r + j of row i is G[a, z][i, j],
    # the step operator G[a, z] = W[a, z] M⁻¹ laid out for one matrix product
    G: np.ndarray


def precompute_dynamics(model: PomdpModel, spanner: SpannerBasis) -> SignalDynamics:
    """One-step signal probabilities, test extensions, rewards and step
    operators per basis state.

    Read from discovery's extensions, symbol a * Z + z for signal z.  v is
    contiguous: ``step_block``'s einsum rounds differently on a strided
    view.  G comes from ``solve_coefficients``, so it passes the one
    conditioning guard; in coefficient space an (a, z) step is then the
    fixed linear map alpha -> alpha G[a, z], rescaled by p."""
    dec = spanner.decomposition
    na, nz, r = model.n_actions, model.n_signals, dec.rank
    ext = dec.extensions.reshape(model.n, na, nz, r)
    W = np.ascontiguousarray(ext[dec.basis_states].transpose(1, 2, 0, 3))
    v = np.ascontiguousarray(W[..., 0])  # extension of the empty test
    signal_rewards = np.tile(model.reward_values, model.n_observations)
    rho = np.einsum("azi,z->ai", v, signal_rewards)
    G = np.ascontiguousarray(solve_coefficients(dec, W).transpose(2, 0, 1, 3).reshape(r, -1))
    return SignalDynamics(v=v, W=W, rho=rho, G=G)


def step_block(dyn: SignalDynamics, alpha):
    """Every (action, signal) step from each row of a (k, r) coefficient block.

    Returns (p, beta): p (k, A, Z) holds the signal probabilities under the
    linear belief extension, clipped to [0, 1]; beta (k, A, Z, r) holds the
    successor coefficients alpha G[a, z] / p before clamping, meaningful
    where p > grid.P_MIN.  beta is one matrix product; p keeps its own einsum,
    whose sums round as the grid's stored probabilities always have.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    na, nz, r = dyn.v.shape
    p = np.clip(np.einsum("ki,azi->kaz", alpha, dyn.v), 0.0, 1.0)
    beta = (alpha @ dyn.G).reshape(-1, na, nz, r)
    beta /= np.where(p > gridmod.P_MIN, p, 1.0)[..., None]
    return p, beta


def round_to_grid(alpha, mesh: float) -> np.ndarray:
    """Nearest lattice multiple of mesh, ties toward -inf, clamped to [-2, 2]."""
    alpha = np.asarray(alpha, dtype=np.float64)
    m_max = lattice_radius(mesh)
    m = np.ceil(alpha / mesh - 0.5 - TIE_NUDGE).astype(np.int64)
    return np.clip(m, -m_max, m_max)


def lattice_radius(mesh: float) -> int:
    """Largest integer m with m * mesh <= 2, robust to float division."""
    return int(math.floor(2.0 / mesh + 1e-9))


def belief_coefficients(spanner: SpannerBasis, b: np.ndarray) -> np.ndarray:
    """Coefficients of an arbitrary belief in the spanner basis (clamped)."""
    dec = spanner.decomposition
    target = np.asarray(b, dtype=np.float64) @ dec.state_test_matrix
    return np.clip(solve_coefficients(dec, target), -COEFF_BOUND, COEFF_BOUND)


def check_epsilon(epsilon: float):
    """Refuse an accuracy target outside (0, 1], NaN included."""
    if not 0.0 < epsilon <= 1.0:
        raise ValidationError(f"epsilon {epsilon} outside (0, 1]")


def build_grid(
    model: PomdpModel,
    spanner: SpannerBasis,
    dyn: SignalDynamics,
    epsilon: float,
    mode: str = "reachable",
    state_cap: int = DEFAULT_STATE_CAP,
) -> gridmod.GridMdp:
    """Discretize the coefficient space with mesh epsilon / r.

    "reachable" grows the closure from the initial belief's grid state;
    "full" materializes every lattice point in [-2, 2]^r.
    """
    check_epsilon(epsilon)
    if mode not in ("reachable", "full"):
        raise ValidationError(f"unknown grid mode '{mode}'")
    mesh = epsilon / spanner.decomposition.rank
    m_max = lattice_radius(mesh)
    g0 = round_to_grid(belief_coefficients(spanner, model.initial_belief), mesh)
    diagnostics = {
        "mode": mode,
        "mMax": m_max,
        "clampEvents": 0,
        "maxClampDrift": 0.0,
        "rewardClamps": 0,
    }
    na, nz = model.n_actions, model.n_signals

    def expand(coords):
        alpha = coords * mesh
        p, beta = step_block(dyn, alpha)
        # kept branches in (state, action, signal) order; flat index
        # (state * A + action) * Z + signal
        kept = np.flatnonzero(p > gridmod.P_MIN)
        row = kept // nz
        beta = beta.reshape(-1, beta.shape[-1])[kept]
        size = np.abs(beta)
        # one reduction over the block finds whether any row drifts; the
        # per-row maxima, a slow reduction over r, only run when one does
        if size.max(initial=0.0) - COEFF_BOUND > 1e-12:
            drift = size.max(axis=1) - COEFF_BOUND
            clamped = drift > 1e-12
            diagnostics["clampEvents"] += int(np.unique(row[clamped]).size)
            diagnostics["maxClampDrift"] = max(
                diagnostics["maxClampDrift"], float(drift[clamped].max())
            )
        succ = round_to_grid(np.clip(beta, -COEFF_BOUND, COEFF_BOUND), mesh)
        rewards = alpha @ dyn.rho.T
        diagnostics["rewardClamps"] += int(np.count_nonzero((rewards < 0.0) | (rewards > 1.0)))
        return row, succ, p.reshape(-1)[kept], np.clip(rewards, 0.0, 1.0)

    grid, dead_rows = gridmod.closure(
        g0,
        expand,
        n_actions=na,
        mesh=mesh,
        discount=model.discount,
        state_cap=state_cap,
        cap_hint="raise --state-cap or use a larger epsilon",
        radius=m_max,
        full=mode == "full",
    )
    grid.diagnostics = dict(diagnostics, deadEnds=dead_rows)
    return grid


def plan(
    model: PomdpModel,
    epsilon: float = 0.1,
    vi_tol: float = 1e-4,
    mode: str = "reachable",
    state_cap: int = DEFAULT_STATE_CAP,
) -> gridmod.PlanResult:
    """Full pipeline: basis discovery, spanner, dynamics, grid, value iteration."""
    timings = {}
    t0 = time.perf_counter()
    dec = discover_basis(model)
    timings["discoverBasis"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    spanner = improve_to_spanner(model, dec)
    timings["improveToSpanner"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    dynamics = precompute_dynamics(model, spanner)
    timings["precomputeDynamics"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    grid = build_grid(model, spanner, dynamics, epsilon, mode=mode, state_cap=state_cap)
    timings["buildGrid"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    result = gridmod.solve(grid, vi_tol)
    timings["solve"] = time.perf_counter() - t0

    result.metadata.update(
        {
            "rank": spanner.decomposition.rank,
            "epsilon": epsilon,
            "viTol": vi_tol,
            "gridMode": mode,
            "stageSeconds": timings,
            "diagnostics": grid.diagnostics,
            "swapCount": spanner.swap_count,
        }
    )
    result.spanner = spanner
    result.dynamics = dynamics
    return result


def act(plan_result: gridmod.PlanResult, beliefs) -> np.ndarray:
    """Planned actions for a (k, n) stack of live beliefs, one per row, via
    their rounded coefficients in the plan's spanner basis;
    ``act(result, b[None])[0]`` acts on one belief."""
    grid = plan_result.grid
    alpha = belief_coefficients(plan_result.spanner, beliefs)
    return plan_result.policy[grid.locate(round_to_grid(alpha, grid.mesh))]
