"""Planning in the modified belief MDP over basis-coefficient vectors.

A belief b is represented by the r coefficients expressing its test-
probability row in the spanner basis.  One (action, signal) step maps
coefficients to coefficients linearly (up to a probability rescale), so
the planner discretizes the coefficient cube [-2, 2]^r with mesh
eps_tilde = epsilon / r, builds the induced finite MDP, and value-iterates.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import grid as gridmod
from .decomposition import (
    SPANNER_BOUND,
    CoreDecomposition,
    discover_basis,
    improve_to_spanner,
    solve_coefficients,
)
from .errors import ValidationError
from .model import PomdpModel

DEFAULT_STATE_CAP = gridmod.DEFAULT_STATE_CAP
# absorbs float noise in a coordinate counted in mesh cells: ties at exact
# half-cells still go toward -inf, and a whole number of cells stays whole
CELL_NUDGE = 1e-9
# |coefficient| past SPANNER_BOUND by more than this float drift is a clamp
CLAMP_SLACK = 1e-12


@dataclass
class SignalDynamics:
    v: np.ndarray  # (A, Z, r): P(z | basis state i, a)
    W: np.ndarray  # (A, Z, r, r): P((a,z) followed by core test j | basis state i)
    rho: np.ndarray  # (A, r): expected one-step reward from basis state i
    # (r, A * Z * r): column (a * Z + z) * r + j of row i is G[a, z][i, j],
    # the step operator G[a, z] = W[a, z] M⁻¹ laid out for one matrix product
    G: np.ndarray


def precompute_dynamics(model: PomdpModel, dec: CoreDecomposition) -> SignalDynamics:
    """One-step signal probabilities, test extensions, rewards and step
    operators per basis state.

    Read from discovery's extensions, symbol a * Z + z for signal z.  v is
    contiguous: ``step_block``'s einsum rounds differently on a strided
    view.  G comes from ``solve_coefficients``, so it passes the one
    conditioning guard; in coefficient space an (a, z) step is then the
    fixed linear map alpha -> alpha G[a, z], rescaled by p."""
    na, nz, r = model.n_actions, model.n_signals, dec.rank
    ext = dec.extensions.reshape(model.n, na, nz, r)
    W = np.ascontiguousarray(ext[dec.basis_states].transpose(1, 2, 0, 3))
    v = np.ascontiguousarray(W[..., 0])  # extension of the empty test
    rho = np.einsum("azi,z->ai", v, model.signal_rewards)
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
    m_max = lattice_radius(mesh)
    m = np.asarray(alpha, dtype=np.float64) / mesh
    m -= 0.5
    m -= CELL_NUDGE
    np.ceil(m, out=m)
    # whole numbers in floats clip as they would in ints
    np.clip(m, -m_max, m_max, out=m)
    return m.astype(np.int64)


def lattice_radius(mesh: float) -> int:
    """Largest integer m with m * mesh <= SPANNER_BOUND, robust to float
    division; a mesh whose radius passes grid.MAX_RADIUS is refused."""
    if not mesh * gridmod.MAX_RADIUS >= SPANNER_BOUND:  # exact: a power of 2
        raise ValidationError(
            f"mesh {mesh:g} is too fine: {SPANNER_BOUND:g} / mesh exceeds "
            f"{gridmod.MAX_RADIUS} cells"
        )
    return int(math.floor(SPANNER_BOUND / mesh + CELL_NUDGE))


def belief_coefficients(dec: CoreDecomposition, b: np.ndarray) -> np.ndarray:
    """Coefficients of an arbitrary belief in the spanner basis (clamped)."""
    target = np.asarray(b, dtype=np.float64) @ dec.state_test_matrix
    return np.clip(solve_coefficients(dec, target), -SPANNER_BOUND, SPANNER_BOUND)


def check_epsilon(epsilon: float):
    """Refuse an accuracy target outside (0, 1], NaN included."""
    if not 0.0 < epsilon <= 1.0:
        raise ValidationError(f"epsilon {epsilon} outside (0, 1]")


def build_grid(
    model: PomdpModel,
    dec: CoreDecomposition,
    dyn: SignalDynamics,
    epsilon: float,
    mode: str = "reachable",
    state_cap: int = DEFAULT_STATE_CAP,
) -> gridmod.GridMdp:
    """Discretize the coefficient space with mesh epsilon / r.

    ``dec`` must come from ``improve_to_spanner``, whose max |C| <= 2 puts
    every belief on the lattice over [-2, 2]^r.  "reachable" grows the
    closure from the initial belief's grid state; "full" materializes every
    lattice point in [-2, 2]^r.
    """
    check_epsilon(epsilon)
    if mode not in ("reachable", "full"):
        raise ValidationError(f"unknown grid mode '{mode}'")
    if not dec.max_coefficient <= SPANNER_BOUND:  # NaN: never improved
        raise ValidationError(f"basis max |C| {dec.max_coefficient}: run improve_to_spanner first")
    mesh = epsilon / dec.rank
    m_max = lattice_radius(mesh)
    g0 = round_to_grid(belief_coefficients(dec, model.initial_belief), mesh)
    diagnostics = {
        "mode": mode,
        "mMax": m_max,
        "clampEvents": 0,
        "maxClampDrift": 0.0,
        "rewardClamps": 0,
    }
    na, nz = model.n_actions, model.n_signals

    def expand(coords):
        p, beta = step_block(dyn, coords * mesh)
        # kept branches in (state, action, signal) order; flat index
        # (state * A + action) * Z + signal
        kept = np.flatnonzero(p > gridmod.P_MIN)
        row = kept // nz
        beta = beta.reshape(-1, beta.shape[-1])
        p = p.reshape(-1)
        if kept.size < p.size:
            beta, p = beta[kept], p[kept]
        size = np.abs(beta)
        # one reduction over the block finds whether any row drifts; the
        # per-row maxima, a slow reduction over r, only run when one does
        if size.max(initial=0.0) - SPANNER_BOUND > CLAMP_SLACK:
            drift = size.max(axis=1) - SPANNER_BOUND
            clamped = drift > CLAMP_SLACK
            diagnostics["clampEvents"] += int(np.unique(row[clamped]).size)
            diagnostics["maxClampDrift"] = max(
                diagnostics["maxClampDrift"], float(drift[clamped].max())
            )
        succ = round_to_grid(np.clip(beta, -SPANNER_BOUND, SPANNER_BOUND, out=beta), mesh)
        return row, succ, p

    def reward(coords):
        rewards = (coords * mesh) @ dyn.rho.T
        diagnostics["rewardClamps"] = int(np.count_nonzero((rewards < 0.0) | (rewards > 1.0)))
        return np.clip(rewards, 0.0, 1.0)

    grid, dead_rows = gridmod.closure(
        g0,
        expand,
        reward,
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
    vi_tol: float = gridmod.DEFAULT_VI_TOL,
    mode: str = "reachable",
    state_cap: int = DEFAULT_STATE_CAP,
) -> gridmod.PlanResult:
    """Full pipeline: basis discovery, spanner, dynamics, grid, value iteration."""
    timings = {}
    dec = gridmod.timed(timings, "discoverBasis", discover_basis, model)
    dec = gridmod.timed(timings, "improveToSpanner", improve_to_spanner, dec)
    dynamics = gridmod.timed(timings, "precomputeDynamics", precompute_dynamics, model, dec)
    grid = gridmod.timed(
        timings, "buildGrid", build_grid, model, dec, dynamics, epsilon,
        mode=mode, state_cap=state_cap,
    )
    result = gridmod.finish_plan(
        grid, vi_tol, timings, rank=dec.rank, epsilon=epsilon,
        gridMode=mode, swapCount=dec.swap_count,
    )
    result.spanner, result.dynamics = dec, dynamics
    return result


def act(plan_result: gridmod.PlanResult, beliefs) -> np.ndarray:
    """Planned actions for a (k, n) stack of live beliefs, one per row, via
    their rounded coefficients in the plan's spanner basis;
    ``act(result, b[None])[0]`` acts on one belief."""
    grid = plan_result.grid
    alpha = belief_coefficients(plan_result.spanner, beliefs)
    return plan_result.policy[grid.locate(round_to_grid(alpha, grid.mesh))]
