"""Classical delta-discretized belief-simplex planner.

Grid states are lattice beliefs (m_1 δ, …, m_n δ) with Σ m_i = 1/δ.  One
step applies the exact Bayes filter per signal and rounds the posterior
back onto the lattice; the induced finite MDP is solved with the shared
value-iteration engine.  This is the guarantee-checking baseline the
rank-r planner is compared against.
"""

import time

import numpy as np

from . import grid as gridmod
from .errors import ValidationError
from .model import PomdpModel, belief_update_batch, expected_reward_matrix

# Unused here, but the benchmark's tracer (pipebench/tracer.py) wraps this
# name and would report it missing.
from .model import belief_update  # noqa: F401

DEFAULT_STATE_CAP = 2_000_000


def resolution(delta: float) -> int:
    """1/delta as an exact integer; rejects meshes that do not divide 1."""
    if not 0.0 < delta <= 1.0:
        raise ValidationError(f"delta {delta} outside (0, 1]")
    k = round(1.0 / delta)
    if abs(k * delta - 1.0) > 1e-9:
        raise ValidationError(f"1/delta must be an integer, got 1/{delta}")
    return int(k)


def simplex_round(b: np.ndarray, delta: float) -> np.ndarray:
    """Nearest lattice belief by the largest-remainder method (deterministic).

    Floors every scaled coordinate, then hands the leftover lattice units
    to the coordinates with the largest remainders (lowest index first on
    ties), so the result stays a probability vector on the lattice.  Works
    on the last axis, so a stack of beliefs rounds row by row.
    """
    k = resolution(delta)
    scaled = np.asarray(b, dtype=np.float64) * k
    floors = np.floor(scaled + 1e-12).astype(np.int64)
    leftover = k - floors.sum(axis=-1, keepdims=True)
    order = np.argsort(-(scaled - floors), axis=-1, kind="stable")
    place = np.argsort(order, axis=-1)  # each coordinate's position in that order
    return floors + (place < leftover)


def build_delta_grid(
    model: PomdpModel, delta: float, state_cap: int = DEFAULT_STATE_CAP
) -> gridmod.GridMdp:
    """Reachable closure of the rounded belief walk from the initial belief."""
    k = resolution(delta)
    r_sa = expected_reward_matrix(model)
    na = model.n_actions

    def expand(coords):
        beliefs = coords * delta
        p, post = belief_update_batch(model, beliefs)
        keep = p > gridmod.P_MIN
        states, actions, _ = np.nonzero(keep)
        return states * na + actions, simplex_round(post[keep], delta), p[keep], beliefs @ r_sa

    grid, _ = gridmod.closure(
        simplex_round(model.initial_belief, delta),
        expand,
        n_actions=na,
        mesh=delta,
        discount=model.discount,
        state_cap=state_cap,
        cap_hint="raise --state-cap or use a larger delta",
        radius=k,
        name="simplex grid",
    )
    grid.diagnostics = {"mode": "simplex", "resolution": k}
    return grid


def solve_baseline(grid: gridmod.GridMdp, vi_tol: float = 1e-4) -> gridmod.PlanResult:
    """Value-iterate the simplex grid (shared engine and result shape)."""
    result = gridmod.solve(grid, vi_tol)
    result.grid = grid
    return result


def plan_baseline(
    model: PomdpModel,
    delta: float = 0.05,
    vi_tol: float = 1e-4,
    state_cap: int = DEFAULT_STATE_CAP,
) -> gridmod.PlanResult:
    timings = {}
    t0 = time.perf_counter()
    grid = build_delta_grid(model, delta, state_cap=state_cap)
    timings["buildGrid"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    result = solve_baseline(grid, vi_tol)
    timings["solve"] = time.perf_counter() - t0
    result.metadata.update(
        {
            "delta": delta,
            "viTol": vi_tol,
            "stageSeconds": timings,
            "diagnostics": grid.diagnostics,
        }
    )
    return result


def act_baseline(plan_result: gridmod.PlanResult, beliefs) -> np.ndarray:
    """Planned actions for a (k, n) stack of live beliefs via simplex rounding."""
    grid = plan_result.grid
    return plan_result.policy[grid.locate(simplex_round(beliefs, grid.mesh))]
