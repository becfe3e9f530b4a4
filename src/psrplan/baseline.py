"""Classical delta-discretized belief-simplex planner.

Grid states are lattice beliefs (m_1 δ, …, m_n δ) with Σ m_i = 1/δ.  One
step applies the exact Bayes filter per signal and rounds the posterior
back onto the lattice; the induced finite MDP is solved with the shared
value-iteration engine.  This is the guarantee-checking baseline the
rank-r planner is compared against.
"""

import numpy as np

from . import grid as gridmod
from .errors import ValidationError
from .model import PomdpModel, belief_update_state_major, expected_reward_matrix

# Unused here, but the benchmark's tracer (pipebench/tracer.py) wraps this
# name and would report it missing.
from .model import belief_update  # noqa: F401

RESOLUTION_TOL = 1e-9  # how far k·delta may miss 1 for 1/delta to read as the integer k
FLOOR_NUDGE = 1e-12  # a scaled coordinate this far below an integer floors to it


def resolution(delta: float) -> int:
    """1/delta as an exact integer; rejects meshes that do not divide 1 and
    those finer than 1 / grid.MAX_RADIUS."""
    if not 0.0 < delta <= 1.0:
        raise ValidationError(f"delta {delta} outside (0, 1]")
    if delta * gridmod.MAX_RADIUS < 1.0:  # exact: a power of 2
        raise ValidationError(
            f"delta {delta} is too fine: 1/delta exceeds {gridmod.MAX_RADIUS}"
        )
    k = round(1.0 / delta)
    if abs(k * delta - 1.0) > RESOLUTION_TOL:
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
    floors = np.floor(scaled + FLOOR_NUDGE).astype(np.int64)
    n = scaled.shape[-1]
    # an integer product, exact, and far faster than a sum over a short last axis
    leftover = k - floors @ np.ones((n, 1), dtype=np.int64)
    # largest remainder first: floors - scaled is minus the remainder, exactly
    order = np.argsort(floors - scaled, axis=-1, kind="stable")
    # each coordinate's position in that order: one scatter inverts it
    order += n * np.arange(leftover.size).reshape(leftover.shape)
    place = np.empty(order.shape, dtype=np.int64)
    place.reshape(-1)[order] = np.arange(n)
    return floors + (place < leftover)


def build_delta_grid(
    model: PomdpModel, delta: float, state_cap: int = gridmod.DEFAULT_STATE_CAP
) -> gridmod.GridMdp:
    """Reachable closure of the rounded belief walk from the initial belief."""
    k = resolution(delta)
    na = model.n_actions
    live_action = model.live_symbols // model.n_signals

    def expand(coords):
        p, post = belief_update_state_major(model, coords * delta)
        # (k, L) and (k, L, n) views: kept branches in (state, action,
        # signal) order, each live slot mapped back to its action
        p, post = p.T, post.transpose(2, 1, 0)
        keep = p > gridmod.P_MIN
        states, slots = np.nonzero(keep)
        return states * na + live_action[slots], simplex_round(post[keep], delta), p[keep]

    grid, _ = gridmod.closure(
        simplex_round(model.initial_belief, delta),
        expand,
        lambda coords: (coords * delta) @ expected_reward_matrix(model),
        n_actions=na,
        n_signals=model.n_signals,
        mesh=delta,
        discount=model.discount,
        state_cap=state_cap,
        cap_hint="raise --state-cap or use a larger delta",
        radius=k,
        name="simplex grid",
    )
    grid.diagnostics = {"mode": "simplex", "resolution": k}
    return grid


def plan_baseline(
    model: PomdpModel,
    delta: float = 0.05,
    vi_tol: float = gridmod.DEFAULT_VI_TOL,
    state_cap: int = gridmod.DEFAULT_STATE_CAP,
) -> gridmod.PlanResult:
    timings = {}
    grid = gridmod.timed(timings, "buildGrid", build_delta_grid, model, delta, state_cap=state_cap)
    return gridmod.finish_plan(grid, vi_tol, timings, delta=delta)


def act_baseline(plan_result: gridmod.PlanResult, beliefs) -> np.ndarray:
    """Planned actions for a (k, n) stack of live beliefs via simplex rounding."""
    grid = plan_result.grid
    return plan_result.policy[grid.locate(simplex_round(beliefs, grid.mesh))]
