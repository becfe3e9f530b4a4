"""Finite grid MDPs over lattice points: the closure engine and the solver.

Both planners (coefficient lattice and belief simplex) reduce to one job:
grow the closure of a start point under a model-specific batched step,
intern every new lattice point, and value-iterate the induced finite MDP.
``closure`` does everything that is not model-specific; a planner only
supplies ``expand``.  A GridMdp holds integer lattice coordinates per
state, per-(state, action) successor distributions in CSR form over the
flat row ``s * n_actions + a``, and the expected reward of each row.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, StateCapExceededError

logger = logging.getLogger("psrplan")

MAX_VI_ITERATIONS = 1_000_000
P_MIN = 1e-9  # branches and rows at or below this probability are dropped
BLOCK_STATES = 256  # states expanded per batch; state ids do not depend on it


@dataclass
class GridMdp:
    mesh: float
    coords: np.ndarray  # (N, dim) integer lattice coordinates
    n_actions: int
    rewards: np.ndarray  # (N * n_actions,) row index s * n_actions + a
    indptr: np.ndarray  # CSR over the same flat rows
    succ: np.ndarray
    prob: np.ndarray
    discount: float
    initial_state: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_states(self):
        return self.coords.shape[0]

    def state_index(self):
        """Map lattice coordinate tuple -> state id (built once, cached)."""
        cached = getattr(self, "_index", None)
        if cached is None:
            cached = {tuple(row): i for i, row in enumerate(self.coords.tolist())}
            self._index = cached
        return cached

    def locate(self, coords) -> int:
        """State id of a lattice point, or of the nearest state (L1) off the grid.

        Off-grid points are expected when a policy meets beliefs outside the
        expanded closure: each fallback counts in diagnostics["actFallbacks"],
        the first one warns and later ones only log at debug level.
        """
        coords = tuple(int(c) for c in coords)
        sid = self.state_index().get(coords)
        if sid is None:
            sid = int(np.argmin(np.abs(self.coords - np.array(coords)).sum(axis=1)))
            count = self.diagnostics.get("actFallbacks", 0)
            self.diagnostics["actFallbacks"] = count + 1
            log = logger.warning if count == 0 else logger.debug
            log(
                "belief rounds to unexpanded grid point %s; using nearest expanded "
                "state %s",
                coords,
                tuple(int(c) for c in self.coords[sid]),
            )
        return sid


@dataclass
class PlanResult:
    values: np.ndarray
    policy: np.ndarray
    residual: float
    iterations: int
    metadata: dict = field(default_factory=dict)
    # attached by the planning pipelines for policy execution / serialization
    grid: object = None
    spanner: object = None


class _Interner:
    """Lattice rows -> state ids, new rows numbered in order of first occurrence.

    Rows are compared through a fixed-width byte view, kept sorted for
    ``searchsorted``; the byte order is arbitrary but total, which is all
    the lookup needs.
    """

    def __init__(self, dim, state_cap, cap_message):
        self.key_type = np.dtype((np.void, 8 * dim))
        self.keys = np.empty(0, dtype=self.key_type)  # sorted
        self.ids = np.empty(0, dtype=np.int64)  # id of each sorted key
        self.coords = np.empty((0, dim), dtype=np.int64)  # rows in id order
        self.state_cap = state_cap
        self.cap_message = cap_message

    def __call__(self, coords):
        coords = np.ascontiguousarray(coords, dtype=np.int64)
        keys = coords.view(self.key_type).reshape(-1)
        uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        pos = np.searchsorted(self.keys, uniq)
        seen = pos < self.keys.size
        seen[seen] = self.keys[pos[seen]] == uniq[seen]
        uid = np.empty(uniq.size, dtype=np.int64)
        uid[seen] = self.ids[pos[seen]]
        unseen = ~seen
        fresh = np.flatnonzero(unseen)
        fresh = fresh[np.argsort(first[fresh], kind="stable")]
        n = self.coords.shape[0]
        if n + fresh.size > self.state_cap:
            raise StateCapExceededError(self.cap_message)
        uid[fresh] = n + np.arange(fresh.size)
        self.coords = np.concatenate([self.coords, coords[first[fresh]]])
        self.keys = np.insert(self.keys, pos[unseen], uniq[unseen])
        self.ids = np.insert(self.ids, pos[unseen], uid[unseen])
        return uid[inverse.reshape(-1)]


def closure(
    start,
    expand,
    *,
    n_actions,
    mesh,
    discount,
    state_cap,
    cap_hint,
    name="grid",
    box=None,
):
    """Closure of the lattice point ``start`` under ``expand``, as a GridMdp.

    With ``box`` given, every point of the cube [-box, box]^dim gets an id
    first, in C order, then ``start``.  States are expanded in id order, up
    to BLOCK_STATES at a time: ``expand(coords)`` maps a (k, dim) block to
    ``(row, succ, weight, rewards)``, where entry i leads from the flat
    block row ``row[i]`` (state offset * n_actions + action) to lattice
    point ``succ[i]`` with weight ``weight[i]``, and ``rewards`` is
    (k, n_actions).  Entries must come in (state, action, ...) order; new
    points are then numbered as a one-state-at-a-time FIFO expansion would
    number them, whatever the block size.

    Duplicate (row, successor) entries merge by summing their weights, rows
    are renormalized, and a row of total weight at most P_MIN becomes a
    self-loop.  More than ``state_cap`` states raise StateCapExceededError,
    its message ending in ``cap_hint``.  Returns ``(grid, dead_rows)``.
    """
    start = np.asarray(start, dtype=np.int64).reshape(1, -1)
    dim = start.shape[1]
    intern = _Interner(
        dim, state_cap, f"{name} exceeded the state cap of {state_cap}; {cap_hint}"
    )
    if box is not None:
        side = 2 * box + 1
        if side**dim > state_cap:
            raise StateCapExceededError(
                f"full lattice has {side}^{dim} states, above the cap of "
                f"{state_cap}; {cap_hint}"
            )
        intern(np.indices((side,) * dim).reshape(dim, -1).T - box)
    initial_state = int(intern(start)[0])

    counts, succ_parts, prob_parts, reward_parts = [], [], [], []
    dead_rows = 0
    lo = 0
    while lo < intern.coords.shape[0]:
        hi = min(lo + BLOCK_STATES, intern.coords.shape[0])
        row, succ_coords, weight, rewards = expand(intern.coords[lo:hi])
        succ = intern(succ_coords)
        n_rows = (hi - lo) * n_actions
        n = intern.coords.shape[0]
        merged, inverse = np.unique(row * n + succ, return_inverse=True)
        weight = np.bincount(inverse, weights=weight, minlength=merged.size)
        row, succ = merged // n, merged % n
        total = np.bincount(row, weights=weight, minlength=n_rows)
        live = total[row] > P_MIN
        dead = np.flatnonzero(total <= P_MIN)
        rows = np.concatenate([row[live], dead])
        order = np.argsort(rows, kind="stable")  # within a row, successors stay sorted
        succ_parts.append(np.concatenate([succ[live], lo + dead // n_actions])[order])
        prob_parts.append(
            np.concatenate([weight[live] / total[row[live]], np.ones(dead.size)])[order]
        )
        counts.append(np.bincount(rows, minlength=n_rows))
        reward_parts.append(np.asarray(rewards, dtype=np.float64).reshape(-1))
        dead_rows += int(dead.size)
        lo = hi

    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))]).astype(np.int64)
    grid = GridMdp(
        mesh=float(mesh),
        coords=intern.coords,
        n_actions=n_actions,
        rewards=np.concatenate(reward_parts),
        indptr=indptr,
        succ=np.concatenate(succ_parts),
        prob=np.concatenate(prob_parts),
        discount=float(discount),
        initial_state=initial_state,
    )
    return grid, dead_rows


def solve(grid: GridMdp, vi_tol: float = 1e-4) -> PlanResult:
    """Value-iterate until the greedy policy is vi_tol-optimal in the grid MDP.

    Stops when the sweep residual drops below vi_tol * (1 - gamma) / (2 gamma),
    the standard greedy-loss threshold.  Each Jacobi sweep sums the CSR
    entries per flat row with one bincount; the policy is greedy against
    the values fed to the last sweep.
    """
    gamma = grid.discount
    threshold = vi_tol * (1.0 - gamma) / (2.0 * gamma)
    entry_row = np.repeat(np.arange(grid.indptr.size - 1), np.diff(grid.indptr))
    values = np.zeros(grid.n_states)
    residual = np.inf
    for iteration in range(1, MAX_VI_ITERATIONS + 1):
        future = np.bincount(
            entry_row, weights=grid.prob * values[grid.succ], minlength=grid.rewards.size
        )
        q = (grid.rewards + gamma * future).reshape(-1, grid.n_actions)
        new_values = q.max(axis=1)
        residual = float(np.max(np.abs(new_values - values))) if values.size else 0.0
        values = new_values
        if residual <= threshold:
            break
    else:
        raise ConvergenceError(
            f"value iteration still above residual {threshold:.3e} after "
            f"{MAX_VI_ITERATIONS} sweeps"
        )
    return PlanResult(
        values=values,
        policy=q.argmax(axis=1).astype(np.int32),
        residual=residual,
        iterations=iteration,
        metadata={
            "gridStates": grid.n_states,
            "mesh": grid.mesh,
            "viThreshold": threshold,
        },
    )


def plan_to_json_dict(grid: GridMdp, plan: PlanResult) -> dict:
    """Policy/value dump with integer lattice coordinates."""
    return {
        "mesh": grid.mesh,
        "states": grid.coords.tolist(),
        "values": plan.values.tolist(),
        "policy": plan.policy.tolist(),
        "initialState": grid.initial_state,
        "residual": plan.residual,
        "iterations": plan.iterations,
        "metadata": _json_safe(plan.metadata),
    }


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj
