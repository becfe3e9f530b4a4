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
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, StateCapExceededError, ValidationError

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


class Interner:
    """Integer rows -> ids, new rows numbered in order of first occurrence.

    Rows are compared through a fixed-width byte view, kept sorted for
    ``searchsorted``; the byte order is arbitrary but total, which is all
    the lookup needs.  ``coords`` holds the distinct rows in id order.
    """

    def __init__(self, dim):
        self.key_type = np.dtype((np.void, 8 * dim))
        self.keys = np.empty(0, dtype=self.key_type)  # sorted
        self.ids = np.empty(0, dtype=np.int64)  # id of each sorted key
        self.coords = np.empty((0, dim), dtype=np.int64)  # rows in id order

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
        uid[fresh] = self.coords.shape[0] + np.arange(fresh.size)
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
    intern = Interner(dim)

    def capped(coords):
        ids = intern(coords)
        if intern.coords.shape[0] > state_cap:
            raise StateCapExceededError(
                f"{name} exceeded the state cap of {state_cap}; {cap_hint}"
            )
        return ids

    if box is not None:
        side = 2 * box + 1
        if side**dim > state_cap:
            raise StateCapExceededError(
                f"full lattice has {side}^{dim} states, above the cap of "
                f"{state_cap}; {cap_hint}"
            )
        intern(np.indices((side,) * dim).reshape(dim, -1).T - box)
    initial_state = int(capped(start)[0])

    counts, succ_parts, prob_parts, reward_parts = [], [], [], []
    dead_rows = 0
    lo = 0
    while lo < intern.coords.shape[0]:
        hi = min(lo + BLOCK_STATES, intern.coords.shape[0])
        row, succ_coords, weight, rewards = expand(intern.coords[lo:hi])
        succ = capped(succ_coords)
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

    With v fed to a sweep and v' = Tv coming out, Delta = v' - v, the loop
    stops once the span sp(Delta) = max Delta - min Delta is at most
    vi_tol * (1 - gamma); vi_tol must be finite and > 0.  The policy is the
    first greedy action against v, so T_pi v = v' and its loss is
    V* - V^pi <= sp(Delta) / (1 - gamma) <= vi_tol at every state.  The
    MacQueen bounds V* in v' + gamma / (1 - gamma) * [min Delta, max Delta]
    hold at every state; the values returned are their midpoint, within
    gamma * vi_tol / 2 of V*, and ``residual`` is the last span.  The span
    shrinks as fast as the grid's dynamics mix, the sup norm of Delta only
    by about gamma per sweep: at gamma = 0.99 a grid that mixes well stops
    after tens of sweeps, not about 1,400.  One with several absorbing
    states of different rewards gains little.

    The sweep runs in an action-major layout built once per call: row
    ``a * N + s`` holds flat row ``s * n_actions + a``, so Q is an
    (n_actions, N) array and the max over actions is elementwise.  The CSR
    is split into columns, column j holding the j-th entry of every row
    with more than j entries.  Each Jacobi sweep gathers and weighs every
    entry at once, then adds the columns in order onto a zeroed Q: each row
    sums its entries in CSR order, starting from 0.0.  The layout still
    pays at tens of sweeps: on pipebench's high-discount workload, solve
    with it, layout build included, takes less than half the time of one
    bincount per sweep.
    """
    if not (math.isfinite(vi_tol) and vi_tol > 0):
        raise ValidationError(f"vi_tol must be finite and > 0, got {vi_tol}")
    gamma = grid.discount
    threshold = vi_tol * (1.0 - gamma)
    n, n_actions = grid.n_states, grid.n_actions
    widths = np.diff(grid.indptr).reshape(n, n_actions).T.reshape(-1)
    starts = grid.indptr[:-1].reshape(n, n_actions).T.reshape(-1)
    rewards = grid.rewards.reshape(n, n_actions).T.copy()
    columns, entries, lo = [], [np.empty(0, dtype=np.int64)], 0
    for j in range(int(widths.max(initial=0))):
        rows = np.flatnonzero(widths > j)
        entries.append(starts[rows] + j)
        full = rows.size == widths.size
        columns.append((slice(None) if full else rows, slice(lo, lo + rows.size)))
        lo += rows.size
    entries = np.concatenate(entries)
    succ, prob = grid.succ[entries], grid.prob[entries]

    terms = np.empty(entries.size)
    q = np.empty((n_actions, n))
    q_rows = q.reshape(-1)
    values = np.zeros(n)
    for iteration in range(1, MAX_VI_ITERATIONS + 1):
        # succ is in range, so "clip" clips nothing; unlike "raise", it
        # writes into out without a temporary copy
        np.take(values, succ, out=terms, mode="clip")
        terms *= prob
        q.fill(0.0)
        for rows, column in columns:
            q_rows[rows] += terms[column]
        q *= gamma  # with the next line, q = rewards + gamma * q bit for bit
        q += rewards
        new_values = q.max(axis=0)
        delta = new_values - values
        low, high = float(delta.min()), float(delta.max())
        residual = high - low
        if not math.isfinite(residual):
            raise ConvergenceError(
                f"value iteration residual is {residual} at sweep {iteration}"
            )
        values = new_values
        if residual <= threshold:
            break
    else:
        raise ConvergenceError(
            f"value iteration still above residual {threshold:.3e} after "
            f"{MAX_VI_ITERATIONS} sweeps"
        )
    scale = gamma / (1.0 - gamma)
    v0 = float(values[grid.initial_state])
    return PlanResult(
        values=values + scale * (0.5 * (low + high)),
        policy=q.argmax(axis=0).astype(np.int32),
        residual=residual,
        iterations=iteration,
        metadata={
            "gridStates": grid.n_states,
            "mesh": grid.mesh,
            "viThreshold": threshold,
            "lowerBound": v0 + scale * low,
            "upperBound": v0 + scale * high,
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
