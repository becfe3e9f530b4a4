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
BLOCK_STATES = 256  # states expanded per batch; see closure for what depends on it
DEFAULT_STATE_CAP = 2_000_000  # both planners' default for closure's state_cap


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
    index: "Interner" = None  # the closure's sorted keys, for locate

    @property
    def n_states(self):
        return self.coords.shape[0]

    def locate(self, coords) -> np.ndarray:
        """State ids of a (k, dim) stack of lattice points, off-grid points
        mapped to the nearest state (L1).

        Off-grid points are expected when a policy meets beliefs outside the
        expanded closure: each fallback counts in diagnostics["actFallbacks"],
        the first one warns and later ones only log at debug level.
        """
        coords = np.asarray(coords, dtype=np.int64)
        sid = self.index.find(coords)
        for i in np.flatnonzero(sid < 0):
            sid[i] = np.argmin(np.abs(self.coords - coords[i]).sum(axis=1))
            count = self.diagnostics.get("actFallbacks", 0)
            self.diagnostics["actFallbacks"] = count + 1
            log = logger.warning if count == 0 else logger.debug
            log("belief rounds to unexpanded grid point %s; using nearest expanded state %s",
                tuple(coords[i].tolist()), tuple(self.coords[sid[i]].tolist()))
        return sid


@dataclass
class PlanResult:
    values: np.ndarray
    policy: np.ndarray
    residual: float
    iterations: int
    metadata: dict = field(default_factory=dict)
    # the grid solved, for policy execution and serialization
    grid: object = None
    # attached by the rank-r planner, whose policy maps beliefs through it;
    # --sweep builds its other grids on it
    spanner: object = None
    # the rank-r planner's step operators; --sweep builds its other grids on them
    dynamics: object = None


class Interner:
    """Integer rows in the cube [-radius, radius]^dim -> ids, new rows
    numbered in order of first occurrence.

    Each row is one key, and the keys are kept sorted for ``searchsorted``.
    Where (2 radius + 1)^dim fits in int64 the key is the row's mixed-radix
    number (row + radius) @ (2 radius + 1)^arange(dim), distinct for every
    point of the cube.  Wider lattices, such as rank 12 at any epsilon or 12
    hidden states at delta 0.05, are keyed by a fixed-width byte view of the
    row, whose order is arbitrary but total, which is all the lookup needs.
    Ids do not depend on the key kind.  ``coords`` holds the distinct rows
    in id order; ``find`` looks rows up without interning them.  A row
    outside the cube raises when interned and is never found.
    """

    def __init__(self, dim, radius):
        self.dim, self.radius = dim, int(radius)
        side = 2 * self.radius + 1
        if side**dim <= np.iinfo(np.int64).max:  # Python ints, exact
            self.radix = side ** np.arange(dim, dtype=np.int64)
            key_type = np.dtype(np.int64)
        else:
            self.radix = None
            key_type = np.dtype((np.void, 8 * dim))
        self.keys = np.empty(0, dtype=key_type)  # sorted
        self.ids = np.empty(0, dtype=np.int64)  # id of each sorted key
        self.coords = np.empty((0, dim), dtype=np.int64)  # rows in id order

    def _rows(self, coords):
        coords = np.ascontiguousarray(coords, dtype=np.int64)
        # one key per row: an unstacked point fails here, not later
        if coords.ndim != 2 or coords.shape[1] != self.dim:
            raise ValueError(
                f"expected a (k, {self.dim}) stack of lattice points, got shape {coords.shape}"
            )
        return coords

    def _keys(self, coords):
        """One key per row of a (k, dim) stack inside the cube."""
        if self.radix is None:
            return coords.view(self.keys.dtype).reshape(len(coords))
        return (coords + self.radius) @ self.radix

    def _lookup(self, keys):
        """Sorted positions of keys, and their ids or -1 where not interned."""
        pos = np.searchsorted(self.keys, keys)
        seen = pos < self.keys.size
        seen[seen] = self.keys[pos[seen]] == keys[seen]
        ids = np.full(keys.size, -1, dtype=np.int64)
        ids[seen] = self.ids[pos[seen]]
        return pos, ids

    def find(self, coords):
        """Ids of the rows of a (k, dim) stack, -1 for rows never interned."""
        coords = self._rows(coords)
        inside = ((coords >= -self.radius) & (coords <= self.radius)).all(axis=1)
        ids = np.full(len(coords), -1, dtype=np.int64)
        ids[inside] = self._lookup(self._keys(coords[inside]))[1]
        return ids

    def __call__(self, coords):
        coords = self._rows(coords)
        if coords.size and (coords.min() < -self.radius or coords.max() > self.radius):
            raise ValueError(f"lattice point outside [-{self.radius}, {self.radius}]^{self.dim}")
        uniq, first, inverse = np.unique(
            self._keys(coords), return_index=True, return_inverse=True
        )
        pos, uid = self._lookup(uniq)
        unseen = uid < 0
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
    radius,
    name="grid",
    full=False,
):
    """Closure of the lattice point ``start`` under ``expand``, as a GridMdp.

    Every lattice point lies in the cube [-radius, radius]^dim, whose size
    sets the closure's key kind (see ``Interner``).  With ``full``, every
    point of the cube gets an id first, in C order, then ``start``.  States
    are expanded in id order, up to BLOCK_STATES at a time:
    ``expand(coords)`` maps a (k, dim) block to
    ``(row, succ, weight, rewards)``, where entry i leads from the flat
    block row ``row[i]`` (state offset * n_actions + action) to lattice
    point ``succ[i]`` with weight ``weight[i]``, and ``rewards`` is
    (k, n_actions).  Entries must come in (state, action, ...) order; new
    points are then numbered as a one-state-at-a-time FIFO expansion would
    number them, whatever the block size.  So ids, ``succ`` and ``prob``
    do not depend on BLOCK_STATES; ``rewards`` are what ``expand`` returns,
    and where it computes them by one BLAS product per block (as the
    planner does) their rounding may follow the block's shape by ulps.

    Duplicate (row, successor) entries merge by summing their weights, rows
    are renormalized, and a row of total weight at most P_MIN becomes a
    self-loop.  More than ``state_cap`` states raise StateCapExceededError,
    its message ending in ``cap_hint``.  Returns ``(grid, dead_rows)``.
    """
    start = np.asarray(start, dtype=np.int64).reshape(1, -1)
    dim = start.shape[1]
    intern = Interner(dim, radius)

    def capped(coords):
        ids = intern(coords)
        if intern.coords.shape[0] > state_cap:
            raise StateCapExceededError(
                f"{name} exceeded the state cap of {state_cap}; {cap_hint}"
            )
        return ids

    if full:
        side = 2 * radius + 1
        if side**dim > state_cap:
            raise StateCapExceededError(
                f"full lattice has {side}^{dim} states, above the cap of "
                f"{state_cap}; {cap_hint}"
            )
        intern(np.indices((side,) * dim).reshape(dim, -1).T - radius)
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
        index=intern,
    )
    return grid, dead_rows


def check_vi_tol(vi_tol: float):
    """Refuse a value-iteration tolerance that is not finite and > 0."""
    if not (math.isfinite(vi_tol) and vi_tol > 0):
        raise ValidationError(f"vi_tol must be finite and > 0, got {vi_tol}")


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
    check_vi_tol(vi_tol)
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
        grid=grid,
        metadata={
            "gridStates": grid.n_states,
            "mesh": grid.mesh,
            "viThreshold": threshold,
            "lowerBound": v0 + scale * low,
            "upperBound": v0 + scale * high,
        },
    )


def plan_to_json_dict(plan: PlanResult) -> dict:
    """Policy/value dump of the plan's grid, with integer lattice coordinates.

    ``states``, ``values`` and ``policy`` stay ndarrays, which the CLI's
    JSON writer encodes in one C-encoder call each.
    """
    grid = plan.grid
    return {
        "mesh": grid.mesh,
        "states": grid.coords,
        "values": plan.values,
        "policy": plan.policy,
        "initialState": grid.initial_state,
        "residual": plan.residual,
        "iterations": plan.iterations,
        "metadata": plan.metadata,
    }
