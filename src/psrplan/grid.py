"""Finite grid MDPs over lattice points: the closure engine and the solver.

Both planners (coefficient lattice and belief simplex) reduce to one job:
grow the closure of a start point under a model-specific batched step,
intern every new lattice point, and value-iterate the induced finite MDP.
``closure`` does everything that is not model-specific; a planner only
supplies ``expand`` and ``reward``.  A GridMdp stores row r = a * N + s
(action a at state s) in the layout the Bellman sweep reads, jagged
diagonals without the row sort: ``succ`` and ``prob`` hold column after
column, column j the j-th entry of each row wider than j, rows ascending.
"""

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, StateCapExceededError, ValidationError

logger = logging.getLogger("psrplan")

MAX_VI_ITERATIONS = 1_000_000
P_MIN = 1e-9  # branches and rows at or below this probability are dropped
BLOCK_BRANCHES = 8_192  # (point, action, signal) branches per batch; no output depends on it
DEFAULT_STATE_CAP = 2_000_000  # both planners' default for closure's state_cap
DEFAULT_VI_TOL = 1e-4  # both planners' and the CLI's default for solve's vi_tol
# largest lattice radius: past 2**52 a float no longer holds every half
# cell, which rounding to the nearest lattice point subtracts, so both
# planners refuse finer meshes
MAX_RADIUS = 2**52


@dataclass
class GridMdp:
    mesh: float
    coords: np.ndarray  # (N, dim) integer lattice coordinates
    n_actions: int
    rewards: np.ndarray  # (n_actions * N,) reward of row a * N + s
    indptr: np.ndarray  # (n_actions * N + 1,) cumulative row widths
    succ: np.ndarray  # successor state of each entry, column by column
    prob: np.ndarray  # probability of each entry, as succ
    discount: float
    initial_state: int
    diagnostics: dict = field(default_factory=dict)
    index: "Interner" = None  # the closure's sorted keys, for locate

    @property
    def n_states(self):
        return self.coords.shape[0]

    def locate(self, coords) -> np.ndarray:
        """State ids of a (k, dim) stack of lattice points, off-grid points
        mapped to the nearest state (L1), the lower id on a tie.

        Off-grid points are expected when a policy meets beliefs outside the
        expanded closure: each fallback counts in diagnostics["actFallbacks"],
        the first one warns and later ones only log at debug level.
        """
        coords = np.asarray(coords, dtype=np.int64)
        sid = self.index.find(coords)
        ones = np.ones(self.coords.shape[1], dtype=np.int64)  # exact integer L1 sums
        for i in np.flatnonzero(sid < 0):
            sid[i] = np.argmin(np.abs(self.coords - coords[i]) @ ones)
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
    grid: object = None  # the grid solved, for policy execution and serialization
    # the rank-r planner's spanner, through which its policy maps beliefs, and
    # step operators: --sweep builds its other grids on both
    spanner: object = None
    dynamics: object = None


def batch_size(branches):
    """Points per batch when each point has ``branches`` branches: as many
    as BLOCK_BRANCHES holds, and at least one."""
    return max(1, BLOCK_BRANCHES // branches)


def sort_groups(keys):
    """``(order, starts)`` for a 1-d array of keys: ``order`` sorts them by
    one default, unstable ``argsort``, and ``starts[i]`` is True where the
    i-th sorted key differs from the one before it, so that each run of
    equal keys is one group."""
    order = np.argsort(keys)
    sorted_keys = keys[order]
    starts = np.empty(keys.size, dtype=bool)
    starts[:1] = True
    # ``!=``, not np.not_equal, which has no loop for byte-view keys
    starts[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return order, starts


def number_groups(order, starts):
    """Ids of grouped rows, numbered 0, 1, ... as the groups first occur.

    ``order`` lists the rows group by group and ``starts[i]`` is True where
    ``order[i]`` begins a group, as ``sort_groups`` returns them.  Returns
    ``(ids, first)``: ``ids[i]`` is the id of row i's group, and
    ``first[j]`` the index of the first row of group j.  The order of rows
    within a group does not matter, so an unstable sort will do.
    """
    if not order.size:  # minimum.reduceat refuses empty input
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    first = np.minimum.reduceat(order, np.flatnonzero(starts))
    # number the groups by their first rows, without sorting them
    is_first = np.zeros(order.size, dtype=bool)
    is_first[first] = True
    group_id = np.cumsum(is_first)[first]
    group_id -= 1
    group = np.cumsum(starts)
    group -= 1
    ids = np.empty(order.size, dtype=np.int64)
    ids[order] = group_id[group]
    return ids, np.flatnonzero(is_first)


def _search(run, run_ids, keys):
    """Ids of keys in one sorted run, -1 where absent."""
    if not run.size:
        return np.full(keys.size, -1, dtype=np.int64)
    pos = np.searchsorted(run, keys)
    np.minimum(pos, run.size - 1, out=pos)
    return np.where(run[pos] == keys, run_ids[pos], -1)


def _merged(keys, ids, more_keys, more_ids):
    """Two sorted runs of keys, with their ids, as one sorted run."""
    keys = np.concatenate([keys, more_keys])
    order = np.argsort(keys, kind="stable")  # timsort merges the two runs
    return keys[order], np.concatenate([ids, more_ids])[order]


class Interner:
    """Integer rows in the cube [-radius, radius]^dim -> ids, new rows
    numbered in order of first occurrence.

    Each row is one key.  Where (2 radius + 1)^dim fits in int64 the key is
    the row's mixed-radix number (row + radius) @ (2 radius + 1)^arange(dim),
    distinct for every point of the cube.  Wider lattices, such as rank 12
    at any epsilon or 12 hidden states at delta 0.05, are keyed by a
    fixed-width byte view of the row, whose order is arbitrary but total,
    which is all the lookup needs.  Ids do not depend on the key kind.

    A call groups its rows by one unstable sort (``sort_groups``) and looks
    up one row of each distinct key.  Only the keys not interned before are
    numbered: a new group's first row is the least row index in it, and one
    argsort of those first rows gives the new keys ids in order of first
    occurrence.  Every row then takes its group's id.  The interned keys
    are kept in two sorted runs for ``searchsorted``: ``keys`` and a recent
    run (``recent_keys``) that takes each call's new keys and merges into
    ``keys`` once it holds more than an eighth as many.  So no call copies
    all N keys, and a closure's cost per state stays flat as it grows.
    ``settle`` merges the runs for good.  ``coords`` holds the distinct
    rows in id order, a view of a buffer whose capacity doubles; ``find``
    looks rows up without interning them.  A row outside the cube raises
    when interned and is never found.
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
        self.recent_keys, self.recent_ids = self.keys, self.ids  # the second run
        self._buffer = np.empty((0, dim), dtype=np.int64)
        self.coords = self._buffer  # rows in id order

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
        """Ids of keys, -1 where not interned: ``keys``, then the recent run."""
        ids = _search(self.keys, self.ids, keys)
        if self.recent_keys.size:  # empty after every merge, and once settled
            miss = np.flatnonzero(ids < 0)
            ids[miss] = _search(self.recent_keys, self.recent_ids, keys[miss])
        return ids

    def find(self, coords):
        """Ids of the rows of a (k, dim) stack, -1 for rows never interned."""
        coords = self._rows(coords)
        inside = ((coords >= -self.radius) & (coords <= self.radius)).all(axis=1)
        ids = np.full(len(coords), -1, dtype=np.int64)
        ids[inside] = self._lookup(self._keys(coords[inside]))
        return ids

    def __call__(self, coords):
        coords = self._rows(coords)
        if coords.size and (coords.min() < -self.radius or coords.max() > self.radius):
            raise ValueError(f"lattice point outside [-{self.radius}, {self.radius}]^{self.dim}")
        keys = self._keys(coords)
        order, starts = sort_groups(keys)
        at = np.flatnonzero(starts)  # where each group begins in ``order``
        heads = order[at]  # a row of each distinct key, in key order
        uid = self._lookup(keys[heads])  # by group
        new = np.flatnonzero(uid < 0)
        if new.size:
            # the new groups' first rows, numbered as they first occur
            first = np.minimum.reduceat(order, at)[new]
            rank = np.argsort(first)
            uid[new[rank]] = self.coords.shape[0] + np.arange(new.size)
            self._append(coords[first[rank]])
            self.recent_keys, self.recent_ids = _merged(
                self.recent_keys, self.recent_ids, keys[heads[new]], uid[new]
            )
            if self.recent_keys.size > self.keys.size // 8:
                self._merge_runs()
        ids = np.empty(keys.size, dtype=np.int64)
        ids[order] = uid[np.cumsum(starts) - 1]
        return ids

    def _append(self, rows):
        n = self.coords.shape[0]
        end = n + rows.shape[0]
        if end > self._buffer.shape[0]:
            grown = np.empty((max(end, 2 * self._buffer.shape[0]), self.dim), dtype=np.int64)
            grown[:n] = self.coords
            self._buffer = grown
        self._buffer[n:end] = rows
        self.coords = self._buffer[:end]

    def _merge_runs(self):
        self.keys, self.ids = _merged(self.keys, self.ids, self.recent_keys, self.recent_ids)
        self.recent_keys, self.recent_ids = self.keys[:0], self.ids[:0]

    def settle(self):
        """Merge the two runs, so a lookup searches one, and give ``coords``
        an array of its own, not a view of the growth buffer."""
        self._merge_runs()
        self.coords = self._buffer = self.coords.copy()


def sweep_layout(rewards, widths, succ_parts, prob_parts):
    """GridMdp's ``rewards``, ``indptr``, ``succ`` and ``prob``, as a dict, from (N, n_actions)
    rewards and (state, action)-row CSR; each list of entry parts is emptied once joined."""
    starts = (np.cumsum(widths) - widths).reshape(rewards.shape).T.reshape(-1)
    widths = widths.reshape(rewards.shape).T.reshape(-1)

    def gathered(parts):
        joined = np.concatenate(parts)
        parts.clear()
        out, lo = np.empty_like(joined), 0
        for j in range(int(widths.max(initial=0))):
            at = starts[widths > j] + j
            out[lo : lo + at.size] = joined[at]
            lo += at.size
        return out

    return dict(succ=gathered(succ_parts), prob=gathered(prob_parts),
                rewards=rewards.T.reshape(-1), indptr=np.concatenate([[0], np.cumsum(widths)]))


def closure(
    start,
    expand,
    reward,
    *,
    n_actions,
    n_signals,
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
    are expanded in id order, ``batch_size(n_actions * n_signals)`` at a
    time: ``expand(coords)`` maps a (k, dim) block to ``(row, succ, weight)``,
    where entry i leads from the flat block row ``row[i]`` (state offset *
    n_actions + action) to lattice point ``succ[i]`` with weight
    ``weight[i]``.  Entries must come in (state, action, ...) order; new
    points are then numbered as a one-state-at-a-time FIFO expansion would
    number them, whatever the block size.  Rewards come from the settled
    grid: ``reward(coords)`` maps all N states' (N, dim) coordinates, in id
    order, to their (N, n_actions) rewards in one call.  So nothing the
    grid holds depends on BLOCK_BRANCHES.

    Duplicate (row, successor) entries merge by summing their weights in
    entry order, rows are renormalized, and a row of total weight at most
    P_MIN becomes a self-loop; a block's entries are grouped by one
    unstable sort of their (row, successor) keys.  The grid's ``index`` is
    the closure's settled ``Interner``: one sorted run of keys, and
    ``coords`` an array of its own.  More than ``state_cap`` states raise
    StateCapExceededError, its message ending in ``cap_hint``.  Returns
    ``(grid, dead_rows)``.
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

    block = batch_size(n_actions * n_signals)
    counts, succ_parts, prob_parts = [], [], []
    dead_rows = 0
    lo = 0
    while lo < intern.coords.shape[0]:
        hi = min(lo + block, intern.coords.shape[0])
        row, succ_coords, weight = expand(intern.coords[lo:hi])
        succ = capped(succ_coords)
        n_rows = (hi - lo) * n_actions
        n = intern.coords.shape[0]
        # merge duplicate (row, successor) entries, summing their weights in
        # entry order, into entries sorted by (row, successor)
        key = row * n + succ
        order, starts = sort_groups(key)
        inverse = np.empty(key.size, dtype=np.int64)
        inverse[order] = np.cumsum(starts) - 1
        heads = order[starts]
        weight = np.bincount(inverse, weights=weight, minlength=heads.size)
        row, succ = row[heads], succ[heads]
        total = np.bincount(row, weights=weight, minlength=n_rows)
        dead = np.flatnonzero(total <= P_MIN)
        if dead.size:  # a dead row keeps one entry: a self-loop of weight 1
            live = total[row] > P_MIN
            at = np.searchsorted(row[live], dead)
            row = np.insert(row[live], at, dead)
            succ = np.insert(succ[live], at, lo + dead // n_actions)
            weight = np.insert(weight[live], at, 1.0)
            total[dead] = 1.0
        succ_parts.append(succ)
        prob_parts.append(weight / total[row])
        counts.append(np.bincount(row, minlength=n_rows))
        dead_rows += int(dead.size)
        lo = hi

    intern.settle()
    return GridMdp(
        mesh=float(mesh),
        coords=intern.coords,
        n_actions=n_actions,
        **sweep_layout(reward(intern.coords), np.concatenate(counts), succ_parts, prob_parts),
        discount=float(discount),
        initial_state=initial_state,
        index=intern,
    ), dead_rows


def check_vi_tol(vi_tol: float):
    """Refuse a value-iteration tolerance that is not finite and > 0."""
    if not (math.isfinite(vi_tol) and vi_tol > 0):
        raise ValidationError(f"vi_tol must be finite and > 0, got {vi_tol}")


def solve(grid: GridMdp, vi_tol: float = DEFAULT_VI_TOL) -> PlanResult:
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

    Q is (n_actions, N); a sweep adds the grid's weighted columns in order
    onto a zeroed Q, so each row sums its entries in order, from 0.0.
    """
    check_vi_tol(vi_tol)
    gamma = grid.discount
    threshold = vi_tol * (1.0 - gamma)
    widths = np.diff(grid.indptr)
    rewards = grid.rewards.reshape(grid.n_actions, grid.n_states)
    columns, lo = [], 0
    for j in range(int(widths.max(initial=0))):
        rows = np.flatnonzero(widths > j)
        full = rows.size == widths.size
        columns.append((slice(None) if full else rows, slice(lo, lo + rows.size)))
        lo += rows.size

    terms = np.empty(grid.succ.size)
    q = np.empty(rewards.shape)
    q_rows = q.reshape(-1)
    values = np.zeros(grid.n_states)
    for iteration in range(1, MAX_VI_ITERATIONS + 1):
        # succ is in range, so "clip" clips nothing; unlike "raise", it
        # writes into out without a temporary copy
        np.take(values, grid.succ, out=terms, mode="clip")
        terms *= grid.prob
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


def timed(timings, name, fn, *args, **kwargs):
    """Run one stage, ``fn(*args, **kwargs)``; its wall time goes to ``timings[name]``."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    timings[name] = time.perf_counter() - t0
    return result


def finish_plan(grid: GridMdp, vi_tol: float, timings: dict, **settings) -> PlanResult:
    """Both planners' last stage: ``solve``, timed as "solve"; the metadata then
    records ``settings``, ``viTol``, ``stageSeconds`` and the grid's diagnostics."""
    result = timed(timings, "solve", solve, grid, vi_tol)
    result.metadata.update(
        settings,
        viTol=vi_tol,
        stageSeconds=timings,
        # as planned: act() counts its off-grid fallbacks in grid.diagnostics
        diagnostics=dict(grid.diagnostics),
    )
    return result


def plan_to_json_dict(plan: PlanResult) -> dict:
    """Policy/value dump of the plan's grid, with integer lattice coordinates.

    ``states``, ``values`` and ``policy`` stay ndarrays, which the CLI's
    JSON writer lays out as one ``%`` format each.
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
