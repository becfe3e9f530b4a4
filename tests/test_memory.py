"""Memory bounds of the stages that scale with n² or with the grid.

Each check reads the ``tracemalloc`` peak of one call: the bytes it
allocated and still held at its peak, numpy's buffers included, which is
deterministic.  Each bound is set from the model's own array sizes,
between what the stage held while it kept the table or index it now
avoids and what it holds now; each docstring gives both figures.
"""

import tracemalloc

import numpy as np

from psrplan.cassandra import parse_pomdp
from psrplan.decomposition import discover_basis, improve_to_spanner
from psrplan.grid import solve
from psrplan.model import PomdpModel
from psrplan.planner import build_grid, precompute_dynamics
from psrplan.zoo import random_pomdp


def peak_bytes(fn, *args):
    """Bytes ``fn(*args)`` allocated and held at its peak."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def lifted(n, k, n_rewards, seed):
    """n states, each an exact clone of base state s mod k: rank at most k."""
    base = random_pomdp(k, 2, 2, n_rewards, seed=seed)
    types = np.arange(n) % k
    share = 1.0 / np.bincount(types)[types]
    model = PomdpModel(
        states=[f"s{i}" for i in range(n)],
        actions=list(base.actions),
        observations=list(base.observations),
        reward_values=base.reward_values.copy(),
        transition=base.transition[types][:, :, types] * share,
        signal_kernel=base.signal_kernel[types],
        discount=base.discount,
        initial_belief=base.initial_belief[types] * share,
    )
    model.validate()
    return model


def wildcard_reward_text(n, na, no, seed=0, sep="\n"):
    """One T and one O row per (action, state), after its head and ``sep``,
    and one ``R: * : * : * : o`` line per observation: no reward entry
    names a departing state."""
    rng = np.random.default_rng(seed)
    lines = [
        "discount: 0.9", "values: reward", f"states: {n}", f"actions: {na}",
        f"observations: {no}", "start: uniform",
    ]
    for key, width in (("T", n), ("O", no)):
        for a in range(na):
            for s in range(n):
                row = " ".join(repr(float(p)) for p in rng.dirichlet(np.ones(width)))
                lines.append(f"{key}: {a} : {s}{sep}{row}")
    lines += [f"R: * : * : * : {o} {o % 2}" for o in range(no)]
    return "\n".join(lines) + "\n"


def test_parse_of_wildcard_rewards_allocates_no_departing_axis():
    """One more entry, naming a departing state but setting the same
    reward, makes the parser fill the dense (A, n, n, O) table; without it
    the parse must hold at least half of that table less.  Here the table
    is 2.56 MB, and the parse peaks at 3.51 MB without it, 6.05 MB with it;
    a parser that always fills it peaks at 6.05 MB for both."""
    n, na, no = 200, 2, 4
    lean = wildcard_reward_text(n, na, no)
    dense = lean + "R: * : 0 : * : 0 0\n"
    table = na * n * n * no * 8
    # the same model; parsing both first also keeps one-time imports out of the peaks
    assert parse_pomdp(lean).signal_kernel.tobytes() == parse_pomdp(dense).signal_kernel.tobytes()
    assert peak_bytes(parse_pomdp, lean) < peak_bytes(parse_pomdp, dense) - table / 2


def test_parse_peak_stays_under_twice_the_text():
    """The parse holds the file's lines, one run's rows and the tables; its
    statement table adds a few columns per statement.  Here the text is
    3.94 MB and the parse peaks at 7.44 MB (1.89 times the text); the
    line-by-line statement loop peaked at 7.51 MB."""
    text = wildcard_reward_text(300, 2, 4)
    parse_pomdp(text)  # keeps one-time imports out of the peak
    assert peak_bytes(parse_pomdp, text) < 2 * len(text)


def test_parse_holds_a_body_on_its_head_line_once():
    """With each row on its head's line, the statement table copies the
    row out of the line, which must then be let go: the parse peaks at
    8.37 MB for the 3.94 MB text (2.12 times, as the line-by-line loop),
    and at 11.38 MB (2.89 times) when it keeps the head lines as well."""
    text = wildcard_reward_text(300, 2, 4, sep=" ")
    parse_pomdp(text)
    assert peak_bytes(parse_pomdp, text) < 2.5 * len(text)


def test_discovery_holds_one_symbol_matrix_at_a_time():
    """A·Z = 16 symbol matrices of n² doubles each; discovery builds them
    one at a time (n = 200: 1.6 n² doubles at its peak, 16.9 with all)."""
    model = lifted(200, 3, 4, seed=0)
    assert model.n_actions * model.n_signals == 16
    assert peak_bytes(discover_basis, model) < 3 * model.n**2 * 8


def test_closure_batches_stay_small_beside_the_grid():
    """The closure expands BLOCK_BRANCHES (state, action, signal) branches
    per batch, so a batch's tables stay small beside the grid it builds.
    Here the grid holds 16,560 states and 132,480 nonzeros, and the peak
    above what the closure returns is 16 bytes per nonzero (2.16 MB), at
    the gather of the last entry list into the sweep's columns; with
    batches of 43,690 branches, 1 MiB of float64 per batch, it is 54."""
    m = random_pomdp(3, 2, 2, 2, seed=0)
    dec = improve_to_spanner(discover_basis(m))
    dyn = precompute_dynamics(m, dec)
    tracemalloc.start()
    try:
        grid = build_grid(m, dec, dyn, 0.02)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.n_states == 16_560
    assert peak - held < 36 * grid.succ.size


def test_solve_copies_no_grid_array():
    """The grid is stored in the sweep's layout, so the sweeps hold only
    the products, 8 bytes per nonzero, each column's rows, at most 8 more,
    and a few arrays per grid state: here 18 bytes per nonzero at the peak
    (2.80 MB).  Gathering a copy of the successors and probabilities from a
    (state, action)-row CSR, as solve did, peaked at 38 (5.90 MB)."""
    base = random_pomdp(3, 2, 2, 2, seed=2, discount=0.5)
    dec = improve_to_spanner(discover_basis(base))
    grid = build_grid(base, dec, precompute_dynamics(base, dec), 0.003)
    assert grid.succ.size > 100_000
    assert peak_bytes(solve, grid) < 24 * grid.succ.size
