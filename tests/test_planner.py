import numpy as np
import pytest

from psrplan import grid as gridmod
from psrplan.baseline import act_baseline, build_delta_grid, plan_baseline
from psrplan.cassandra import load_pomdp
from psrplan.decomposition import discover_basis, improve_to_spanner, solve_coefficients
from psrplan.errors import ConvergenceError, StateCapExceededError, ValidationError
from psrplan.model import Signal, belief_update
from psrplan.grid import P_MIN
from psrplan.planner import (
    SignalDynamics,
    act,
    belief_coefficients,
    build_grid,
    lattice_radius,
    plan,
    precompute_dynamics,
    round_to_grid,
    step_block,
)
from psrplan.oracle import exact_value
from psrplan.zoo import random_pomdp

from conftest import DATA
from reference import from_pomdp, fully_observable_chain, sequence_probability


def make_spanner(model):
    return improve_to_spanner(discover_basis(model))


def test_fair_coin_dynamics(fair_coin):
    span = make_spanner(fair_coin)
    dyn = precompute_dynamics(fair_coin, span)
    np.testing.assert_allclose(dyn.v, 0.5)
    np.testing.assert_allclose(dyn.W[:, :, 0, 0], 0.5)
    np.testing.assert_allclose(dyn.rho, 0.5)


def reference_dynamics(model, dec):
    """The per-symbol ``mu[σ] @ U`` loop precompute_dynamics replaced, with
    the step operators derived from its own W."""
    ma, nr = from_pomdp(model), model.n_rewards
    W = np.zeros((model.n_actions, model.n_signals, dec.rank, dec.rank))
    for a in range(model.n_actions):
        for o in range(model.n_observations):
            for rr in range(nr):
                ext = ma.mu[(a, Signal(o, rr))] @ dec.state_test_matrix
                W[a, o * nr + rr] = ext[dec.basis_states]
    v = W[..., 0].copy()
    rho = np.einsum("azi,z->ai", v, np.tile(model.reward_values, model.n_observations))
    G = np.ascontiguousarray(solve_coefficients(dec, W).transpose(2, 0, 1, 3).reshape(dec.rank, -1))
    return SignalDynamics(v=v, W=W, rho=rho, G=G)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dynamics_match_the_symbol_loop_bit_for_bit(seed):
    # step_block's einsum rounds differently on a strided v, so the steps
    # are compared as well as the arrays
    m = random_pomdp(5, 2, 2, 2, seed=seed)
    dec = make_spanner(m)
    dyn, ref = precompute_dynamics(m, dec), reference_dynamics(m, dec)
    for name in ("v", "W", "rho", "G"):
        np.testing.assert_array_equal(getattr(dyn, name), getattr(ref, name), err_msg=name)
    alpha = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(200, dec.rank))
    p, beta = step_block(dyn, alpha)
    for got, want in zip((p, beta), step_block(ref, alpha)):
        np.testing.assert_array_equal(got, want)
    # the per-block solve against M that the step operators replaced
    q = np.einsum("ki,azij->kazj", alpha, dyn.W)
    q /= np.where(p > P_MIN, p, 1.0)[..., None]
    np.testing.assert_array_equal(p, np.clip(np.einsum("ki,azi->kaz", alpha, dyn.v), 0.0, 1.0))
    np.testing.assert_allclose(beta, solve_coefficients(dec, q), rtol=0.0, atol=1e-12)


def test_signal_probabilities_sum_to_one():
    m = random_pomdp(4, 2, 2, 2, seed=31)
    dyn = precompute_dynamics(m, make_spanner(m))
    totals = dyn.v.sum(axis=1)  # (A, r)
    np.testing.assert_allclose(totals, 1.0, atol=1e-10)


def test_extension_of_empty_test_is_signal_probability(tiger):
    dyn = precompute_dynamics(tiger, make_spanner(tiger))
    np.testing.assert_allclose(dyn.W[:, :, :, 0], dyn.v, atol=1e-12)
    assert np.all(dyn.rho >= 0.0) and np.all(dyn.rho <= 1.0)


def test_tiger_listen_dynamics_from_model_parameters(tiger):
    m = tiger
    span = make_spanner(m)
    dyn = precompute_dynamics(m, span)
    a = m.actions.index("listen")
    raw = m.reward_values * m.reward_scale + m.reward_offset
    r_idx = int(np.argmin(np.abs(raw - -1.0)))
    sig = Signal(m.observations.index("hear-left"), r_idx)
    z = m.signal_index(sig)
    for i, s in enumerate(span.basis_states):
        e = np.eye(m.n)[s]
        want = sequence_probability(m, e, ((a, sig),))
        assert dyn.v[a, z, i] == pytest.approx(want, abs=1e-12)


def test_dynamics_match_filter_route_everywhere():
    m = random_pomdp(4, 2, 2, 2, seed=57)
    dec = make_spanner(m)
    dyn = precompute_dynamics(m, dec)
    for a in range(m.n_actions):
        for z in range(m.n_signals):
            sig = m.signal_from_index(z)
            for i, s in enumerate(dec.basis_states):
                e = np.eye(m.n)[s]
                for j, t in enumerate(dec.core_tests):
                    want = sequence_probability(m, e, ((a, sig),) + t)
                    assert dyn.W[a, z, i, j] == pytest.approx(want, abs=1e-10)


def test_step_from_basis_corner_matches_filter():
    m = random_pomdp(4, 2, 2, 2, seed=90)
    dec = make_spanner(m)
    dyn = precompute_dynamics(m, dec)
    # row i of the block is basis corner i
    p, beta = step_block(dyn, np.eye(dec.rank))
    for i, s in enumerate(dec.basis_states):
        e = np.eye(m.n)[s]
        for a in range(m.n_actions):
            for z in range(m.n_signals):
                p_ref, post = belief_update(m, e, a, z)
                assert p[i, a, z] == pytest.approx(p_ref, abs=1e-10)
                if p[i, a, z] <= P_MIN:
                    assert p_ref <= 1e-9
                    continue
                beta_ref = solve_coefficients(dec, post @ dec.state_test_matrix)
                np.testing.assert_allclose(beta[i, a, z], beta_ref, atol=1e-8)


def test_fair_coin_step_keeps_its_coefficient(fair_coin):
    span = make_spanner(fair_coin)
    dyn = precompute_dynamics(fair_coin, span)
    p, beta = step_block(dyn, np.array([[1.0]]))
    z = fair_coin.signal_index(Signal(0, 0))
    assert p[0, 0, z] == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(beta[0, 0, z], [1.0], atol=1e-12)


def test_step_total_probability_for_genuine_beliefs():
    m = random_pomdp(4, 2, 2, 2, seed=8)
    span = make_spanner(m)
    dyn = precompute_dynamics(m, span)
    rng = np.random.default_rng(4)
    beliefs = np.stack([rng.dirichlet([1.0] * m.n) for _ in range(10)])
    p, _ = step_block(dyn, belief_coefficients(span, beliefs))
    np.testing.assert_allclose(p.sum(axis=2), 1.0, rtol=0.0, atol=1e-9)


def test_round_to_grid_identity_and_ties():
    mesh = 0.05
    lattice = np.array([3, -7, 0, 40]) * mesh
    np.testing.assert_array_equal(round_to_grid(lattice, mesh), [3, -7, 0, 40])
    # exact half-cells round toward -inf
    np.testing.assert_array_equal(
        round_to_grid(np.array([0.5 * mesh, 1.5 * mesh, -0.5 * mesh]), mesh),
        [0, 1, -1],
    )
    # clamped into [-2, 2]
    np.testing.assert_array_equal(
        round_to_grid(np.array([5.0, -5.0]), mesh), [40, -40]
    )


def test_rounding_error_bounded_by_half_mesh_per_axis():
    rng = np.random.default_rng(11)
    mesh = 0.1 / 3
    for _ in range(200):
        alpha = rng.uniform(-2, 2, size=3)
        rounded = round_to_grid(alpha, mesh) * mesh
        assert np.abs(rounded - alpha).sum() <= 3 * mesh / 2 + 1e-12


def test_lattice_radius_handles_inexact_division():
    assert lattice_radius(0.05) == 40
    assert lattice_radius(0.1 / 2) == 40
    assert lattice_radius(0.1 / 3) == 60


def test_lattice_radius_stops_where_floats_stop_counting_cells():
    mesh = 2.0 / gridmod.MAX_RADIUS
    assert lattice_radius(mesh) == gridmod.MAX_RADIUS == 2**52
    # every lattice point out to the largest radius rounds onto itself
    m = np.array([1, 2**51 + 1, 2**52 - 3, 2**52 - 1, 2**52])
    np.testing.assert_array_equal(round_to_grid(m * mesh, mesh), m)
    np.testing.assert_array_equal(round_to_grid(-m * mesh, mesh), -m)
    for mesh in (1.0 / gridmod.MAX_RADIUS, 1e-300, 0.0):
        with pytest.raises(ValidationError, match="too fine"):
            lattice_radius(mesh)


def test_fair_coin_grid_is_single_self_loop(fair_coin):
    span = make_spanner(fair_coin)
    dyn = precompute_dynamics(fair_coin, span)
    grid = build_grid(fair_coin, span, dyn, epsilon=0.1)
    assert grid.n_states == 1
    # both signals collapse onto the single state, merging into one self-loop
    assert list(grid.succ) == [0]
    np.testing.assert_allclose(grid.prob, [1.0])
    np.testing.assert_allclose(grid.rewards, 0.5)


def test_fully_observable_grid_sits_on_corners():
    m = fully_observable_chain()
    span = make_spanner(m)
    dyn = precompute_dynamics(m, span)
    grid = build_grid(m, span, dyn, epsilon=0.1)
    points = grid.coords * grid.mesh
    corners = np.eye(2)
    for point in points:
        dists = [np.abs(point - c).sum() for c in corners]
        assert min(dists) <= 1e-9  # point-mass posteriors land exactly on corners
    assert grid.n_states == 2


def test_full_lattice_count_one_dimension(fair_coin):
    span = make_spanner(fair_coin)
    dyn = precompute_dynamics(fair_coin, span)
    grid = build_grid(fair_coin, span, dyn, epsilon=0.5, mode="full")
    m_max = lattice_radius(0.5)
    assert grid.n_states == 2 * m_max + 1


def test_reachable_grid_is_subset_of_full(tiger):
    span = make_spanner(tiger)
    dyn = precompute_dynamics(tiger, span)
    reach = build_grid(tiger, span, dyn, epsilon=0.4)
    full = build_grid(tiger, span, dyn, epsilon=0.4, mode="full")
    full_set = set(map(tuple, full.coords))
    assert set(map(tuple, reach.coords)) <= full_set
    r = span.rank
    assert full.n_states == (2 * lattice_radius(0.4 / r) + 1) ** r


def test_state_cap_aborts_expansion(tiger):
    span = make_spanner(tiger)
    dyn = precompute_dynamics(tiger, span)
    with pytest.raises(StateCapExceededError, match="state cap"):
        build_grid(tiger, span, dyn, epsilon=0.1, state_cap=5)


def assert_same_grid(other, reference, block):
    for key in ("coords", "indptr", "succ", "prob", "rewards"):
        np.testing.assert_array_equal(
            getattr(other, key), getattr(reference, key), err_msg=f"{key} at block {block}"
        )
    assert other.initial_state == reference.initial_state
    assert other.diagnostics == reference.diagnostics


def build_planner_grid(m, epsilon):
    span = make_spanner(m)
    return build_grid(m, span, precompute_dynamics(m, span), epsilon=epsilon)


# rewards come from the settled grid and new points are numbered as a FIFO
# expansion numbers them, so every array is exact at any block size; one
# state per block is the plain FIFO expansion


@pytest.mark.parametrize("builder", ("planner", "baseline"))
def test_block_size_does_not_change_the_grid(monkeypatch, tiger, builder):
    if builder == "planner":
        build, knob = build_planner_grid, 0.1
    else:
        build, knob = build_delta_grid, 0.05
    reference = build(tiger, knob)
    assert reference.n_states > 10
    for block in (1, 7, 512, 4096):
        monkeypatch.setattr(gridmod, "BLOCK_STATES", block)
        assert_same_grid(build(tiger, knob), reference, block)


@pytest.mark.parametrize("block", [1, 512])
def test_block_size_moves_rewards_by_ulps_only(monkeypatch, block):
    # by zero ulps: the rewards are no longer a per-block product
    m = random_pomdp(3, 2, 2, 2, seed=0)
    assert make_spanner(m).rank == 3
    reference = build_planner_grid(m, 0.1)
    assert reference.n_states > 512
    monkeypatch.setattr(gridmod, "BLOCK_STATES", block)
    assert_same_grid(build_planner_grid(m, 0.1), reference, block)


@pytest.mark.parametrize("block", [1, 7])
def test_block_size_does_not_change_a_simplex_grid_of_many_blocks(monkeypatch, block):
    m = random_pomdp(4, 2, 2, 2, seed=1, dirichlet=0.5)
    reference = build_delta_grid(m, 0.025)
    assert gridmod.BLOCK_STATES == 256 and reference.n_states > 512
    monkeypatch.setattr(gridmod, "BLOCK_STATES", block)
    assert_same_grid(build_delta_grid(m, 0.025), reference, block)


def test_epsilon_validated(tiger):
    span = make_spanner(tiger)
    dyn = precompute_dynamics(tiger, span)
    with pytest.raises(ValidationError):
        build_grid(tiger, span, dyn, epsilon=0.0)
    with pytest.raises(ValidationError):
        build_grid(tiger, span, dyn, epsilon=0.1, mode="bogus")


def test_build_grid_refuses_a_basis_never_improved(tiger):
    # the lattice covers [-2, 2]^r, which only an improved basis guarantees
    raw = discover_basis(tiger)
    assert np.isnan(raw.max_coefficient)
    dyn = precompute_dynamics(tiger, make_spanner(tiger))
    with pytest.raises(ValidationError, match="improve_to_spanner"):
        build_grid(tiger, raw, dyn, epsilon=0.1)


def one_action_grid(succ, rewards, discount):
    """Deterministic single-action GridMdp: state s moves to succ[s]."""
    n = len(succ)
    return gridmod.GridMdp(
        mesh=1.0,
        coords=np.arange(n)[:, None],
        n_actions=1,
        rewards=np.asarray(rewards, dtype=np.float64),
        indptr=np.arange(n + 1),
        succ=np.asarray(succ),
        prob=np.ones(n),
        discount=discount,
        initial_state=0,
    )


def test_value_iteration_geometric_series():
    grid = one_action_grid([0], [0.3], discount=0.9)
    res = gridmod.solve(grid, vi_tol=1e-6)
    assert res.values[0] == pytest.approx(0.3 / 0.1, abs=1e-4)


def test_value_iteration_two_state_alternation():
    # deterministic swap each step, rewards (1, 0), single action
    grid = one_action_grid([1, 0], [1.0, 0.0], discount=0.5)
    res = gridmod.solve(grid, vi_tol=1e-6)
    g = 0.5
    assert res.values[0] == pytest.approx(1.0 / (1 - g * g), abs=1e-5)
    assert res.values[1] == pytest.approx(g / (1 - g * g), abs=1e-5)


def test_value_iteration_stops_at_first_non_finite_residual():
    grid = one_action_grid([1, 0], [1.0, np.nan], discount=0.9)
    with pytest.raises(ConvergenceError, match="residual is nan at sweep 1"):
        gridmod.solve(grid)


def test_plan_fair_coin_value(fair_coin):
    res = plan(fair_coin, epsilon=0.1, vi_tol=1e-5)
    assert res.metadata["rank"] == 1
    want = 0.5 / (1 - fair_coin.discount)
    assert res.values[res.grid.initial_state] == pytest.approx(want, abs=1e-4)


def test_plan_tiger_listens_at_uniform(tiger):
    res = plan(tiger, epsilon=0.1, vi_tol=1e-4)
    _, best = exact_value(tiger, np.array([0.5, 0.5]), 12)
    chosen = act(res, np.array([[0.5, 0.5]]))[0]
    assert chosen == best == tiger.actions.index("listen")


def test_plan_matches_exact_mdp_on_fully_observable_model():
    m = fully_observable_chain(discount=0.5)
    res = plan(m, epsilon=0.1, vi_tol=1e-6)
    # independent exact solve of the underlying fully-observable MDP
    from psrplan.model import expected_reward_matrix

    r_sa = expected_reward_matrix(m)
    v = np.zeros(m.n)
    for _ in range(200):
        v = (r_sa + m.discount * np.einsum("saj,j->sa", m.transition, v)).max(axis=1)
    span = res.spanner
    tol = 1e-6 + 0.1 / (1 - m.discount) ** 2
    alpha = belief_coefficients(span, np.eye(m.n))
    sid = res.grid.index.find(round_to_grid(alpha, res.grid.mesh))
    assert np.all(sid >= 0)
    assert np.all(np.abs(res.values[sid] - v) <= tol)


def test_act_identity_on_expanded_corner(tiger):
    res = plan(tiger, epsilon=0.1)
    g0 = res.grid.initial_state
    b0 = tiger.initial_belief
    assert act(res, b0[None])[0] == res.policy[g0]


def test_act_rejects_an_unstacked_belief(tiger):
    res = plan(tiger, epsilon=0.1)
    with pytest.raises(ValueError):
        act(res, tiger.initial_belief)


def test_same_rounding_same_action(tiger):
    res = plan(tiger, epsilon=0.1)
    b1 = np.array([0.5, 0.5])
    b2 = np.array([0.501, 0.499])
    a1 = act(res, b1[None])[0]
    c1 = round_to_grid(belief_coefficients(res.spanner, b1), res.grid.mesh)
    c2 = round_to_grid(belief_coefficients(res.spanner, b2), res.grid.mesh)
    if np.array_equal(c1, c2):
        assert act(res, b2[None])[0] == a1


@pytest.mark.parametrize(
    "model, epsilon",
    [
        (random_pomdp(5, 2, 2, 2, seed=1207, discount=0.4), 0.5),
        # at epsilon 0.5 every sampled belief rounds onto clones' 5-state grid
        (load_pomdp(DATA / "clones.POMDP"), 0.3),
    ],
    ids=["random-n5", "clones"],
)
def test_stack_actions_match_one_row_calls(model, epsilon):
    beliefs = np.random.default_rng(11).dirichlet(np.ones(model.n), size=300)
    planned = plan(model, epsilon=epsilon)
    base = plan_baseline(model, delta=0.25)
    policies = {
        "planner": (planned.grid, lambda bs: act(planned, bs)),
        "baseline": (base.grid, lambda bs: act_baseline(base, bs)),
    }
    for name, (grid, policy) in policies.items():
        rows = [int(policy(b[None])[0]) for b in beliefs]
        fallbacks = grid.diagnostics.get("actFallbacks", 0)
        assert fallbacks > 0, name  # the stack must exercise the nearest-state path
        stacked = policy(beliefs)
        assert stacked.shape == (len(beliefs),), name
        np.testing.assert_array_equal(stacked, rows, err_msg=name)
        assert grid.diagnostics["actFallbacks"] == 2 * fallbacks, name


def test_plan_metadata_keeps_the_diagnostics_as_planned():
    # act()'s off-grid fallbacks count in grid.diagnostics, not in the
    # metadata the policy dump writes
    model = load_pomdp(DATA / "clones.POMDP")
    beliefs = np.random.default_rng(11).dirichlet(np.ones(model.n), size=300)
    planned = plan(model, epsilon=0.3)
    base = plan_baseline(model, delta=0.25)
    for result, policy in ((planned, act), (base, act_baseline)):
        planned_diagnostics = dict(result.grid.diagnostics)
        policy(result, beliefs)
        assert result.grid.diagnostics["actFallbacks"] > 0
        assert result.metadata["diagnostics"] == planned_diagnostics


def test_plan_metadata_times_each_stage_once():
    model = load_pomdp(DATA / "tiger.POMDP")
    stages = {
        "discoverBasis", "improveToSpanner", "precomputeDynamics", "buildGrid", "solve",
    }
    for result, names in (
        (plan(model, epsilon=0.3), stages),
        (plan_baseline(model, delta=0.25), {"buildGrid", "solve"}),
    ):
        seconds = result.metadata["stageSeconds"]
        assert set(seconds) == names
        assert all(isinstance(t, float) and t >= 0.0 for t in seconds.values())


def test_same_grid_cell_implies_close_coefficients():
    m = random_pomdp(4, 2, 2, 2, seed=3)
    span = make_spanner(m)
    eps = 0.2
    mesh = eps / span.rank
    rng = np.random.default_rng(5)
    cells = {}
    for _ in range(300):
        b = rng.dirichlet([1.0] * m.n)
        alpha = belief_coefficients(span, b)
        cells.setdefault(tuple(round_to_grid(alpha, mesh)), []).append(alpha)
    checked = 0
    for bucket in cells.values():
        for i in range(len(bucket)):
            for j in range(i + 1, len(bucket)):
                assert np.abs(bucket[i] - bucket[j]).sum() <= eps + 1e-12
                checked += 1
    assert checked > 0


def test_grid_reward_is_linear_for_genuine_beliefs():
    m = random_pomdp(4, 2, 2, 2, seed=13)
    span = make_spanner(m)
    dyn = precompute_dynamics(m, span)
    rng = np.random.default_rng(6)
    signal_rewards = np.tile(m.reward_values, m.n_observations)
    for _ in range(20):
        b = rng.dirichlet([1.0] * m.n)
        alpha = belief_coefficients(span, b)
        for a in range(m.n_actions):
            direct = sum(
                belief_update(m, b, a, z)[0] * signal_rewards[z]
                for z in range(m.n_signals)
            )
            assert alpha @ dyn.rho[a] == pytest.approx(direct, abs=1e-9)
