import numpy as np
import pytest

from psrplan import oracle as oraclemod
from psrplan import planner as plannermod
from psrplan.automaton import numerical_rank, stabilized_rank
from psrplan.decomposition import (
    RANK_TOL,
    CoreDecomposition,
    discover_basis,
    improve_to_spanner,
    solve_coefficients,
    to_json_dict,
)
from psrplan.errors import DegenerateBasisError
from psrplan.model import PomdpModel
from psrplan.zoo import random_pomdp

from reference import (
    cloned_states,
    enumerate_tests,
    fully_observable_chain,
    hankel_submatrix,
    near_duplicate_states,
    sequence_probability,
    state_coefficients,
)

NEAR_LOW_RANK_ETAS = np.logspace(-3, -7, 17)


def near_low_rank(seed, eta, discount=0.9, n=12, k=3):
    """(1 - eta) * a rank-k model + eta * a dense random one, both on n states.

    The rank-k part lifts ``random_pomdp(k, ...)``: state s behaves like
    base state s mod k, and each base successor's mass is split evenly
    across its clones.  The mix has rank up to n, with the extra
    directions of order eta.
    """
    base = random_pomdp(k, 2, 2, 2, seed=seed, discount=discount)
    noise = random_pomdp(n, 2, 2, 2, seed=seed, discount=discount)
    types = np.arange(n) % k
    share = 1.0 / np.bincount(types)[types]
    model = PomdpModel(
        states=[f"s{i}" for i in range(n)],
        actions=list(base.actions),
        observations=list(base.observations),
        reward_values=base.reward_values.copy(),
        transition=(1 - eta) * base.transition[types][:, :, types] * share
        + eta * noise.transition,
        signal_kernel=(1 - eta) * base.signal_kernel[types] + eta * noise.signal_kernel,
        discount=discount,
        initial_belief=base.initial_belief[types] * share,
    )
    model.validate()
    return model


def residual(dec, alpha, target):
    """Max-norm residual of M^T alpha = target."""
    return np.max(np.abs(alpha @ dec.M - target))


def test_fair_coin_basis_is_trivial(fair_coin):
    dec = discover_basis(fair_coin)
    assert dec.rank == 1
    assert dec.basis_states == [0]
    assert dec.core_tests == [()]
    np.testing.assert_array_equal(dec.M, [[1.0]])


def test_fully_observable_needs_one_extension():
    m = fully_observable_chain()
    dec = discover_basis(m)
    assert dec.rank == 2
    assert len(dec.core_tests[1]) == 1  # a one-step extension of the empty test
    assert numerical_rank(dec.M) == 2
    rows = list(np.eye(m.n))
    h = hankel_submatrix(m, rows, enumerate_tests(m, 2))
    assert numerical_rank(h) == 2


def test_tiger_rank_two_matches_hankel_audit(tiger):
    dec = discover_basis(tiger)
    assert dec.rank == 2
    rows = list(np.eye(tiger.n))
    h = hankel_submatrix(tiger, rows, enumerate_tests(tiger, 3))
    assert numerical_rank(h) == 2


def test_near_duplicate_model_still_rank_two():
    m = near_duplicate_states(eps=1e-3)
    dec = discover_basis(m)
    assert dec.rank == 2


def test_cloned_states_collapse_to_rank_two():
    m = cloned_states()
    dec = discover_basis(m)
    assert dec.rank == 2


def test_rank_agreement_on_random_corpus():
    for seed in range(8):
        m = random_pomdp(4, 2, 2, 2, seed=100 + seed)
        dec = discover_basis(m)
        assert dec.rank == stabilized_rank(m, max_len=4)


def test_basis_matrix_invariants():
    for seed in range(4):
        m = random_pomdp(5, 2, 2, 2, seed=seed)
        dec = discover_basis(m)
        assert dec.rank <= m.n
        np.testing.assert_allclose(dec.M[:, 0], 1.0)  # empty-test column
        sv = np.linalg.svd(dec.M, compute_uv=False)
        assert sv[-1] > RANK_TOL * sv[0]
        # discovery is deterministic
        again = discover_basis(m)
        assert again.basis_states == dec.basis_states
        assert again.core_tests == dec.core_tests


def test_near_low_rank_models_get_a_basis_the_guard_accepts():
    # admission and the guard must apply one rule: a gap test with a
    # tolerance of its own admits rows the guard rejects on 8 of these 136
    for seed in range(1, 9):
        for eta in NEAR_LOW_RANK_ETAS:
            m = near_low_rank(seed, eta)
            dec = discover_basis(m)
            assert np.linalg.cond(dec.M) <= 1.0 / RANK_TOL
            plannermod.precompute_dynamics(m, improve_to_spanner(dec))


@pytest.mark.parametrize(
    "seed, eta",
    [(1, NEAR_LOW_RANK_ETAS[12]), (2, NEAR_LOW_RANK_ETAS[13]), (6, NEAR_LOW_RANK_ETAS[0])],
    ids=["seed1-eta1e-6", "seed2-eta5.6e-7", "seed6-eta1e-3"],
)
def test_near_low_rank_plans_meet_the_accuracy_bound(seed, eta):
    # three of those 8 models; the bound is the one the CLI applies
    epsilon = 0.1
    m = near_low_rank(seed, eta, discount=0.4)
    result = plannermod.plan(m, epsilon=epsilon)
    horizon = oraclemod.horizon_for_slack(m.discount, 1e-2)
    v_opt, _, (v_pol,), _ = oraclemod.search(
        m, m.initial_belief, horizon, [lambda b: plannermod.act(result, b)]
    )
    slack = oraclemod.truncation_slack(m.discount, horizon)
    assert v_opt - v_pol <= epsilon / (1.0 - m.discount) ** 4 + 2 * slack


def test_solve_reproduces_basis_rows(tiger):
    dec = discover_basis(tiger)
    for i in range(dec.rank):
        alpha = solve_coefficients(dec, dec.M[i])
        np.testing.assert_allclose(alpha, np.eye(dec.rank)[i], atol=1e-10)
        assert residual(dec, alpha, dec.M[i]) <= 1e-9


def test_solve_is_linear(tiger):
    dec = discover_basis(tiger)
    target = 0.5 * dec.M[0] + 0.5 * dec.M[1]
    alpha = solve_coefficients(dec, target)
    np.testing.assert_allclose(alpha, [0.5, 0.5], atol=1e-10)


def test_solved_coefficients_predict_held_out_tests(tiger):
    dec = discover_basis(tiger)
    b = np.array([0.5, 0.5])
    target = np.array(
        [sequence_probability(tiger, b, t) for t in dec.core_tests]
    )
    alpha = solve_coefficients(dec, target)
    assert residual(dec, alpha, target) <= 1e-9
    basis_beliefs = [np.eye(tiger.n)[s] for s in dec.basis_states]
    held_out = [t for t in enumerate_tests(tiger, 3) if t not in dec.core_tests][:10]
    for t in held_out:
        direct = sequence_probability(tiger, b, t)
        combined = sum(
            alpha[i] * sequence_probability(tiger, bb, t)
            for i, bb in enumerate(basis_beliefs)
        )
        assert direct == pytest.approx(combined, abs=1e-9)


def test_degenerate_matrix_rejected():
    M = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    dec = CoreDecomposition(
        basis_states=[0, 1],
        core_tests=[(), ()],
        state_test_matrix=M,
    )
    with pytest.raises(DegenerateBasisError, match="condition"):
        solve_coefficients(dec, np.array([1.0, 1.0]))


def test_state_coefficients_use_the_condition_guard():
    # condition about 2.5e13; an unguarded solve gives coefficients of +-2.5e12
    M = np.array([[1.0, 1.0], [1.0, 1.0 + 1.6e-13]])
    dec = CoreDecomposition(
        basis_states=[0, 1],
        core_tests=[(), ()],
        state_test_matrix=np.vstack([M, [[0.5, 0.1]]]),
    )
    assert dec.condition_ratio == pytest.approx(2.5e13, rel=1e-3)
    with pytest.raises(DegenerateBasisError, match="condition"):
        state_coefficients(dec)


def test_spanner_keeps_full_basis_fixed():
    m = fully_observable_chain()
    dec = discover_basis(m)
    span = improve_to_spanner(dec)
    assert span.swap_count == 0
    assert span.basis_states == dec.basis_states
    np.testing.assert_array_equal(span.M, dec.M)


def test_improvement_returns_a_new_basis_with_its_ledger():
    m = near_duplicate_states(eps=1e-3)
    found = discover_basis(m)
    dec = CoreDecomposition(
        basis_states=[0, 1], core_tests=found.core_tests, state_test_matrix=found.state_test_matrix
    )
    # a basis never improved: empty ledger, no swaps, no coefficient bound
    assert dec.det_log_ledger == [] and dec.swap_count == 0
    assert np.isnan(dec.max_coefficient)
    span = improve_to_spanner(dec)
    assert isinstance(span, CoreDecomposition)
    assert dec.basis_states == [0, 1] and dec.det_log_ledger == []
    assert span.swap_count == len(span.det_log_ledger) - 1 >= 1
    assert span.det_log_ledger[-1] == np.linalg.slogdet(span.M)[1]
    assert span.max_coefficient == np.max(np.abs(state_coefficients(span))) <= 2.0


def test_near_duplicate_basis_gets_swapped_out():
    m = near_duplicate_states(eps=1e-3)
    found = discover_basis(m)
    # a poor basis on purpose: s1 is within eps of s0
    U = found.state_test_matrix
    dec = CoreDecomposition(
        basis_states=[0, 1],
        core_tests=found.core_tests,
        state_test_matrix=U,
    )
    span = improve_to_spanner(dec)
    assert span.swap_count >= 1
    ledger = span.det_log_ledger
    diffs = np.diff(ledger)
    assert np.all(diffs >= np.log(2.0) - 1e-9)
    # the well-separated state s2 must enter the basis
    assert 2 in span.basis_states
    assert np.max(np.abs(state_coefficients(span))) <= 2.0 + 1e-6


@pytest.mark.parametrize(
    "model",
    [
        random_pomdp(4, 2, 2, 2, seed=727220753, discount=0.5, dirichlet=0.05),
        random_pomdp(5, 2, 2, 2, seed=239698436, discount=0.9, dirichlet=0.05),
    ],
    ids=["lift6", "lift7"],
)
def test_sparse_bases_get_their_full_rank(model):
    # the sparse lift6 and lift7 bases of pipebench's plan-lifted workload
    span = improve_to_spanner(discover_basis(model))
    assert span.rank == stabilized_rank(model, max_len=5)
    assert np.max(np.abs(state_coefficients(span))) <= 2.0


def test_spanner_coefficients_bounded_everywhere():
    models = [
        fully_observable_chain(),
        near_duplicate_states(),
        cloned_states(),
    ] + [random_pomdp(5, 2, 2, 2, seed=s) for s in range(5)]
    for m in models:
        span = improve_to_spanner(discover_basis(m))
        coeffs = state_coefficients(span)
        assert np.max(np.abs(coeffs)) <= 2.0 + 1e-6
        # per-state audit through the public solver
        for s in range(m.n):
            target = span.state_test_matrix[s]
            alpha = solve_coefficients(span, target)
            assert residual(span, alpha, target) <= 1e-8
            assert np.max(np.abs(alpha)) <= 2.0 + 1e-6


def test_spanner_covers_random_beliefs():
    m = random_pomdp(5, 2, 2, 2, seed=77)
    dec = improve_to_spanner(discover_basis(m))
    rng = np.random.default_rng(0)
    for _ in range(100):
        b = rng.dirichlet([1.0] * m.n)
        target = np.array(
            [sequence_probability(m, b, t) for t in dec.core_tests]
        )
        alpha = solve_coefficients(dec, target)
        assert residual(dec, alpha, target) <= 1e-8
        assert np.max(np.abs(alpha)) <= 2.0 + 1e-6


def test_json_dump_shape(tiger):
    span = improve_to_spanner(discover_basis(tiger))
    d = to_json_dict(span)
    assert d["rank"] == 2
    assert d["basisStates"] == span.basis_states
    assert d["coreTests"][0] == []
    assert len(d["detLogLedger"]) == span.swap_count + 1
    assert d["spannerBound"] == 2.0
    coeffs = np.abs(state_coefficients(span))
    assert d["maxCoefficient"] == np.max(coeffs) <= 2.0
    assert d["conditionRatio"] == span.condition_ratio >= 1.0
