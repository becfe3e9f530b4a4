import itertools

import numpy as np
import pytest

from psrplan.automaton import (
    hankel_rank_profile,
    numerical_rank,
    stabilized_rank,
    state_test_values,
)
from psrplan.cassandra import load_pomdp
from psrplan.decomposition import RANK_TOL, CoreDecomposition
from psrplan.errors import ValidationError
from psrplan.model import Signal
from psrplan.zoo import random_pomdp

from conftest import DATA
from reference import (
    MultiplicityAutomaton,
    enumerate_tests,
    evaluate,
    from_pomdp,
    fully_observable_chain,
    hankel_submatrix,
    sequence_probability,
)


def substring_acceptor():
    """3-state automaton accepting exactly the strings containing 'ab'."""
    mu = {
        "a": np.array([[0.0, 1, 0], [0, 1, 0], [0, 0, 1]]),
        "b": np.array([[1.0, 0, 0], [0, 0, 1], [0, 0, 1]]),
        "c": np.array([[1.0, 0, 0], [1, 0, 0], [0, 0, 1]]),
        "d": np.array([[1.0, 0, 0], [1, 0, 0], [0, 0, 1]]),
    }
    return MultiplicityAutomaton(
        size=3,
        alphabet=["a", "b", "c", "d"],
        mu=mu,
        terminal=np.array([0.0, 0.0, 1.0]),
        initial=np.array([1.0, 0.0, 0.0]),
    )


def test_substring_acceptor_basics():
    ma = substring_acceptor()
    assert evaluate(ma, "ab") == 1.0
    assert evaluate(ma, "ba") == 0.0
    assert evaluate(ma, "") == 0.0


def test_substring_acceptor_exhaustive_to_length_5():
    ma = substring_acceptor()
    count = 0
    for length in range(6):
        for word in itertools.product("abcd", repeat=length):
            w = "".join(word)
            expected = 1.0 if "ab" in w else 0.0
            assert evaluate(ma, w) == expected, w
            count += 1
    assert count == 1 + 4 + 16 + 64 + 256 + 1024


def test_unknown_symbol_rejected():
    with pytest.raises(ValidationError, match="unknown symbol"):
        evaluate(substring_acceptor(), "ax")


def test_fair_coin_automaton(fair_coin):
    ma = from_pomdp(fair_coin)
    assert ma.size == 1
    for sym in ma.alphabet:
        np.testing.assert_allclose(ma.mu[sym], [[0.5]])
    word = [(0, Signal(0, 0)), (0, Signal(1, 0)), (0, Signal(0, 0))]
    assert evaluate(ma, word) == pytest.approx(0.5**3, abs=1e-12)


# (states, actions, observations, reward values) of random models
RANDOM_SHAPES = [(2, 1, 1, 1), (3, 2, 2, 2), (5, 3, 2, 1), (6, 2, 3, 2), (4, 1, 3, 3), (7, 2, 2, 2)]


@pytest.mark.parametrize("source", ["tiger", "fair_coin", "clones", *RANDOM_SHAPES], ids=str)
def test_symbol_matrices_are_the_reference_automaton_bit_for_bit(source):
    if isinstance(source, str):
        m = load_pomdp(DATA / f"{source}.POMDP")
    else:
        m = random_pomdp(*source, seed=sum(source), dirichlet=0.5)
    ma = from_pomdp(m)
    mats = m.symbol_matrices()
    assert isinstance(mats, list) and len(mats) == len(ma.alphabet)
    for k, (sym, mat) in enumerate(zip(ma.alphabet, mats)):
        assert sym == (k // m.n_signals, m.signal_from_index(k % m.n_signals))
        assert mat.shape == ma.mu[sym].shape
        np.testing.assert_array_equal(mat.view(np.uint64), ma.mu[sym].view(np.uint64))


def test_per_action_mass_conservation():
    m = random_pomdp(5, 3, 2, 2, seed=3)
    ma = from_pomdp(m)
    for a in range(m.n_actions):
        total = sum(
            ma.mu[sym].sum(axis=1) for sym in ma.alphabet if sym[0] == a
        )
        np.testing.assert_allclose(total, np.ones(m.n), atol=1e-12)


def test_word_values_match_filter_on_random_model():
    m = random_pomdp(5, 2, 2, 1, seed=17)
    ma = from_pomdp(m)
    b0 = m.initial_belief
    for t in enumerate_tests(m, 4):
        lhs = evaluate(ma, t)
        rhs = sequence_probability(m, b0, t)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_point_mass_empty_test_hits_terminal(tiger):
    ma = from_pomdp(tiger)
    for i in range(tiger.n):
        e = np.zeros(tiger.n)
        e[i] = 1.0
        assert evaluate(ma, (), e) == 1.0


def test_test_probability_is_bilinear(tiger):
    ma = from_pomdp(tiger)
    t = ((0, Signal(0, 1)), (0, Signal(1, 1)))
    e1, e2 = np.eye(2)
    mixed = evaluate(ma, t, 0.3 * e1 + 0.7 * e2)
    split = 0.3 * evaluate(ma, t, e1) + 0.7 * evaluate(ma, t, e2)
    assert mixed == pytest.approx(split, abs=1e-12)


def test_tiger_one_step_listen_probability(tiger):
    m = tiger
    ma = from_pomdp(m)
    a = m.actions.index("listen")
    r_idx = int(np.argmin(np.abs(m.reward_values * m.reward_scale + m.reward_offset - -1.0)))
    sig = Signal(m.observations.index("hear-left"), r_idx)
    e_left = np.array([1.0, 0.0])
    got = evaluate(ma, ((a, sig),), e_left)
    # direct summation over arriving states
    z = m.signal_index(sig)
    want = sum(m.transition[0, a, j] * m.signal_kernel[j, a, z] for j in range(m.n))
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.85, abs=1e-12)


def test_mu_is_multiplicative():
    m = random_pomdp(4, 2, 2, 2, seed=23)
    ma = from_pomdp(m)
    rng = np.random.default_rng(0)
    syms = ma.alphabet
    for _ in range(10):
        w1 = [syms[rng.integers(len(syms))] for _ in range(2)]
        w2 = [syms[rng.integers(len(syms))] for _ in range(2)]
        prod = np.eye(m.n)
        for s in w1 + w2:
            prod = prod @ ma.mu[s]
        left = np.eye(m.n)
        for s in w1:
            left = left @ ma.mu[s]
        right = np.eye(m.n)
        for s in w2:
            right = right @ ma.mu[s]
        np.testing.assert_allclose(prod, left @ right, atol=1e-12)


def test_hankel_fair_coin_rank_one(fair_coin):
    rows = [np.array([1.0])]
    cols = enumerate_tests(fair_coin, 2)
    h = hankel_submatrix(fair_coin, rows, cols)
    assert numerical_rank(h) == 1


def test_hankel_lambda_column_is_ones(tiger):
    rows = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    h = hankel_submatrix(tiger, rows, [()])
    np.testing.assert_array_equal(h, np.ones((2, 1)))
    assert numerical_rank(h) == 1


def test_hankel_fully_observable_rank_two():
    m = fully_observable_chain()
    rows = list(np.eye(2))
    cols = [t for t in enumerate_tests(m, 1) if len(t) == 1]
    h = hankel_submatrix(m, rows, cols)
    assert numerical_rank(h) == 2


def test_numerical_rank_is_the_rank_the_conditioning_guard_accepts():
    # at the boundary σ_max / σ_min = 1 / RANK_TOL, the guard accepts M
    boundary = np.diag([1.0, RANK_TOL])
    dec = CoreDecomposition(basis_states=[0, 1], core_tests=[(), ()], state_test_matrix=boundary)
    assert dec.well_conditioned
    assert numerical_rank(boundary) == 2
    assert numerical_rank(np.diag([1.0, RANK_TOL / 2])) == 1
    assert numerical_rank(np.zeros((2, 2))) == 0


def test_rank_profile_bounded_by_state_count():
    for seed in range(4):
        m = random_pomdp(5, 2, 2, 2, seed=seed)
        ranks = hankel_rank_profile(m, max_len=3)
        assert all(r <= m.n for r in ranks)
        assert ranks == sorted(ranks)  # ranks can only grow with more columns


def test_stabilized_rank_matches_filter_route():
    m = random_pomdp(4, 2, 2, 1, seed=9)
    r = stabilized_rank(m, max_len=4)
    rows = list(np.eye(m.n))
    cols = enumerate_tests(m, 3)
    h = hankel_submatrix(m, rows, cols)
    assert numerical_rank(h) == r


def test_batched_test_values_match_filter(tiger):
    cols = enumerate_tests(tiger, 2)
    batched = state_test_values(tiger, 2)
    rows = list(np.eye(tiger.n))
    h = hankel_submatrix(tiger, rows, cols)
    np.testing.assert_allclose(batched, h, atol=1e-12)
