import dataclasses
import functools

import numpy as np
import pytest

import psrplan
from psrplan.errors import ValidationError
from psrplan.model import (
    PomdpModel,
    Signal,
    belief_update,
    belief_update_state_major,
    expected_reward_matrix,
    sample_trajectory,
    state_sum,
)
from psrplan import model as modelmod
from psrplan.zoo import random_pomdp

from reference import fully_observable_chain, parsed_per_signal, sequence_probability


def random_test(model, length, rng):
    steps = []
    for _ in range(length):
        a = int(rng.integers(model.n_actions))
        z = int(rng.integers(model.n_signals))
        steps.append((a, model.signal_from_index(z)))
    return tuple(steps)


def test_fair_coin_update_is_identity(fair_coin):
    b = np.array([1.0])
    for z in range(fair_coin.n_signals):
        p, post = belief_update(fair_coin, b, 0, z)
        assert p == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(post, b)


def test_fully_observable_posterior_is_point_mass():
    m = fully_observable_chain()
    b = np.array([0.5, 0.5])
    # under "stay", observing o1 pins the arriving (and hence current) state
    sig = Signal(observation=1, reward=1)
    p, post = belief_update(m, b, 0, sig)
    assert p == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(post, [0.0, 1.0], atol=1e-12)


def test_tiger_listen_filter_matches_direct_summation(tiger):
    m = tiger
    b = np.array([0.5, 0.5])
    a = m.actions.index("listen")
    # listening always pays raw -1; find its index among normalized values
    r_norm = (-1.0 - m.reward_offset) / m.reward_scale
    r_idx = int(np.argmin(np.abs(m.reward_values - r_norm)))
    sig = Signal(m.observations.index("hear-left"), r_idx)
    z = m.signal_index(sig)
    # direct summation over the 2x2 joint, no shortcuts
    joint = np.zeros(2)
    for j in range(2):
        for i in range(2):
            joint[j] += b[i] * m.transition[i, a, j] * m.signal_kernel[j, a, z]
    p_direct = joint.sum()
    post_direct = joint / p_direct
    p, post = belief_update(m, b, a, sig)
    assert p == pytest.approx(p_direct, abs=1e-12)
    np.testing.assert_allclose(post, post_direct, atol=1e-12)
    # hand numbers: tiger stays put, hear-left is right 85% of the time
    assert p == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(post, [0.85, 0.15], atol=1e-12)


def test_impossible_signal_returns_zero_and_no_posterior():
    m = fully_observable_chain()
    b = np.array([1.0, 0.0])
    # "stay" from s0 cannot arrive at s1, so observing o1 is impossible
    p, post = belief_update(m, b, 0, Signal(1, 1))
    assert p == 0.0
    assert post is None


def test_empty_test_has_probability_one(tiger):
    assert sequence_probability(tiger, tiger.initial_belief, ()) == 1.0


def test_fair_coin_sequences_multiply(fair_coin):
    b = np.array([1.0])
    for k in (1, 3, 6):
        t = tuple((0, Signal(0, 0)) for _ in range(k))
        assert sequence_probability(fair_coin, b, t) == pytest.approx(0.5**k, abs=1e-12)


def test_filter_consistency_on_random_models():
    rng = np.random.default_rng(0)
    for seed in range(5):
        m = random_pomdp(4, 2, 2, 2, seed=seed)
        for _ in range(10):
            b = rng.dirichlet([1.0] * m.n)
            a = int(rng.integers(m.n_actions))
            total = sum(
                belief_update(m, b, a, z)[0] for z in range(m.n_signals)
            )
            assert total == pytest.approx(1.0, abs=1e-10)


def test_test_probability_is_linear_in_belief():
    rng = np.random.default_rng(1)
    m = random_pomdp(4, 2, 2, 2, seed=42)
    eye = np.eye(m.n)
    for _ in range(20):
        t = random_test(m, int(rng.integers(1, 4)), rng)
        w = rng.dirichlet([1.0] * m.n)
        direct = sequence_probability(m, w, t)
        mixed = sum(
            w[i] * sequence_probability(m, eye[i], t) for i in range(m.n)
        )
        assert direct == pytest.approx(mixed, abs=1e-10)


def test_chain_rule_through_filtered_belief():
    rng = np.random.default_rng(2)
    m = random_pomdp(4, 2, 2, 2, seed=7)
    for _ in range(20):
        t1 = random_test(m, 2, rng)
        t2 = random_test(m, 2, rng)
        b = rng.dirichlet([1.0] * m.n)
        p1 = sequence_probability(m, b, t1)
        if p1 <= 0:
            continue
        cur = b
        for a, sig in t1:
            _, cur = belief_update(m, cur, a, sig)
        joint = sequence_probability(m, b, t1 + t2)
        chained = p1 * sequence_probability(m, cur, t2)
        assert joint == pytest.approx(chained, abs=1e-10)


def always(action):
    """A policy that takes the same action at every belief of a stack."""
    return lambda beliefs: np.full(len(beliefs), action)


def test_horizon_zero_trajectory_is_empty(fair_coin):
    out = sample_trajectory(fair_coin, np.array([1.0]), always(0), 0, rng_seed=3)
    assert out == []


def test_fair_coin_head_frequency(fair_coin):
    out = sample_trajectory(
        fair_coin, np.array([1.0]), always(0), 10_000, rng_seed=12345
    )
    heads = sum(1 for _, sig, _ in out if sig.observation == 0)
    assert 0.48 <= heads / 10_000 <= 0.52


def test_trajectories_reproducible_with_seed():
    m = fully_observable_chain()
    runs = [
        sample_trajectory(
            m, m.initial_belief, lambda bs: (bs[:, 1] < 0.5).astype(int), 50, rng_seed=9
        )
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_trajectory_follows_a_planned_policy(tiger):
    result = psrplan.plan(tiger, epsilon=0.1)
    seen = []

    def policy(beliefs):
        seen.append(beliefs.copy())
        return psrplan.act(result, beliefs)

    out = sample_trajectory(tiger, tiger.initial_belief, policy, 20, rng_seed=5)
    assert len(out) == 20
    # asked one belief at a time, and the action taken is the planner's
    assert all(b.shape == (1, tiger.n) for b in seen)
    for b, (a, _, _) in zip(seen, out):
        assert a == psrplan.act(result, b)[0]


def shifted_belief(shift):
    """random_pomdp(3, 2, 2, 2, seed=0) starting from [0.6, 0.4, 0.0] + shift."""
    m = random_pomdp(3, 2, 2, 2, seed=0)
    m.initial_belief = np.array([0.6, 0.4, 0.0]) + shift
    return m


def noisy_chain(**entries):
    """fully_observable_chain with its arrays' rows replaced: name -> (index, row)."""
    m = fully_observable_chain()
    for name, (index, row) in entries.items():
        getattr(m, name)[index] = row
    return m


def perturbed(seed):
    """random_pomdp(3, 2, 2, 2, seed) with one random row each of the
    transition, the signal kernel and the initial belief moved within
    STOCHASTIC_TOL: one entry's mass goes to another, then the first is
    -u * STOCHASTIC_TOL and the second gains v * STOCHASTIC_TOL, for u and
    v uniform in [0, 1), so the row's sum moves by less than the tolerance."""
    m = random_pomdp(3, 2, 2, 2, seed=seed)
    rng = np.random.default_rng(seed)
    for name in ("transition", "signal_kernel", "initial_belief"):
        table = getattr(m, name)
        rows = table.reshape(-1, table.shape[-1])  # a view
        row = rows[rng.integers(len(rows))]
        i, j = rng.choice(row.size, size=2, replace=False)
        row[j] += row[i]
        u, v = rng.random(2) * modelmod.STOCHASTIC_TOL
        row[i] = -u
        row[j] += v
    return m


VALIDATED = {
    "sum-over-1": lambda: shifted_belief([5e-10, 0.0, 0.0]),
    "tiny-negative": lambda: shifted_belief([5e-10, 0.0, -5e-10]),
    "chain-belief": lambda: noisy_chain(initial_belief=(slice(None), [1 + 5e-10, -5e-10])),
    "chain-kernel": lambda: noisy_chain(signal_kernel=((0, 0), [1 + 5e-10, -5e-10, 0, 0])),
    **{f"perturbed-{seed}": functools.partial(perturbed, seed) for seed in range(8)},
}


@pytest.mark.parametrize("make", VALIDATED.values(), ids=VALIDATED)
def test_a_validated_initial_belief_runs_a_trajectory(make):
    # validate and check_belief accept the same probability vectors, and
    # every stage runs what validate accepts: it leaves no entry below 0
    m = make()
    m.validate()
    for name in ("transition", "signal_kernel", "initial_belief"):
        assert (getattr(m, name) >= 0.0).all(), name
    psrplan.plan(m, epsilon=0.5)
    psrplan.plan_baseline(m, delta=0.25)
    psrplan.oracle.search(m, m.initial_belief, 3)
    out = sample_trajectory(m, m.initial_belief, always(1), 10, rng_seed=4)
    assert len(out) == 10


@pytest.mark.parametrize("bad", [-1, 2])
def test_trajectory_refuses_an_action_outside_the_model(bad):
    # -1 used to run the last action and record -1, and A died in an IndexError
    m = random_pomdp(3, 2, 2, 2, seed=0)
    with pytest.raises(ValidationError, match=rf"action {bad} outside \[0, 2\)"):
        sample_trajectory(m, m.initial_belief, always(bad), 5, rng_seed=4)


@pytest.mark.parametrize("bad", [1.7, np.nan, np.inf, -np.inf])
def test_trajectory_refuses_an_action_that_is_not_a_whole_number(bad):
    # 1.7 used to run action 1 without a word; NaN and inf warned in the
    # int64 cast, and NaN was then reported as action -2**63
    m = random_pomdp(3, 2, 2, 2, seed=0)
    with pytest.raises(ValidationError, match=rf"action {bad} is not a whole number"):
        sample_trajectory(m, m.initial_belief, always(bad), 5, rng_seed=4)


@pytest.mark.parametrize("result", [1, [[1]], np.ones((1, 1))], ids=["int", "nested", "float"])
def test_trajectory_reads_any_shape_of_one_action(result):
    # as the oracle does; a scalar used to die in an IndexError
    m = random_pomdp(3, 2, 2, 2, seed=0)
    want = sample_trajectory(m, m.initial_belief, always(1), 5, rng_seed=4)
    assert sample_trajectory(m, m.initial_belief, lambda beliefs: result, 5, rng_seed=4) == want


def test_trajectory_refuses_two_actions_for_one_belief():
    # the first of them used to run without a word
    m = random_pomdp(3, 2, 2, 2, seed=0)
    with pytest.raises(ValidationError, match=r"policy returned 2 action\(s\) for 1 belief"):
        sample_trajectory(m, m.initial_belief, lambda beliefs: np.array([0, 1]), 5, rng_seed=4)


@pytest.mark.parametrize("belief", [[0.6, 0.4 + 2e-9, 0.0], [0.6 + 2e-9, 0.4, -2e-9]])
def test_beliefs_past_the_tolerance_are_refused_alike(belief):
    m = random_pomdp(3, 2, 2, 2, seed=0)
    m.initial_belief = np.array(belief)
    with pytest.raises(ValidationError, match="initial belief is not a probability vector"):
        m.validate()
    with pytest.raises(ValidationError, match="belief is not a probability vector"):
        sample_trajectory(m, m.initial_belief, always(1), 10, rng_seed=4)


def test_expected_reward_matrix_matches_enumeration():
    m = random_pomdp(3, 2, 2, 2, seed=5)
    got = expected_reward_matrix(m)
    want = np.zeros((m.n, m.n_actions))
    for s in range(m.n):
        for a in range(m.n_actions):
            for s2 in range(m.n):
                for z in range(m.n_signals):
                    sig = m.signal_from_index(z)
                    want[s, a] += (
                        m.transition[s, a, s2]
                        * m.signal_kernel[s2, a, z]
                        * m.reward_values[sig.reward]
                    )
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_validate_rejects_bad_rows():
    m = fully_observable_chain()
    broken = PomdpModel(
        states=m.states,
        actions=m.actions,
        observations=m.observations,
        reward_values=m.reward_values,
        transition=m.transition * 0.9,
        signal_kernel=m.signal_kernel,
        discount=m.discount,
        initial_belief=m.initial_belief,
    )
    with pytest.raises(ValidationError, match="transition row"):
        broken.validate()


@pytest.mark.parametrize(
    "field", ["transition", "signal_kernel", "reward_values", "initial_belief"]
)
def test_validate_rejects_nan(field):
    m = fully_observable_chain()
    values = getattr(m, field).copy()
    values.flat[0] = np.nan
    with pytest.raises(ValidationError, match=f"non-finite entry in {field}"):
        dataclasses.replace(m, **{field: values}).validate()


REWARD_RANGE = "reward values must lie in [0, 1] after normalization"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("transition", lambda m: m.transition[:, :1], "transition shape (2, 1, 2) != (2, 2, 2)"),
        ("transition", lambda m: m.transition[:1], "transition shape (1, 2, 2) != (2, 2, 2)"),
        ("signal_kernel", lambda m: m.signal_kernel[..., :3],
         "signal kernel shape (2, 2, 3) != (2, 2, 4)"),
        ("reward_values", lambda m: m.reward_values + 2e-9, REWARD_RANGE),
        ("reward_values", lambda m: m.reward_values - 2e-9, REWARD_RANGE),
    ],
)
def test_validate_refuses_shapes_and_rewards_outside_the_unit_range(field, value, message):
    # the chain's reward values are 0 and 1: more than STOCHASTIC_TOL past either is refused
    m = fully_observable_chain()
    with pytest.raises(ValidationError) as err:
        dataclasses.replace(m, **{field: value(m)}).validate()
    assert str(err.value) == message
    m.reward_values = m.reward_values + np.array([-5e-10, 5e-10])
    m.validate()  # within STOCHASTIC_TOL


def test_validate_rejects_non_finite_reward_map():
    m = fully_observable_chain()
    m.reward_offset = np.inf
    with pytest.raises(ValidationError, match="finite"):
        m.validate()


def test_validate_rejects_bad_discount():
    m = fully_observable_chain()
    m2 = PomdpModel(
        states=m.states,
        actions=m.actions,
        observations=m.observations,
        reward_values=m.reward_values,
        transition=m.transition,
        signal_kernel=m.signal_kernel,
        discount=1.0,
        initial_belief=m.initial_belief,
    )
    with pytest.raises(ValidationError, match="discount"):
        m2.validate()


def assert_batch_matches_filter(model, beliefs):
    """belief_update_state_major equals belief_update bit for bit, for
    every row and live symbol, and belief_update gives p = 0 for every dead
    symbol."""
    p, post = belief_update_state_major(model, beliefs)
    live = model.live_symbols
    assert p.shape == (live.size, len(beliefs))
    assert post.shape == (model.n,) + p.shape
    for k, b in enumerate(beliefs):
        for symbol in range(model.n_actions * model.n_signals):
            p_ref, post_ref = belief_update(model, b, *divmod(symbol, model.n_signals))
            if symbol not in live:
                assert p_ref == 0.0 and post_ref is None
                continue
            slot = int(np.searchsorted(live, symbol))
            assert p[slot, k] == p_ref
            if post_ref is None:
                post_ref = np.zeros(model.n)  # +0.0, not -0.0
            assert_bits_equal(post[:, slot, k], post_ref)


def assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def random_beliefs(n, count, rng):
    beliefs = rng.dirichlet([0.3] * n, size=count)
    beliefs[::4, 0] = 0.0  # some beliefs off a face of the simplex
    return beliefs / beliefs.sum(axis=1, keepdims=True)


def test_batched_filter_matches_belief_update():
    rng = np.random.default_rng(19)
    # below 8 states the sums over states run in order; 9 and 17 states
    # take eight accumulators and a remainder, 130 the split above 128
    shapes = ((3, 2, 2, 2), (6, 3, 2, 1), (9, 2, 3, 2), (17, 2, 2, 1), (130, 2, 1, 2))
    for seed, (n, na, no, nr) in enumerate(shapes):
        m = random_pomdp(n, na, no, nr, seed=seed, dirichlet=0.3)
        beliefs = random_beliefs(n, 40, rng)
        # parsed back, the model emits one symbol in nr: the rest are dead
        for model in (m, parsed_per_signal(m)) if nr > 1 else (m,):
            assert_batch_matches_filter(model, beliefs)
            # an empty stack keeps the documented shapes
            assert_batch_matches_filter(model, beliefs[:0])
    # impossible signals: zero probability and an all-zero posterior
    m = fully_observable_chain()
    beliefs = np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.7]])
    assert_batch_matches_filter(m, beliefs)
    # -0.0 emission entries make -0.0 joint entries, which the clamp maps
    # to +0.0: the posterior of an impossible signal is still all +0.0
    m.signal_kernel = np.where(m.signal_kernel == 0.0, -0.0, m.signal_kernel)
    _, post = belief_update_state_major(m, beliefs)
    assert np.signbit(m.signal_kernel).any() and not np.signbit(post).any()
    assert_batch_matches_filter(m, beliefs)


def test_live_symbols_are_those_some_arriving_state_emits():
    m = fully_observable_chain()
    # each observation carries one reward: (o0, r0) and (o1, r1) per action
    np.testing.assert_array_equal(m.live_symbols, [0, 3, 4, 7])
    m.signal_kernel = np.where(m.signal_kernel == 0.0, -0.0, m.signal_kernel)
    np.testing.assert_array_equal(m.live_symbols, [0, 3, 4, 7])  # -0.0 emits nothing
    assert random_pomdp(3, 2, 2, 2, seed=0).live_symbols.size == 8


def test_posteriors_sum_to_one_after_one_division():
    """Both filters divide joint by p, the sum of the same nonnegative
    joint, once.  Every posterior with p > 0 then sums to 1 within 1e-13,
    a tenth of the miss at which a second division was once taken, on
    random models up to 200 states and Dirichlet(0.1) beliefs."""
    rng = np.random.default_rng(37)
    for seed, n in enumerate((2, 7, 9, 64, 129, 200)):
        m = random_pomdp(n, 2, 2, 2, seed=seed, dirichlet=0.1)
        beliefs = rng.dirichlet([0.1] * n, size=60)
        p, post = belief_update_state_major(m, beliefs)
        possible = p > 0.0
        assert possible.sum() > 0.9 * p.size
        assert np.abs(state_sum(post)[possible] - 1.0).max() <= 1e-13
        for b in beliefs[:4]:
            for symbol in range(m.n_actions * m.n_signals):
                _, one = belief_update(m, b, *divmod(symbol, m.n_signals))
                assert one is None or abs(one.sum() - 1.0) <= 1e-13


def test_batched_filter_rejects_negative_probability():
    m = random_pomdp(3, 2, 2, 1, seed=6)
    m.transition = m.transition.copy()
    m.transition[0, 1] = [1.2, -0.1, -0.1]  # not validated: the filter must catch it
    b = np.array([[1.0, 0.0, 0.0]])
    with pytest.raises(ValidationError, match="negative"):
        belief_update(m, b[0], 1, 0)
    with pytest.raises(ValidationError, match="negative"):
        belief_update_state_major(m, b)


def test_state_sum_adds_as_numpy_sums_a_row():
    rng = np.random.default_rng(23)
    for n in range(1, 301):
        # mixed magnitudes and signs, so that the order of the adds shows
        x = rng.standard_normal((n, 8)) * 10.0 ** rng.integers(-20, 20, size=(n, 8))
        x[:, 0] = -0.0  # numpy sums from +0.0: a row of -0.0 sums to +0.0
        x[:, 1] = 0.0
        x[::2, 2] = -0.0
        x[:, 3] = np.abs(x[:, 3])
        got = state_sum(x)
        rows = np.ascontiguousarray(x.T)
        assert_bits_equal(got, rows.sum(axis=-1))
        assert_bits_equal(got, [row.sum() for row in rows])
    assert not np.signbit(state_sum(np.full((3, 2), -0.0))).any()
