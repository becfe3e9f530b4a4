"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Each test prints `A<k> PASS/FAIL — detail` on the live terminal (bypassing
capture) so the final run log shows the whole scoreboard at a glance.
"""

import math
import time

import numpy as np
import pytest

from psrplan import baseline as baselinemod
from psrplan import cli
from psrplan import oracle as oraclemod
from psrplan import planner as plannermod
from psrplan.automaton import stabilized_rank, state_test_values
from psrplan.cassandra import load_pomdp
from psrplan.decomposition import discover_basis, improve_to_spanner
from psrplan.model import Signal, belief_update
from psrplan.zoo import random_pomdp

from conftest import DATA
from reference import (
    MultiplicityAutomaton,
    cloned_states,
    enumerate_tests,
    evaluate,
    near_duplicate_states,
    sequence_probability,
    state_coefficients,
)


def announce(capsys, line):
    with capsys.disabled():
        print(f"\n{line}")


def a1_shapes(count=50, seed=42):
    rng = np.random.default_rng(seed)
    shapes = []
    for i in range(count):
        shapes.append(
            (
                int(rng.integers(2, 7)),   # states <= 6
                int(rng.integers(1, 4)),   # actions <= 3
                int(rng.integers(1, 4)),   # observations <= 3
                int(rng.integers(1, 3)),   # reward values <= 2
                1000 + i,
            )
        )
    return shapes


def filter_route_values(model, max_len):
    """Probability of every test of length <= max_len via the Bayes filter.

    Walks the prefix tree keeping (path probability, posterior) per node, so
    each word is priced by chained one-step filter updates — a genuinely
    different code path from the automaton matrix products.
    """
    symbols = [
        (a, Signal(o, r))
        for a in range(model.n_actions)
        for o in range(model.n_observations)
        for r in range(model.n_rewards)
    ]
    values = [1.0]
    frontier = [(1.0, model.initial_belief)]
    for _ in range(max_len):
        nxt = []
        for prob, belief in frontier:
            for sym_a, sym_sig in symbols:
                if belief is None:
                    nxt.append((0.0, None))
                    values.append(0.0)
                    continue
                p, post = belief_update(model, belief, sym_a, sym_sig)
                nxt.append((prob * p, post))
                values.append(prob * p)
        frontier = nxt
    return np.array(values)


def test_a1_automaton_matches_filter_on_random_models(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    max_len = 4
    for n, na, no, nr, seed in a1_shapes():
        model = random_pomdp(n, na, no, nr, seed=seed)
        table = model.initial_belief @ state_test_values(model, max_len)
        direct = filter_route_values(model, max_len)
        worst = max(worst, float(np.max(np.abs(table - direct))))
        # spot-check a few words against the per-word filter reference
        tests = enumerate_tests(model, 2)
        rng = np.random.default_rng(seed)
        for idx in rng.choice(len(tests), size=min(5, len(tests)), replace=False):
            t = tests[idx]
            worst = max(
                worst,
                abs(sequence_probability(model, model.initial_belief, t)
                    - table[idx]),
            )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed <= 60.0
    announce(
        capsys,
        f"A1 {'PASS' if ok else 'FAIL'} — 50 random models, all tests of "
        f"length <= {max_len}: automaton vs filter max |diff| = {worst:.2e} "
        f"(tol 1e-10), {elapsed:.1f}s (budget 60s)",
    )
    assert ok


def test_a2_substring_acceptor_golden_table(capsys):
    # 3-state acceptor of words over {a,b,c,d} containing "ab" as a substring
    mu = {
        "a": np.array([[0, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=float),
        "b": np.array([[1, 0, 0], [0, 0, 1], [0, 0, 1]], dtype=float),
        "c": np.array([[1, 0, 0], [1, 0, 0], [0, 0, 1]], dtype=float),
        "d": np.array([[1, 0, 0], [1, 0, 0], [0, 0, 1]], dtype=float),
    }
    ma = MultiplicityAutomaton(
        size=3,
        alphabet=["a", "b", "c", "d"],
        mu=mu,
        terminal=np.array([0.0, 0.0, 1.0]),
        initial=np.array([1.0, 0.0, 0.0]),
    )
    words = [""]
    for _ in range(5):
        words = [w + s for w in words for s in "abcd"] + words
    words = sorted({w for w in words if w}, key=lambda w: (len(w), w))
    assert len(words) == 4 + 16 + 64 + 256 + 1024  # 1364 strings
    bad = 0
    for w in words:
        got = evaluate(ma, w)
        want = 1.0 if "ab" in w else 0.0
        if abs(got - want) > 1e-12:
            bad += 1
    ok = bad == 0
    announce(
        capsys,
        f"A2 {'PASS' if ok else 'FAIL'} — 1364-string membership table, "
        f"{bad} mismatches (exact at 1e-12)",
    )
    assert ok


def test_a3_basis_size_bounded_by_rank(capsys):
    models = [
        ("clones", cloned_states(seed=11), 3),
        ("near-dup", near_duplicate_states(), 3),
    ]
    rng_models = [
        (f"rand{seed}", random_pomdp(5, 2, 2, 2, seed=seed), 5)
        for seed in range(60, 72)
    ] + [
        (f"sparse{seed}", random_pomdp(5, 2, 2, 2, seed=seed, dirichlet=0.05), 5)
        for seed in range(12)
    ]
    worst_line = ""
    ok = True
    for name, model, cap in models + rng_models:
        dec = discover_basis(model)
        audit = stabilized_rank(model, max_len=5)
        if not (dec.rank <= model.n and dec.rank <= cap and dec.rank == audit):
            ok = False
            worst_line = f" ({name}: r={dec.rank}, audit={audit}, n={model.n})"
            break
    announce(
        capsys,
        f"A3 {'PASS' if ok else 'FAIL'} — basis size r <= n on "
        f"{len(models) + len(rng_models)} models, duplicated-state model "
        f"r <= 3, r equals the stabilized Hankel rank{worst_line}",
    )
    assert ok


def test_a4_spanner_quality(capsys):
    models = [
        cloned_states(seed=11),
        near_duplicate_states(),
        load_pomdp(DATA / "tiger.POMDP"),
    ] + [random_pomdp(5, 2, 2, 2, seed=s) for s in range(80, 88)]
    worst_coeff = 0.0
    min_ratio = math.inf
    flagged = []
    for model in models:
        spanner = improve_to_spanner(discover_basis(model))
        r = spanner.rank
        coeffs = state_coefficients(spanner)
        worst_coeff = max(worst_coeff, float(np.max(np.abs(coeffs))))
        ledger = spanner.det_log_ledger
        for prev, cur in zip(ledger, ledger[1:]):
            min_ratio = min(min_ratio, cur - prev)
        swap_cap = 5 * r * math.ceil(math.log2(r) + 4) if r >= 1 else 0
        if spanner.swap_count > swap_cap:
            flagged.append((r, spanner.swap_count, swap_cap))
    ok = worst_coeff <= 2.0 + 1e-6 and (
        min_ratio == math.inf or min_ratio >= math.log(2.0) - 1e-9
    )
    flag_note = f", FLAG swap counts {flagged}" if flagged else ""
    announce(
        capsys,
        f"A4 {'PASS' if ok else 'FAIL'} — spanner coefficients max |alpha| = "
        f"{worst_coeff:.6f} (cap 2+1e-6), every accepted swap grew |det| by "
        f">= 2x{flag_note}",
    )
    assert ok


def a5_corpus():
    corpus = [("tiger", load_pomdp(DATA / "tiger.POMDP"))]
    corpus += [
        (f"rand{seed}", random_pomdp(4, 2, 2, 2, seed=seed, discount=0.4))
        for seed in range(300, 310)
    ]
    return corpus


def policy_gap(model, act_fn, slack):
    horizon = oraclemod.horizon_for_slack(model.discount, slack)
    v_opt, _ = oraclemod.exact_value(model, model.initial_belief, horizon)
    v_pol = oraclemod.evaluate_policy(model, act_fn, model.initial_belief, horizon)
    return v_opt - v_pol


def test_a5_planner_near_optimality(capsys):
    epsilon, slack = 0.1, 1e-2
    rows = []
    ok = True
    for name, model in a5_corpus():
        result = plannermod.plan(model, epsilon=epsilon)
        gap = policy_gap(
            model, lambda b: plannermod.act(result, b), slack
        )
        bound = epsilon / (1.0 - model.discount) ** 4 + 2 * slack
        inspect = gap > 0.05 / (1.0 - model.discount)
        rows.append((name, gap, bound, inspect))
        if not gap <= bound:
            ok = False
    worst = max(rows, key=lambda r: r[1] / r[2])
    flags = [r[0] for r in rows if r[3]]
    flag_note = f", FLAG large gaps on {flags}" if flags else ""
    announce(
        capsys,
        f"A5 {'PASS' if ok else 'FAIL'} — planner policy vs exact oracle on "
        f"{len(rows)} models at epsilon={epsilon}: worst gap {worst[1]:.5f} "
        f"(bound {worst[2]:.3f} on {worst[0]}){flag_note}",
    )
    assert ok


def test_a6_baseline_near_optimality(capsys):
    delta, slack = 0.05, 1e-2
    rows = []
    ok = True
    for name, model in a5_corpus():
        result = baselinemod.plan_baseline(model, delta=delta)
        gap = policy_gap(
            model, lambda b: baselinemod.act_baseline(result, b), slack
        )
        bound = 2.0 * delta / (1.0 - model.discount) ** 3 + 2 * slack
        rows.append((name, gap, bound))
        if not gap <= bound:
            ok = False
    worst = max(rows, key=lambda r: r[1] / r[2])
    announce(
        capsys,
        f"A6 {'PASS' if ok else 'FAIL'} — baseline policy vs exact oracle on "
        f"{len(rows)} models at delta={delta}: worst gap {worst[1]:.5f} "
        f"(bound {worst[2]:.3f} on {worst[0]})",
    )
    assert ok


def test_a7_value_lipschitz_in_belief(capsys):
    slack = 1e-3
    worst_excess = -math.inf
    checked = 0
    for gamma, seed in ((0.2, 500), (0.3, 501)):
        model = random_pomdp(3, 2, 2, 1, seed=seed, discount=gamma)
        horizon = oraclemod.horizon_for_slack(gamma, slack)
        lip = 1.0 / (1.0 - gamma)
        rng = np.random.default_rng(seed)
        for _ in range(100):
            x = rng.dirichlet(np.ones(model.n))
            y = rng.dirichlet(np.ones(model.n))
            dist = float(np.abs(x - y).sum())
            for a in range(model.n_actions):
                qx = oraclemod.exact_q(model, x, a, horizon)
                qy = oraclemod.exact_q(model, y, a, horizon)
                worst_excess = max(
                    worst_excess, abs(qx - qy) - lip * dist - 2 * slack
                )
                checked += 1
    ok = worst_excess <= 0.0
    announce(
        capsys,
        f"A7 {'PASS' if ok else 'FAIL'} — |Q(x,a)-Q(y,a)| <= ||x-y||_1/(1-g) "
        f"+ 2e-3 on {checked} belief-pair/action cases, max excess "
        f"{worst_excess:.2e}",
    )
    assert ok


def test_a8_full_lattice_counts(capsys):
    checks = []
    for path, eps in ((DATA / "fair_coin.POMDP", 0.4), (DATA / "tiger.POMDP", 0.5)):
        model = load_pomdp(path)
        full = plannermod.plan(model, epsilon=eps, mode="full")
        reach = plannermod.plan(model, epsilon=eps, mode="reachable")
        r = full.spanner.rank
        expected = (2 * math.floor(2 * r / eps) + 1) ** r
        full_set = {tuple(c) for c in full.grid.coords}
        reach_set = {tuple(c) for c in reach.grid.coords}
        checks.append(
            (
                path.name,
                full.grid.n_states == expected,
                reach_set <= full_set,
                full.grid.n_states,
                expected,
            )
        )
    ok = all(c[1] and c[2] for c in checks)
    detail = ", ".join(f"{c[0]}: {c[3]}/{c[4]}" for c in checks)
    announce(
        capsys,
        f"A8 {'PASS' if ok else 'FAIL'} — full lattice count equals "
        f"(2*floor(2r/eps)+1)^r and reachable is a subset ({detail})",
    )
    assert ok


def test_a9_deterministic_reports(capsys, tmp_path):
    blobs = []
    for tag in ("a", "b"):
        report = tmp_path / f"r{tag}.json"
        policy = tmp_path / f"p{tag}.json"
        code = cli.main(
            ["plan", str(DATA / "tiger.POMDP"), "--oracle", "--no-timings",
             "--json-out", str(report), "--policy-out", str(policy)]
        )
        assert code == 0
        blobs.append(report.read_bytes() + policy.read_bytes())
    ok = blobs[0] == blobs[1]
    announce(
        capsys,
        f"A9 {'PASS' if ok else 'FAIL'} — two plan runs with --no-timings "
        f"produce byte-identical report and policy files "
        f"({len(blobs[0])} bytes)",
    )
    assert ok


def test_a10_filter_properties(capsys):
    cases = 1000
    rng = np.random.default_rng(777)
    models = [random_pomdp(4, 2, 2, 2, seed=s) for s in (900, 901, 902, 903)]
    worst = {"consistency": 0.0, "linearity": 0.0, "chain": 0.0}
    for i in range(cases):
        model = models[i % len(models)]
        a = int(rng.integers(model.n_actions))
        sig = Signal(
            int(rng.integers(model.n_observations)),
            int(rng.integers(model.n_rewards)),
        )
        b1 = rng.dirichlet(np.ones(model.n))
        b2 = rng.dirichlet(np.ones(model.n))
        lam = float(rng.uniform())

        p1, post1 = belief_update(model, b1, a, sig)
        if post1 is not None:
            worst["consistency"] = max(
                worst["consistency"],
                abs(post1.sum() - 1.0),
                float(-post1.min()) if post1.min() < 0 else 0.0,
            )

        mix = lam * b1 + (1 - lam) * b2
        p2, post2 = belief_update(model, b2, a, sig)
        pm, postm = belief_update(model, mix, a, sig)
        worst["linearity"] = max(
            worst["linearity"], abs(pm - (lam * p1 + (1 - lam) * p2))
        )
        joint1 = p1 * post1 if post1 is not None else np.zeros(model.n)
        joint2 = p2 * post2 if post2 is not None else np.zeros(model.n)
        jointm = pm * postm if postm is not None else np.zeros(model.n)
        worst["linearity"] = max(
            worst["linearity"],
            float(np.max(np.abs(jointm - (lam * joint1 + (1 - lam) * joint2)))),
        )

        # chain rule on a random split word
        k1, k2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        word = tuple(
            (
                int(rng.integers(model.n_actions)),
                Signal(
                    int(rng.integers(model.n_observations)),
                    int(rng.integers(model.n_rewards)),
                ),
            )
            for _ in range(k1 + k2)
        )
        whole = sequence_probability(model, b1, word)
        p_head = sequence_probability(model, b1, word[:k1])
        post = b1
        alive = True
        for step_a, step_sig in word[:k1]:
            p, post = belief_update(model, post, step_a, step_sig)
            if post is None:
                alive = False
                break
        tail = (
            p_head * sequence_probability(model, post, word[k1:]) if alive else 0.0
        )
        worst["chain"] = max(worst["chain"], abs(whole - tail))
    ok = all(v <= 1e-10 for v in worst.values())
    announce(
        capsys,
        f"A10 {'PASS' if ok else 'FAIL'} — {cases} randomized filter cases: "
        f"consistency {worst['consistency']:.2e}, linearity "
        f"{worst['linearity']:.2e}, chain rule {worst['chain']:.2e} "
        f"(tol 1e-10)",
    )
    assert ok
