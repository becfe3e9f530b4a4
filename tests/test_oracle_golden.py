"""Golden oracle values on dense random models, compared bit for bit.

The models are the in-memory form of the benchmark's ``oracle-gap`` random
models: ``random_pomdp(n, 2, 2, 2, seed, discount=0.4)`` for n = 3..6 at the
oracle horizon of slack 1e-2 (5).  These beliefs almost never merge, so the
reference test can only hold them to the memo precision; here every value
is stored as ``float.hex`` and must come back exactly.  Each case records
the optimal value and first action, Q of every first action, the value of
the planner's and of the baseline's policy, and the act fallbacks each
policy took while being evaluated.  A change that moves them on purpose
rewrites the file with

    PYTHONPATH=src python3 tests/test_oracle_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from psrplan import baseline as baselinemod
from psrplan import planner as plannermod
from psrplan.oracle import evaluate_policy, exact_q, exact_value, horizon_for_slack
from psrplan.zoo import random_pomdp

GOLDEN = Path(__file__).parent / "data" / "golden" / "oracle_random.json"
DISCOUNT = 0.4
DELTA = 0.05
# case name -> (states, seed, planner epsilon)
CASES = {
    f"n{n}-s{seed}": (n, seed, epsilon)
    for n, epsilon in ((3, 0.05), (4, 0.1), (5, 0.15), (6, 0.2))
    for seed in (11, 1207)
}


def oracle_record(name):
    n, seed, epsilon = CASES[name]
    model = random_pomdp(n, 2, 2, 2, seed=seed, discount=DISCOUNT)
    horizon = horizon_for_slack(DISCOUNT, 1e-2)
    b = model.initial_belief
    planned = plannermod.plan(model, epsilon=epsilon)
    base = baselinemod.plan_baseline(model, delta=DELTA)
    value, action = exact_value(model, b, horizon)
    plan_value = evaluate_policy(
        model, lambda x: plannermod.act(planned, x), b, horizon
    )
    base_value = evaluate_policy(
        model, lambda x: baselinemod.act_baseline(base, x), b, horizon
    )
    return {
        "horizon": horizon,
        "value": value.hex(),
        "action": action,
        "q": [exact_q(model, b, a, horizon).hex() for a in range(model.n_actions)],
        "plannerValue": plan_value.hex(),
        "baselineValue": base_value.hex(),
        "plannerFallbacks": planned.grid.diagnostics.get("actFallbacks", 0),
        "baselineFallbacks": base.grid.diagnostics.get("actFallbacks", 0),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_oracle_matches_golden(name, golden):
    assert oracle_record(name) == golden[name]


if __name__ == "__main__":
    records = {name: oracle_record(name) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(records, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    sys.exit(0)
