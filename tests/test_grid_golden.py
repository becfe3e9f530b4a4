"""Golden grids on dense random models, compared bit for bit.

The tiger, fair_coin and clones goldens have rank 1 or 2; these pin the
lifted regime, where the planner steps rank-3..6 coefficient vectors and
the baseline steps beliefs of 3 or 4 states.  Each case stores the sha256
of the raw bytes of the grid's ``coords``, ``indptr``, ``succ``,
``prob`` and ``rewards``, the solved value at the initial state as
``float.hex``, and the grid's diagnostics (the full-lattice case clamps,
clips rewards to [0, 1] and has dead ends).  Two cases, a rank-12
coefficient lattice and a 12-state simplex, have lattices too wide for
int64 keys (see ``grid.Interner``).
A change that moves them on purpose rewrites the file with

    PYTHONPATH=src python3 tests/test_grid_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from psrplan import baseline as baselinemod
from psrplan import planner as plannermod
from psrplan.zoo import random_pomdp

GOLDEN = Path(__file__).parent / "data" / "golden" / "grids_random.json"
ARRAYS = ("coords", "indptr", "succ", "prob", "rewards")
# case name -> (planner, states, seed, epsilon or delta, grid mode)
CASES = {
    f"plan-n{n}-s{seed}-e{epsilon}": ("plan", n, seed, epsilon, "reachable")
    for n, seed in ((3, 0), (4, 1), (5, 2), (6, 3))
    for epsilon in (0.2, 0.3)
}
CASES["plan-n3-s0-e1.0-full"] = ("plan", 3, 0, 1.0, "full")
CASES["plan-n12-s1-e1.0"] = ("plan", 12, 1, 1.0, "reachable")
CASES.update(
    {
        f"baseline-n{n}-s5-d{delta}": ("baseline", n, 5, delta, None)
        for n in (3, 4)
        for delta in (0.1, 0.05)
    }
)
CASES["baseline-n12-s5-d0.05"] = ("baseline", 12, 5, 0.05, None)


def grid_record(name):
    planner, n, seed, knob, mode = CASES[name]
    model = random_pomdp(n, 2, 2, 2, seed=seed)
    if planner == "plan":
        result = plannermod.plan(model, epsilon=knob, mode=mode)
    else:
        result = baselinemod.plan_baseline(model, delta=knob)
    grid = result.grid
    record = {key: hashlib.sha256(getattr(grid, key).tobytes()).hexdigest() for key in ARRAYS}
    record["states"] = grid.n_states
    record["value"] = float(result.values[grid.initial_state]).hex()
    record["diagnostics"] = {
        key: value.hex() if isinstance(value, float) else value
        for key, value in grid.diagnostics.items()
    }
    return record


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def split_drift(record):
    """The record without maxClampDrift, and maxClampDrift as a float."""
    diagnostics = dict(record["diagnostics"])
    drift = float.fromhex(diagnostics.pop("maxClampDrift", "0x0p+0"))
    return dict(record, diagnostics=diagnostics), drift


@pytest.mark.parametrize("name", sorted(CASES))
def test_grid_matches_golden(name, golden):
    # maxClampDrift is how far the largest clamped successor left [-2, 2]
    # before clamping: a raw float off the step's gemm, alpha @ G, which
    # another BLAS build may sum in another order and so move by ulps.
    # So it alone is compared to 1e-12 relative, not bit for bit.
    got, got_drift = split_drift(grid_record(name))
    want, want_drift = split_drift(golden[name])
    assert got == want
    assert got_drift == pytest.approx(want_drift, rel=1e-12, abs=0.0)


if __name__ == "__main__":
    records = {name: grid_record(name) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(records, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    sys.exit(0)
