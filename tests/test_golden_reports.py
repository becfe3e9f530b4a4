"""Golden ``--no-timings`` outputs of the CLI, compared byte for byte.

Each case runs one command on a model in ``tests/data`` and compares its
report (and policy file, where the command writes one) with the stored
copy in ``tests/data/golden``.  A change that should not move any value,
policy or counter must leave all of them identical; one that does on
purpose rewrites them with

    PYTHONPATH=src python3 tests/test_golden_reports.py

and the diff of the golden files shows what moved.
"""

import sys
from pathlib import Path

import pytest

from psrplan import cli

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

# case name -> (command, model file, extra flags)
CASES = {
    f"{model}.{command}": (command, f"{model}.POMDP", [] if command == "compare" else ["--oracle"])
    for model in ("tiger", "fair_coin", "clones")
    for command in ("plan", "baseline", "compare")
}
# a coarse simplex grid the oracle's beliefs fall off: 4 act fallbacks
CASES["clones.baseline-coarse"] = ("baseline", "clones.POMDP", ["--oracle", "--delta", "0.25"])


def run_case(name, out_dir):
    """Run one case into out_dir; returns the paths of the files it wrote."""
    command, model, extra = CASES[name]
    paths = [Path(out_dir) / f"{name}.report.json"]
    argv = [command, str(DATA / model), "--no-timings", "--json-out", str(paths[0])]
    if command != "compare":
        paths.append(Path(out_dir) / f"{name}.policy.json")
        argv += ["--policy-out", str(paths[1])]
    assert cli.main(argv + extra) == 0
    return paths


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path, capsys):
    for path in run_case(name, tmp_path):
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name
    capsys.readouterr()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        run_case(case, GOLDEN)
    sys.exit(0)
