"""Golden ``--no-timings`` outputs of the CLI, compared byte for byte.

Each case runs one command on a model in ``tests/data`` and compares its
report (and policy file, where the command writes one) with the stored
copy in ``tests/data/golden``.  A change that should not move any value,
policy or counter must leave all of them identical; one that does on
purpose rewrites them with

    PYTHONPATH=src python3 tests/test_golden_reports.py

and the diff of the golden files shows what moved.

Every case runs in one isolated interpreter (``python -I``, started in a
temporary directory with only ``src`` on its path), entering through
``psrplan.cli`` as ``python -m psrplan.cli`` does.  So the outputs are
also checked for a package that stands alone: a module under ``src`` that
reached into ``tests`` or read the working directory would fail here.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
GOLDEN = DATA / "golden"

# case name -> (command, model file, extra flags)
CASES = {
    f"{model}.{command}": (command, f"{model}.POMDP", [] if command == "compare" else ["--oracle"])
    for model in ("tiger", "fair_coin", "clones")
    for command in ("plan", "baseline", "compare")
}
# a coarse simplex grid the oracle's beliefs fall off: 4 act fallbacks
CASES["clones.baseline-coarse"] = ("baseline", "clones.POMDP", ["--oracle", "--delta", "0.25"])


# each case's argv runs as ``python -m psrplan.cli`` would run it: sys.argv
# set, the module run as __main__, and the code it exits with checked
RUNNER = """\
import json, runpy, sys
sys.path.insert(0, sys.argv[1])
for argv in json.loads(sys.argv[2]):
    sys.argv = ["psrplan.cli", *argv]
    try:
        runpy.run_module("psrplan.cli", run_name="__main__", alter_sys=True)
    except SystemExit as done:
        if done.code != 0:
            sys.exit(f"exit {done.code}: {argv}")
    else:
        sys.exit(f"no exit: {argv}")
"""


def case_argv(name, out_dir):
    """One case's CLI arguments, writing into out_dir, and the paths it writes."""
    command, model, extra = CASES[name]
    paths = [Path(out_dir) / f"{name}.report.json"]
    argv = [command, str(DATA / model), "--no-timings", "--json-out", str(paths[0])]
    if command != "compare":
        paths.append(Path(out_dir) / f"{name}.policy.json")
        argv += ["--policy-out", str(paths[1])]
    return argv + extra, paths


def run_cases(names, out_dir):
    """Run the named cases into out_dir in one isolated interpreter."""
    argvs = [case_argv(name, out_dir)[0] for name in names]
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run(
            [sys.executable, "-I", "-c", RUNNER, str(SRC), json.dumps(argvs)],
            cwd=cwd, capture_output=True, text=True, encoding="utf-8",
        )
    assert done.returncode == 0, done.stderr


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("golden")
    run_cases(sorted(CASES), out_dir)
    return out_dir


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, outputs):
    for path in case_argv(name, outputs)[1]:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    run_cases(sorted(CASES), GOLDEN)
    sys.exit(0)
