"""End-to-end tests for the command-line interface."""

import json
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from psrplan import cli
from psrplan import grid as gridmod

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"


def run_cli(argv, capsys):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_plan_fair_coin_rank_one_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    policy = tmp_path / "policy.json"
    code, out, err = run_cli(
        ["plan", DATA / "fair_coin.POMDP",
         "--json-out", report, "--policy-out", policy],
        capsys,
    )
    assert code == 0
    assert err == ""
    rep = read_json(report)
    assert rep["schemaVersion"] == 4
    assert rep["command"] == "plan"
    assert rep["planner"]["rank"] == 1
    assert rep["planner"]["grid"]["states"] == 1
    # one state, reward 0.5 forever at discount 0.9 -> value 5
    assert rep["planner"]["valueAtInitialBelief"] == pytest.approx(5.0, abs=1e-3)
    pol = read_json(policy)
    assert pol["schemaVersion"] == 4
    assert len(pol["values"]) == rep["planner"]["grid"]["states"]
    assert len(pol["policy"]) == len(pol["states"])


def test_plan_tiger_with_oracle_reports_gap_and_verdict(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, err = run_cli(
        ["plan", DATA / "tiger.POMDP", "--oracle",
         "--json-out", report, "--policy-out", tmp_path / "p.json"],
        capsys,
    )
    assert code == 0
    rep = read_json(report)
    orc = rep["oracle"]
    assert orc["horizon"] >= 1
    assert orc["optimalValue"] >= orc["policyValue"] - 1e-9
    assert orc["gap"] == pytest.approx(
        orc["optimalValue"] - orc["policyValue"], abs=1e-12
    )
    verdict = orc["accuracyBound"]
    assert set(verdict) == {"bound", "slackAllowance", "measuredGap", "pass"}
    assert verdict["pass"] is True
    assert verdict["measuredGap"] <= verdict["bound"] + verdict["slackAllowance"]


def test_oracle_block_absent_without_flag(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["plan", DATA / "tiger.POMDP",
         "--json-out", report, "--policy-out", tmp_path / "p.json"],
        capsys,
    )
    assert code == 0
    assert "oracle" not in read_json(report)


def test_malformed_model_exits_2_with_stderr(tmp_path, capsys):
    bad = tmp_path / "bad.POMDP"
    bad.write_text(
        "discount: 0.9\nvalues: reward\nstates: 2\nactions: 1\n"
        "observations: 1\nT: 0 : s9 : 0 1.0\n",
        encoding="utf-8",
    )
    report = tmp_path / "report.json"
    code, out, err = run_cli(
        ["plan", bad, "--json-out", report, "--policy-out", tmp_path / "p.json"],
        capsys,
    )
    assert code == 2
    assert "s9" in err or "line" in err
    assert not report.exists()
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize(
    "entry", ["R: * : * : * : * nan", "T: * : * : s0 nan", "R: * : * : * : * inf"]
)
def test_non_finite_number_exits_2(tmp_path, capsys, entry):
    bad = tmp_path / "bad.POMDP"
    bad.write_text(
        "discount: 0.9\nvalues: reward\nstates: 2\nactions: 1\nobservations: 1\n"
        f"T: * uniform\nO: * uniform\n{entry}\n",
        encoding="utf-8",
    )
    report = tmp_path / "report.json"
    code, _, err = run_cli(
        ["plan", bad, "--json-out", report, "--policy-out", tmp_path / "p.json"],
        capsys,
    )
    assert code == 2
    assert "line 8" in err and "non-finite" in err
    assert not report.exists()


LONG_INTEGER = "0" * 5_000  # more digits than int() reads by default


@pytest.mark.parametrize(
    "states, entry, line",
    [
        ("2", f"T: {LONG_INTEGER} : 0 : 0 1.0", 6),  # an index in a slot
        ("1", f"start: {LONG_INTEGER}", 6),  # a one-state model's lone start token
        (LONG_INTEGER, "", 3),  # a count
    ],
)
def test_an_integer_token_too_long_for_int_exits_2(tmp_path, capsys, states, entry, line):
    bad = tmp_path / "bad.POMDP"
    bad.write_text(
        f"discount: 0.9\nvalues: reward\nstates: {states}\nactions: 1\nobservations: 1\n"
        f"{entry}\nT: * uniform\nO: * uniform\n",
        encoding="utf-8",
    )
    code, _, err = run_cli(
        ["plan", bad, "--json-out", tmp_path / "r.json", "--policy-out", tmp_path / "p.json"],
        capsys,
    )
    assert code == 2
    assert err == f"error (plan): line {line}: integer of 5,000 digits; at most 4,300 are read\n"


# cli.main in a child whose address space is capped at 2 GiB: a model the
# parser fails to refuse raises MemoryError there, or reads to some other
# end, instead of taking the machine's memory.  One BLAS thread, as
# OpenBLAS reserves a buffer per thread when numpy is imported.
LIMITED_CLI = """\
import os, resource, sys
os.environ["OPENBLAS_NUM_THREADS"] = "1"
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
sys.path.insert(0, sys.argv[1])
from psrplan.cli import main
sys.exit(main(sys.argv[2:]))
"""
BUDGET = "is past the budget of 134,217,728"


@pytest.mark.parametrize(
    "declarations, message",
    [
        # the 74-byte file: 10**8 state names, then a 1.6e17-byte table
        ("states: 100000000\nactions: 2\nobservations: 2\n",
         f"line 3: transition table of at least 10,000,000,000,000,000 entries {BUDGET}"),
        ("states: 20000\nactions: 2\nobservations: 2\n",
         f"line 3: transition table of at least 400,000,000 entries {BUDGET}"),
        # 9,000 states fit alone; the fourth action does not
        ("states: 9000\nactions: 4\nobservations: 2\n",
         f"line 4: transition table of at least 324,000,000 entries {BUDGET}"),
        ("actions: 2\nstates: 100\nobservations: 2000000\n",
         f"line 5: observation table of at least 400,000,000 entries {BUDGET}"),
        # only an R entry that names a departing state makes the A·n²·O table
        ("states: 2000\nactions: 2\nobservations: 40\nT: * uniform\nO: * uniform\n"
         "R: * : * : * : * 1\nR: * : 5 : * : * 2\n",
         f"line 9: reward table of at least 320,000,000 entries {BUDGET}"),
        # leading zeros do not count: 10 digits to the budget's 9
        ("states: 2\nactions: 0001234567890\nobservations: 2\n",
         "line 4: actions count of 10 digits is past the table budget of 134,217,728 entries"),
        # the tables fit, but 10**8 names do not: each counts NAME_ENTRIES
        ("states: 1\nactions: 1\nobservations: 100000000\n",
         f"line 5: name table of at least 3,200,000,064 entries {BUDGET}"),
    ],
    ids=["1e8-states", "20000-states", "fourth-action", "observations", "departing-reward",
         "count-digits", "1e8-names"],
)
def test_a_model_past_the_table_budget_exits_2_before_allocating(tmp_path, declarations, message):
    model = tmp_path / "big.POMDP"
    model.write_text(f"discount: 0.9\nvalues: reward\n{declarations}", encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-I", "-c", LIMITED_CLI, str(SRC), "plan", str(model),
         "--json-out", str(tmp_path / "r.json"), "--policy-out", str(tmp_path / "p.json")],
        cwd=tmp_path, capture_output=True, text=True, encoding="utf-8",
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error (plan): {message}\n"


MODEL_ERRORS = {
    "empty_declaration": (
        "states:\nactions: 1\nobservations: 1\n", "line 3: empty states declaration"
    ),
    "zero_count": (
        "states: 2\nactions: 0\nobservations: 1\n", "line 4: actions count must be positive"
    ),
    "duplicate_name": (
        "states: 2\nactions: 1\nobservations: o o\n", "line 5: duplicate observations name"
    ),
    "missing_declaration": (
        "states: 2\nactions: 1\n", "missing states/actions/observations declaration"
    ),
    "empty_start_set": (
        "states: 2\nactions: 1\nobservations: 1\nstart: exclude: s0 s1\n"
        "T: * uniform\nO: * uniform\n",
        "line 6: start set is empty",
    ),
    # the row sums to 1 within STOCHASTIC_TOL, but -1e-7 is below -STOCHASTIC_TOL
    "negative_entry": (
        "states: 2\nactions: 1\nobservations: 1\nT: * : 0\n1.0000001 -0.0000001\n"
        "T: * : 1 uniform\nO: * uniform\n",
        "negative kernel entry",
    ),
}


@pytest.mark.parametrize("case", sorted(MODEL_ERRORS))
def test_a_refused_model_exits_2_with_its_message(tmp_path, capsys, case):
    text, message = MODEL_ERRORS[case]
    model = tmp_path / "bad.POMDP"
    model.write_text(f"discount: 0.9\nvalues: reward\n{text}", encoding="utf-8")
    code, out, err = run_cli(
        ["plan", model, "--json-out", tmp_path / "r.json", "--policy-out", tmp_path / "p.json"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == f"error (plan): {message}\n"
    assert not list(tmp_path.glob("*.json"))


_TWO_STATES = "states: 2\nactions: 1\nobservations: o0 o1\n"
_OVERFLOW_ROW = " ".join(["1e308", "1e308", "-1e308", "-1e308"] + ["0"] * 4)
# finite entries whose sums and differences overflow to inf or NaN
OVERFLOWING_MODELS = {
    "row_sum": (
        "states: 8\nactions: 1\nobservations: 1\nstart: uniform\n"
        + "".join(f"T: 0 : {s}\n{_OVERFLOW_ROW}\n" for s in range(8))
        + "O: * uniform\n",
        "transition row (state=s0, action=a0) sums to nan, not 1",
    ),
    "reward_range": (
        _TWO_STATES + "T: * uniform\nO: * uniform\n"
        "R: * : * : * : o0 1e308\nR: * : * : * : o1 -1e308\n",
        "reward values from -1e+308 to 1e+308 span more than a float holds",
    ),
    "departing_spread": (
        _TWO_STATES + "T: * uniform\nO: * uniform\n"
        "R: * : s0 : * : * 1e308\nR: * : s1 : * : * -1e308\n",
        "reward for (action=a0, arriving state=s0, observation=o0) varies with the "
        "departing state; signals condition on the arriving state only, so this "
        "model is not expressible",
    ),
    "start_sum": (
        _TWO_STATES + "start: 1e308 1e308\nT: * uniform\nO: * uniform\n",
        "line 6: start belief is not a probability vector",
    ),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING_MODELS))
def test_an_overflowing_model_exits_2_with_one_line_and_no_warning(tmp_path, capsys, case):
    text, message = OVERFLOWING_MODELS[case]
    model = tmp_path / "bad.POMDP"
    model.write_text(f"discount: 0.9\nvalues: reward\n{text}", encoding="utf-8")
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, out, err = run_cli(["plan", model, "--json-out", tmp_path / "r.json"], capsys)
    assert [str(w.message) for w in seen] == []
    assert (code, out) == (2, "")
    assert err == f"error (plan): {message}\n"


@pytest.mark.parametrize("command", ["plan", "baseline", "compare"])
def test_memory_error_exits_3_with_one_line(tmp_path, capsys, monkeypatch, command):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 EiB for an array with shape (2**60,)")

    monkeypatch.setattr(gridmod, "solve", exhausted)
    outputs = ["--json-out", tmp_path / "r.json"]
    if command != "compare":  # compare writes no policy
        outputs += ["--policy-out", tmp_path / "p.json"]
    code, out, err = run_cli([command, DATA / "tiger.POMDP", *outputs], capsys)
    assert code == 3
    assert out == ""
    assert err == (
        f"error ({command}): out of memory: "
        "Unable to allocate 8.00 EiB for an array with shape (2**60,)\n"
    )
    assert not list(tmp_path.iterdir())


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(["plan", tmp_path / "nope.POMDP"], capsys)
    assert code == 2
    assert err != ""


@pytest.mark.parametrize("which", ["--json-out", "--policy-out"])
def test_unwritable_output_exits_2_and_leaves_no_temp_file(tmp_path, capsys, which):
    taken = tmp_path / "taken"
    taken.mkdir()
    other = "--policy-out" if which == "--json-out" else "--json-out"
    code, _, err = run_cli(
        ["plan", DATA / "tiger.POMDP", which, taken, other, tmp_path / "other.json"],
        capsys,
    )
    assert code == 2
    assert err.startswith("error (plan): ")
    assert "Traceback" not in err
    assert not (tmp_path / "taken.tmp").exists()
    assert taken.is_dir() and not any(taken.iterdir())


def test_baseline_delta_one_keeps_only_corners(tmp_path, capsys):
    report = tmp_path / "report.json"
    policy = tmp_path / "policy.json"
    code, _, _ = run_cli(
        ["baseline", DATA / "tiger.POMDP", "--delta", "1",
         "--json-out", report, "--policy-out", policy],
        capsys,
    )
    assert code == 0
    pol = read_json(policy)
    coords = [tuple(c) for c in pol["states"]]
    assert set(coords) <= {(1, 0), (0, 1)}
    assert read_json(report)["baseline"]["grid"]["states"] == len(coords)


def exits_2_at_parsing(argv, monkeypatch, capsys):
    """Run the CLI on argv, which must exit 2 at argument parsing without
    reading the model; returns stderr."""
    calls = []
    monkeypatch.setattr(cli, "load_pomdp", lambda *a, **k: calls.append(a))
    with pytest.raises(SystemExit) as exc:
        cli.main([str(a) for a in argv])
    assert exc.value.code == 2
    assert calls == []
    return capsys.readouterr().err


def test_baseline_non_integral_resolution_exits_2(tmp_path, capsys, monkeypatch):
    err = exits_2_at_parsing(
        ["baseline", DATA / "tiger.POMDP", "--delta", "0.3",
         "--json-out", tmp_path / "r.json"],
        monkeypatch, capsys,
    )
    assert "argument --delta: 1/delta must be an integer, got 1/0.3" in err
    assert not (tmp_path / "r.json").exists()


def test_baseline_delta_zero_exits_2(tmp_path, capsys, monkeypatch):
    err = exits_2_at_parsing(
        ["baseline", DATA / "tiger.POMDP", "--delta", "0", "--json-out", tmp_path / "r.json"],
        monkeypatch, capsys,
    )
    assert err.splitlines()[-1] == (
        "psrplan baseline: error: argument --delta: delta 0.0 outside (0, 1]"
    )
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("delta", ["1e-19", "1e-300", "5e-324"])
def test_baseline_delta_finer_than_floats_count_exits_2(tmp_path, capsys, monkeypatch, delta):
    # past grid.MAX_RADIUS cells, floats no longer round onto the lattice
    err = exits_2_at_parsing(
        ["baseline", DATA / "tiger.POMDP", "--delta", delta,
         "--json-out", tmp_path / "r.json"],
        monkeypatch, capsys,
    )
    assert f"argument --delta: delta {float(delta)} is too fine: 1/delta exceeds {2**52}" in err
    assert not (tmp_path / "r.json").exists()


def test_state_cap_exits_3(tmp_path, capsys):
    code, _, err = run_cli(
        ["plan", DATA / "tiger.POMDP", "--state-cap", "3",
         "--json-out", tmp_path / "r.json", "--policy-out", tmp_path / "p.json"],
        capsys,
    )
    assert code == 3
    assert "state cap" in err
    assert not (tmp_path / "r.json").exists()


def test_full_lattice_past_the_state_cap_exits_3(tmp_path, capsys):
    code, out, err = run_cli(
        ["plan", DATA / "tiger.POMDP", "--grid-mode", "full", "--state-cap", "10",
         "--json-out", tmp_path / "r.json", "--policy-out", tmp_path / "p.json"],
        capsys,
    )
    assert (code, out) == (3, "")
    assert err == (
        "error (plan): full lattice has 81^2 states, above the cap of 10; "
        "raise --state-cap or use a larger epsilon\n"
    )
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_state_cap_below_one_exits_2_before_planning(tmp_path, capsys, monkeypatch, cap):
    calls = []
    monkeypatch.setattr(cli.plannermod, "plan", lambda *a, **k: calls.append(a))
    with pytest.raises(SystemExit) as exc:
        cli.main(["plan", str(DATA / "tiger.POMDP"), f"--state-cap={cap}",
                  "--json-out", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    assert "argument --state-cap" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "r.json").exists()


def test_compare_refuses_a_horizon_past_the_node_budget_at_once(tmp_path, capsys):
    # at discount 0.999999 the default slack needs horizon 18,420,671: a
    # one-node-per-level tree above the 10,000,000-node budget
    coin = tmp_path / "coin.POMDP"
    text = (DATA / "fair_coin.POMDP").read_text(encoding="utf-8")
    coin.write_text(text.replace("discount: 0.9", "discount: 0.999999"), encoding="utf-8")
    report = tmp_path / "r.json"
    t0 = time.perf_counter()
    code, _, err = run_cli(["compare", coin, "--json-out", report], capsys)
    assert time.perf_counter() - t0 < 20.0
    assert code == 3
    assert "horizon 18420671 would have expanded more than 10000000 nodes" in err
    assert not report.exists()


def test_nonpositive_oracle_slack_exits_2(tmp_path, capsys, monkeypatch):
    err = exits_2_at_parsing(
        ["compare", DATA / "fair_coin.POMDP", "--oracle-slack", "-0.01",
         "--json-out", tmp_path / "r.json"],
        monkeypatch, capsys,
    )
    assert "argument --oracle-slack: oracle slack must be a positive number, got -0.01" in err
    assert not (tmp_path / "r.json").exists()


def test_reports_byte_identical_without_timings(tmp_path, capsys):
    paths = []
    for tag in ("a", "b"):
        report = tmp_path / f"report_{tag}.json"
        policy = tmp_path / f"policy_{tag}.json"
        code, _, _ = run_cli(
            ["plan", DATA / "tiger.POMDP", "--oracle", "--no-timings",
             "--json-out", report, "--policy-out", policy],
            capsys,
        )
        assert code == 0
        paths.append((report, policy))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()
    assert b"stageSeconds" not in paths[0][0].read_bytes()


def test_timings_present_by_default(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["plan", DATA / "fair_coin.POMDP",
         "--json-out", report, "--policy-out", tmp_path / "p.json"],
        capsys,
    )
    assert code == 0
    stage = read_json(report)["planner"]["stageSeconds"]
    assert stage["total"] >= 0.0
    assert {"discoverBasis", "improveToSpanner", "precomputeDynamics",
            "buildGrid", "solve"} <= set(stage)


def test_compare_reports_both_planners(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["compare", DATA / "tiger.POMDP", "--epsilon", "0.2", "--delta", "0.2",
         "--json-out", report],
        capsys,
    )
    assert code == 0
    rep = read_json(report)
    assert rep["command"] == "compare"
    summary = rep["summary"]
    assert summary["rank"] == 2
    assert summary["plannerGridStates"] == rep["planner"]["grid"]["states"]
    assert summary["baselineGridStates"] == rep["baseline"]["grid"]["states"]
    # both policies should be near-optimal on this model
    assert abs(summary["plannerGap"]) <= 0.5
    assert abs(summary["baselineGap"]) <= 0.5
    assert "compare:" in out


def test_compare_rank_grid_smaller_on_duplicated_states(tmp_path, capsys):
    # six underlying states but rank 2: the coefficient grid lives in r=2
    # dimensions while the simplex lattice tracks all six belief coordinates.
    report = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["compare", DATA / "clones.POMDP", "--oracle-slack", "0.25",
         "--json-out", report],
        capsys,
    )
    assert code == 0
    rep = read_json(report)
    assert rep["summary"]["rank"] == 2
    assert rep["summary"]["plannerGridStates"] == 21
    assert rep["summary"]["baselineGridStates"] == 28
    assert rep["planner"]["oracle"]["accuracyBound"]["pass"] is True
    assert rep["baseline"]["oracle"]["accuracyBound"]["pass"] is True


def count_searches(monkeypatch):
    """Record the arguments of every oracle search the CLI runs."""
    calls = []
    search = cli.oraclemod.search

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(cli.oraclemod, "search", counted)
    return calls


def test_compare_searches_the_optimum_once(tmp_path, capsys, monkeypatch):
    calls = count_searches(monkeypatch)
    code, _, _ = run_cli(
        ["compare", DATA / "tiger.POMDP", "--json-out", tmp_path / "r.json"], capsys
    )
    assert code == 0
    assert len(calls) == 1
    assert len(calls[0][3]) == 2  # both sides' policies, on the one tree


@pytest.mark.parametrize("command", ["plan", "baseline"])
def test_one_side_with_oracle_searches_once(tmp_path, capsys, monkeypatch, command):
    calls = count_searches(monkeypatch)
    code, _, _ = run_cli(
        [command, DATA / "tiger.POMDP", "--oracle", "--json-out", tmp_path / "r.json",
         "--policy-out", tmp_path / "p.json"],
        capsys,
    )
    assert code == 0
    assert len(calls) == 1
    assert len(calls[0][3]) == 1


def test_sweep_csv_output(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        ["plan", DATA / "tiger.POMDP", "--sweep", "0.5,0.2", "--no-timings",
         "--sweep-csv", csv_path,
         "--json-out", tmp_path / "r.json", "--policy-out", tmp_path / "p.json"],
        capsys,
    )
    assert code == 0
    rows = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert rows[0] == "epsilon,mesh,gridStates,value"
    assert len(rows) == 3
    meshes = [float(r.split(",")[1]) for r in rows[1:]]
    assert meshes == [0.25, 0.1]


def test_sweep_csv_with_timings_has_a_seconds_column(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        ["plan", DATA / "tiger.POMDP", "--sweep", "0.5,0.2", "--sweep-csv", csv_path,
         "--json-out", tmp_path / "r.json", "--policy-out", tmp_path / "p.json"],
        capsys,
    )
    assert code == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epsilon,mesh,gridStates,value,seconds"
    sweep = read_json(tmp_path / "r.json")["sweep"]
    assert lines[1:] == [
        ",".join(str(row[k]) for k in ("epsilon", "mesh", "gridStates", "value", "seconds"))
        for row in sweep
    ]


def test_sweep_reuses_the_main_plans_basis(tmp_path, capsys, monkeypatch):
    calls = []
    for name in ("discover_basis", "improve_to_spanner"):
        real = getattr(cli.plannermod, name)
        monkeypatch.setattr(
            cli.plannermod, name, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a)
        )
    code, _, _ = run_cli(
        ["plan", DATA / "tiger.POMDP", "--sweep", "0.5,0.2,0.1",
         "--json-out", tmp_path / "r.json", "--policy-out", tmp_path / "p.json"],
        capsys,
    )
    assert code == 0
    assert calls == ["discover_basis", "improve_to_spanner"]
    assert len(read_json(tmp_path / "r.json")["sweep"]) == 3


def test_sweep_reuses_the_main_plans_step_operators(tmp_path, capsys, monkeypatch):
    calls = []
    real = cli.plannermod.precompute_dynamics
    monkeypatch.setattr(
        cli.plannermod, "precompute_dynamics", lambda *a: calls.append(a) or real(*a)
    )
    code, _, _ = run_cli(
        ["plan", DATA / "tiger.POMDP", "--sweep", "0.5,0.2,0.1",
         "--json-out", tmp_path / "r.json", "--policy-out", tmp_path / "p.json"],
        capsys,
    )
    assert code == 0
    assert len(calls) == 1
    assert len(read_json(tmp_path / "r.json")["sweep"]) == 3


def test_act_fallbacks_reach_the_report(tmp_path, capsys):
    # the oracle meets beliefs that round off the coarse simplex closure;
    # act_baseline counts each nearest-state fallback after the grid is built
    report = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["baseline", DATA / "clones.POMDP", "--delta", "0.25", "--oracle",
         "--json-out", report, "--policy-out", tmp_path / "p.json"],
        capsys,
    )
    assert code == 0
    assert read_json(report)["baseline"]["grid"]["diagnostics"]["actFallbacks"] == 4


@pytest.mark.parametrize("command", ["plan", "baseline"])
def test_policy_file_does_not_depend_on_the_oracle(tmp_path, capsys, command):
    # at delta 0.25 the oracle's beliefs fall off the baseline's grid (see
    # above); the policy dump keeps the diagnostics as the grid was planned
    mesh = "--delta" if command == "baseline" else "--epsilon"
    written = []
    for extra in ([], ["--oracle"]):
        policy = tmp_path / f"policy{len(written)}.json"
        code, _, _ = run_cli(
            [command, DATA / "clones.POMDP", mesh, "0.25", "--no-timings", *extra,
             "--json-out", tmp_path / "r.json", "--policy-out", policy],
            capsys,
        )
        assert code == 0
        written.append(policy.read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "t.POMDP", "--json-out", "same.json", "--policy-out", "same.json"],
        ["plan", "t.POMDP", "--json-out", "t.POMDP"],
        ["baseline", "t.POMDP", "--policy-out", "sub/../t.POMDP"],
        ["compare", "t.POMDP", "--json-out", "./t.POMDP"],
        ["plan", "t.POMDP", "--sweep", "0.5", "--sweep-csv", "t.report.json"],
    ],
    ids=["report-is-policy", "report-is-model", "policy-is-model", "compare-report-is-model",
         "sweep-csv-is-the-default-report"],
)
def test_outputs_naming_one_file_exit_2_before_reading_the_model(
    tmp_path, capsys, monkeypatch, argv
):
    (tmp_path / "sub").mkdir()
    model = tmp_path / "t.POMDP"
    model.write_bytes((DATA / "tiger.POMDP").read_bytes())
    monkeypatch.chdir(tmp_path)
    calls = []
    monkeypatch.setattr(cli, "load_pomdp", lambda *a, **k: calls.append(a))
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error ({argv[0]}): ") and "the same file" in err
    assert err.count("\n") == 1
    assert calls == []
    assert model.read_bytes() == (DATA / "tiger.POMDP").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub", "t.POMDP"]


@pytest.mark.parametrize("command", ["plan", "baseline", "compare"])
@pytest.mark.parametrize("vi_tol", ["0", "-1e-3", "inf", "-inf", "nan"])
def test_bad_vi_tol_exits_2(tmp_path, capsys, monkeypatch, command, vi_tol):
    argv = [command, DATA / "tiger.POMDP", f"--vi-tol={vi_tol}",
            "--json-out", tmp_path / "r.json"]
    if command != "compare":
        argv += ["--policy-out", tmp_path / "p.json"]
    err = exits_2_at_parsing(argv, monkeypatch, capsys)
    assert "argument --vi-tol: vi_tol must be finite and > 0" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("epsilon", ["5", "nan", "0", "-0.1", "inf"])
def test_bad_epsilon_exits_2_before_planning(tmp_path, capsys, monkeypatch, epsilon):
    err = exits_2_at_parsing(
        ["plan", DATA / "tiger.POMDP", f"--epsilon={epsilon}",
         "--json-out", tmp_path / "r.json"],
        monkeypatch, capsys,
    )
    assert f"argument --epsilon: epsilon {float(epsilon)} outside (0, 1]" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("epsilon", ["1e-19", "1e-25", "1e-300"])
def test_epsilon_finer_than_floats_count_exits_2(tmp_path, capsys, epsilon):
    # tiger has rank 2, so the mesh is epsilon / 2 and the lattice radius
    # 4 / epsilon, past grid.MAX_RADIUS once discovery has found the rank
    code, _, err = run_cli(
        ["plan", DATA / "tiger.POMDP", "--epsilon", epsilon,
         "--json-out", tmp_path / "r.json", "--policy-out", tmp_path / "p.json"],
        capsys,
    )
    assert code == 2
    assert err == (
        f"error (plan): mesh {float(epsilon) / 2:g} is too fine: 2 / mesh exceeds "
        f"{2**52} cells\n"
    )
    assert not (tmp_path / "r.json").exists()


def test_model_that_is_not_utf8_exits_2(tmp_path, capsys):
    model = tmp_path / "bad.POMDP"
    model.write_bytes(b"\xff\xfediscount: 0.9\n")
    code, out, err = run_cli(
        ["plan", model, "--json-out", tmp_path / "r.json"], capsys
    )
    assert code == 2
    assert out == ""
    assert err == f"error (plan): {model} is not UTF-8 text: invalid start byte\n"
    assert not (tmp_path / "r.json").exists()


def test_model_with_a_byte_order_mark_plans_as_without(tmp_path, capsys):
    marked = tmp_path / "tiger.POMDP"
    marked.write_bytes(b"\xef\xbb\xbf" + (DATA / "tiger.POMDP").read_bytes())
    planners = []
    for model in (DATA / "tiger.POMDP", marked):
        report = tmp_path / "r.json"
        code, _, err = run_cli(
            ["plan", model, "--no-timings", "--json-out", report,
             "--policy-out", tmp_path / "p.json"],
            capsys,
        )
        assert (code, err) == (0, "")
        planners.append(read_json(report)["planner"])
    assert planners[0] == planners[1]


# values outside (0, 1], NaN included, are refused at parsing too
@pytest.mark.parametrize(
    "sweep", ["0.1,abc", "abc", ",", "", "0.5,2", "nan", "0", "-0.1", "0.2,inf"]
)
def test_bad_sweep_exits_2_before_planning(tmp_path, capsys, monkeypatch, sweep):
    calls = []
    monkeypatch.setattr(cli.plannermod, "plan", lambda *a, **k: calls.append(a))
    with pytest.raises(SystemExit) as exc:
        cli.main(["plan", str(DATA / "tiger.POMDP"), "--sweep", sweep,
                  "--json-out", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    assert "argument --sweep" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "r.json").exists()


def test_full_grid_mode_reaches_the_plan_and_the_sweep(tmp_path, capsys):
    # tiger has rank 2: the full lattice at epsilon 0.5 has mesh 0.25 and
    # (2 * 8 + 1)^2 = 289 points, at epsilon 1.0 (2 * 4 + 1)^2 = 81
    report, csv_path = tmp_path / "r.json", tmp_path / "s.csv"
    code, _, _ = run_cli(
        ["plan", DATA / "tiger.POMDP", "--grid-mode", "full", "--epsilon", "0.5",
         "--sweep", "1.0,0.5", "--sweep-csv", csv_path, "--no-timings",
         "--json-out", report, "--policy-out", tmp_path / "p.json"],
        capsys,
    )
    assert code == 0
    rep = read_json(report)
    assert rep["planner"]["rank"] == 2
    assert rep["planner"]["grid"]["mode"] == "full"
    assert rep["planner"]["grid"]["states"] == 289
    assert [row["gridStates"] for row in rep["sweep"]] == [81, 289]
    rows = csv_path.read_text(encoding="utf-8").strip().splitlines()[1:]
    assert [int(row.split(",")[2]) for row in rows] == [81, 289]


@pytest.mark.parametrize(
    "command, line",
    [
        ("plan", "plan: rank=2 grid=17 value=3.787490 -> {report}"),
        ("baseline", "baseline: grid=17 value=3.787490 -> {report}"),
        ("compare", "compare: rank=2 planner grid=17 baseline grid=17 "
         "gaps: planner=0.000000 baseline=0.000000 -> {report}"),
    ],
)
def test_summary_line_on_stdout(tmp_path, capsys, command, line):
    report = tmp_path / "r.json"
    argv = [command, DATA / "tiger.POMDP", "--json-out", report]
    if command != "compare":
        argv += ["--policy-out", tmp_path / "p.json"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert err == ""
    assert out == line.format(report=report) + "\n"


MESH_ERRORS = {
    "--epsilon": "argument --epsilon: epsilon 5.0 outside (0, 1]",
    "--delta": "argument --delta: 1/delta must be an integer, got 1/0.3",
}


@pytest.mark.parametrize("flag", [["--epsilon", "5"], ["--delta", "0.3"]])
def test_compare_bad_mesh_exits_2_before_the_oracle(tmp_path, capsys, monkeypatch, flag):
    err = exits_2_at_parsing(
        ["compare", DATA / "tiger.POMDP", *flag, "--json-out", tmp_path / "r.json"],
        monkeypatch, capsys,
    )
    assert MESH_ERRORS[flag[0]] in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("flag", [["--oracle"], ["--oracle", "0.5"], ["--policy-out", "p.json"]])
def test_compare_rejects_one_side_flags(tmp_path, capsys, monkeypatch, flag):
    # compare always runs the oracle and writes no policy; "--oracle 0.5"
    # is no abbreviation of --oracle-slack
    calls = []
    monkeypatch.setattr(cli, "load_pomdp", lambda *a, **k: calls.append(a))
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", str(DATA / "tiger.POMDP"), *flag,
                  "--json-out", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "r.json").exists()


def test_sweep_csv_without_sweep_exits_2_before_reading_the_model(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "load_pomdp", lambda *a, **k: calls.append(a))
    code, _, err = run_cli(
        ["plan", DATA / "tiger.POMDP", "--sweep-csv", tmp_path / "s.csv",
         "--json-out", tmp_path / "r.json", "--policy-out", tmp_path / "p.json"],
        capsys,
    )
    assert code == 2
    assert "--sweep-csv" in err and "--sweep" in err.replace("--sweep-csv", "")
    assert calls == []
    assert not (tmp_path / "s.csv").exists()
    assert not (tmp_path / "r.json").exists()


def test_the_cli_does_not_load_the_rank_audit(tmp_path):
    # isolated (-I): only src on the path, run from outside the checkout
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import psrplan.cli\n"
        "assert 'psrplan.automaton' not in sys.modules\n"
        "from psrplan.automaton import stabilized_rank\n"
    )
    subprocess.run([sys.executable, "-I", "-c", code], cwd=tmp_path, check=True)


NOISY_ROW = """\
discount: 0.5
values: reward
states: 2
actions: 2
observations: 2
start: 0.5 0.5
T: 0 : 0
1.0000000005 -0.0000000005
T: 0 : 1
1.0 0.0
T: 1
0.0 1.0
1.0 0.0
O: *
0.8 0.2
0.3 0.7
R: 1 : * : * : * 1.0
"""


def test_a_row_validate_accepts_runs_every_command(tmp_path, capsys):
    # -5e-10 is within the tolerance the parser and validate allow; the
    # filter used to refuse it, and each command exited 2
    model = tmp_path / "noisy.POMDP"
    model.write_text(NOISY_ROW, encoding="utf-8")
    for command in ("plan", "baseline", "compare"):
        argv = [command, model, "--json-out", tmp_path / f"{command}.json"]
        if command != "compare":
            argv += ["--oracle", "--policy-out", tmp_path / f"{command}.policy.json"]
        code, _, err = run_cli(argv, capsys)
        assert (code, err) == (0, ""), command
