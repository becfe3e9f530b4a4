"""End-to-end tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from psrplan import cli

DATA = Path(__file__).parent / "data"


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
    assert rep["schemaVersion"] == 2
    assert rep["command"] == "plan"
    assert rep["planner"]["rank"] == 1
    assert rep["planner"]["grid"]["states"] == 1
    # one state, reward 0.5 forever at discount 0.9 -> value 5
    assert rep["planner"]["valueAtInitialBelief"] == pytest.approx(5.0, abs=1e-3)
    pol = read_json(policy)
    assert pol["schemaVersion"] == 2
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
        "observations: 1\nT: 0 : s9 : 0 1.0\n"
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


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(["plan", tmp_path / "nope.POMDP"], capsys)
    assert code == 2
    assert err != ""


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


def test_baseline_non_integral_resolution_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        ["baseline", DATA / "tiger.POMDP", "--delta", "0.3",
         "--json-out", tmp_path / "r.json"],
        capsys,
    )
    assert code == 2
    assert "1/delta" in err


def test_state_cap_exits_3(tmp_path, capsys):
    code, _, err = run_cli(
        ["plan", DATA / "tiger.POMDP", "--state-cap", "3",
         "--json-out", tmp_path / "r.json", "--policy-out", tmp_path / "p.json"],
        capsys,
    )
    assert code == 3
    assert "state cap" in err
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


def test_sweep_csv_output(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        ["plan", DATA / "tiger.POMDP", "--sweep", "0.5,0.2", "--no-timings",
         "--sweep-csv", csv_path,
         "--json-out", tmp_path / "r.json", "--policy-out", tmp_path / "p.json"],
        capsys,
    )
    assert code == 0
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "epsilon,mesh,gridStates,value"
    assert len(rows) == 3
    meshes = [float(r.split(",")[1]) for r in rows[1:]]
    assert meshes == [0.25, 0.1]


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
