"""Smoke test of the pipeline benchmark itself, at tiny scale.

    python3 -m pytest pipebench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import cases  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def corpus_files(workload, seed, workdir):
    os.makedirs(workdir)
    knobs = cases.calibrate(workload, seed, ROOT, tiny=True)
    cases.build_cases(workload, seed, str(workdir), ROOT, knobs, tiny=True)
    out = {}
    for name in sorted(os.listdir(workdir)):
        if name.endswith(".POMDP"):
            with open(os.path.join(workdir, name), "rb") as fh:
                out[name] = fh.read()
    return out


def run_bench(cwd, workload, trace, tiny=True):
    argv = [sys.executable, os.path.join("pipebench", "run.py"), "--workload", workload,
            "--seed", "5", "--seconds", "0.2", "--trace", str(trace)]
    return subprocess.run(argv + (["--tiny"] if tiny else []), cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_corpus_is_a_function_of_the_seed(tmp_path, workload):
    first = corpus_files(workload, 5, tmp_path / "a")
    again = corpus_files(workload, 5, tmp_path / "b")
    other = corpus_files(workload, 6, tmp_path / "c")
    assert first and first == again
    assert other != first


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(cases.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_every_metric_is_reported(workload, trace):
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def tiny_runner(workload, workdir, cli_main):
    os.makedirs(workdir)
    knobs = cases.calibrate(workload, 5, ROOT, tiny=True)
    built = cases.build_cases(workload, 5, str(workdir), ROOT, knobs, tiny=True)
    return run.Runner(built, cli_main, cases)


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_a_crashing_cli_makes_the_run_incorrect(tmp_path, workload):
    def crash(argv):
        raise RuntimeError("boom")

    runner = tiny_runner(workload, tmp_path / "w", crash)
    result = runner.run_pass()
    assert len(result["failed"]) == len(runner.cases)
    assert runner.correct is False


def test_an_unpredicted_exit_makes_the_run_incorrect(tmp_path):
    from psrplan.cli import EXIT_VALIDATION

    runner = tiny_runner("high-discount", tmp_path / "w", lambda argv: EXIT_VALIDATION)
    runner.run_pass()
    assert runner.correct is False


def test_the_predicted_basis_failure_is_allowed(tmp_path):
    import psrplan.cli as cli

    runner = tiny_runner("plan-lifted", tmp_path / "w", cli.main)
    predicted = sum("error" in case.expected for case in runner.cases)
    if not predicted:
        pytest.skip("no tiny base raises DegenerateBasisError any more")
    result = runner.run_pass()
    assert len(result["failed"]) == predicted
    assert runner.correct is True


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = run_bench(tmp_path, "plan-lifted", 0, tiny=False)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_tracer_reports_missing_targets_and_restores_the_rest(monkeypatch):
    import psrplan.planner as planner

    original = planner.build_grid
    gone = ("psrplan.planner", "no_such_builder", "planner.gone", False)
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (gone,))
    t = tracer.Tracer()
    t.install()
    try:
        assert t.missing == ["psrplan.planner.no_such_builder"]
        assert planner.build_grid is not original
    finally:
        t.uninstall()
    assert planner.build_grid is original
