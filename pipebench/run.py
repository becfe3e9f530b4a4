#!/usr/bin/env python3
"""Pipeline benchmark: the ``psrplan`` CLI end to end on a seeded corpus.

Run from the root of a checkout:

    python3 pipebench/run.py --workload plan-lifted --seed 1207 --seconds 10 --trace 0

Each workload is a closed loop of one caller that runs its cases back to
back, each case one ``psrplan.cli.main(argv)`` call in this process:

  plan-lifted    ``psrplan plan`` on rank-3..5 lifted-clone models with
                 30..300 hidden states (discount 0.5 and 0.9), a minority
                 of them sparse bases; no oracle.
  oracle-gap     ``psrplan compare`` (both planners and the exact oracle)
                 on tests/data/{tiger,clones,fair_coin}.POMDP and dense
                 random models with 3..6 states at discount 0.4.
  high-discount  ``psrplan plan`` on lifted models and ``psrplan baseline``
                 on random models, all at discount 0.99.

Set-up first sizes each case's grid by a search on the in-memory model
(untimed: its number of tries depends on the seed).  It then generates
the corpus from ``--seed`` under ``pipebench/_work/<workload>/`` and
computes each case's in-memory reference, three times, and runs one
warm-up pass; ``setup_s`` is the import time, the median corpus build and
the warm-up pass.  Passes then repeat for ``--seconds``.  After each call
the output is checked against its reference and against the warm-up
pass's output (timing fields stripped).  A case fails on a nonzero exit
or a failed check.  The only failure allowed is the
``DegenerateBasisError`` the reference itself raises; any other failure
makes the run incorrect.  ``attempted`` and ``failed`` count cases, not
calls, so they do not depend on how many passes fit in the run.

The last stdout line is one JSON object.  With ``--trace 0`` it holds the
end-to-end metrics: ``setup_s``, ``wall_s`` (one pass: the sum over
cases of each call's low median time) and ``peak_rss_mb``.  With
``--trace 1`` untraced and traced passes alternate and it holds the
per-layer metrics (median over traced passes), the
tracing overhead, ``failed_frac`` and ``gap_ratio_max``; the spans are
written to ``pipebench/_work/<workload>/trace.json``.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

T_START = time.perf_counter()

# One BLAS/OpenMP thread, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TEST_DATA = os.path.join(ROOT, "tests", "data")
DEFAULT_SEED = 1207
SETUP_REPEATS = 3  # corpus builds per run; setup_s takes their median


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("plan-lifted", "oracle-gap", "high-discount"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small corpus and one corpus build (smoke test)")
    return p.parse_args(argv)


def machine_facts(np):
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def pass_seconds(passes):
    """One pass's wall time: the sum over cases of each call's low median time.

    Per-case medians keep a stall that hits one call in one pass out of
    the figure.  The low median does so for two passes as well, where the
    median would be the mean; with a single pass this is that pass's wall
    time.
    """
    return sum(statistics.median_low(times) for times in zip(*(p["case_s"] for p in passes)))


class Runner:
    """Runs passes over the cases through ``cli_main`` and checks each output."""

    def __init__(self, cases, cli_main, casesmod):
        self.cases = cases
        self.cli_main = cli_main
        self.casesmod = casesmod
        self.golden = {}  # case name -> outcome of the warm-up pass
        self.problems = []  # failed checks: the run is not correct
        self.errors = {}  # case name -> CLI error output of the last failure

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli_main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash outside the CLI's exit codes
                rc = f"crash:{type(exc).__name__}"
                print(f"{type(exc).__name__}: {exc}", file=err)
        return rc, err.getvalue().strip()

    def run_pass(self, tracer=None):
        case_s, failed, ratios = [], [], []
        for case in self.cases:
            with contextlib.suppress(FileNotFoundError):
                os.remove(case.report)
            t0 = time.perf_counter()
            if tracer is None:
                rc, err = self._call(case.argv)
            else:
                rc, err = tracer.run_case(case.name, lambda: self._call(case.argv))
            case_s.append(time.perf_counter() - t0)
            ok, ratio = self._check(case, rc, err)
            if not ok:
                failed.append(case.name)
            ratios.extend(ratio)
        return {"case_s": case_s, "failed": failed, "gap_ratios": ratios}

    @property
    def correct(self):
        return not self.problems

    def _check(self, case, rc, err):
        """Checks one call; returns (case succeeded, its gap ratios).

        A case may fail only as its in-memory reference predicts; any
        other failure, like any wrong report, makes the run incorrect.
        """
        ratios = []
        if rc != 0:
            message = err.splitlines()[-1] if err else ""
            self.errors[case.name] = f"exit {rc}: {message}"
            problems = self.casesmod.check_failure(case, rc, message)
            outcome = ("exit", rc, message)
        else:
            with open(case.report, encoding="utf-8") as fh:
                report = json.load(fh)
            problems = self.casesmod.check_report(case, report)
            if case.kind == "compare":
                ratios = self.casesmod.gap_ratios(report)
            outcome = ("report", json.dumps(self.casesmod.strip_timings(report), sort_keys=True))
        if outcome != self.golden.setdefault(case.name, outcome):
            problems = [*problems, "output differs from the warm-up pass"]
        self.problems.extend(f"{case.name}: {p}" for p in problems)
        return rc == 0 and not problems, ratios


def run(args):
    if not (os.path.isfile(os.path.join(SRC, "psrplan", "cli.py")) and os.path.isdir(TEST_DATA)):
        print(f"pipebench: no psrplan sources under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    import psrplan.cli as cli

    import cases as casesmod
    import tracer as tracermod

    import_s = time.perf_counter() - T_START
    facts = machine_facts(np)
    print("machine: " + json.dumps(facts, sort_keys=True))

    workdir = os.path.join(HERE, "_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    t0 = time.perf_counter()
    knobs = casesmod.calibrate(args.workload, args.seed, ROOT, args.tiny)
    calibrate_s = time.perf_counter() - t0
    builds, build_s = [], []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        t0 = time.perf_counter()
        builds.append(casesmod.build_cases(args.workload, args.seed, workdir, ROOT, knobs,
                                           args.tiny))
        build_s.append(time.perf_counter() - t0)
    cases = builds[0]
    runner = Runner(cases, cli.main, casesmod)
    if any(b != cases for b in builds[1:]):
        runner.problems.append("corpus or references differ between set-up builds")
    t0 = time.perf_counter()
    runner.run_pass()
    warmup_s = time.perf_counter() - t0
    setup_s = import_s + statistics.median(build_s) + warmup_s
    print(f"setup: import {import_s:.3f} s, corpus {statistics.median(build_s):.3f} s "
          f"(median of {len(build_s)}), warm-up pass {warmup_s:.3f} s, "
          f"{len(cases)} cases; grid-size search {calibrate_s:.3f} s (not in setup_s)")

    tracer = tracermod.Tracer() if args.trace else None
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        untraced.append(runner.run_pass())
        if tracer is not None:
            first = len(tracer.spans)
            tracer.install()
            try:
                p = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            p["layers"] = tracer.layer_metrics(first)
            p["self_s"] = tracer.self_seconds(first)
            traced.append(p)
        if time.perf_counter() >= deadline:
            break

    passes = untraced + traced
    # Cases, not calls: how many passes fit in the run must not change the counts.
    attempted = len(cases)
    failed = len(set().union(*(p["failed"] for p in passes)))
    wall_s = pass_seconds(untraced)
    for i, case in enumerate(cases):
        median = statistics.median_low(p["case_s"][i] for p in untraced)
        print(f"case {case.name:22s} low median {median:8.4f} s")
    for name, err in sorted(runner.errors.items()):
        print(f"failed case {name}: {err}")
    for problem in list(dict.fromkeys(runner.problems))[:20]:
        print(f"check failed: {problem}")
    print("untraced pass times: " + " ".join(f"{sum(p['case_s']):.3f}" for p in untraced))
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"untraced pass {wall_s:.3f} s; {failed} of {attempted} cases failed")

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        traced_wall = pass_seconds(traced)
        layers = tracermod.median_metrics([p["layers"] for p in traced])
        metrics = {k: (layers[k], unit) for k, unit in tracermod.LAYER_UNITS.items()}
        metrics["trace.overhead_frac"] = (traced_wall / wall_s - 1.0, "ratio")
        metrics["failed_frac"] = (failed / attempted, "ratio")
        ratios = [r for p in passes for r in p["gap_ratios"]]
        metrics["gap_ratio_max"] = (max(ratios) if ratios else 0.0, "ratio")
        shares = tracermod.median_metrics([p["self_s"] for p in traced])
        for name, secs in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"layer {name:24s} {secs:9.4f} s  {100.0 * secs / traced_wall:5.1f} %"
                  " of traced pass")
        for name in tracer.missing:
            print(f"missing: {name}")
        with open(os.path.join(workdir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "machine": facts,
                       **tracer.to_json()}, fh)

    print(json.dumps({
        "correct": runner.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
