"""Command-line front end: plan, baseline, and compare on .POMDP files.

Exit codes: 0 success, 2 validation/parse failures, 3 resource budgets
(grid state cap, oracle node budget).  All JSON outputs are written
atomically and carry a schemaVersion; --no-timings strips wall-clock
fields so reports from identical runs are byte-identical.
"""

import argparse
import functools
import json
import os
import sys
import time

from . import baseline as baselinemod
from . import decomposition as decompmod
from . import grid as gridmod
from . import oracle as oraclemod
from . import planner as plannermod
from .cassandra import load_pomdp
from .errors import (
    ConvergenceError,
    OracleBudgetError,
    ParseError,
    PsrPlanError,
    StateCapExceededError,
    ValidationError,
)

SCHEMA_VERSION = 4

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


def _epsilon_list(text):
    """--sweep value: one or more comma-separated floats, empty tokens skipped."""
    try:
        values = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {text!r}")
    return values


def _state_cap(text):
    """--state-cap value: an integer of at least 1."""
    cap = int(text)  # argparse reports a ValueError as an invalid value
    if cap < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {cap}")
    return cap


def _value_iteration(result):
    """Report block: sweeps, last span and MacQueen bounds at the initial state."""
    return {
        "iterations": result.iterations,
        "residual": result.residual,
        "lowerBound": result.metadata["lowerBound"],
        "upperBound": result.metadata["upperBound"],
    }


def _add_common_flags(p):
    p.add_argument("model", help="path to a Cassandra-format .POMDP file")
    p.add_argument("--vi-tol", type=float, default=1e-4,
                   help="value-iteration tolerance, finite and > 0: the greedy "
                   "policy loses at most this much in the grid MDP and the "
                   "values are within discount * vi-tol / 2 of its optimum; "
                   "sweeps stop when their change spans at most "
                   "vi-tol * (1 - discount) (default 1e-4)")
    p.add_argument("--oracle", action="store_true",
                   help="also run the exact oracle and report the gap")
    p.add_argument("--oracle-slack", type=float, default=1e-2,
                   help="truncation slack for the oracle horizon (default 1e-2)")
    p.add_argument("--state-cap", type=_state_cap, default=plannermod.DEFAULT_STATE_CAP,
                   help="abort if a grid exceeds this many states, at least 1")
    p.add_argument("--no-timings", action="store_true",
                   help="strip wall-clock fields for byte-stable output")
    p.add_argument("--json-out", metavar="PATH",
                   help="report JSON path (default: <model>.report.json)")
    p.add_argument("--policy-out", metavar="PATH",
                   help="policy JSON path (default: <model>.policy.json)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="psrplan",
        description="POMDP planning over a discovered low-rank test basis, "
        "with a belief-simplex baseline and an exact small-scale oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="rank-r coefficient-grid planner")
    _add_common_flags(p_plan)
    p_plan.add_argument("--epsilon", type=float, default=0.1,
                        help="coefficient-grid accuracy target (default 0.1)")
    p_plan.add_argument("--grid-mode", choices=("reachable", "full"),
                        default="reachable", help="grid construction mode")
    p_plan.add_argument("--sweep", metavar="EPS1,EPS2,...", type=_epsilon_list,
                        help="also plan at these epsilon values")
    p_plan.add_argument("--sweep-csv", metavar="PATH",
                        help="write the value-vs-mesh sweep as CSV")

    p_base = sub.add_parser("baseline", help="delta belief-simplex planner")
    _add_common_flags(p_base)
    p_base.add_argument("--delta", type=float, default=0.05,
                        help="simplex lattice mesh, 1/delta integral (default 0.05)")

    p_cmp = sub.add_parser("compare", help="run both planners plus the oracle")
    _add_common_flags(p_cmp)
    p_cmp.add_argument("--epsilon", type=float, default=0.1)
    p_cmp.add_argument("--delta", type=float, default=0.05)
    p_cmp.add_argument("--grid-mode", choices=("reachable", "full"),
                       default="reachable")
    return parser


# main parses with one parser per process: building one takes about a
# millisecond, a visible share of a small model's run
_parser = functools.cache(build_parser)


def _atomic_write(path, text):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path, payload):
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {
            k: _strip_timings(v)
            for k, v in obj.items()
            if k not in ("stageSeconds", "seconds", "wallSeconds")
        }
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


def _model_summary(model, path):
    return {
        "path": os.path.basename(path),
        "states": model.n,
        "actions": model.n_actions,
        "observations": model.n_observations,
        "rewardValues": len(model.reward_values),
        "discount": model.discount,
        "rewardScale": model.reward_scale,
        "rewardOffset": model.reward_offset,
    }


def _optimum(model, slack):
    """(horizon, optimal value, optimal first action) at the initial belief."""
    horizon = oraclemod.horizon_for_slack(model.discount, slack)
    return (horizon,) + oraclemod.exact_value(model, model.initial_belief, horizon)


def _oracle_block(model, policy_fn, optimum):
    horizon, v_opt, a_opt = optimum
    v_pol = oraclemod.evaluate_policy(
        model, policy_fn, model.initial_belief, horizon
    )
    return {
        "horizon": horizon,
        "slack": oraclemod.truncation_slack(model.discount, horizon),
        "optimalValue": v_opt,
        "optimalFirstAction": model.actions[a_opt],
        "policyValue": v_pol,
        "gap": v_opt - v_pol,
    }


def _verdict(measured_gap, bound, slack):
    return {
        "bound": bound,
        "slackAllowance": 2 * slack,
        "measuredGap": measured_gap,
        "pass": bool(measured_gap <= bound + 2 * slack),
    }


def _planner_block(model, args, epsilon):
    t0 = time.perf_counter()
    result = plannermod.plan(
        model,
        epsilon=epsilon,
        vi_tol=args.vi_tol,
        mode=getattr(args, "grid_mode", "reachable"),
        state_cap=args.state_cap,
    )
    wall = time.perf_counter() - t0
    dec = result.spanner.decomposition
    block = {
        "epsilon": epsilon,
        "rank": dec.rank,
        "basis": decompmod.to_json_dict(result.spanner),
        "grid": {
            "states": result.grid.n_states,
            "mesh": result.grid.mesh,
            "mode": result.metadata["gridMode"],
            "diagnostics": result.grid.diagnostics,
        },
        "valueIteration": _value_iteration(result),
        "valueAtInitialBelief": float(result.values[result.grid.initial_state]),
        "stageSeconds": dict(result.metadata["stageSeconds"], total=wall),
    }
    return result, block


def _baseline_block(model, args, delta):
    t0 = time.perf_counter()
    result = baselinemod.plan_baseline(
        model, delta=delta, vi_tol=args.vi_tol, state_cap=args.state_cap
    )
    wall = time.perf_counter() - t0
    block = {
        "delta": delta,
        "grid": {
            "states": result.grid.n_states,
            "mesh": result.grid.mesh,
            "diagnostics": result.grid.diagnostics,
        },
        "valueIteration": _value_iteration(result),
        "valueAtInitialBelief": float(result.values[result.grid.initial_state]),
        "stageSeconds": dict(result.metadata["stageSeconds"], total=wall),
    }
    return result, block


def _default_paths(args):
    stem, _ = os.path.splitext(args.model)
    report = args.json_out or f"{stem}.report.json"
    policy = args.policy_out or f"{stem}.policy.json"
    return report, policy


def _emit(args, report, policy_payload=None):
    # blocks hold their grid's live diagnostics, so counts the oracle adds
    # through act() (actFallbacks) are copied only now
    report = gridmod._json_safe(dict(report, schemaVersion=SCHEMA_VERSION))
    if args.no_timings:
        report = _strip_timings(report)
    report_path, policy_path = _default_paths(args)
    _write_json(report_path, report)
    if policy_payload is not None:
        policy_payload["schemaVersion"] = SCHEMA_VERSION
        if args.no_timings:
            policy_payload = _strip_timings(policy_payload)
        _write_json(policy_path, policy_payload)
    return report_path, policy_path


def cmd_plan(args):
    model = load_pomdp(args.model)
    result, block = _planner_block(model, args, args.epsilon)

    report = {
        "command": "plan",
        "model": _model_summary(model, args.model),
        "planner": block,
    }
    if args.oracle:
        policy_fn = lambda b: plannermod.act(result.spanner, result, b)
        orc = _oracle_block(model, policy_fn, _optimum(model, args.oracle_slack))
        gamma = model.discount
        bound = args.epsilon / (1.0 - gamma) ** 4
        orc["accuracyBound"] = _verdict(orc["gap"], bound, orc["slack"])
        orc["inspectFlag"] = bool(orc["gap"] > 0.05 / (1.0 - gamma))
        report["oracle"] = orc

    if args.sweep:
        rows = []
        for eps in args.sweep:
            _, sweep_block = _planner_block(model, args, eps)
            rows.append(
                {
                    "epsilon": eps,
                    "mesh": sweep_block["grid"]["mesh"],
                    "gridStates": sweep_block["grid"]["states"],
                    "value": sweep_block["valueAtInitialBelief"],
                    "seconds": sweep_block["stageSeconds"]["total"],
                }
            )
        report["sweep"] = rows if not args.no_timings else _strip_timings(rows)
        if args.sweep_csv:
            _write_sweep_csv(args.sweep_csv, rows, args.no_timings)

    policy_payload = gridmod.plan_to_json_dict(result.grid, result)
    report_path, policy_path = _emit(args, report, policy_payload)
    print(
        f"plan: rank={block['rank']} grid={block['grid']['states']} "
        f"value={block['valueAtInitialBelief']:.6f} -> {report_path}"
    )
    return EXIT_OK


def _write_sweep_csv(path, rows, no_timings):
    fields = ["epsilon", "mesh", "gridStates", "value"]
    if not no_timings:
        fields.append("seconds")
    lines = [",".join(fields)]
    for row in rows:
        lines.append(",".join(str(row[f]) for f in fields))
    _atomic_write(path, "\n".join(lines) + "\n")


def cmd_baseline(args):
    model = load_pomdp(args.model)
    result, block = _baseline_block(model, args, args.delta)
    report = {
        "command": "baseline",
        "model": _model_summary(model, args.model),
        "baseline": block,
    }
    if args.oracle:
        policy_fn = lambda b: baselinemod.act_baseline(result, b)
        orc = _oracle_block(model, policy_fn, _optimum(model, args.oracle_slack))
        gamma = model.discount
        bound = 2.0 * args.delta / (1.0 - gamma) ** 3
        orc["accuracyBound"] = _verdict(orc["gap"], bound, orc["slack"])
        report["oracle"] = orc
    policy_payload = gridmod.plan_to_json_dict(result.grid, result)
    report_path, _ = _emit(args, report, policy_payload)
    print(
        f"baseline: grid={block['grid']['states']} "
        f"value={block['valueAtInitialBelief']:.6f} -> {report_path}"
    )
    return EXIT_OK


def cmd_compare(args):
    model = load_pomdp(args.model)
    plan_result, plan_block = _planner_block(model, args, args.epsilon)
    base_result, base_block = _baseline_block(model, args, args.delta)

    gamma = model.discount
    optimum = _optimum(model, args.oracle_slack)  # shared by both planners
    plan_oracle = _oracle_block(
        model, lambda b: plannermod.act(plan_result.spanner, plan_result, b), optimum
    )
    plan_oracle["accuracyBound"] = _verdict(
        plan_oracle["gap"], args.epsilon / (1.0 - gamma) ** 4, plan_oracle["slack"]
    )
    base_oracle = _oracle_block(
        model, lambda b: baselinemod.act_baseline(base_result, b), optimum
    )
    base_oracle["accuracyBound"] = _verdict(
        base_oracle["gap"], 2.0 * args.delta / (1.0 - gamma) ** 3, base_oracle["slack"]
    )

    report = {
        "command": "compare",
        "model": _model_summary(model, args.model),
        "planner": dict(plan_block, oracle=plan_oracle),
        "baseline": dict(base_block, oracle=base_oracle),
        "summary": {
            "rank": plan_block["rank"],
            "plannerGridStates": plan_block["grid"]["states"],
            "baselineGridStates": base_block["grid"]["states"],
            "plannerGap": plan_oracle["gap"],
            "baselineGap": base_oracle["gap"],
        },
    }
    report_path, _ = _emit(args, report)
    s = report["summary"]
    print(
        f"compare: rank={s['rank']} planner grid={s['plannerGridStates']} "
        f"baseline grid={s['baselineGridStates']} "
        f"gaps: planner={s['plannerGap']:.6f} baseline={s['baselineGap']:.6f} "
        f"-> {report_path}"
    )
    return EXIT_OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {"plan": cmd_plan, "baseline": cmd_baseline, "compare": cmd_compare}
    try:
        return handlers[args.command](args)
    except (StateCapExceededError, OracleBudgetError, ConvergenceError) as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParseError, ValidationError, PsrPlanError) as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
