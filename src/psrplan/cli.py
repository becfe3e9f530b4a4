"""Command-line front end: plan, baseline, and compare on .POMDP files.

Exit codes: 0 success, 2 validation/parse failures, unreadable or
unwritable files and outputs that name the model or each other, 3
resource budgets (grid state cap, oracle node budget).  All JSON outputs
are written atomically, exactly as
``json.dumps(payload, sort_keys=True, indent=2)`` plus a newline, and
carry a schemaVersion; --no-timings strips wall-clock fields so reports
from identical runs are byte-identical.
"""

import argparse
import contextlib
import functools
import json
import os
import sys

import numpy as np

from . import baseline as baselinemod
from . import decomposition as decompmod
from . import grid as gridmod
from . import oracle as oraclemod
from . import planner as plannermod
from .cassandra import load_pomdp
from .errors import (
    ConvergenceError,
    OracleBudgetError,
    PsrPlanError,
    StateCapExceededError,
    ValidationError,
)

SCHEMA_VERSION = 4

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


def _checked(rule):
    """An argparse type: a float the library's ``rule`` accepts.  A bad
    value exits 2 at parsing, before the model is read, with its message."""

    def parse(text):
        value = float(text)  # argparse reports a ValueError as an invalid value
        try:
            rule(value)
        except ValidationError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parse.__name__ = "float"  # argparse's name for the type in "invalid float value"
    return parse


_epsilon = _checked(plannermod.check_epsilon)


def _epsilon_list(text):
    """--sweep value: one or more comma-separated floats in (0, 1], empty
    tokens skipped."""
    try:
        values = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {text!r}")
    return [_epsilon(eps) for eps in values]


def _state_cap(text):
    """--state-cap value: an integer of at least 1."""
    cap = int(text)  # argparse reports a ValueError as an invalid value
    if cap < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {cap}")
    return cap


def _add_common_flags(p):
    p.add_argument("model", help="path to a Cassandra-format .POMDP file")
    p.add_argument("--vi-tol", type=_checked(gridmod.check_vi_tol), default=gridmod.DEFAULT_VI_TOL,
                   help="value-iteration tolerance, finite and > 0: the greedy "
                   "policy loses at most this much in the grid MDP and the "
                   "values are within discount * vi-tol / 2 of its optimum; "
                   "sweeps stop when their change spans at most "
                   "vi-tol * (1 - discount) (default %(default)g)")
    p.add_argument("--oracle-slack", type=_checked(oraclemod.check_slack),
                   default=oraclemod.DEFAULT_SLACK,
                   help="truncation slack for the oracle horizon (default %(default)g)")
    p.add_argument("--state-cap", type=_state_cap, default=gridmod.DEFAULT_STATE_CAP,
                   help="abort if a grid exceeds this many states, at least 1")
    p.add_argument("--no-timings", action="store_true",
                   help="strip wall-clock fields for byte-stable output")
    p.add_argument("--json-out", metavar="PATH",
                   help="report JSON path (default: <model>.report.json)")


def _add_planner_flags(p):
    p.add_argument("--epsilon", type=_epsilon, default=0.1,
                   help="coefficient-grid accuracy target in (0, 1] (default %(default)g)")
    p.add_argument("--grid-mode", choices=("reachable", "full"),
                   default="reachable", help="grid construction mode")


def _add_baseline_flags(p):
    p.add_argument("--delta", type=_checked(baselinemod.resolution), default=0.05,
                   help="simplex lattice mesh, 1/delta integral (default %(default)g)")


def _add_one_side_flags(p):
    """Flags of ``plan`` and ``baseline``, which ``compare`` does not take:
    it always runs the oracle and writes no policy."""
    _add_common_flags(p)
    p.add_argument("--oracle", action="store_true",
                   help="also run the exact oracle and report the gap")
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
    _add_one_side_flags(p_plan)
    _add_planner_flags(p_plan)
    p_plan.add_argument("--sweep", metavar="EPS1,EPS2,...", type=_epsilon_list,
                        help="also plan at these epsilon values")
    p_plan.add_argument("--sweep-csv", metavar="PATH",
                        help="write the value-vs-mesh sweep as CSV")

    p_base = sub.add_parser("baseline", help="delta belief-simplex planner")
    _add_one_side_flags(p_base)
    _add_baseline_flags(p_base)

    # without abbreviations, so that --oracle is not read as --oracle-slack
    p_cmp = sub.add_parser("compare", help="run both planners plus the oracle",
                           allow_abbrev=False)
    _add_common_flags(p_cmp)
    _add_planner_flags(p_cmp)
    _add_baseline_flags(p_cmp)
    return parser


# main parses with one parser per process: building one takes about a
# millisecond, a visible share of a small model's run
_parser = functools.cache(build_parser)


def _atomic_write(path, text):
    """Write text to path through path.tmp, which a failed write removes."""
    tmp = f"{path}.tmp"
    fh = open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _dumps(obj, pad=""):
    """``json.dumps(obj, sort_keys=True, indent=2)``, nested at indent ``pad``,
    for a payload whose dict keys are strings.

    A non-empty 1-D or 2-D ndarray of integers or of finite floats is one
    ``%`` format over a template of its indented layout: ``"%d"`` per int
    and ``"%r"`` per float, which is how ``json`` writes each.  Any other
    ndarray is written as its ``tolist()``, a non-empty dict or list item
    by item, and any other value by ``json.dumps``.
    """
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        items = (f"{inner}{json.dumps(k)}: {_dumps(obj[k], inner)}" for k in sorted(obj))
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)) and obj:
        return "[\n" + ",\n".join(inner + _dumps(v, inner) for v in obj) + f"\n{pad}]"
    if isinstance(obj, np.ndarray):
        ints = obj.dtype.kind in "iu"
        # a float wider than float64 has no Python float for "%r" to write
        floats = obj.dtype.kind == "f" and obj.itemsize <= 8 and np.isfinite(obj).all()
        if obj.size and obj.ndim in (1, 2) and (ints or floats):
            item = "%d" if ints else "%r"
            row = _layout(item, obj.shape[1], inner + "  ", inner) if obj.ndim == 2 else item
            return _layout(row, obj.shape[0], inner, pad) % tuple(obj.ravel().tolist())
        return _dumps(obj.tolist(), pad)
    return json.dumps(obj)  # a scalar, or an empty dict or list, spans one line


def _layout(item, count, inner, pad):
    """A list of ``count`` copies of ``item`` as ``json.dumps(indent=2)``
    lays it out at indent ``pad``, its items at ``inner``."""
    return f"[\n{inner}" + f",\n{inner}".join([item] * count) + f"\n{pad}]"


def _write_json(path, payload):
    _atomic_write(path, _dumps(payload) + "\n")


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {
            k: _strip_timings(v)
            for k, v in obj.items()
            if k not in ("stageSeconds", "seconds")
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


def _oracle_blocks(model, oracle_slack, sides):
    """One exact search at the initial belief, at the horizon of ``oracle_slack``:
    per (policy, bound) of ``sides``, a block of the policy's value, its gap
    to the optimum, and whether that gap is within ``bound`` plus twice the
    horizon's truncation slack."""
    horizon = oraclemod.horizon_for_slack(model.discount, oracle_slack)
    v_opt, a_opt, values, _ = oraclemod.search(
        model, model.initial_belief, horizon, [policy for policy, _ in sides]
    )
    slack = oraclemod.truncation_slack(model.discount, horizon)
    blocks = []
    for (_, bound), v_pol in zip(sides, values):
        gap = v_opt - v_pol
        blocks.append({
            "horizon": horizon,
            "slack": slack,
            "optimalValue": v_opt,
            "optimalFirstAction": model.actions[a_opt],
            "policyValue": v_pol,
            "gap": gap,
            "accuracyBound": {
                "bound": bound,
                "slackAllowance": 2 * slack,
                "measuredGap": gap,
                "pass": bool(gap <= bound + 2 * slack),
            },
        })
    return blocks


def _plan_side(model, args, side, target):
    """Plan one side, timed: "planner" at epsilon ``target`` or "baseline"
    at delta ``target``.

    Returns the result, its report block, its policy for the oracle and
    the bound that policy's oracle gap is held to.
    """
    gamma = model.discount
    wall = {}
    if side == "planner":
        result = gridmod.timed(
            wall, "total", plannermod.plan, model, epsilon=target, vi_tol=args.vi_tol,
            mode=args.grid_mode, state_cap=args.state_cap,
        )
        policy = lambda b: plannermod.act(result, b)
        bound = target / (1.0 - gamma) ** 4
    else:
        result = gridmod.timed(
            wall, "total", baselinemod.plan_baseline, model, delta=target,
            vi_tol=args.vi_tol, state_cap=args.state_cap,
        )
        policy = lambda b: baselinemod.act_baseline(result, b)
        bound = 2.0 * target / (1.0 - gamma) ** 3
    grid = result.grid
    block = {
        "grid": {
            "states": grid.n_states,
            "mesh": grid.mesh,
            "diagnostics": grid.diagnostics,
        },
        # sweeps, last span and MacQueen bounds at the initial state
        "valueIteration": {
            "iterations": result.iterations,
            "residual": result.residual,
            "lowerBound": result.metadata["lowerBound"],
            "upperBound": result.metadata["upperBound"],
        },
        "valueAtInitialBelief": float(result.values[grid.initial_state]),
        "stageSeconds": dict(result.metadata["stageSeconds"], **wall),
    }
    if side == "planner":
        block["epsilon"] = target
        block["rank"] = result.spanner.rank
        block["basis"] = decompmod.to_json_dict(result.spanner)
        block["grid"]["mode"] = result.metadata["gridMode"]
    else:
        block["delta"] = target
    return result, block, policy, bound


def _resolve_paths(args):
    """Give the report and policy paths their defaults, the model's path with
    another extension, and refuse two of the model and the outputs that name
    one file, before anything is read or written."""
    stem = os.path.splitext(args.model)[0]
    args.json_out = args.json_out or stem + ".report.json"
    named = {"the model": args.model, "the report": args.json_out}
    if args.command != "compare":
        args.policy_out = named["the policy"] = args.policy_out or stem + ".policy.json"
    if args.command == "plan" and args.sweep_csv:
        named["the sweep CSV"] = args.sweep_csv
    seen = {}
    for role, path in named.items():
        other = seen.setdefault(os.path.realpath(path), role)
        if other != role:
            raise ValidationError(f"{other} and {role} are the same file: {path}")


def _emit(args, report, policy_payload=None):
    """Write the report and, when given, the policy."""
    report = dict(report, schemaVersion=SCHEMA_VERSION)
    if args.no_timings:
        report = _strip_timings(report)
    _write_json(args.json_out, report)
    if policy_payload is not None:
        policy_payload["schemaVersion"] = SCHEMA_VERSION
        if args.no_timings:
            policy_payload = _strip_timings(policy_payload)
        _write_json(args.policy_out, policy_payload)


def cmd_plan(args):
    """``plan`` and ``baseline``: one side, its policy file and, with
    --oracle, its gap to the optimum; ``plan`` also runs --sweep."""
    planner = args.command == "plan"
    if planner and args.sweep_csv and not args.sweep:
        raise ValidationError("--sweep-csv writes the rows of --sweep; give --sweep too")
    model = load_pomdp(args.model)
    side = "planner" if planner else "baseline"
    target = args.epsilon if planner else args.delta
    result, block, policy, bound = _plan_side(model, args, side, target)
    report = {
        "command": args.command,
        "model": _model_summary(model, args.model),
        side: block,
    }
    if args.oracle:
        (orc,) = _oracle_blocks(model, args.oracle_slack, [(policy, bound)])
        if planner:
            orc["inspectFlag"] = bool(orc["gap"] > 0.05 / (1.0 - model.discount))
        report["oracle"] = orc

    if planner and args.sweep:
        rows = []
        # on the main plan's basis and step operators: neither depends on epsilon
        for eps in args.sweep:
            wall = {}
            grid = gridmod.timed(
                wall, "grid", plannermod.build_grid, model, result.spanner, result.dynamics,
                eps, mode=args.grid_mode, state_cap=args.state_cap,
            )
            solved = gridmod.timed(wall, "solve", gridmod.solve, grid, args.vi_tol)
            rows.append(
                {
                    "epsilon": eps,
                    "mesh": grid.mesh,
                    "gridStates": grid.n_states,
                    "value": float(solved.values[grid.initial_state]),
                    "seconds": wall["grid"] + wall["solve"],
                }
            )
        report["sweep"] = rows
        if args.sweep_csv:
            _write_sweep_csv(args.sweep_csv, _strip_timings(rows) if args.no_timings else rows)

    _emit(args, report, gridmod.plan_to_json_dict(result))
    rank = f"rank={block['rank']} " if planner else ""
    print(
        f"{args.command}: {rank}grid={block['grid']['states']} "
        f"value={block['valueAtInitialBelief']:.6f} -> {args.json_out}"
    )
    return EXIT_OK


def _write_sweep_csv(path, rows):
    """One CSV line per sweep row, its keys the header."""
    lines = [",".join(rows[0])] + [",".join(str(v) for v in row.values()) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def cmd_compare(args):
    model = load_pomdp(args.model)
    sides = [
        (side, _plan_side(model, args, side, target))
        for side, target in (("planner", args.epsilon), ("baseline", args.delta))
    ]
    blocks = _oracle_blocks(
        model, args.oracle_slack, [(policy, bound) for _, (_, _, policy, bound) in sides]
    )
    report = {"command": "compare", "model": _model_summary(model, args.model)}
    for (side, (_, block, _, _)), orc in zip(sides, blocks):
        report[side] = dict(block, oracle=orc)
    plan, base = report["planner"], report["baseline"]
    report["summary"] = s = {
        "rank": plan["rank"],
        "plannerGridStates": plan["grid"]["states"],
        "baselineGridStates": base["grid"]["states"],
        "plannerGap": plan["oracle"]["gap"],
        "baselineGap": base["oracle"]["gap"],
    }
    _emit(args, report)
    print(
        f"compare: rank={s['rank']} planner grid={s['plannerGridStates']} "
        f"baseline grid={s['baselineGridStates']} "
        f"gaps: planner={s['plannerGap']:.6f} baseline={s['baselineGap']:.6f} "
        f"-> {args.json_out}"
    )
    return EXIT_OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {"plan": cmd_plan, "baseline": cmd_plan, "compare": cmd_compare}
    try:
        _resolve_paths(args)
        return handlers[args.command](args)
    except (PsrPlanError, OSError) as exc:  # OSError: a missing or unwritable file
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        budget = (StateCapExceededError, OracleBudgetError, ConvergenceError)
        return EXIT_BUDGET if isinstance(exc, budget) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
