"""Workloads: the seeded case lists, their in-memory references and checks.

A case is one ``psrplan`` CLI invocation on a generated ``.POMDP`` file.
Grid cases carry a target grid size.  ``calibrate`` searches the grid knob
(``1/epsilon``, or ``1/delta`` for the simplex baseline) on the in-memory
model until the grid has about that many states, so every seed asks for
the same amount of grid work.  ``build_cases`` then writes the files and
plans each in-memory model at its knob: that result is the reference the
CLI's output must reproduce through the writer and the parser, and a
``DegenerateBasisError`` there is the one failure the case may show.
"""

import dataclasses
import math
import os
import re
from dataclasses import dataclass, field

from psrplan import baseline as baselinemod
from psrplan import planner as plannermod
from psrplan.automaton import stabilized_rank
from psrplan.cli import EXIT_VALIDATION
from psrplan.cli import _strip_timings as strip_timings  # noqa: F401  (used by run.py)
from psrplan.errors import DegenerateBasisError, StateCapExceededError
from psrplan.zoo import random_pomdp

import corpus

VALUE_TOL = 1e-9  # lifting through the writer and parser changes values by ulps
SEARCH_TOL = 0.04  # accept a grid within 4 % of its target size
SEARCH_TRIES = 8
SEARCH_CAP = 1.5  # abandon a trial grid above this multiple of the target
SEARCH_DISCOUNT = 0.5  # grid closures do not depend on the discount

# plan-lifted: (n, k, discount, dirichlet, first epsilon, target states).
# The last three bases are sparse Dirichlet draws.  Basis discovery rejects
# some of them with DegenerateBasisError; those stay in the corpus and
# count as failed cases.  Whether a sparse base fails depends on its draw,
# so the sparse bases are always those of PINNED_SEED, whatever the
# workload seed: every run then shows the same failures (two of the three)
# and does the same amount of work on them.  Their grids are small.
PINNED_SEED = 1207  # the benchmark's default workload seed
PLAN_LIFTED = (
    (300, 3, 0.9, 1.0, 0.026, 2000),
    (200, 4, 0.5, 1.0, 0.045, 3000),
    (120, 5, 0.5, 1.0, 0.09, 3000),
    (60, 3, 0.5, 1.0, 0.01, 8000),
    (30, 4, 0.9, 1.0, 0.1, 1000),
    (40, 3, 0.5, 0.05, 0.04, 400),
    (30, 4, 0.5, 0.05, 0.04, 400),
    (50, 5, 0.9, 0.05, 0.1, 400),
)
# oracle-gap: checked-in models at the CLI defaults, then dense random
# models (n, first epsilon, target states) at discount 0.4, oracle horizon 5.
# Their dynamics are PINNED_SEED's draws and the workload seed draws their
# rewards and initial belief.  About one seed in ten draws dynamics that
# hit the same DegenerateBasisError as the sparse bases, which would skip
# a third of the pass; rewards and the initial belief do not enter basis
# discovery, so no seed fails here.
ORACLE_FILES = ("tiger", "clones", "fair_coin")
ORACLE_RANDOM = ((3, 0.05, 1000), (4, 0.1, 1000), (5, 0.15, 1000), (6, 0.2, 1000))
ORACLE_DISCOUNT = 0.4
# high-discount: lifted plan cases (n, k, first epsilon, target states) and
# baseline cases (n, first 1/delta, target states), all at discount 0.99.
HIGH_PLAN = ((100, 3, 0.02, 3000), (60, 4, 0.08, 2500))
HIGH_BASELINE = ((3, 120, 400), (4, 50, 600), (5, 30, 700), (6, 25, 900))
HIGH_DISCOUNT = 0.99
DELTA_RESOLUTIONS = (10, 200)  # 1/delta from 10 to 200, delta 0.1 to 0.005

# Tiny variants for the smoke test: same shapes, small files and grids.
TINY_PLAN_LIFTED = ((12, 3, 0.9, 1.0, 0.2, 60), (8, 4, 0.5, 0.05, 0.3, 60))
TINY_ORACLE_FILES = ("fair_coin",)
TINY_ORACLE_RANDOM = ((3, 0.3, 40),)
TINY_HIGH_PLAN = ((9, 3, 0.3, 60),)
TINY_HIGH_BASELINE = ((3, 10, 40),)

WORKLOAD_TAGS = {"plan-lifted": 1, "oracle-gap": 2, "high-discount": 3}
WORKLOADS = tuple(WORKLOAD_TAGS)


@dataclass
class Case:
    name: str
    argv: list  # arguments to psrplan.cli.main
    report: str  # report JSON path the CLI writes
    kind: str  # the CLI command: "plan", "baseline" or "compare"
    expected: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Grid-size search


def _search(build, x0, target, lo, hi, integer):
    """Knob x in [lo, hi] (grids grow with x) whose grid has ~target states.

    ``build(x, cap)`` returns a grid or raises StateCapExceededError.
    Steps by a log-log secant through the nearest two sizes seen; returns
    (x, result) for the closest size built.
    """
    cap = int(target * SEARCH_CAP)
    sizes = {}  # x -> states, or None when the cap was hit
    results = {}

    def clamp(x):
        x = min(max(x, lo), hi)
        return int(round(x)) if integer else 1.0 / _eps(x)

    x = clamp(x0)
    for _ in range(SEARCH_TRIES):
        try:
            results[x] = build(x, cap)
            sizes[x] = results[x].grid.n_states
        except StateCapExceededError:
            sizes[x] = None
        if sizes[x] is not None and abs(sizes[x] / target - 1.0) <= SEARCH_TOL:
            break
        nxt = clamp(_next_knob(sizes, target))
        if nxt in sizes:
            break
        x = nxt
    if not results:  # even the smallest grid tried is above the cap
        x = clamp(lo)
        return x, build(x, plannermod.DEFAULT_STATE_CAP)
    best = min(results, key=lambda k: abs(math.log(sizes[k] / target)))
    return best, results[best]


def _next_knob(sizes, target):
    known = sorted((x, n) for x, n in sizes.items() if n is not None)
    capped = [x for x, n in sizes.items() if n is None]
    ceiling = min(capped) if capped else math.inf
    if not known:
        return ceiling / 2.0
    below = [p for p in known if p[1] < target]
    above = [p for p in known if p[1] > target]
    if below and above:
        (x1, n1), (x2, n2) = below[-1], above[0]
    elif len(known) >= 2:
        (x1, n1), (x2, n2) = sorted(known, key=lambda p: abs(math.log(p[1] / target)))[:2]
    else:
        (x1, n1), (x2, n2) = known[0], (None, None)
    growth = 1.3  # typical growth of a closure's size with 1/epsilon
    if x2 is not None and x2 != x1 and n2 != n1:
        growth = max(0.5, math.log(n2 / n1) / math.log(x2 / x1))
    step = min(4.0, max(0.25, (target / n1) ** (1.0 / growth)))
    nxt = x1 * step
    if nxt >= ceiling:
        nxt = math.sqrt(max(x for x, _ in known) * ceiling) if known else ceiling / 2
    return nxt


def _eps(x):
    """Epsilon for knob x = 1/epsilon, kept to three significant digits."""
    return float(f"{1.0 / x:.3g}")


# ---------------------------------------------------------------------------
# Corpus construction


@dataclass
class Spec:
    """One case before calibration: its model and how its grid is sized."""

    name: str
    command: str
    make_model: object  # () -> model written to the case's .POMDP file
    reference: object  # () -> in-memory model the CLI result must match
    knob0: float = None  # first epsilon (or delta) tried; None: CLI defaults
    target: int = 0  # target grid states
    path: str = None  # a checked-in model file, used as is
    rank_of: object = None  # () -> model whose stabilized rank is expected


def _specs(workload, seed, root, tiny):
    tag = WORKLOAD_TAGS[workload]
    if workload == "plan-lifted":
        for i, row in enumerate(TINY_PLAN_LIFTED if tiny else PLAN_LIFTED):
            n, k, gamma, dirichlet, eps0, target = row
            kind = "dense" if dirichlet >= 1.0 else "sparse"
            base_seed = seed if kind == "dense" else PINNED_SEED
            yield _lifted_spec(f"lift{i}-n{n}-k{k}-{kind}", corpus.case_seed(base_seed, tag, i),
                               n, k, gamma, dirichlet, eps0, target)
    elif workload == "oracle-gap":
        for stem in TINY_ORACLE_FILES if tiny else ORACLE_FILES:
            path = os.path.join(root, "tests", "data", f"{stem}.POMDP")
            yield Spec(stem, "compare", None, None, path=path)
        for i, (n, eps0, target) in enumerate(TINY_ORACLE_RANDOM if tiny else ORACLE_RANDOM):
            dynamics_seed = corpus.case_seed(PINNED_SEED, tag, i)
            start_seed = corpus.case_seed(seed, tag, i)

            def model(n=n, dynamics_seed=dynamics_seed, start_seed=start_seed):
                pinned = random_pomdp(n, 2, 2, 2, seed=dynamics_seed, discount=ORACLE_DISCOUNT)
                return corpus.restarted(pinned, start_seed)

            yield Spec(f"rand{i}-n{n}", "compare", model, model, eps0, target)
    elif workload == "high-discount":
        for i, (n, k, eps0, target) in enumerate(TINY_HIGH_PLAN if tiny else HIGH_PLAN):
            yield _lifted_spec(f"plan{i}-n{n}-k{k}", corpus.case_seed(seed, tag, i),
                               n, k, HIGH_DISCOUNT, 1.0, eps0, target)
        for i, (n, k0, target) in enumerate(TINY_HIGH_BASELINE if tiny else HIGH_BASELINE):
            case_seed = corpus.case_seed(seed, tag, 100 + i)

            def model(n=n, case_seed=case_seed):
                return random_pomdp(n, 2, 2, 2, seed=case_seed, discount=HIGH_DISCOUNT)

            yield Spec(f"base{i}-n{n}", "baseline", model, model, 1.0 / k0, target)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _lifted_spec(name, seed, n, k, gamma, dirichlet, eps0, target):
    def base():
        return corpus.clone_base(k, seed, gamma, dirichlet)

    def lifted():
        return corpus.lifted_clones(n, k, seed, gamma, dirichlet)

    return Spec(name, "plan", lifted, base, eps0, target, rank_of=base)


def calibrate(workload, seed, root, tiny=False):
    """Grid knob per case name: the epsilon (or delta) that hits its target size.

    The search plans each in-memory model several times.  Its number of
    tries depends on the seed, so it is a set-up step of its own, kept out
    of ``build_cases`` and of the set-up time.
    """
    knobs = {}
    for spec in _specs(workload, seed, root, tiny):
        if spec.knob0 is None:
            continue
        probe = dataclasses.replace(spec.reference(), discount=SEARCH_DISCOUNT)
        if spec.command == "baseline":
            def build(k, cap):
                return baselinemod.plan_baseline(probe, delta=1.0 / k, state_cap=cap)

            k, _ = _search(build, 1.0 / spec.knob0, spec.target, *DELTA_RESOLUTIONS,
                           integer=True)
            knobs[spec.name] = 1.0 / k
            continue

        def build(x, cap):
            return plannermod.plan(probe, epsilon=_eps(x), state_cap=cap)

        try:
            x, _ = _search(build, 1.0 / spec.knob0, spec.target, 1.0, 1000.0, integer=False)
        except DegenerateBasisError:
            knobs[spec.name] = spec.knob0  # the reference reproduces the failure
        else:
            knobs[spec.name] = _eps(x)
    return knobs


def _expected(spec, knob):
    """The CLI outcome the in-memory reference predicts for one case."""
    model = spec.reference()
    try:
        if spec.command == "baseline":
            result = baselinemod.plan_baseline(model, delta=knob)
        else:
            result = plannermod.plan(model, epsilon=knob)
    except DegenerateBasisError as exc:
        return {"error": str(exc)}
    if spec.command == "compare":
        return {}  # compare reports are checked by their oracle verdicts
    expected = {
        "states": int(result.grid.n_states),
        "value": float(result.values[result.grid.initial_state]),
    }
    if spec.rank_of is not None:
        expected["rank"] = stabilized_rank(spec.rank_of())
    return expected


def build_cases(workload, seed, workdir, root, knobs, tiny=False):
    """Write one workload's corpus under ``workdir`` and compute its references.

    ``knobs`` comes from ``calibrate``.  Every case's expected outcome is
    the in-memory reference's: a report to check, or the error its
    ``DegenerateBasisError`` predicts.
    """
    cases = []
    for spec in _specs(workload, seed, root, tiny):
        path = spec.path or corpus.write_pomdp(
            spec.make_model(), os.path.join(workdir, f"{spec.name}.POMDP"))
        extra = []
        if spec.name in knobs:
            knob = knobs[spec.name]
            extra = ["--delta" if spec.command == "baseline" else "--epsilon", repr(knob)]
            if tiny and spec.command == "compare":
                extra += ["--oracle-slack", "0.2"]
        expected = _expected(spec, knobs[spec.name]) if spec.reference else {}
        report = os.path.join(workdir, f"{spec.name}.report.json")
        argv = [spec.command, path, *extra, "--json-out", report]
        if spec.command != "compare":
            argv += ["--policy-out", os.path.join(workdir, f"{spec.name}.policy.json")]
        cases.append(Case(spec.name, argv, report, spec.command, expected))
    return cases


# ---------------------------------------------------------------------------
# Output checks


def check_report(case, report):
    """Problems with one case's report against its independent expectations."""
    if "error" in case.expected:
        return [f"succeeded, but the in-memory reference raised {case.expected['error']!r}"]
    if case.kind == "compare":
        return [
            f"{side} gap {v['measuredGap']!r} fails its bound {v['bound']!r}"
            for side, v in _verdicts(report) if not v["pass"]
        ]
    block = report["planner" if case.kind == "plan" else "baseline"]
    exp = case.expected
    problems = []
    if "rank" in exp and block["rank"] != exp["rank"]:
        problems.append(f"rank {block['rank']} != stabilized rank {exp['rank']}")
    if "states" in exp and block["grid"]["states"] != exp["states"]:
        problems.append(f"grid {block['grid']['states']} states != in-memory {exp['states']}")
    if "value" in exp and abs(block["valueAtInitialBelief"] - exp["value"]) > VALUE_TOL:
        problems.append(
            f"value {block['valueAtInitialBelief']!r} != in-memory {exp['value']!r}"
        )
    return problems


def check_failure(case, rc, message):
    """Problems with a case that exited nonzero.

    Only the failure its in-memory reference predicts is allowed: exit
    ``EXIT_VALIDATION`` with a ``DegenerateBasisError`` message of the
    reference's form.  The counts in it may differ, since the lifted
    model's basis search sees other numbers than its base's.  Any other
    exit code, message or crash is a failed check.
    """
    expected = case.expected.get("error")
    if expected is None:
        return [f"unexpected exit {rc}: {message}"]
    form = re.sub(r"\d+", r"\\d+", re.escape(expected))
    if rc != EXIT_VALIDATION or not re.search(form + "$", message):
        return [f"exit {rc} {message!r}; expected exit {EXIT_VALIDATION} with {expected!r}"]
    return []


def _verdicts(report):
    return [(side, report[side]["oracle"]["accuracyBound"]) for side in ("planner", "baseline")]


def gap_ratios(report):
    """Measured gap over accuracy bound for each verdict in a compare report."""
    return [v["measuredGap"] / v["bound"] for _, v in _verdicts(report)]
