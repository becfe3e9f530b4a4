"""Spans around each layer's public functions, installed from outside the package.

The tracer replaces module attributes with timing wrappers, at the names
their callers resolve (``psrplan.cli.load_pomdp``, ``psrplan.planner.
build_grid``, ...), and restores them on ``uninstall``.  Each span keeps
its name, start, end, parent and case id in memory.  The hot leaf calls
(the Bayes filter and policy lookups, hundreds of thousands per oracle run)
are kept as a call count and summed time on their parent span instead of
one span each.  A target that no longer exists is reported as missing.
"""

import importlib
import os
import statistics
import time

ROOT_SPAN = "cli.main"

# (module, attribute, span name, leaf)
TARGETS = (
    ("psrplan.cli", "load_pomdp", "cassandra.parse", False),
    ("psrplan.planner", "plan", "planner.plan", False),
    ("psrplan.planner", "discover_basis", "decomposition.discover", False),
    ("psrplan.planner", "improve_to_spanner", "decomposition.spanner", False),
    ("psrplan.planner", "precompute_dynamics", "planner.dynamics", False),
    ("psrplan.planner", "build_grid", "planner.build_grid", False),
    ("psrplan.grid", "solve", "grid.solve", False),
    ("psrplan.planner", "act", "planner.act", True),
    ("psrplan.baseline", "plan_baseline", "baseline.plan", False),
    ("psrplan.baseline", "build_delta_grid", "baseline.build_grid", False),
    ("psrplan.baseline", "act_baseline", "baseline.act", True),
    ("psrplan.oracle", "exact_value", "oracle.exact", False),
    ("psrplan.oracle", "evaluate_policy", "oracle.eval", False),
    ("psrplan.oracle", "belief_update", "model.belief_update", True),
    ("psrplan.baseline", "belief_update", "model.belief_update", True),
)

# per_layer metric -> unit, in BENCHMARK.json order
LAYER_UNITS = {
    "cassandra.parse_s": "s",
    "cassandra.mb_per_s": "MB/s",
    "decomposition.discover_s": "s",
    "decomposition.spanner_s": "s",
    "decomposition.swaps": "count",
    "decomposition.failures": "count",
    "planner.dynamics_s": "s",
    "planner.build_grid_s": "s",
    "planner.grid_states": "count",
    "planner.grid_nnz": "count",
    "planner.states_per_s": "1/s",
    "planner.clamp_events": "count",
    "planner.dead_ends": "count",
    "baseline.build_grid_s": "s",
    "baseline.grid_states": "count",
    "baseline.grid_nnz": "count",
    "baseline.states_per_s": "1/s",
    "grid.solve_s": "s",
    "grid.sweeps": "count",
    "grid.ns_per_nnz": "ns",
    "grid.bytes_per_sweep": "bytes_computed",
    "model.belief_update_calls": "count",
    "model.belief_update_s": "s",
    "oracle.exact_s": "s",
    "oracle.eval_s": "s",
    "oracle.policy_calls": "count",
    "oracle.act_s": "s",
    "oracle.act_fallbacks": "count",
    "cli.other_s": "s",
}


class Span:
    __slots__ = ("id", "name", "case", "parent", "start", "end", "child_s",
                 "leaf", "error", "counts", "result")

    def __init__(self, sid, name, case, parent, start):
        self.id = sid
        self.name = name
        self.case = case
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0  # covered by child spans and leaf calls
        self.leaf = {}  # leaf span name -> [calls, seconds]
        self.error = None
        self.counts = {}
        self.result = None  # planner results, read for fallbacks at case end

    @property
    def self_s(self):
        return self.end - self.start - self.child_s

    def to_json(self):
        return {
            "id": self.id, "name": self.name, "case": self.case,
            "parent": self.parent, "start": self.start, "end": self.end,
            "self_s": self.self_s, "error": self.error, "counts": self.counts,
            "leaf": {k: {"calls": v[0], "seconds": v[1]} for k, v in self.leaf.items()},
        }


def _grid_counts(grid):
    return {
        "states": int(grid.n_states),
        "nnz": int(grid.succ.size),
        "clamp_events": int(grid.diagnostics.get("clampEvents", 0)),
        "dead_ends": int(grid.diagnostics.get("deadEnds", 0)),
    }


def _solve_counts(args, result):
    grid = args[0]
    n, nnz = int(grid.n_states), int(grid.succ.size)
    streamed = grid.indptr.nbytes + grid.succ.nbytes + grid.prob.nbytes + grid.rewards.nbytes
    # gathered successor values, then the new values and policy written
    computed = streamed + nnz * 8 + n * (8 + 4)
    return {"sweeps": int(result.iterations), "nnz": nnz, "bytes_per_sweep": computed}


def _observe(name, args, result, span):
    """Counts read from a traced call's arguments and returned object."""
    if name == "cassandra.parse":
        span.counts["bytes"] = os.path.getsize(args[0])
    elif name == "decomposition.spanner":
        span.counts["swaps"] = int(result.swap_count)
    elif name in ("planner.build_grid", "baseline.build_grid"):
        span.counts.update(_grid_counts(result))
    elif name == "grid.solve":
        span.counts.update(_solve_counts(args, result))
    elif name in ("planner.plan", "baseline.plan"):
        span.result = result


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.case = None
        self.missing = []
        self._saved = []

    # -- installation ------------------------------------------------------

    def install(self):
        self.missing = []
        for module_name, attr, name, leaf in TARGETS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._leaf(fn, name) if leaf else self._wrap(fn, name))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, self.case, parent, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child_s += span.end - span.start

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            try:
                _observe(name, args, result, span)
            except (AttributeError, KeyError, TypeError, OSError):
                span.counts["unreadable"] = 1  # the returned object changed shape
            return result

        traced.__wrapped__ = fn
        return traced

    def _leaf(self, fn, name):
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if self.stack:
                    top = self.stack[-1]
                    top.child_s += dt
                    stat = top.leaf.setdefault(name, [0, 0.0])
                    stat[0] += 1
                    stat[1] += dt

        traced.__wrapped__ = fn
        return traced

    def run_case(self, case_id, call):
        """Run ``call()`` as one case under a root span; returns its result."""
        self.case = case_id
        root = self._open(ROOT_SPAN)
        try:
            return call()
        finally:
            self._close(root)
            fallbacks = 0
            for span in self.spans[root.id:]:
                if span.result is not None:
                    diag = getattr(span.result.grid, "diagnostics", {})
                    fallbacks += int(diag.get("actFallbacks", 0))
                    span.result = None
            root.counts["act_fallbacks"] = fallbacks
            self.case = None

    # -- per-layer metrics -------------------------------------------------

    def layer_metrics(self, first_span=0):
        """Per-layer figures over the spans recorded since ``first_span``."""
        spans = self.spans[first_span:]
        self_s = self.self_seconds(first_span)
        counts, calls = {}, {}
        for s in spans:
            for key, v in s.counts.items():
                counts[(s.name, key)] = counts.get((s.name, key), 0) + v
            for key, (n, _) in s.leaf.items():
                calls[key] = calls.get(key, 0) + n
        err_parents = {s.parent for s in spans if s.error == "DegenerateBasisError"}
        failures = sum(
            1 for s in spans if s.error == "DegenerateBasisError" and s.id not in err_parents
        )

        def t(name):
            return self_s.get(name, 0.0)

        def c(name, key):
            return counts.get((name, key), 0)

        def ratio(num, den):
            return num / den if den > 0 else 0.0

        sweeps = c("grid.solve", "sweeps")
        solves = [s.counts for s in spans if s.name == "grid.solve"]
        solve_work = sum(k.get("sweeps", 0) * k.get("nnz", 0) for k in solves)
        sweep_bytes = sum(k.get("sweeps", 0) * k.get("bytes_per_sweep", 0) for k in solves)
        return {
            "cassandra.parse_s": t("cassandra.parse"),
            "cassandra.mb_per_s": ratio(c("cassandra.parse", "bytes") / 1e6, t("cassandra.parse")),
            "decomposition.discover_s": t("decomposition.discover"),
            "decomposition.spanner_s": t("decomposition.spanner"),
            "decomposition.swaps": c("decomposition.spanner", "swaps"),
            "decomposition.failures": failures,
            "planner.dynamics_s": t("planner.dynamics"),
            "planner.build_grid_s": t("planner.build_grid"),
            "planner.grid_states": c("planner.build_grid", "states"),
            "planner.grid_nnz": c("planner.build_grid", "nnz"),
            "planner.states_per_s": ratio(c("planner.build_grid", "states"), t("planner.build_grid")),
            "planner.clamp_events": c("planner.build_grid", "clamp_events"),
            "planner.dead_ends": c("planner.build_grid", "dead_ends"),
            "baseline.build_grid_s": t("baseline.build_grid"),
            "baseline.grid_states": c("baseline.build_grid", "states"),
            "baseline.grid_nnz": c("baseline.build_grid", "nnz"),
            "baseline.states_per_s": ratio(c("baseline.build_grid", "states"), t("baseline.build_grid")),
            "grid.solve_s": t("grid.solve"),
            "grid.sweeps": sweeps,
            "grid.ns_per_nnz": ratio(t("grid.solve") * 1e9, solve_work),
            "grid.bytes_per_sweep": ratio(sweep_bytes, sweeps),
            "model.belief_update_calls": calls.get("model.belief_update", 0),
            "model.belief_update_s": t("model.belief_update"),
            "oracle.exact_s": t("oracle.exact"),
            "oracle.eval_s": t("oracle.eval"),
            "oracle.policy_calls": calls.get("planner.act", 0) + calls.get("baseline.act", 0),
            "oracle.act_s": t("planner.act") + t("baseline.act"),
            "oracle.act_fallbacks": c(ROOT_SPAN, "act_fallbacks"),
            "cli.other_s": t(ROOT_SPAN),
        }

    def self_seconds(self, first_span=0):
        """Self time per span name (leaf calls under their own names)."""
        out = {}
        for s in self.spans[first_span:]:
            out[s.name] = out.get(s.name, 0.0) + s.self_s
            for key, (_, secs) in s.leaf.items():
                out[key] = out.get(key, 0.0) + secs
        return out

    def to_json(self):
        return {"missing": self.missing, "spans": [s.to_json() for s in self.spans]}


def median_metrics(per_pass):
    """Median of each metric over passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
