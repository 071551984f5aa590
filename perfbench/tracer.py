"""Per-layer tracing of rabounds from outside the package.

While a :class:`Tracer` is active, each function in ``TARGETS`` is replaced,
at the name its caller looks it up under, by a timing wrapper; the originals
are restored on exit. For example ``run_ra`` resolves ``eval_partial_rows``
as a global of ``rabounds.ra_core``, so that is the name patched. Nothing
under ``src/`` changes.

Each call becomes a span (name, start, end, parent) kept in memory. Calls to
the functions in ``HOT_LEAVES`` run tens of thousands of times per oracle
scan, so they are folded into counters (calls, nanoseconds, work) on their
parent span instead. A span's self time is its duration minus the time of
its traced children, spans and hot leaves alike. Times are integer
nanoseconds, so self times are exact and never negative.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from rabounds.oracle import arrangement_count

# (module the caller resolves the name in, attribute name)
TARGETS = (
    ("rabounds.cli", "main"),
    ("rabounds.cli", "parse_config"),
    ("rabounds.cli", "run_cases"),
    ("rabounds.cli", "write_csv"),
    ("rabounds.cli", "estimate_inf"),
    ("rabounds.bounds", "estimate_inf"),
    ("rabounds.cli", "discretize"),
    ("rabounds.bounds", "discretize"),
    ("rabounds.marginals", "discretize"),
    ("rabounds.bounds", "comonotonic_value"),
    ("rabounds.bounds", "run_ra_restarts"),
    ("rabounds.ra_core", "run_ra_restarts"),
    ("rabounds.ra_core", "run_ra"),
    ("rabounds.ra_core", "shuffle_columns"),
    ("rabounds.ra_core", "eval_partial_rows"),
    ("rabounds.ra_core", "objective"),
    ("rabounds.oracle", "objective"),
    ("rabounds.ra_core", "is_oppositely_ordered"),
    ("rabounds.cli", "brute_force_min"),
    ("rabounds.oracle", "brute_force_min"),
    ("rabounds.cli", "brute_force_min_over_opposite_set"),
    ("rabounds.oracle", "brute_force_min_over_opposite_set"),
    ("rabounds.costfn", "validate_cost"),
)

HOT_LEAVES = frozenset(
    {
        "costfn.eval_partial_rows",
        "ra_core.objective",
        "majorization.is_oppositely_ordered",
    }
)

LAYERS = ("cli", "bounds", "marginals", "costfn", "majorization", "ra_core", "oracle")


def _partial_rows(args, kwargs) -> int:
    cols = kwargs.get("columns_minus_i", args[2] if len(args) > 2 else None)
    return len(cols) * len(cols[0])


_LEAF_WORK = {"costfn.eval_partial_rows": _partial_rows}


@dataclass(eq=False)
class Span:
    id: int
    name: str
    parent: Optional["Span"]
    start: int = 0
    end: int = 0
    child_ns: int = 0
    # hot leaf name -> [calls, ns, work]
    leaves: Dict[str, List[int]] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


def _observe_run_ra(span: Span, args, kwargs, result) -> None:
    X0 = args[0] if args else kwargs["X0"]
    span.info.update(
        sweeps=result.sweeps,
        d=X0.d,
        n=X0.n,
        rearrangements=result.column_rearrangements,
        converged=result.converged,
        shuffled=False,
        won=False,
    )
    parent = span.parent
    if parent is None or parent.name != "ra_core.run_ra_restarts":
        return
    index = parent.info.get("runs", 0)
    parent.info["runs"] = index + 1
    span.info["shuffled"] = index > 0
    # run_ra_restarts keeps the earliest of equal objectives
    if index == 0 or result.objective < parent.info["best"]:
        span.info["won"] = index > 0
        parent.info["best"] = result.objective
        parent.info["winner_sweeps"] = result.sweeps


def _observe_restarts(span: Span, args, kwargs, result) -> None:
    span.info["sweeps"] = result.sweeps


def _observe_scan(span: Span, args, kwargs, result) -> None:
    X = args[0] if args else kwargs["X"]
    span.info["arrangements"] = arrangement_count(X.n, X.d)


def _observe_discretize(span: Span, args, kwargs, result) -> None:
    span.info["grid_points"] = result.n


_OBSERVERS = {
    "ra_core.run_ra": _observe_run_ra,
    "ra_core.run_ra_restarts": _observe_restarts,
    "oracle.brute_force_min": _observe_scan,
    "oracle.brute_force_min_over_opposite_set": _observe_scan,
    "marginals.discretize": _observe_discretize,
}


def _canonical(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Tracer:
    """Context manager that patches ``TARGETS`` and records spans."""

    def __init__(self):
        self.spans: List[Span] = []
        self.root_leaves: Dict[str, List[int]] = {}
        self._stack: List[Span] = []
        self._saved = []

    def __enter__(self) -> "Tracer":
        for module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original))
        return self

    def __exit__(self, *exc) -> bool:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, fn):
        name = _canonical(fn)
        if name in HOT_LEAVES:
            work = _LEAF_WORK.get(name)

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                t0 = time.perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter_ns() - t0
                    parent = self._stack[-1] if self._stack else None
                    table = parent.leaves if parent is not None else self.root_leaves
                    entry = table.setdefault(name, [0, 0, 0])
                    entry[0] += 1
                    entry[1] += dt
                    if work is not None:
                        entry[2] += work(args, kwargs)
                    if parent is not None:
                        parent.child_ns += dt

            return leaf

        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, parent)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                self._stack.pop()
                if parent is not None:
                    parent.child_ns += span.end - span.start
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return traced

    def write_spans(self, path) -> None:
        """One JSON object per span, in call order."""
        with open(path, "w") as fh:
            for s in self.spans:
                record = {
                    "id": s.id,
                    "name": s.name,
                    "parent": s.parent.id if s.parent is not None else None,
                    "start_ns": s.start,
                    "end_ns": s.end,
                    "self_ns": s.self_ns,
                    "leaves": s.leaves,
                    "info": s.info,
                }
                fh.write(json.dumps(record) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def leaf_totals(tracer: Tracer) -> Dict[str, List[int]]:
    """Hot leaf counters summed over every parent: name -> [calls, ns, work]."""
    totals: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
    for table in [tracer.root_leaves] + [s.leaves for s in tracer.spans]:
        for name, (calls, ns, work) in table.items():
            t = totals[name]
            t[0] += calls
            t[1] += ns
            t[2] += work
    return totals


def layer_table(tracer: Tracer) -> List[List[object]]:
    """Rows of [layer, calls, self seconds], one per rabounds module."""
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    for s in tracer.spans:
        layer = s.name.split(".")[0]
        calls[layer] += 1
        self_ns[layer] += s.self_ns
    for name, (n_calls, ns, _) in leaf_totals(tracer).items():
        layer = name.split(".")[0]
        calls[layer] += n_calls
        self_ns[layer] += ns
    return [[layer, calls[layer], self_ns[layer] / 1e9] for layer in LAYERS]


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced batch, by name."""
    by_name = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)

    def self_s(name):
        return sum(s.self_ns for s in by_name[name]) / 1e9

    def calls(name):
        return len(by_name[name])

    leaves = leaf_totals(tracer)
    run_ra = by_name["ra_core.run_ra"]
    first = [s for s in run_ra if not s.info["shuffled"]]
    shuffled = [s for s in run_ra if s.info["shuffled"]]
    # a sweep passes over each of the d columns once, sorting n rows per pass
    passes = sum(s.info["sweeps"] * s.info["d"] for s in run_ra)
    rows_sorted = sum(s.info["sweeps"] * s.info["d"] * s.info["n"] for s in run_ra)
    rearrangements = sum(s.info["rearrangements"] for s in run_ra)
    run_ra_self = self_s("ra_core.run_ra")
    scans = by_name["oracle.brute_force_min"] + by_name["oracle.brute_force_min_over_opposite_set"]
    scanned = sum(s.info["arrangements"] for s in scans)
    scan_s = sum(s.end - s.start for s in scans) / 1e9
    partial = leaves["costfn.eval_partial_rows"]
    objective = leaves["ra_core.objective"]
    opposite = leaves["majorization.is_oppositely_ordered"]
    return {
        "ra_core.run_ra.self_s": run_ra_self,
        "ra_core.rows_sorted": rows_sorted,
        "ra_core.rows_sorted_per_s": _ratio(rows_sorted, run_ra_self),
        "ra_core.run_ra.calls": len(run_ra),
        "ra_core.run_ra.first_s": sum(s.end - s.start for s in first) / 1e9,
        "ra_core.run_ra.shuffled_s": sum(s.end - s.start for s in shuffled) / 1e9,
        "ra_core.sweeps": sum(s.info["sweeps"] for s in run_ra),
        "ra_core.sweeps.first": sum(s.info["sweeps"] for s in first),
        "ra_core.sweeps.shuffled": sum(s.info["sweeps"] for s in shuffled),
        "ra_core.restart_win_share": _ratio(
            sum(s.info["won"] for s in shuffled), len(shuffled)
        ),
        "ra_core.column_passes": passes,
        "ra_core.column_rearrangements": rearrangements,
        "ra_core.rearranged_share": _ratio(rearrangements, passes),
        "ra_core.max_sweeps_hits": sum(not s.info["converged"] for s in run_ra),
        "ra_core.shuffle_columns.s": self_s("ra_core.shuffle_columns"),
        "ra_core.objective.calls": objective[0],
        "ra_core.objective.s": objective[1] / 1e9,
        "ra_core.run_ra_restarts.s": self_s("ra_core.run_ra_restarts"),
        "costfn.eval_partial_rows.calls": partial[0],
        "costfn.eval_partial_rows.s": partial[1] / 1e9,
        "costfn.partial_rows": partial[2],
        "costfn.validate_cost.s": self_s("costfn.validate_cost"),
        "majorization.is_oppositely_ordered.calls": opposite[0],
        "majorization.is_oppositely_ordered.s": opposite[1] / 1e9,
        "oracle.brute_force_min.calls": calls("oracle.brute_force_min"),
        "oracle.brute_force_min.s": self_s("oracle.brute_force_min"),
        "oracle.brute_force_min_over_opposite_set.calls": calls(
            "oracle.brute_force_min_over_opposite_set"
        ),
        "oracle.brute_force_min_over_opposite_set.s": self_s(
            "oracle.brute_force_min_over_opposite_set"
        ),
        "oracle.arrangements_scanned": scanned,
        "oracle.arrangements_per_s": _ratio(scanned, scan_s),
        "oracle.comonotonic_value.s": self_s("oracle.comonotonic_value"),
        "marginals.discretize.calls": calls("marginals.discretize"),
        "marginals.discretize.s": self_s("marginals.discretize"),
        "marginals.grid_points": sum(
            s.info["grid_points"] for s in by_name["marginals.discretize"]
        ),
        "bounds.estimate_inf.calls": calls("bounds.estimate_inf"),
        "bounds.estimate_inf.self_s": self_s("bounds.estimate_inf"),
        "cli.parse_config.s": self_s("cli.parse_config"),
        "cli.run_cases.s": self_s("cli.run_cases"),
        "cli.write_csv.s": self_s("cli.write_csv"),
    }
