"""The benchmark's two seeded workloads and the checks on their outputs.

Each workload builds its inputs from the benchmark seed in ``__init__``
(counted as set-up), runs one batch in ``run`` (timed) and verifies that
batch's outputs in ``check`` (not timed). ``run`` calls each of its
operations through an :class:`OpClock`, which records every operation's wall
time on its own, under the name of the operation's group. Batches call
rabounds through module attributes, such as ``bounds.estimate_inf``, so that
a tracer patching those attributes sees the calls. The checks use the names
bound below at import time, so they never appear in a trace.

Why each workload is here:

* ``estimates`` -- the user-facing estimate paths, where column passes
  dominate. Three groups of operations:

  * ``portfolio_cli``: the CLI on the cases of ``demos/portfolio.cfg``
    (acceptance criterion 7 among them), whose big cases sit on the Jensen
    bound, so certification and restart skipping would act there;
  * ``hard_tails``: the three hard cases from the roadmap; none sits on the
    Jensen bound, so every restart does real work: the control for any
    certification shortcut;
  * ``wide_d100``: d=100, where rebuilding each partial aggregate from d-1
    columns costs about a third of the time.

* ``oracle_custom`` -- tiny instances through the exhaustive oracle, the
  opposite-order predicate and the per-row Python path of a custom
  aggregation; ``estimate_inf`` and the CLI are not used.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

import numpy as np

import rabounds.bounds as bounds
import rabounds.cli as cli
import rabounds.costfn as costfn
import rabounds.marginals as marginals
import rabounds.oracle as oracle
import rabounds.ra_core as ra_core
from rabounds.costfn import CostFunction, custom_agg, power, stop_loss, sum_agg, weighted_sum
from rabounds.marginals import discretize, exponential, pareto, truncate_unbounded_sides, uniform
from rabounds.ra_core import ArrangementMatrix, is_in_opposite_set, objective

ROOT = Path(__file__).resolve().parent.parent

# criterion-1 bound on |global minimum - restricted minimum|
ORACLE_TOL = 1e-12


class OpClock:
    """Wall time and group of each operation of one batch, in call order.

    A batch runs every operation as ``clock(group, fn, *args, **kwargs)``;
    every batch of a workload runs the same operations in the same order.
    """

    def __init__(self):
        self.groups: List[str] = []
        self.times: List[float] = []

    def __call__(self, group: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.times.append(time.perf_counter() - t0)
        self.groups.append(group)
        return out


@dataclass
class Verdict:
    """Checked outcome of one batch."""

    ops: int = 0
    failures: List[str] = field(default_factory=list)
    failed_ops: set = field(default_factory=set)
    gaps: List[float] = field(default_factory=list)
    sides: int = 0
    unconverged: int = 0

    def fail(self, op: str, message: str) -> None:
        self.failed_ops.add(op)
        self.failures.append(f"{op}: {message}")

    def side(self, op, est, ref, comonotonic, converged, tol) -> None:
        """Check ref - tol <= est <= comonotonic + tol and record the gap."""
        self.sides += 1
        self.unconverged += not converged
        if not all(math.isfinite(v) for v in (est, ref, comonotonic)):
            self.fail(op, f"non-finite value: est={est} ref={ref} comonotonic={comonotonic}")
            return
        if not ref - tol <= est <= comonotonic + tol:
            self.fail(op, f"estimate {est!r} outside [{ref!r}, {comonotonic!r}] (tol {tol:.3g})")
        if comonotonic - ref > tol:
            self.gaps.append((est - ref) / (comonotonic - ref))


def _g(transform, y: float) -> float:
    if transform.form == "identity":
        return y
    if transform.form == "stop_loss":
        return max(y - transform.param, 0.0)
    if transform.form == "power":
        return max(y, 0.0) ** transform.param
    raise ValueError(f"no Jensen bound for transform {transform.form!r}")


def jensen_bound(specs, cost: CostFunction, n: int, kind: str, auto_truncate=True) -> float:
    """g(sum_i w_i * mean(grid_i)): a lower bound on the grid infimum.

    The row mean of a (weighted) sum is the same for every arrangement, so
    by Jensen g of it bounds the mean of g over rows from below.
    """
    agg = cost.agg
    weights = [1.0] * agg.d if agg.kind == "sum" else list(agg.weights)
    mean_h = 0.0
    for w, spec in zip(weights, specs):
        prepared = truncate_unbounded_sides(spec) if auto_truncate else spec
        mean_h += w * float(np.mean(discretize(prepared, n, kind).values))
    return _g(cost.transform, mean_h)


def _float_tol(*values: float) -> float:
    return 1e-9 * (1.0 + sum(abs(v) for v in values))


class Estimates:
    """The CLI on the portfolio cases, then ``estimate_inf`` on the hard and wide cases.

    ``demos/portfolio.cfg`` runs with ``n = 100000`` replaced by
    ``PORTFOLIO_N``: at n=1e5 one CLI call takes about 35 s, longer than a
    whole run, so no run could time it more than once.
    """

    name = "estimates"
    PORTFOLIO_N = 10_000
    HARD = (
        ("exp1_power2", [exponential(1.0)] * 3, CostFunction(sum_agg(3), power(2.0))),
        ("pareto1.5_stop_loss12", [pareto(1.5)] * 3, CostFunction(sum_agg(3), stop_loss(12.0))),
        ("pareto2_d10_stop_loss30", [pareto(2.0)] * 10, CostFunction(sum_agg(10), stop_loss(30.0))),
    )
    HARD_N = 4_000
    HARD_RESTARTS = 3
    WIDE = (
        ("pareto2_d100_stop_loss180", [pareto(2.0)] * 100, CostFunction(sum_agg(100), stop_loss(180.0))),
    )
    WIDE_N = 1_000
    WIDE_RESTARTS = 2

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        portfolio_n, self.hard_n, self.wide_n = (
            (2_000, 300, 200) if tiny else (self.PORTFOLIO_N, self.HARD_N, self.WIDE_N)
        )
        text = (ROOT / "demos" / "portfolio.cfg").read_text()
        text = text.replace("n = 100000", f"n = {portfolio_n}")
        self.cfg_path = workdir / f"portfolio-{os.getpid()}.cfg"
        self.cfg_path.write_text(text)
        self.config = cli.parse_config(text, base_dir=ROOT / "demos")
        self.csv_path = workdir / f"portfolio-{os.getpid()}.csv"
        # (group, label, specs, cost, n, restarts)
        self.estimates = [
            ("hard_tails", *case, self.hard_n, self.HARD_RESTARTS) for case in self.HARD
        ] + [("wide_d100", *case, self.wide_n, self.WIDE_RESTARTS) for case in self.WIDE]
        self._refs = None

    def run(self, clock=None):
        clock = clock or OpClock()
        argv = [str(self.cfg_path), "--seed", str(self.seed), "--out", str(self.csv_path)]
        exit_code = clock("portfolio_cli", cli.main, argv)
        results = [
            clock(group, bounds.estimate_inf, specs, cost, n=n, restarts=restarts, seed=self.seed)
            for group, _, specs, cost, n, restarts in self.estimates
        ]
        return exit_code, results

    def read_rows(self):
        with open(self.csv_path, newline="") as fh:
            return list(csv.DictReader(fh))

    def refs(self):
        """Jensen bounds of the CLI cases, then of the estimate cases."""
        if self._refs is None:
            cases = [(c.specs, c.cost, c.n, c.auto_truncate) for c in self.config.cases]
            cases += [(specs, cost, n, True) for _, _, specs, cost, n, _ in self.estimates]
            self._refs = [
                {kind: jensen_bound(specs, cost, n, kind, auto) for kind in ("lower", "upper")}
                for specs, cost, n, auto in cases
            ]
        return self._refs

    def check(self, out) -> Verdict:
        exit_code, results = out
        v = Verdict()
        cases = self.config.cases
        refs = self.refs()
        self._check_cli(v, exit_code, cases, refs[: len(cases)])
        v.ops += len(results)
        for (_, label, *_), res, ref in zip(self.estimates, results, refs[len(cases):]):
            sides = (
                ("lower", res.lower_estimate, res.sup_lower, res.converged_lower),
                ("upper", res.upper_estimate, res.sup_upper, res.converged_upper),
            )
            for kind, est, comonotonic, converged in sides:
                tol = _float_tol(est, comonotonic, ref[kind])
                v.side(label, est, ref[kind], comonotonic, converged, tol)
        return v

    def _check_cli(self, v: Verdict, exit_code, cases, refs) -> None:
        rows = self.read_rows()
        v.ops += len(cases)
        if [r["case"] for r in rows] != [c.case_id for c in cases]:
            for c in cases:
                v.fail(c.case_id, "CSV rows do not match the configured cases")
            return
        for case, row, ref in zip(cases, rows, refs):
            op = case.case_id
            if exit_code != 0:
                v.fail(op, f"CLI exit code {exit_code}")
            if row["error"]:
                v.fail(op, f"error column: {row['error']}")
                continue
            for kind in ("lower", "upper"):
                est = float(row[kind])
                comonotonic = float(row[f"sup_{kind}"])
                # the CSV prints 6 significant digits
                tol = 1e-5 * (abs(est) + abs(comonotonic)) + _float_tol(ref[kind])
                converged = row[f"converged_{kind}"] == "true"
                v.side(op, est, ref[kind], comonotonic, converged, tol)
                if row[f"oracle_{kind}"] and est < float(row[f"oracle_{kind}"]) - tol:
                    v.fail(op, f"{kind} estimate below the exhaustive minimum")
            if row["theorem_check"] not in ("", "pass"):
                v.fail(op, f"theorem_check is {row['theorem_check']!r}")

    def close(self) -> None:
        for path in (self.csv_path, self.cfg_path):
            if path.exists():
                path.unlink()


def _product_cost() -> CostFunction:
    """Demo 05's compound-growth aggregation x1*x2*x3 under stop_loss(1)."""
    product3 = custom_agg(
        3,
        h=lambda a, b, c: a * b * c,
        h2=lambda x, s: x * s,
        hd1=[lambda b, c: b * c, lambda a, c: a * c, lambda a, b: a * b],
        monotone_direction="increasing",
    )
    return CostFunction(product3, stop_loss(1.0))


class OracleCustom:
    """Tiny instances through the oracle plus a mid-size custom product run.

    Weighted-sum stop-loss instances follow acceptance criteria 1-3 and use
    the vectorized oracle scan; product instances use the generic scan,
    ``is_in_opposite_set`` and the per-row Python evaluation in costfn.
    """

    name = "oracle_custom"
    RESTARTS = 10
    BIG_RESTARTS = 3
    # validation box of demo 05: every growth factor lies in [0.8, 1.25]
    LOW, HIGH = 0.8, 1.25

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = np.random.default_rng(seed)
        # a product instance at n=5 scans 14400 arrangements in Python, about
        # 0.7 s; at n=4 it scans 576, so sixteen of them fit a one-second batch
        n, n_prod = (4, 3) if tiny else (5, 4)
        n_weighted, n_product, n_big = (3, 1, 200) if tiny else (16, 16, 1500)
        self.seed = seed
        self.weighted = []
        for _ in range(n_weighted):
            w = rng.uniform(0.1, 1.0, size=3)
            k = float(rng.uniform(0.25, 0.75) * w.sum())
            X = ArrangementMatrix.from_columns(rng.uniform(0.0, 1.0, size=(3, n)))
            self.weighted.append((X, CostFunction(weighted_sum(w), stop_loss(k))))
        self.products = [
            ArrangementMatrix.from_columns(rng.uniform(self.LOW, self.HIGH, size=(3, n_prod)))
            for _ in range(n_product)
        ]
        lo = rng.uniform(self.LOW, 0.9, size=3)
        hi = rng.uniform(1.15, self.HIGH, size=3)
        self.big_specs = [uniform(a, b) for a, b in zip(lo, hi)]
        self.big_n = n_big
        self.product = _product_cost()

    def _instance(self, clock, group, X, cost, seed):
        global_min, _ = clock(group, oracle.brute_force_min, X, cost)
        restricted_min = clock(group, oracle.brute_force_min_over_opposite_set, X, cost)
        ra = clock(group, ra_core.run_ra_restarts, X, cost, restarts=self.RESTARTS, seed=seed)
        return global_min, restricted_min, ra

    def _big_start(self):
        margs = [marginals.discretize(s, self.big_n, "lower") for s in self.big_specs]
        return ArrangementMatrix.comonotonic(margs)

    def run(self, clock=None):
        clock = clock or OpClock()
        cost = clock("product_big", costfn.validate_cost, self.product, low=self.LOW,
                     high=self.HIGH)
        tiny = self.weighted + [(X, cost) for X in self.products]
        results = [
            self._instance(clock, "weighted" if c is not cost else "product", X, c, self.seed + i)
            for i, (X, c) in enumerate(tiny)
        ]
        big_start = clock("product_big", self._big_start)
        big = clock("product_big", ra_core.run_ra_restarts, big_start, cost,
                    restarts=self.BIG_RESTARTS, seed=self.seed)
        return cost, tiny, results, big_start, big

    def check(self, out) -> Verdict:
        cost, tiny, results, big_start, big = out
        v = Verdict(ops=len(tiny) + 1)
        for i, ((X, c), (global_min, restricted_min, ra)) in enumerate(zip(tiny, results)):
            op = f"instance{i}"
            if abs(global_min - restricted_min) > ORACLE_TOL * (1.0 + abs(global_min)):
                v.fail(op, f"restricted minimum {restricted_min!r} != global {global_min!r}")
            start = objective(X, c)
            if not global_min - ORACLE_TOL <= ra.objective <= start + ORACLE_TOL:
                v.fail(op, f"RA {ra.objective!r} outside [{global_min!r}, {start!r}]")
            if not ra.matrix.columns_match_provenance():
                v.fail(op, "RA columns are not permutations of the marginals")
            if ra.converged and not is_in_opposite_set(ra.matrix, c.agg):
                v.fail(op, "converged RA result is not oppositely ordered")
            comonotonic = objective(ArrangementMatrix.comonotonic(X.provenance), c)
            v.side(op, ra.objective, global_min, comonotonic, ra.converged, ORACLE_TOL)
        start = objective(big_start, cost)
        if not (math.isfinite(big.objective) and 0.0 <= big.objective <= start + _float_tol(start)):
            v.fail("product_big", f"RA {big.objective!r} outside [0, {start!r}]")
        if not big.matrix.columns_match_provenance():
            v.fail("product_big", "RA columns are not permutations of the marginals")
        v.sides += 1
        v.unconverged += not big.converged
        return v

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (Estimates, OracleCustom)}
