"""Acceptance suite: one test per exit criterion, one printed verdict line each.

Run with plain ``pytest``; the verdict lines bypass capture so they always
appear. Criteria 1-5 exercise the optimality/descent structure on randomized
instances, 6-8 pin the end-to-end estimates, and 9 checks CLI determinism.
"""

import csv
import io
import time
from pathlib import Path

import numpy as np
import pytest

from rabounds import (
    ArrangementMatrix,
    CostFunction,
    brute_force_min,
    brute_force_min_over_opposite_set,
    compare,
    estimate_inf,
    exponential,
    is_in_opposite_set,
    objective,
    rearrange_column,
    run_ra,
    run_ra_restarts,
    sort_asc,
    sort_desc,
    stop_loss,
    sum_agg,
    uniform,
    weighted_sum,
    identity,
)
from rabounds.cli import CSV_COLUMNS, RUNTIME_COLUMNS, main
from rabounds.costfn import eval_h_rows

DATA_DIR = Path(__file__).parent / "data"
SEED = 20260809

# Threshold for the stop-loss portfolio cases. The source material never
# states the guaranteed-return level; k = 0.3 is the documented choice here
# and reproduces the reference brackets for the uniform and exponential
# portfolios (see README).
PORTFOLIO_K = 0.3
PORTFOLIO_WEIGHTS = (0.5, 0.2, 0.3)


def report(capsys, num, title, ok, detail=""):
    line = f"acceptance criterion {num} ({title}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def instances():
    """200 random tiny instances: n in 3..5, d in 2..3, stop-loss of a
    weighted sum with random positive weights and random threshold."""
    rng = np.random.default_rng(SEED)
    out = []
    for _ in range(200):
        n = int(rng.integers(3, 6))
        d = int(rng.integers(2, 4))
        cols = [rng.uniform(0.0, 1.0, size=n) for _ in range(d)]
        weights = rng.uniform(0.1, 1.0, size=d)
        k = float(rng.uniform(0.0, d))
        cost = CostFunction(weighted_sum(weights), stop_loss(k))
        out.append((ArrangementMatrix.from_columns(cols), cost))
    return out


@pytest.fixture(scope="module")
def exhaustive_minima(instances):
    return [brute_force_min(X, cost)[0] for X, cost in instances]


@pytest.fixture(scope="module")
def ra_results(instances):
    return [
        run_ra_restarts(X, cost, restarts=10, seed=1000 + i)
        for i, (X, cost) in enumerate(instances)
    ]


def test_criterion_1_minimum_attained_on_opposite_set(capsys, instances):
    t0 = time.perf_counter()
    worst = 0.0
    for X, cost in instances:
        unrestricted, _ = brute_force_min(X, cost)
        restricted = brute_force_min_over_opposite_set(X, cost)
        worst = max(worst, abs(unrestricted - restricted))
    elapsed = time.perf_counter() - t0
    report(
        capsys,
        1,
        "exhaustive minimum equals minimum over the oppositely-ordered set",
        worst <= 1e-12,
        f"200 instances, max |difference| {worst:.2e}, runtime {elapsed:.1f}s",
    )


def test_criterion_2_rearrangement_soundness(capsys, instances, exhaustive_minima, ra_results):
    t0 = time.perf_counter()
    ok = True
    for (X, cost), lo, res in zip(instances, exhaustive_minima, ra_results):
        ok &= res.objective >= lo - 1e-12
        ok &= res.objective <= objective(X, cost) + 1e-12
        ok &= (not res.converged) or is_in_opposite_set(res.matrix, cost.agg)
        ok &= res.matrix.columns_match_provenance()
    # A bounded run stops at its first certified sweep, or before any sweep
    # when its start certifies, so few of the runs above end at a fixed
    # point. An unbounded run sweeps every instance to one.
    fixed_points = 0
    for X, cost in instances:
        res = run_ra(X, cost)
        ok &= res.converged and is_in_opposite_set(res.matrix, cost.agg)
        ok &= res.matrix.columns_match_provenance()
        fixed_points += res.converged
    elapsed = time.perf_counter() - t0
    report(
        capsys,
        2,
        "rearrangement objective bounded by exhaustive minimum and start",
        bool(ok),
        f"200 instances with 10 restarts; {fixed_points} unbounded runs end in "
        f"the oppositely-ordered set; check time {elapsed:.1f}s",
    )


def test_criterion_3_optimality_rate_diagnostic(capsys, instances, exhaustive_minima, ra_results):
    hits = sum(
        abs(res.objective - lo) <= 1e-12
        for lo, res in zip(exhaustive_minima, ra_results)
    )
    rate = hits / len(instances)
    report(
        capsys,
        3,
        "diagnostic: rate of exact global minima over 10 restarts",
        hits > 0,
        f"{hits}/200 instances exact ({rate:.1%}); local minima are expected",
    )


def test_criterion_4_majorization_property_suite(capsys):
    rng = np.random.default_rng(SEED + 1)
    t0 = time.perf_counter()

    # antithetic sums are majorized by any pairing
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        x, y = rng.normal(size=(2, n)) * rng.uniform(0.1, 4)
        assert compare(sort_desc(x) + sort_asc(y), x + y).is_majorized

    # supermodular increasing combines: antithetic weakly submajorized
    combines = [lambda a, b: a * b, lambda a, b: 0.7 * a + 0.3 * b, np.minimum]
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        x, y = rng.uniform(0, 3, size=(2, n))
        h2 = combines[int(rng.integers(len(combines)))]
        assert compare(h2(sort_desc(x), sort_asc(y)), h2(x, y)).is_weakly_submajorized

    # separable monotone combines: antithetic strongly majorized
    phis = [(np.exp, lambda v: v**3), (lambda v: 2 * v + 1, lambda v: v)]
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        x, y = rng.uniform(-2, 2, size=(2, n))
        p1, p2 = phis[int(rng.integers(len(phis)))]
        assert compare(p1(sort_desc(x)) + p2(sort_asc(y)), p1(x) + p2(y)).is_majorized

    # sums of increasing convex functions respect weak submajorization
    psis = [lambda v: np.maximum(v - 0.3, 0.0), np.exp, lambda v: np.maximum(v, 0.0) ** 2]
    for _ in range(1000):
        n = int(rng.integers(2, 21))
        y = rng.uniform(-2, 2, size=n)
        x = y.copy()
        for _ in range(3):
            i, j = rng.integers(n, size=2)
            lam = rng.uniform()
            xi, xj = x[i], x[j]
            x[i] = lam * xi + (1 - lam) * xj
            x[j] = lam * xj + (1 - lam) * xi
        x -= rng.uniform(0, 0.5, size=n)
        assert compare(x, y).is_weakly_submajorized
        psi = psis[int(rng.integers(len(psis)))]
        assert np.sum(psi(x)) <= np.sum(psi(y)) + 1e-9

    elapsed = time.perf_counter() - t0
    report(
        capsys,
        4,
        "majorization inequalities on 1000 randomized pairs each",
        True,
        f"4 property families, runtime {elapsed:.1f}s",
    )


def test_criterion_5_descent_invariants(capsys):
    rng = np.random.default_rng(SEED + 2)
    t0 = time.perf_counter()
    steps = 0
    for _ in range(50):
        n, d = 200, 3
        X = ArrangementMatrix.from_columns(rng.uniform(0, 1, size=(d, n)))
        cost = CostFunction(
            weighted_sum(rng.uniform(0.1, 1.0, size=d)),
            stop_loss(float(rng.uniform(0.0, 1.5))),
        )
        current = objective(X, cost)
        for _ in range(60):
            moved = False
            for i in range(d):
                Y = rearrange_column(X, i, cost.agg)
                if Y is X:
                    continue
                nxt = objective(Y, cost)
                assert nxt <= current + 1e-9 * (1 + abs(current))
                rel = compare(
                    eval_h_rows(cost.agg, Y.columns), eval_h_rows(cost.agg, X.columns)
                )
                assert rel.is_weakly_submajorized
                X, current, moved = Y, nxt, True
                steps += 1
            if not moved:
                break
        assert is_in_opposite_set(X, cost.agg)
    elapsed = time.perf_counter() - t0
    report(
        capsys,
        5,
        "every column re-sort is objective-non-increasing and weakly submajorizing",
        True,
        f"50 instances (n=200, d=3), {steps} re-sorts checked, runtime {elapsed:.1f}s",
    )


def test_criterion_6_trivial_bracket_regression(capsys):
    r = estimate_inf(
        [uniform(0, 1), uniform(0, 1)], CostFunction(sum_agg(2), identity()), n=2
    )
    ok = (r.lower_estimate, r.upper_estimate) == (0.5, 1.5)
    report(
        capsys,
        6,
        "two uniforms with a linear cost at n=2 bracket the true value 1.0",
        ok,
        f"got ({r.lower_estimate}, {r.upper_estimate})",
    )


def test_criterion_7_uniform_portfolio_at_scale(capsys):
    cost = CostFunction(weighted_sum(PORTFOLIO_WEIGHTS), stop_loss(PORTFOLIO_K))
    specs = [uniform(0, 0.4), uniform(0.1, 0.5), uniform(0, 1)]
    t0 = time.perf_counter()
    r = estimate_inf(specs, cost, n=100_000, restarts=3, seed=SEED)
    elapsed = time.perf_counter() - t0
    width = r.upper_estimate - r.lower_estimate
    ok = width <= 2e-4 and elapsed < 60
    report(
        capsys,
        7,
        "three-uniform portfolio, n=1e5: bracket width <= 2e-4 in under 60 s",
        ok,
        f"bracket [{r.lower_estimate:.6f}, {r.upper_estimate:.6f}], width {width:.2e}, "
        f"runtime {elapsed:.1f}s, k={PORTFOLIO_K}",
    )


def test_criterion_8_exponential_portfolio_shape(capsys):
    cost = CostFunction(weighted_sum(PORTFOLIO_WEIGHTS), stop_loss(PORTFOLIO_K))
    specs = [exponential(1), exponential(2), exponential(4)]
    r = estimate_inf(specs, cost, n=10_000, restarts=3, seed=SEED)
    width = r.upper_estimate - r.lower_estimate
    ok = (
        width <= 1e-3
        and 0.0 <= r.lower_estimate <= r.upper_estimate <= r.sup_upper + 1e-9
        and all(w == (0.0, 1 - 1e-5) for w in r.truncation_applied)
    )
    report(
        capsys,
        8,
        "exponential portfolio, n=1e4: width <= 1e-3 inside [0, comonotonic]",
        ok,
        f"bracket [{r.lower_estimate:.6f}, {r.upper_estimate:.6f}], width {width:.2e}; "
        f"reference target 0.3749-0.3750 recorded, not asserted",
    )


def test_criterion_9_cli_determinism(capsys, tmp_path):
    cfg = DATA_DIR / "acceptance.cfg"
    outs = []
    codes = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        codes.append(main([str(cfg), "--out", str(out)]))
        outs.append(list(csv.DictReader(io.StringIO(out.read_text()))))
    stable_cols = [c for c in CSV_COLUMNS if c not in RUNTIME_COLUMNS]
    identical = len(outs[0]) == len(outs[1]) and all(
        r1[c] == r2[c] for r1, r2 in zip(*outs) for c in stable_cols
    )
    ok = codes == [0, 0] and identical
    report(
        capsys,
        9,
        "CLI batch is byte-identical across runs (runtime columns aside)",
        ok,
        f"{len(outs[0])} cases, exit codes {codes}",
    )
