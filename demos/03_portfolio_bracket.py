# Flagship example: a three-asset portfolio return w1*R1 + w2*R2 + w3*R3 with
# known return distributions but UNKNOWN dependence. How small can the
# expected payoff of the stop-loss claim max(return - k, 0) possibly be?
#
# The answer is bracketed by rearranging the lower and upper quantile grids;
# the comonotonic arrangement gives the other extreme (the supremum).

import time

from rabounds import (
    CostFunction,
    estimate_inf,
    exponential,
    stop_loss,
    uniform,
    weighted_sum,
)

WEIGHTS = (0.5, 0.2, 0.3)
K = 0.3  # guaranteed-return threshold of the stop-loss payoff

cost = CostFunction(weighted_sum(WEIGHTS), stop_loss(K))

portfolios = {
    "three uniforms": [uniform(0, 0.4), uniform(0.1, 0.5), uniform(0, 1)],
    "three exponentials": [exponential(1), exponential(2), exponential(4)],
}

for name, specs in portfolios.items():
    t0 = time.perf_counter()
    r = estimate_inf(specs, cost, n=100_000, restarts=3, seed=1)
    elapsed = time.perf_counter() - t0
    print(f"== {name} (n = {r.n:,}, restarts = {r.restarts}) ==")
    print(f"  worst-case expectation in [{r.lower_estimate:.6f}, {r.upper_estimate:.6f}]")
    print(f"  bracket width {r.upper_estimate - r.lower_estimate:.2e}")
    print(f"  comonotonic (best-case) estimate ~ {r.sup_upper:.6f}")
    if any(r.auto_truncated):
        windows = [w for w in r.truncation_applied if w is not None]
        print(f"  unbounded tails auto-truncated onto {windows[0]}")
    print(f"  runtime {elapsed:.1f}s "
          f"(sweeps {r.sweeps_lower}/{r.sweeps_upper}, "
          f"stopped at {r.stop_reason_lower}/{r.stop_reason_upper})\n")

# Sanity anchor: whenever the rearranged portfolio return can be flattened to
# a near-constant above k, the worst case collapses to E[return] - k by
# linearity. For the uniform portfolio E[return] = 0.31, so the bracket hugs
# 0.01; for the exponentials E[return] = 0.675, so it hugs 0.375.
