"""One workload in one fresh process; prints one JSON line of raw results.

    python3 -m perfbench.worker --workload NAME --seed N --seconds S --trace 0|1
    python3 -m perfbench.worker --workload NAME --seed N --setup-only

Runs from the repository root with ``src`` on ``PYTHONPATH``; ``run.py``
starts it that way. One untimed warm-up batch runs first; then batches
repeat in a closed loop, one after another, while another round still fits
into ``--seconds``; at least one always runs. With ``--trace 1`` each round
runs one untraced and one traced batch, so that the tracing overhead is
measured in the same process.

Each operation of a batch is timed on its own, under its group's name. A
group's time is the sum over its operations of each one's mean time over
the run's batches; ``wall_s`` is the sum over groups, i.e. the mean batch
time without the benchmark's own work between operations.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench.worker")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def mean_by_group(clocks) -> dict:
    """Sum per group of each operation's mean time across batches."""
    sums = {}
    for group, *times in zip(clocks[0].groups, *(c.times for c in clocks)):
        sums[group] = sums.get(group, 0.0) + statistics.fmean(times)
    return sums


def run_rounds(workload, seconds: float, trace: bool):
    """Run a warm-up batch, then batches until the next round would overrun ``seconds``.

    Returns untraced and traced batch walls, the operation clocks of the
    untraced and of the traced batches, verdicts and one tracer per traced
    batch.
    """
    from perfbench.tracer import Tracer
    from perfbench.workloads import OpClock

    walls, traced_walls, verdicts, tracers = [], [], [], []
    clocks, traced_clocks = [], []
    start = time.perf_counter()
    # lazy imports and first-call caches; checked, not timed
    verdicts.append(workload.check(workload.run()))
    warm_up = time.perf_counter() - start
    rounds = 0
    while True:
        clocks.append(OpClock())
        t0 = time.perf_counter()
        out = workload.run(clocks[-1])
        walls.append(time.perf_counter() - t0)
        verdicts.append(workload.check(out))
        if trace:
            traced_clocks.append(OpClock())
            with Tracer() as tracer:
                t0 = time.perf_counter()
                out = workload.run(traced_clocks[-1])
                traced_walls.append(time.perf_counter() - t0)
            verdicts.append(workload.check(out))
            tracers.append(tracer)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + (elapsed - warm_up) / rounds > seconds:
            return walls, traced_walls, clocks, traced_clocks, verdicts, tracers


def main(argv=None) -> int:
    args = _parse(argv)
    OUT_DIR.mkdir(exist_ok=True)
    # set-up: importing numpy, scipy and rabounds, then building the inputs
    t0 = time.perf_counter()
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, tiny=False, workdir=OUT_DIR)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    import scipy

    from perfbench.tracer import layer_metrics, layer_table

    try:
        walls, traced_walls, clocks, traced_clocks, verdicts, tracers = run_rounds(
            workload, args.seconds, bool(args.trace)
        )
    finally:
        workload.close()
    attempted = sum(v.ops for v in verdicts)
    failed = sum(len(v.failed_ops) for v in verdicts)
    gaps = verdicts[0].gaps
    sides = verdicts[0].sides
    result = {
        "setup_s": setup_s,
        "group_s": mean_by_group(clocks),
        "walls": walls,
        "ops_per_batch": len(clocks[0].times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        # operations in one batch; every batch runs the same ones
        "cases": verdicts[0].ops,
        "failed": failed,
        "failures": [f for v in verdicts for f in v.failures][:20],
        "inf_gap_rel": statistics.fmean(gaps) if gaps else 0.0,
        "unconverged_share": verdicts[0].unconverged / sides if sides else 0.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.trace:
        result["traced_walls"] = traced_walls
        result["traced_wall_s"] = sum(mean_by_group(traced_clocks).values())
        # the traced batch of median wall time; counts are equal in every batch
        median_index = sorted(range(len(traced_walls)), key=traced_walls.__getitem__)[
            len(traced_walls) // 2
        ]
        tracer = tracers[median_index]
        result["layers"] = layer_metrics(tracer)
        result["layer_table"] = layer_table(tracer)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        result["spans_path"] = str(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
