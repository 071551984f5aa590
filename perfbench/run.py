#!/usr/bin/env python3
"""rabounds benchmark: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N          # every workload, one after another

Run it from a checkout of the repository; it imports rabounds from ``src/``.
Each workload runs in a fresh single-threaded process (BLAS and OpenMP pools
pinned to one thread) as a closed loop of identical batches. Set-up (import
plus input building) is timed in that process and in ``SETUP_PROBES`` more
fresh processes; ``setup_s`` is the median. ``wall_s`` is the mean batch
time over the run, summed from each timed operation's mean (see README.md).
Every batch's outputs are checked.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see README.md). The
table above it prints every metric by name with its unit. Raw results and
spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
SETUP_PROBES = 6
# a run must end within 180 s; leave room for start-up and printing
TIME_LIMIT_S = 170.0

END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
# Quality metrics can read 0, so they are per-layer metrics of the traced
# run; every run prints them next to the end-to-end metrics.
QUALITY = ("ops_failed_share", "inf_gap_rel", "unconverged_share", "cases")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _child_env():
    return dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )


def _worker(workload, seed, extra, deadline):
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload, "--seed", str(seed)]
    try:
        proc = subprocess.run(
            cmd + extra,
            cwd=ROOT,
            env=_child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker exceeded the time limit") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def run_workload(workload, seed, seconds, trace):
    """Set-up probes plus one measured worker; returns the full result."""
    deadline = time.monotonic() + TIME_LIMIT_S

    def probe():
        return _worker(workload, seed, ["--setup-only"], deadline)["setup_s"]

    # the first import writes bytecode caches; keep it out of the samples
    probe()
    # half the probes before and half after the measured process, so that the
    # samples span the run rather than one moment of the machine's load
    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    raw = _worker(workload, seed, ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setups.append(raw["setup_s"])
    wall_s = sum(raw["group_s"].values())
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "peak_rss_mb": raw["peak_rss_mb"],
        "ops_failed_share": raw["failed"] / raw["attempted"],
        "inf_gap_rel": raw["inf_gap_rel"],
        "unconverged_share": raw["unconverged_share"],
        "cases": raw["cases"],
    }
    if trace:
        values.update(raw["layers"])
        # each workload has its own groups; the other workload's read 0
        values.update({name: 0.0 for name in PER_LAYER if name.startswith("ops.")})
        values.update({f"ops.{group}.s": s for group, s in raw["group_s"].items()})
        values["trace.overhead_s"] = raw["traced_wall_s"] - wall_s
    metrics = PER_LAYER if trace else END_TO_END
    return {
        "stamp": {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "commit": _git_commit(),
            **raw["versions"],
            "nproc": len(os.sched_getaffinity(0)),
        },
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "failures": raw["failures"],
        "setup_samples": setups,
        "walls": raw["walls"],
        "ops_per_batch": raw["ops_per_batch"],
        "traced_walls": raw.get("traced_walls", []),
        "layer_table": raw.get("layer_table", []),
        "spans_path": raw.get("spans_path"),
        "values": values,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in metrics.items()},
    }


def _print_report(result) -> None:
    stamp = result["stamp"]
    print(" ".join(f"{k}={v}" for k, v in stamp.items()))
    values = result["values"]
    print(f"  {'end-to-end metric':<44} {'value':>14}  unit")
    units = {**END_TO_END, **PER_LAYER}
    for name in [*END_TO_END, *QUALITY]:
        print(f"  {name:<44} {values[name]:>14.6g}  {units[name]}")
    print(f"  batches: {len(result['walls'])} untraced, {len(result['traced_walls'])} traced, "
          f"{result['ops_per_batch']} timed operations each")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    if not stamp["trace"]:
        return
    traced_wall = min(result["traced_walls"])
    print(f"  {'layer':<14} {'calls':>10} {'self_s':>10} {'of traced wall':>15}")
    for layer, calls, self_s in result["layer_table"]:
        print(f"  {layer:<14} {calls:>10} {self_s:>10.4f} {self_s / traced_wall:>15.1%}")
    print(f"  {'per-layer metric':<44} {'value':>14}  unit")
    for name, unit in PER_LAYER.items():
        print(f"  {name:<44} {values[name]:>14.6g}  {unit}")
    print(f"  spans: {result['spans_path']}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "rabounds" / "__init__.py").is_file():
        print(f"perfbench: no rabounds package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            path = OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(result, indent=1) + "\n")
            _print_report(result)
            results.append(result)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['stamp']['workload']}.{name}": m
            for r in results
            for name, m in r["metrics"].items()
        }
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
