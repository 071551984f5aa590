#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and the baseline file.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds 20]
                                [--traced] [--out perfbench/baseline.json]
                                [--compare perfbench/baseline.json]

Runs ``run.py --trace 0`` once per workload and seed, one run at a time, and
prints for each end-to-end metric its median, its quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile distance
as a share of the median, next to a third of the metric's bound in
``BENCHMARK.json``. With ``--traced`` it adds one ``--trace 1`` run per
workload on the first seed. ``--out`` writes everything as JSON.
``--compare`` prints each median's change against an earlier ``--out`` file,
as a share of that file's median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/spread.py")
    p.add_argument("--workloads", help="default: every workload of BENCHMARK.json")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--out")
    p.add_argument("--compare", help="an earlier --out file")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads or ",".join(w["name"] for w in bench["workloads"])).split(",")
    before = json.loads(Path(args.compare).read_text())["workloads"] if args.compare else {}
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = _seeds(args.seeds)
    report = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        runs = [_run(workload, seed, seconds, 0) for seed in seeds]
        entry = {
            name: summarize([r["metrics"][name]["value"] for r in runs]) for name in bounds
        }
        print(f"{workload} ({len(seeds)} seeds, {seconds} s)")
        for name, s in entry.items():
            print(f"  {name:<12} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}  bound/3 {bounds[name] / 3:.4f}")
            if workload in before:
                old = before[workload]["end_to_end"][name]["median"]
                print(f"  {'':<12} vs --compare median {old:<12.6g} "
                      f"change {(s['median'] - old) / old:+.4f}  bound {bounds[name]:.4f}")
        report["workloads"][workload] = {"end_to_end": entry}
        if args.traced:
            traced = _run(workload, seeds[0], seconds, 1)
            report["workloads"][workload]["per_layer_seed"] = seeds[0]
            report["workloads"][workload]["per_layer"] = {
                name: m["value"] for name, m in traced["metrics"].items()
            }
    if args.out:
        # environment of the last run; run.py wrote its full result there
        last = ROOT / "perfbench" / "out" / f"result-{workload}-seed{seeds[-1]}-trace0.json"
        stamp = json.loads(last.read_text())["stamp"]
        report["stamp"] = {k: v for k, v in stamp.items() if k not in ("workload", "seed", "trace")}
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
