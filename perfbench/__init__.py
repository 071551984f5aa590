"""Benchmark for rabounds: seeded workloads, end-to-end metrics, per-layer trace.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/README.md``.
"""
