"""Tests of the benchmark itself: tiny smoke runs, trace counters, self times.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import run  # noqa: E402
from perfbench import tracer as tr  # noqa: E402
from perfbench.worker import mean_by_group  # noqa: E402
from perfbench.workloads import WORKLOADS, OpClock  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced tiny batch per workload: name -> (output, verdict, tracer, csv rows)."""
    workdir = tmp_path_factory.mktemp("perfbench")
    out = {}
    for name, cls in WORKLOADS.items():
        workload = cls(SEED, True, workdir)
        with tr.Tracer() as tracer:
            result = workload.run()
        verdict = workload.check(result)
        rows = workload.read_rows() if name == "estimates" else None
        workload.close()
        out[name] = (result, verdict, tracer, rows)
    return out


def _spans(tracer, name):
    return [s for s in tracer.spans if s.name == name]


def _under_cli(span):
    while span is not None and span.name != "cli.main":
        span = span.parent
    return span is not None


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_batch_passes_every_check(traced, name):
    _, verdict, _, _ = traced[name]
    assert verdict.ops > 0
    assert verdict.failures == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_self_times_are_never_negative(traced, name):
    tracer = traced[name][2]
    assert tracer.spans
    assert all(s.self_ns >= 0 for s in tracer.spans)
    assert all(self_s >= 0 for _, _, self_s in tr.layer_table(tracer))


def test_winner_sweeps_match_bounds_result(traced):
    (_, results), _, tracer, _ = traced["estimates"]
    want = [x for r in results for x in (r.sweeps_lower, r.sweeps_upper)]
    restarts = [s for s in _spans(tracer, "ra_core.run_ra_restarts") if not _under_cli(s)]
    assert [s.info["winner_sweeps"] for s in restarts] == want
    assert [s.info["sweeps"] for s in restarts] == want


def test_winner_sweeps_match_csv_columns(traced):
    _, _, tracer, rows = traced["estimates"]
    want = [int(r[k]) for r in rows for k in ("sweeps_lower", "sweeps_upper")]
    restarts = [s for s in _spans(tracer, "ra_core.run_ra_restarts") if _under_cli(s)]
    assert [s.info["winner_sweeps"] for s in restarts] == want


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_rows_sorted_equals_sweeps_times_d_times_n(traced, name):
    tracer = traced[name][2]
    metrics = tr.layer_metrics(tracer)
    runs = _spans(tracer, "ra_core.run_ra")
    assert runs
    assert metrics["ra_core.rows_sorted"] == sum(
        s.info["sweeps"] * s.info["d"] * s.info["n"] for s in runs
    )
    assert metrics["ra_core.column_passes"] == sum(s.info["sweeps"] * s.info["d"] for s in runs)
    assert metrics["ra_core.sweeps"] == (
        metrics["ra_core.sweeps.first"] + metrics["ra_core.sweeps.shuffled"]
    )


def test_hot_leaves_are_counted_on_their_parent_span(traced):
    tracer = traced["oracle_custom"][2]
    assert not [s for s in tracer.spans if s.name in tr.HOT_LEAVES]
    scans = _spans(tracer, "oracle.brute_force_min_over_opposite_set")
    generic = [s for s in scans if "majorization.is_oppositely_ordered" in s.leaves]
    assert generic, "the custom product scans call the opposite-order predicate"
    metrics = tr.layer_metrics(tracer)
    assert metrics["majorization.is_oppositely_ordered.calls"] == sum(
        s.leaves["majorization.is_oppositely_ordered"][0] for s in generic
    )


def test_group_times_sum_each_operations_mean_time():
    clocks = []
    for times in ([3.0, 1.0, 5.0], [2.0, 4.0, 6.0]):
        clock = OpClock()
        for group, t in zip(("a", "a", "b"), times):
            clock(group, lambda: None)
            clock.times[-1] = t
        clocks.append(clock)
    assert mean_by_group(clocks) == {"a": 2.5 + 2.5, "b": 5.5}


def test_tracer_restores_the_patched_names():
    import rabounds.ra_core as ra_core

    before = ra_core.eval_partial_rows
    with tr.Tracer():
        assert ra_core.eval_partial_rows is not before
    assert ra_core.eval_partial_rows is before


@pytest.mark.parametrize("trace,metrics", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_run_prints_every_metric_in_the_result_line(trace, metrics):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_custom", "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == metrics
    for name in [*run.END_TO_END, *run.QUALITY]:
        assert name in proc.stdout


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_custom", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
