"""Every name a rabounds module exports resolves, so no deleted name stays exported.

The same holds for every name the benchmark's tracer patches, and for every
config attribute, result attribute and report column the benchmark's checks
read."""

import csv
import importlib
import io
import pkgutil
from pathlib import Path

import pytest

import rabounds
from rabounds import CostFunction, cli, exponential, power, sum_agg
from rabounds.bounds import estimate_inf
from rabounds.ra_core import ArrangementMatrix, run_ra_restarts

MODULES = ["rabounds"] + sorted(
    m.name
    for m in pkgutil.iter_modules(rabounds.__path__, "rabounds.")
    if m.name != "rabounds.__main__"
)


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(mod, name)] == []


def test_traced_names_resolve(monkeypatch):
    # perfbench/tests is not in this suite, so a dropped name would otherwise
    # surface only in a traced benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    targets = importlib.import_module("perfbench.tracer").TARGETS
    assert targets
    missing = [(m, a) for m, a in targets if not hasattr(importlib.import_module(m), a)]
    assert missing == []


SIDES = ("lower", "upper")
# perfbench/workloads.py:209-210 reads these of each estimate_inf result;
# sweeps_* is the winning run's RaResult.sweeps, which tracer.py:95 reads
BOUNDS_ATTRS = ["lower_estimate", "upper_estimate"] + [
    f"{name}_{kind}" for name in ("sup", "converged", "sweeps") for kind in SIDES
]
# perfbench/tracer.py:95-113 and workloads.py:330-341 read these of a run,
# and tracer.py:96-97 and workloads.py:332-341 these of an ArrangementMatrix
RUN_ATTRS = ["objective", "matrix", "converged", "sweeps", "column_rearrangements"]
MATRIX_ATTRS = ["n", "d", "provenance", "columns_match_provenance"]
# perfbench/workloads.py:220-241 reads these columns of the CLI report
CSV_COLUMNS = ["case", "lower", "upper", "theorem_check", "error"] + [
    f"{name}_{kind}" for name in ("sup", "converged", "sweeps", "oracle") for kind in SIDES
]
# perfbench/workloads.py:192 and 203 read the cases of the parsed config,
# lines 192 and 220-225 these of each case, and 107-123 these of its
# aggregation and transform
CASE_ATTRS = ["case_id", "specs", "cost", "n", "auto_truncate"]
COST_ATTRS = {"agg": ["kind", "d", "weights"], "transform": ["form", "param"]}


def test_benchmark_reads_resolve():
    # a field folded into a property must stay readable under its old name,
    # or a benchmark run fails its checks while this suite passes
    cost = CostFunction(sum_agg(2), power(2.0))
    bounds = estimate_inf([exponential(1.0)] * 2, cost, n=8, restarts=2, seed=1)
    assert [a for a in BOUNDS_ATTRS if not hasattr(bounds, a)] == []
    X = ArrangementMatrix.from_columns([[0.0, 1.0, 2.0], [2.0, 0.0, 1.0]])
    run = run_ra_restarts(X, cost, restarts=2, seed=1)
    assert [a for a in RUN_ATTRS if not hasattr(run, a)] == []
    assert [a for a in MATRIX_ATTRS if not hasattr(run.matrix, a)] == []
    text = """
[case tiny]
marginal = uniform 0 1
marginal = exponential 1
aggregation = sum
transform = power 2
n = 3
oracle = on
"""
    config = cli.parse_config(text)
    (case,) = config.cases
    assert [a for a in CASE_ATTRS if not hasattr(case, a)] == []
    for part, attrs in COST_ATTRS.items():
        assert [a for a in attrs if not hasattr(getattr(case.cost, part), a)] == [], part
    out = io.StringIO()
    cli.write_csv(cli.run_cases(config), out)
    (row,) = csv.DictReader(io.StringIO(out.getvalue()))
    assert [c for c in CSV_COLUMNS if c not in row] == []
    assert row["case"] == "tiny" and row["error"] == ""
    assert all(row[f"oracle_{kind}"] for kind in SIDES)
