"""Smoke test: the walkthrough demos run to completion against src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# 03_portfolio_bracket.py is left out: it runs at n=1e5 and takes about 10 s.
DEMOS = [
    "01_quantile_grids.py",
    "02_rearrangement_walkthrough.py",
    "04_oracle_crosscheck.py",
    "05_custom_aggregation.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
