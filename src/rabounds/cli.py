"""Batch front-end: run configured cases and emit a CSV report.

Config format (line-oriented key = value, '#' starts a comment):

    # optional global defaults before the first case
    seed = 42                      # default seed of every case
    max_sweeps = 100

    [case row1]
    marginal = uniform 0 0.4
    marginal = uniform 0.1 0.5
    marginal = uniform 0 1
    weights = 0.5 0.2 0.3          # or: aggregation = sum
    transform = stop_loss 0.3      # identity | stop_loss k | power p
    n = 100000
    restarts = 3
    seed = 7                       # optional; replaces the global seed
    oracle = on                    # exhaustive cross-check (tiny cases only)
    oracle_budget = 1000000        # more arrangements: the check is skipped
    auto_truncate = on             # default on

Marginal syntax: ``uniform a b`` | ``exponential rate`` | ``pareto alpha`` |
``normal mu sigma`` | ``empirical path`` (one value per line, path relative
to the config file), each optionally followed by ``truncate p_lo p_hi``.

One CSV row per case, in config order; a failing case carries its error
string in the last column and does not abort the batch. Exit code is 0 iff
no row carries an error, and 2 for an invalid config or flag. Identical
config and seeds produce identical CSV except for the runtime columns.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import marginals as mg
from .bounds import BoundsResult, _prepare_specs, estimate_inf
from .costfn import CostFunction, identity, power, stop_loss, sum_agg, weighted_sum
from .errors import RaboundsError
from .marginals import MarginalSpec, discretize
from .oracle import (
    DEFAULT_BUDGET,
    brute_force_min,
    brute_force_min_over_opposite_set,
    within_budget,
)
from .ra_core import DEFAULT_MAX_SWEEPS, ArrangementMatrix

__all__ = [
    "ParseError",
    "ValidationError",
    "CaseConfig",
    "RunConfig",
    "parse_config",
    "run_cases",
    "write_csv",
    "main",
]


class ParseError(RaboundsError):
    """Config text is malformed; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ValidationError(RaboundsError):
    """Config parsed but is semantically invalid."""


CSV_COLUMNS = [
    "case",
    "n",
    "d",
    "restarts",
    "seed",
    "lower",
    "upper",
    "sup_lower",
    "sup_upper",
    "sweeps_lower",
    "sweeps_upper",
    "converged_lower",
    "converged_upper",
    "runtime_ms_lower",
    "runtime_ms_upper",
    "truncated",
    "oracle_lower",
    "oracle_upper",
    "theorem_check",
    "bound_lower",
    "bound_upper",
    "certified_lower",
    "certified_upper",
    "restarts_run_lower",
    "restarts_run_upper",
    "stop_reason_lower",
    "stop_reason_upper",
    "sweeps_total_lower",
    "sweeps_total_upper",
    "error",
]

RUNTIME_COLUMNS = ("runtime_ms_lower", "runtime_ms_upper")

# A report column shows the BoundsResult field of its name, or the renamed one
# below; ``truncated`` summarises ``truncation_applied``.
_RENAMED = {"lower": "lower_estimate", "upper": "upper_estimate"}
_RESULT_FIELDS = {f.name for f in fields(BoundsResult)}


@dataclass(frozen=True)
class CaseConfig:
    case_id: str
    specs: Tuple[MarginalSpec, ...]
    cost: CostFunction
    n: int
    restarts: int
    seed: int  # the case's own seed line, else the global seed
    oracle: bool
    oracle_budget: int
    auto_truncate: bool


@dataclass(frozen=True)
class RunConfig:
    """The cases in config order, each with its seed, and their sweep limit."""

    cases: Tuple[CaseConfig, ...]
    max_sweeps: int = DEFAULT_MAX_SWEEPS


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _parse_number(token: str, line_no: int, kind=float):
    try:
        if kind is int:
            try:
                return int(token)
            except ValueError:
                as_float = float(token)  # allow exponent spellings like 1e5
                as_int = int(as_float)
                if as_int != as_float:
                    raise ValueError(token)
                return as_int
        return kind(token)
    except (ValueError, OverflowError):
        raise ParseError(line_no, f"expected a number, got {token!r}") from None


def _parse_flag(value: str, line_no: int, base_dir: Path) -> bool:
    if value in ("on", "true", "1"):
        return True
    if value in ("off", "false", "0"):
        return False
    raise ParseError(line_no, f"expected on/off, got {value!r}")


def _parse_count(value: str, line_no: int, base_dir: Path) -> int:
    return _parse_number(value, line_no, int)


def _numeric(make):
    """Builder for a form whose parameters are all numbers."""
    return lambda args, line_no, base_dir: make(
        *(_parse_number(a, line_no) for a in args)
    )


# One table per config key that names a form (marginal family, transform):
# name -> (parameter count, usage message, builder(args, line_no, base_dir))
_FAMILIES = {
    "uniform": (2, "uniform needs: a b", _numeric(mg.uniform)),
    "exponential": (1, "exponential needs: rate", _numeric(mg.exponential)),
    "pareto": (1, "pareto needs: alpha", _numeric(mg.pareto)),
    "normal": (2, "normal needs: mu sigma", _numeric(mg.normal)),
    "empirical": (
        1,
        "empirical needs: path",
        lambda args, line_no, base_dir: mg.empirical(
            _load_empirical(base_dir / args[0], line_no)
        ),
    ),
}

_TRANSFORMS = {
    "identity": (0, "identity takes no parameter", _numeric(identity)),
    "stop_loss": (1, "stop_loss needs its threshold k", _numeric(stop_loss)),
    "power": (1, "power needs its exponent p", _numeric(power)),
}


def _build(table: Dict, kind: str, tokens: List[str], line_no: int, base_dir: Path):
    """Build the form ``tokens[0]`` of ``table`` from the remaining tokens."""
    name, args = tokens[0], tokens[1:]
    if name not in table:
        raise ParseError(line_no, f"unknown {kind} {name!r}")
    count, usage, build = table[name]
    if len(args) != count:
        raise ValidationError(f"line {line_no}: {usage}")
    try:
        return build(args, line_no, base_dir)
    except ValueError as exc:
        raise ValidationError(f"line {line_no}: {exc}") from None


def _parse_marginal(value: str, line_no: int, base_dir: Path) -> MarginalSpec:
    tokens = value.split()
    if not tokens:
        raise ParseError(line_no, "marginal needs a family name")
    window = None
    if "truncate" in tokens[1:]:
        pos = tokens.index("truncate", 1)
        if len(tokens) - pos != 3:
            raise ParseError(line_no, "truncate needs exactly p_lo and p_hi")
        window = [_parse_number(t, line_no) for t in tokens[pos + 1 :]]
        tokens = tokens[:pos]
    spec = _build(_FAMILIES, "marginal family", tokens, line_no, base_dir)
    if window is None:
        return spec
    try:
        return mg.truncate(spec, *window)
    except RaboundsError as exc:
        raise ValidationError(f"line {line_no}: {exc}") from None


def _load_empirical(path: Path, line_no: int) -> List[float]:
    if not path.is_file():
        raise ValidationError(f"line {line_no}: empirical file not found: {path}")
    values = []
    for raw in path.read_text().splitlines():
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            values.append(float(text))
        except ValueError:
            raise ValidationError(
                f"line {line_no}: bad value {text!r} in empirical file {path}"
            ) from None
    if not values:
        raise ValidationError(f"line {line_no}: empirical file {path} holds no values")
    return values


def _parse_transform(value: str, line_no: int, base_dir: Path):
    tokens = value.split()
    if not tokens:
        raise ParseError(line_no, "transform needs a form name")
    return _build(_TRANSFORMS, "transform", tokens, line_no, base_dir)


# case key -> (parser(value, line_no, base_dir), default); a global "seed" line
# replaces the default seed. A repeated key keeps its last value, except
# "marginal", whose lines append in order. The keys named like CaseConfig
# fields pass through to it unchanged.
_CASE_KEYS = {
    "marginal": (_parse_marginal, ()),
    "weights": (
        lambda value, line_no, base_dir: [_parse_number(t, line_no) for t in value.split()],
        None,
    ),
    "aggregation": (lambda value, line_no, base_dir: value, None),
    "transform": (_parse_transform, identity()),
    "n": (_parse_count, None),
    "restarts": (_parse_count, 1),
    "seed": (_parse_count, 0),
    "oracle": (_parse_flag, False),
    "oracle_budget": (_parse_count, DEFAULT_BUDGET),
    "auto_truncate": (_parse_flag, True),
}


def _finish_case(cid: str, raw: Dict) -> CaseConfig:
    specs = raw.pop("marginal")
    weights = raw.pop("weights")
    aggregation = raw.pop("aggregation")
    transform = raw.pop("transform")
    if len(specs) < 2:
        raise ValidationError(f"case {cid!r}: needs at least two marginals")
    if weights is not None and aggregation is not None:
        raise ValidationError(f"case {cid!r}: give either weights or aggregation, not both")
    if weights is not None:
        if len(weights) != len(specs):
            raise ValidationError(
                f"case {cid!r}: {len(weights)} weights for {len(specs)} marginals"
            )
        try:
            agg = weighted_sum(weights)
        except ValueError as exc:
            raise ValidationError(f"case {cid!r}: {exc}") from None
    elif aggregation == "sum":
        agg = sum_agg(len(specs))
    elif aggregation is None:
        raise ValidationError(f"case {cid!r}: needs weights or aggregation = sum")
    else:
        raise ValidationError(f"case {cid!r}: unknown aggregation {aggregation!r}")
    if raw["n"] is None:
        raise ValidationError(f"case {cid!r}: n is required")
    if raw["n"] < 1:
        raise ValidationError(f"case {cid!r}: n must be >= 1")
    if raw["restarts"] < 1:
        raise ValidationError(f"case {cid!r}: restarts must be >= 1")
    if raw["seed"] < 0:
        raise ValidationError(f"case {cid!r}: seed must be non-negative")
    if raw["oracle_budget"] < 1:
        raise ValidationError(f"case {cid!r}: oracle_budget must be >= 1")
    return CaseConfig(case_id=cid, specs=specs, cost=CostFunction(agg, transform), **raw)


def parse_config(text: str, base_dir: str | Path = ".") -> RunConfig:
    """Parse and validate a run configuration.

    A case without a ``seed`` line takes the global ``seed`` (0 if absent).
    Raises :class:`ParseError` for malformed lines and
    :class:`ValidationError` for semantic problems (a wrong parameter count,
    non-positive or non-finite weights, a missing marginal or n, ...).
    """
    base = Path(base_dir)
    case_defaults = {key: default for key, (_, default) in _CASE_KEYS.items()}
    global_max_sweeps = DEFAULT_MAX_SWEEPS
    cases: List[CaseConfig] = []
    cid: Optional[str] = None
    current: Dict = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not (line.endswith("]") and line[1:-1].split()):
                raise ParseError(line_no, f"malformed case header {line!r}")
            head = line[1:-1].split()
            if head[0] != "case" or len(head) != 2:
                raise ParseError(line_no, f"case header must be [case <id>], got {line!r}")
            if cid is not None:
                cases.append(_finish_case(cid, current))
            if head[1] in (c.case_id for c in cases):
                raise ValidationError(f"duplicate case id {head[1]!r}")
            cid = head[1]
            current = dict(case_defaults)
            continue
        if "=" not in line:
            raise ParseError(line_no, f"expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if cid is None:
            if key == "seed":
                case_defaults["seed"] = _parse_number(value, line_no, int)
                if case_defaults["seed"] < 0:
                    raise ValidationError("global seed must be non-negative")
            elif key == "max_sweeps":
                global_max_sweeps = _parse_number(value, line_no, int)
                if global_max_sweeps < 1:
                    raise ValidationError("max_sweeps must be >= 1")
            else:
                raise ParseError(
                    line_no, f"key {key!r} must appear inside a [case ...] block"
                )
            continue
        if key not in _CASE_KEYS:
            raise ParseError(line_no, f"unknown key {key!r}")
        parsed = _CASE_KEYS[key][0](value, line_no, base)
        current[key] = (current[key] + (parsed,)) if key == "marginal" else parsed

    if cid is not None:
        cases.append(_finish_case(cid, current))
    if not cases:
        raise ParseError(0, "config declares no cases")
    return RunConfig(cases=tuple(cases), max_sweeps=global_max_sweeps)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _truncation_summary(result) -> str:
    parts = [
        f"F{i + 1}:{w[0]:.6g}..{w[1]:.6g}"
        for i, w in enumerate(result.truncation_applied)
        if w is not None
    ]
    return ";".join(parts) if parts else "-"


def _oracle_check(case: CaseConfig) -> Dict[str, str]:
    """Exhaustive min per grid, plus the fixed-point-set equality verdict."""
    out = {}
    verdicts = []
    prepared, _, _ = _prepare_specs(case.specs, case.cost, case.auto_truncate)
    for kind, column in (("lower", "oracle_lower"), ("upper", "oracle_upper")):
        margs = [discretize(s, case.n, kind) for s in prepared]
        X = ArrangementMatrix.comonotonic(margs)
        global_min, _ = brute_force_min(X, case.cost, budget=case.oracle_budget)
        restricted_min = brute_force_min_over_opposite_set(
            X, case.cost, budget=case.oracle_budget
        )
        out[column] = _fmt(global_min / case.n)
        verdicts.append(
            abs(global_min - restricted_min) <= 1e-12 * (1.0 + abs(global_min))
        )
    out["theorem_check"] = "pass" if all(verdicts) else "fail"
    return out


def run_cases(config: RunConfig) -> List[Dict[str, str]]:
    """One report row per case, in config order; errors stay on their row.

    Runs the config as given: :func:`parse_config` checked its values, and
    :func:`main` checks the flags it folds in.
    """
    rows = []
    for case in config.cases:
        row = {c: "" for c in CSV_COLUMNS}
        row.update(
            case=case.case_id,
            n=str(case.n),
            d=str(len(case.specs)),
            restarts=str(case.restarts),
            seed=str(case.seed),
        )
        try:
            result = estimate_inf(
                case.specs,
                case.cost,
                n=case.n,
                restarts=case.restarts,
                seed=case.seed,
                max_sweeps=config.max_sweeps,
                auto_truncate=case.auto_truncate,
            )
            for col in CSV_COLUMNS:
                field = _RENAMED.get(col, col)
                if field in _RESULT_FIELDS:
                    row[col] = _fmt(getattr(result, field))
            row["truncated"] = _truncation_summary(result)
            if case.oracle and within_budget(case.n, len(case.specs), case.oracle_budget):
                row.update(_oracle_check(case))
        except RaboundsError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def write_csv(rows: Sequence[Dict[str, str]], stream) -> None:
    writer = csv.DictWriter(stream, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rabounds",
        description="Bracket worst-case expectations under fixed marginals.",
    )
    parser.add_argument("config", help="path to the run configuration file")
    parser.add_argument("--out", help="write the CSV report here (default: stdout)")
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="force the exhaustive cross-check on all cases within budget",
    )
    parser.add_argument("--seed", type=int, help="override every seed in the config")
    parser.add_argument("--max-sweeps", type=int, help="override the sweep limit")
    args = parser.parse_args(argv)

    config_path = Path(args.config)
    try:
        text = config_path.read_text()
    except OSError as exc:
        print(f"rabounds: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text, base_dir=config_path.parent)
    except RaboundsError as exc:
        print(f"rabounds: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None and args.seed < 0:
        print("rabounds: --seed must be non-negative", file=sys.stderr)
        return 2
    if args.max_sweeps is not None and args.max_sweeps < 1:
        print("rabounds: --max-sweeps must be >= 1", file=sys.stderr)
        return 2
    cases = tuple(
        replace(c, seed=c.seed if args.seed is None else args.seed, oracle=c.oracle or args.oracle)
        for c in config.cases
    )
    config = replace(config, cases=cases, max_sweeps=args.max_sweeps or config.max_sweeps)

    # opened before any case runs, so an unwritable --out costs no batch
    try:
        report = open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        print(f"rabounds: cannot write report: {exc}", file=sys.stderr)
        return 2
    with report as fh:
        rows = run_cases(config)
        write_csv(rows, fh)
    return 0 if all(not r["error"] for r in rows) else 1
