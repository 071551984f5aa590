"""Tests for config parsing, batch execution, and the CSV report."""

import csv
import importlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rabounds import RaboundsError, cli, oracle
from rabounds.cli import (
    CSV_COLUMNS,
    RUNTIME_COLUMNS,
    ParseError,
    ValidationError,
    main,
    parse_config,
    run_cases,
    write_csv,
)

DATA_DIR = Path(__file__).parent / "data"

GOOD = """
seed = 5

[case a]
marginal = uniform 0 0.4
marginal = uniform 0.1 0.5
marginal = uniform 0 1
weights = 0.5 0.2 0.3
transform = stop_loss 0.3
n = 64
restarts = 2

[case b]
marginal = exponential 1
marginal = exponential 2
aggregation = sum
transform = identity
n = 32
oracle = off
"""


# two uniforms summed at n = 4; a key appended to it sits on line 6
PAIR = "[case x]\nmarginal = uniform 0 1\nmarginal = uniform 0 1\naggregation = sum\nn = 4\n"


def rows_from_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def render(rows):
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()


class TestParse:
    def test_valid_config(self):
        cfg = parse_config(GOOD + "seed = 7\n")  # the last line joins case b
        assert [c.seed for c in cfg.cases] == [5, 7]  # a: the global seed, b: its own
        assert [c.case_id for c in cfg.cases] == ["a", "b"]
        a = cfg.cases[0]
        assert a.cost.agg.weights == (0.5, 0.2, 0.3)
        assert a.cost.transform.form == "stop_loss"
        assert a.n == 64 and a.restarts == 2
        b = cfg.cases[1]
        assert b.cost.agg.weights == (1.0, 1.0)
        assert b.cost.transform.form == "identity"

    def test_truncation_and_empirical(self, tmp_path):
        (tmp_path / "vals.txt").write_text("1.0\n2.0\n3.0\n")
        text = """
[case c]
marginal = exponential 1 truncate 0 0.999
marginal = empirical vals.txt
weights = 0.7 0.3
transform = power 2
n = 10
"""
        cfg = parse_config(text, base_dir=tmp_path)
        specs = cfg.cases[0].specs
        assert specs[0].truncation == (0.0, 0.999)
        assert specs[1].values == (1.0, 2.0, 3.0)

    def test_weight_count_mismatch(self):
        text = GOOD.replace("weights = 0.5 0.2 0.3", "weights = 0.5 0.2")
        with pytest.raises(ValidationError):
            parse_config(text)

    def test_nonpositive_weight(self):
        text = GOOD.replace("weights = 0.5 0.2 0.3", "weights = 0.5 0 0.5")
        with pytest.raises(ValidationError):
            parse_config(text)

    def test_stop_loss_without_threshold(self):
        text = GOOD.replace("transform = stop_loss 0.3", "transform = stop_loss")
        with pytest.raises(ValidationError):
            parse_config(text)

    def test_empty_case_list(self):
        with pytest.raises(ParseError):
            parse_config("seed = 3\n")

    def test_unknown_key_carries_line_number(self):
        text = "[case x]\nmarginal = uniform 0 1\nmarginal = uniform 0 1\nn = 4\nfrobnicate = 7\naggregation = sum\n"
        with pytest.raises(ParseError) as err:
            parse_config(text)
        assert err.value.line_no == 5

    def test_bad_number(self):
        with pytest.raises(ParseError):
            parse_config("[case x]\nmarginal = uniform zero 1\n")

    def test_missing_n(self):
        text = "[case x]\nmarginal = uniform 0 1\nmarginal = uniform 0 1\naggregation = sum\n"
        with pytest.raises(ValidationError):
            parse_config(text)

    def test_both_weights_and_aggregation(self):
        text = (
            "[case x]\nmarginal = uniform 0 1\nmarginal = uniform 0 1\n"
            "weights = 0.5 0.5\naggregation = sum\nn = 4\n"
        )
        with pytest.raises(ValidationError):
            parse_config(text)

    def test_duplicate_case_id(self):
        text = GOOD + "\n[case a]\nmarginal = uniform 0 1\nmarginal = uniform 0 1\naggregation = sum\nn = 4\n"
        with pytest.raises(ValidationError):
            parse_config(text)

    def test_global_key_after_case_rejected(self):
        text = "[case x]\nmax_sweeps = 5\n"
        with pytest.raises(ParseError):
            parse_config(text)

    def test_exponent_notation_accepted(self):
        text = (
            "[case sci]\nmarginal = uniform 0 4e-1\n"
            "marginal = exponential 1.0e0 truncate 0 9.9999e-1\n"
            "weights = 5e-1 0.5\ntransform = stop_loss 3e-1\nn = 1e3\n"
            "oracle_budget = 1e6\n"
        )
        case = parse_config(text).cases[0]
        assert case.specs[0].params == (0.0, 0.4)
        assert case.specs[1].truncation == (0.0, 0.99999)
        assert case.cost.transform.param == 0.3
        assert case.n == 1000 and case.oracle_budget == 1_000_000

    def test_fractional_count_rejected(self):
        text = (
            "[case x]\nmarginal = uniform 0 1\nmarginal = uniform 0 1\n"
            "aggregation = sum\nn = 2.5\n"
        )
        with pytest.raises(ParseError):
            parse_config(text)

    def test_repeated_scalar_key_keeps_last_value(self):
        case = parse_config(PAIR + "n = 8\nrestarts = 2\nrestarts = 3\n").cases[0]
        assert (case.n, case.restarts) == (8, 3)

    def test_marginal_lines_append_in_order(self):
        text = (
            "[case x]\nmarginal = exponential 2\nmarginal = uniform 0 3\n"
            "n = 4\nmarginal = pareto 1.5\naggregation = sum\n"
        )
        specs = parse_config(text).cases[0].specs
        assert [(s.family, s.params) for s in specs] == [
            ("exponential", (2.0,)),
            ("uniform", (0.0, 3.0)),
            ("pareto", (1.5,)),
        ]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[case x]\nmarginal = uniform 0\n", "line 2: uniform needs: a b"),
            (PAIR + "transform = identity 1\n", "line 6: identity takes no parameter"),
            (PAIR + "transform = power 1 2\n", "line 6: power needs its exponent p"),
        ],
        ids=["uniform_0", "identity_1", "power_1_2"],
    )
    def test_wrong_parameter_count(self, text, message):
        with pytest.raises(RaboundsError) as err:
            parse_config(text)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text, line_no, message",
        [
            (PAIR + "transform = frobnicate 2\n", 6, "unknown transform 'frobnicate'"),
            ("[case x]\nmarginal =\n", 2, "marginal needs a family name"),
            (PAIR + "transform =\n", 6, "transform needs a form name"),
        ],
        ids=["unknown_transform", "empty_marginal", "empty_transform"],
    )
    def test_unknown_or_empty_form(self, text, line_no, message):
        with pytest.raises(ParseError) as err:
            parse_config(text)
        assert str(err.value) == f"line {line_no}: {message}"
        assert err.value.line_no == line_no

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                PAIR.replace("aggregation = sum", "weights = 0.5 nan"),
                "case 'x': weights must be finite, got (0.5, nan)",
            ),
            (
                PAIR.replace("aggregation = sum", "weights = 1 inf"),
                "case 'x': weights must be finite, got (1.0, inf)",
            ),
            (
                PAIR + "transform = stop_loss nan\n",
                "line 6: stop-loss threshold must be finite, got nan",
            ),
            (
                PAIR + "transform = power inf\n",
                "line 6: power exponent must be finite, got inf",
            ),
        ],
        ids=["weight_nan", "weight_inf", "stop_loss_nan", "power_inf"],
    )
    def test_non_finite_parameter_rejected(self, text, message):
        with pytest.raises(ValidationError) as err:
            parse_config(text)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "marginal, message",
        [
            ("exponential inf", "exponential parameters must be finite, got (inf,)"),
            ("normal nan 1", "normal parameters must be finite, got (nan, 1.0)"),
            ("uniform -inf 0", "uniform parameters must be finite, got (-inf, 0.0)"),
        ],
        ids=["exponential_inf", "normal_nan", "uniform_-inf"],
    )
    def test_non_finite_marginal_parameter_rejected(self, marginal, message):
        # the second marginal sits on line 3
        text = PAIR.replace("uniform 0 1\naggregation", f"{marginal}\naggregation")
        with pytest.raises(ValidationError) as err:
            parse_config(text)
        assert str(err.value) == f"line 3: {message}"

    @pytest.mark.parametrize(
        "text, error, message",
        [
            (PAIR.replace("marginal = uniform 0 1\n", "", 1), ValidationError,
             "case 'x': needs at least two marginals"),
            (PAIR.replace("aggregation = sum\n", ""), ValidationError,
             "case 'x': needs weights or aggregation = sum"),
            (PAIR.replace("= sum", "= product"), ValidationError,
             "case 'x': unknown aggregation 'product'"),
            (PAIR.replace("n = 4", "n = 0"), ValidationError, "case 'x': n must be >= 1"),
            (PAIR + "restarts = 0\n", ValidationError, "case 'x': restarts must be >= 1"),
            (PAIR + "seed = -1\n", ValidationError, "case 'x': seed must be non-negative"),
            (PAIR + "oracle_budget = 0\n", ValidationError,
             "case 'x': oracle_budget must be >= 1"),
            (PAIR + "oracle = maybe\n", ParseError, "line 6: expected on/off, got 'maybe'"),
            ("[case x\n", ParseError, "line 1: malformed case header '[case x'"),
            ("[case x y]\n", ParseError,
             "line 1: case header must be [case <id>], got '[case x y]'"),
            ("seed = -1\n" + PAIR, ValidationError, "global seed must be non-negative"),
            ("max_sweeps = 0\n" + PAIR, ValidationError, "max_sweeps must be >= 1"),
            ("n = 4\n" + PAIR, ParseError,
             "line 1: key 'n' must appear inside a [case ...] block"),
            (PAIR.replace("0 1\naggregation", "0 1 truncate 0.1\naggregation"), ParseError,
             "line 3: truncate needs exactly p_lo and p_hi"),
            (PAIR.replace("0 1\naggregation", "0 1 truncate 0.9 0.1\naggregation"),
             ValidationError, "line 3: truncation needs 0 <= p_lo < p_hi <= 1, got (0.9, 0.1)"),
            (PAIR.replace("uniform 0 1\naggregation", "empirical none.txt\naggregation"),
             ValidationError, "line 3: empirical file not found: {dir}/none.txt"),
            (PAIR.replace("uniform 0 1\naggregation", "empirical bad.txt\naggregation"),
             ValidationError, "line 3: bad value 'abc' in empirical file {dir}/bad.txt"),
            (PAIR.replace("uniform 0 1\naggregation", "empirical blank.txt\naggregation"),
             ValidationError, "line 3: empirical file {dir}/blank.txt holds no values"),
        ],
        ids=[
            "one_marginal", "no_aggregation", "unknown_aggregation", "n_0", "restarts_0",
            "case_seed_-1", "oracle_budget_0", "flag_maybe", "unclosed_header",
            "two_word_id", "global_seed_-1", "global_max_sweeps_0", "case_key_before_case",
            "truncate_one_bound", "truncate_empty_window", "empirical_missing",
            "empirical_bad_value", "empirical_blank",
        ],
    )
    def test_range_and_shape_checks(self, tmp_path, text, error, message):
        (tmp_path / "bad.txt").write_text("1.0\nabc\n")
        (tmp_path / "blank.txt").write_text("# no values\n\n")
        with pytest.raises(error) as err:
            parse_config(text, base_dir=tmp_path)
        assert str(err.value) == message.format(dir=tmp_path)

    def test_shipped_demo_config_parses(self):
        demo = Path(__file__).parent.parent / "demos" / "portfolio.cfg"
        cfg = parse_config(demo.read_text(), base_dir=demo.parent)
        assert len(cfg.cases) == 5
        assert cfg.cases[0].n == 100_000
        assert cfg.cases[0].cost.agg.weights == (0.5, 0.2, 0.3)


class TestRunCases:
    def test_order_preserved_and_rows_complete(self):
        rows = run_cases(parse_config(GOOD))
        assert [r["case"] for r in rows] == ["a", "b"]
        for row in rows:
            assert set(row) == set(CSV_COLUMNS)
            assert row["error"] == ""
            assert float(row["lower"]) <= float(row["upper"]) + 1e-9

    def test_failing_case_does_not_abort_batch(self):
        text = """
[case bad]
marginal = normal 0 1
marginal = uniform 0 1
weights = 0.5 0.5
transform = identity
n = 8
auto_truncate = off

[case good]
marginal = uniform 0 1
marginal = uniform 0 1
aggregation = sum
transform = identity
n = 8
"""
        rows = run_cases(parse_config(text))
        assert rows[0]["error"].startswith("NonFiniteQuantile")
        assert rows[1]["error"] == ""
        assert rows[1]["lower"] != ""

    def test_oracle_appended_for_tiny_case(self):
        text = """
[case tiny]
marginal = uniform 0 1
marginal = uniform 0 1
aggregation = sum
transform = stop_loss 1
n = 4
restarts = 4
oracle = on
"""
        rows = run_cases(parse_config(text))
        row = rows[0]
        assert row["theorem_check"] == "pass"
        # exhaustive minimum agrees with the rearrangement value on both grids
        assert row["oracle_lower"] == row["lower"]
        assert row["oracle_upper"] == row["upper"]

    def test_oracle_skipped_beyond_budget(self, monkeypatch):
        # the gate decides without building 64!, which oracle.arrangement_count would
        def no_count(n, d):
            raise AssertionError("arrangement_count called")

        monkeypatch.setattr(oracle, "arrangement_count", no_count)
        text = """
[case big]
marginal = uniform 0 1
marginal = uniform 0 1
aggregation = sum
transform = identity
n = 64
oracle = on
"""
        rows = run_cases(parse_config(text))
        assert rows[0]["oracle_lower"] == ""
        assert rows[0]["error"] == ""

    def test_arrangement_count_only_when_the_oracle_is_on(self, monkeypatch):
        counted = []
        real = cli.within_budget
        monkeypatch.setattr(
            cli, "within_budget", lambda n, d, b: counted.append((n, d, b)) or real(n, d, b)
        )
        rows = run_cases(parse_config(PAIR + "oracle = off\n"))
        assert counted == [] and rows[0]["error"] == ""
        rows = run_cases(parse_config(PAIR + "oracle = on\n"))
        assert counted == [(4, 2, 1_000_000)] and rows[0]["oracle_lower"] != ""

    def test_certificate_columns(self):
        text = """
[case pair]
marginal = uniform 0 1
marginal = uniform 0 1
aggregation = sum
transform = stop_loss 1
n = 64
restarts = 4

[case hard]
marginal = exponential 1
marginal = exponential 1
marginal = exponential 1
aggregation = sum
transform = power 2
n = 64
restarts = 2
"""
        pair, hard = run_cases(parse_config(text))
        # uniform pair: the first run sits on the Jensen bound
        assert (pair["certified_lower"], pair["restarts_run_lower"]) == ("true", "1")
        assert (pair["certified_upper"], pair["restarts_run_upper"]) == ("true", "1")
        assert (hard["certified_lower"], hard["restarts_run_lower"]) == ("false", "2")
        assert (hard["certified_upper"], hard["restarts_run_upper"]) == ("false", "2")
        for kind in ("lower", "upper"):
            assert float(hard[f"bound_{kind}"]) < float(hard[kind])

    def test_stop_reason_and_total_sweeps_columns(self):
        # one sweep certifies the exponential portfolio but not the squared sum
        text = """
max_sweeps = 1

[case certified]
marginal = exponential 1
marginal = exponential 2
marginal = exponential 4
weights = 0.5 0.2 0.3
transform = stop_loss 0.3
n = 500
restarts = 2

[case cut]
marginal = exponential 1
marginal = exponential 1
marginal = exponential 1
aggregation = sum
transform = power 2
n = 500
restarts = 2
"""
        certified, cut = rows_from_csv(render(run_cases(parse_config(text))))
        for kind in ("lower", "upper"):
            assert certified[f"stop_reason_{kind}"] == "certified"
            assert certified[f"certified_{kind}"] == "true"
            assert certified[f"converged_{kind}"] == "false"
            assert certified[f"sweeps_total_{kind}"] == "1"
            assert cut[f"stop_reason_{kind}"] == "max_sweeps"
            assert cut[f"certified_{kind}"] == "false"
            assert cut[f"sweeps_total_{kind}"] == "2"
            for row in (certified, cut):
                assert int(row[f"sweeps_total_{kind}"]) >= int(row[f"sweeps_{kind}"])


class TestCsv:
    def test_six_significant_digits(self):
        rows = run_cases(parse_config(GOOD))
        parsed = rows_from_csv(render(rows))
        for value in (parsed[0]["lower"], parsed[0]["upper"]):
            assert value == f"{float(value):.6g}"

    def test_runtime_column_is_integer_ms(self):
        rows = run_cases(parse_config(GOOD))
        for row in rows:
            int(row["runtime_ms_lower"])
            int(row["runtime_ms_upper"])


class TestMain:
    def test_exit_zero_and_determinism(self, tmp_path, capsys):
        cfg = DATA_DIR / "acceptance.cfg"
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main([str(cfg), "--out", str(out1)]) == 0
        assert main([str(cfg), "--out", str(out2)]) == 0
        rows1 = rows_from_csv(out1.read_text())
        rows2 = rows_from_csv(out2.read_text())
        for r1, r2 in zip(rows1, rows2):
            for col in CSV_COLUMNS:
                if col in RUNTIME_COLUMNS:
                    continue
                assert r1[col] == r2[col]

    def test_acceptance_batch_matches_golden_csv(self, tmp_path):
        # a change that moves any value regenerates the golden file with
        # `rabounds tests/data/acceptance.cfg --out tests/data/acceptance.csv`
        out = tmp_path / "a.csv"
        assert main([str(DATA_DIR / "acceptance.cfg"), "--out", str(out)]) == 0
        got = rows_from_csv(out.read_text())
        want = rows_from_csv((DATA_DIR / "acceptance.csv").read_text())
        for row in got + want:
            for col in RUNTIME_COLUMNS:
                row.pop(col)
        assert got == want

    def test_exit_one_on_error_row(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            "[case x]\nmarginal = normal 0 1\nmarginal = uniform 0 1\n"
            "aggregation = sum\nn = 8\nauto_truncate = off\n"
        )
        out = tmp_path / "out.csv"
        assert main([str(bad), "--out", str(out)]) == 1

    def test_exit_two_on_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "broken.cfg"
        bad.write_text("nonsense\n")
        assert main([str(bad)]) == 2
        assert "rabounds:" in capsys.readouterr().err

    def test_exit_two_on_non_finite_marginal(self, tmp_path, capsys):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text(PAIR.replace("uniform 0 1\naggregation", "exponential inf\naggregation"))
        assert main([str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "rabounds: line 3: exponential parameters must be finite, got (inf,)\n"
        )

    def test_exit_two_on_bad_max_sweeps(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(PAIR)
        assert main([str(cfg), "--max-sweeps", "-3"]) == 2
        assert capsys.readouterr().err == "rabounds: --max-sweeps must be >= 1\n"

    def test_exit_two_on_unwritable_out_before_any_case(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(PAIR)

        def never(*args, **kwargs):
            raise AssertionError("run_cases called before the report was opened")

        monkeypatch.setattr(cli, "run_cases", never)
        assert main([str(cfg), "--out", str(tmp_path / "missing" / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith("rabounds: cannot write report: ")

    @pytest.mark.parametrize(
        "args, message",
        [
            (["ok.cfg", "--seed", "-1"], "rabounds: --seed must be non-negative\n"),
            (["missing.cfg"], "rabounds: cannot read config: "),
        ],
        ids=["seed_-1", "unreadable_config"],
    )
    def test_exit_two_on_bad_seed_or_config(self, tmp_path, capsys, args, message):
        (tmp_path / "ok.cfg").write_text(PAIR)
        assert main([str(tmp_path / args[0])] + args[1:]) == 2
        assert capsys.readouterr().err.startswith(message)

    def test_flags_edit_the_config(self, tmp_path):
        body = (
            "marginal = uniform 0 1\nmarginal = exponential 1\naggregation = sum\n"
            "transform = stop_loss 1\nrestarts = 2\n"
        )
        flagged = tmp_path / "flagged.cfg"
        flagged.write_text(
            f"seed = 5\n[case p]\n{body}n = 4\nseed = 7\n[case q]\n{body}n = 3\noracle = off\n"
        )
        edited = tmp_path / "edited.cfg"
        edited.write_text(
            f"max_sweeps = 1\n[case p]\n{body}n = 4\nseed = 99\noracle = on\n"
            f"[case q]\n{body}n = 3\nseed = 99\noracle = on\n"
        )
        args = ["--seed", "99", "--max-sweeps", "1", "--oracle"]
        assert main([str(flagged), "--out", str(tmp_path / "a.csv")] + args) == 0
        assert main([str(edited), "--out", str(tmp_path / "b.csv")]) == 0
        by_flags = rows_from_csv((tmp_path / "a.csv").read_text())
        by_hand = rows_from_csv((tmp_path / "b.csv").read_text())
        for row in by_flags + by_hand:
            for col in RUNTIME_COLUMNS:
                row.pop(col)
        assert by_flags == by_hand
        for row in by_flags:
            assert row["seed"] == "99"
            assert row["oracle_lower"] != "" and row["theorem_check"] == "pass"
            assert row["stop_reason_lower"] == "max_sweeps"  # one sweep leaves it uncertified

    def test_python_dash_m_runs_main(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(PAIR)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "rabounds", str(cfg)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert [r["case"] for r in rows_from_csv(done.stdout)] == ["x"]

    def test_oracle_flag_fills_columns_within_budget(self, tmp_path, capsys):
        cfg = tmp_path / "two.cfg"
        cfg.write_text(
            "[case small]\nmarginal = uniform 0 1\nmarginal = uniform 0 1\n"
            "aggregation = sum\ntransform = stop_loss 1\nn = 4\nrestarts = 3\n"
            "\n[case large]\nmarginal = uniform 0 1\nmarginal = uniform 0 1\n"
            "aggregation = sum\ntransform = identity\nn = 64\n"
        )
        assert main([str(cfg), "--oracle"]) == 0
        rows = rows_from_csv(capsys.readouterr().out)
        assert rows[0]["theorem_check"] == "pass"  # forced, within budget
        assert rows[1]["oracle_lower"] == ""  # 64! ** 1 exceeds the budget

    def test_stdout_report(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(
            "[case x]\nmarginal = uniform 0 1\nmarginal = uniform 0 1\n"
            "aggregation = sum\ntransform = identity\nn = 4\n"
        )
        assert main([str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("case,")
        assert "\nx," in out


def test_benchmark_trace_targets_resolve(monkeypatch):
    # perfbench/tracer.py patches each target at the name its caller looks it
    # up under; an import dropped from a module would break tracing silently
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    tracer = importlib.import_module("perfbench.tracer")
    for module, name in tracer.TARGETS:
        assert hasattr(importlib.import_module(module), name), (module, name)


def test_benchmark_workloads_pass_their_checks(monkeypatch, tmp_path):
    # one untraced tiny batch per workload: an attribute the benchmark reads
    # (RaResult.converged, BoundsResult.converged_lower, ...) must still exist
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    workloads = importlib.import_module("perfbench.workloads")
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(1, tiny=True, workdir=tmp_path)
        try:
            verdict = workload.check(workload.run())
        finally:
            workload.close()
        assert verdict.failures == [], name


def test_benchmark_tracer_sees_the_hot_layers(monkeypatch, tmp_path):
    # a refactor that binds a traced function where the tracer cannot patch
    # it would make the per-layer metrics read 0 without any error
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    tracer_mod = importlib.import_module("perfbench.tracer")
    workloads = importlib.import_module("perfbench.workloads")
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(1, tiny=True, workdir=tmp_path)
        try:
            with tracer_mod.Tracer() as tracer:
                out = workload.run()
            verdict = workload.check(out)
        finally:
            workload.close()
        assert verdict.failures == [], name
        layers = tracer_mod.layer_metrics(tracer)
        seen = ["ra_core.run_ra.calls", "costfn.eval_partial_rows.calls", "ra_core.objective.calls"]
        if name == "estimates":
            seen.append("marginals.discretize.calls")
        for metric in seen:
            assert layers[metric] > 0, (name, metric)
