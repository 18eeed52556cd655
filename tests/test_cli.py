"""Command-line behavior: subcommands, exit codes, output formats."""

import json
from pathlib import Path

import pytest

from ledgerlint.cli import RULES_ENV_VAR, main
from ledgerlint.loan import implied_monthly_rate

FIXTURES = Path(__file__).parent / "fixtures"

EFFECTIVE_ANNUAL = "0.12682503013196977"  # (1.01)**12 - 1


@pytest.fixture(autouse=True)
def _isolate_rules_env(monkeypatch):
    monkeypatch.delenv(RULES_ENV_VAR, raising=False)


def finding_keys(lines):
    """Extract (cell, rule_id) pairs from text-format finding lines."""
    keys = []
    for line in lines:
        location, rule_id = line.split(" ")[0], line.split(" ")[1]
        keys.append((location.rsplit(":", 1)[1], rule_id))
    return keys


class TestEval:
    def test_effect_prints_full_precision(self, capsys):
        assert main(["eval", "=EFFECT(0.12,12)"]) == 0
        assert capsys.readouterr().out.strip() == "0.12682503013196977"

    def test_parse_failure_exits_2_with_position(self, capsys):
        assert main(["eval", "=1+"]) == 2
        err = capsys.readouterr().err
        assert "position" in err

    def test_bindings_feed_references(self, capsys):
        code = main(["eval", "=SUM(A1:A2)", "--bind", "A1=1", "--bind", "A2=2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_far_binding_costs_one_cell(self, capsys):
        # a dense grid up to ZZZ60 would be over a million cells
        assert main(["eval", "=ZZZ60", "--bind", "ZZZ60=1"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_bindings_in_any_order_read_row_major(self, capsys):
        # NPV at rate 1 weighs each value by its place: 4/2 + 8/4 + 1/8; the
        # second B2 binding replaces the first
        argv = ["eval", "=NPV(1,A1:ZZZ60)", "--bind", "ZZZ60=1", "--bind", "B2=2",
                "--bind", "A1=4", "--bind", "B2=8"]
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == "4.125"

    def test_date_bindings_subtract_to_days(self, capsys):
        code = main([
            "eval", "=B1-A1", "--bind", "A1=2024-01-01", "--bind", "B1=2024-03-01",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "60"

    def test_error_value_exits_2(self, capsys):
        assert main(["eval", "=1/0"]) == 2
        assert "#DIV0!" in capsys.readouterr().out

    def test_malformed_binding_exits_2(self, capsys):
        assert main(["eval", "=A1", "--bind", "A1"]) == 2
        assert "binding" in capsys.readouterr().err

    def test_deep_formula_is_a_parse_failure(self, capsys):
        assert main(["eval", "=1" + "+1" * 2000]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: parse failure at position 514: formula deeper than 256 ")

    def test_structured_number(self, capsys):
        assert main(["eval", "=2^10", "--format", "structured"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record == {"kind": "number", "value": 1024.0}

    def test_non_finite_result_prints(self, capsys):
        assert main(["eval", "=1e308*10"]) == 2
        assert capsys.readouterr().out == "#VALUE! numeric overflow in '*'\n"

    @pytest.mark.parametrize("expr", ["=1e308*10", "=-1e308*10", "=1e308*10-1e308*10"])
    def test_structured_non_finite_is_valid_json(self, expr, capsys):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        assert main(["eval", expr, "--format", "structured"]) == 2
        record = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert record == {
            "kind": "error", "code": "#VALUE!", "message": "numeric overflow in '*'",
        }

    @pytest.mark.parametrize(
        "expr", ["=SUM(1e308*10,-1e308*10)", "=PMT(1e308*10,12,100)", "=EFFECT(1e308*10,2)"]
    )
    def test_overflowing_argument_is_a_value_error(self, expr, capsys):
        assert main(["eval", expr]) == 2
        assert capsys.readouterr().out == "#VALUE! numeric overflow in '*'\n"

    def test_structured_error_same_exit_code(self, capsys):
        assert main(["eval", "=1/0", "--format", "structured"]) == 2
        record = json.loads(capsys.readouterr().out)
        assert record["kind"] == "error"
        assert record["code"] == "#DIV0!"


class TestAudit:
    def test_error_finding_exits_1(self, capsys):
        path = str(FIXTURES / "traps" / "r5_rate_magnitude.csv")
        assert main(["audit", path]) == 1
        out = capsys.readouterr().out.strip().splitlines()
        assert finding_keys(out) == [("A1", "R5")]
        assert out[0].startswith(f"{path}:A1 R5 error ")

    def test_clean_corpus_exits_0_quietly(self, capsys):
        paths = sorted(str(p) for p in (FIXTURES / "clean").glob("*.csv"))
        assert main(["audit", *paths]) == 0
        assert capsys.readouterr().out == ""

    def test_info_only_findings_exit_0_but_print(self, tmp_path, capsys):
        book = tmp_path / "book.csv"
        book.write_text('"=PMT(0.12/12,60,10000)"\n')
        assert main(["audit", str(book)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert finding_keys(out) == [("A1", "R2")]
        assert " info " in out[0]

    def test_anchored_references_are_audited(self, tmp_path, capsys):
        book = tmp_path / "book.csv"
        book.write_text('0.06,"=PMT($A$1/12,60,10000)"\n')
        assert main(["audit", str(book)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert finding_keys(out) == [("B1", "R2")]

    def test_overflowing_rate_is_not_a_magnitude_finding(self, tmp_path, capsys):
        book = tmp_path / "book.csv"
        book.write_text('"=1e308*10","=PMT(A1,12,100)"\n')
        assert main(["audit", str(book)]) == 0
        assert capsys.readouterr().out == ""

    def test_structured_matches_text_findings(self, capsys):
        path = str(FIXTURES / "traps" / "r4_db_month.csv")
        assert main(["audit", path]) == 1
        text_keys = finding_keys(capsys.readouterr().out.strip().splitlines())

        assert main(["audit", path, "--format", "structured"]) == 1
        records = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert [(r["cell"], r["rule_id"]) for r in records] == text_keys
        assert records[0]["file"] == path
        assert records[0]["severity"] == "warning"

    def test_missing_file_exits_2(self, capsys):
        assert main(["audit", "no/such/book.csv"]) == 2
        assert "no/such/book.csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content,fragment",
        [
            ("caf\xe9,=1+1\n".encode("latin-1"), "decode"),
            (b"x" * 131073 + b"\n", "field larger than field limit"),
            (b"," * 1_000_000 + b"\n", "exceeds 1000000 cells"),
        ],
        ids=["latin1", "long_field", "too_many_cells"],
    )
    def test_unreadable_workbook_exits_2(self, tmp_path, capsys, content, fragment):
        book = tmp_path / "book.csv"
        book.write_bytes(content)
        assert main(["audit", str(book)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {book}: ")
        assert fragment in err

    def test_non_ascii_formula_is_a_parse_cell(self, tmp_path, capsys):
        book = tmp_path / "book.csv"
        book.write_text("=1+é\n", encoding="utf-8")
        assert main(["audit", str(book)]) == 0
        assert capsys.readouterr().out == ""

    def test_numeric_overflow_is_an_error_value(self, tmp_path, capsys):
        book = tmp_path / "book.csv"
        book.write_text('"=EFFECT(1e300,2)"\n"=PMT(A1,12,100)"\n', encoding="utf-8")
        assert main(["audit", str(book)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert finding_keys(out) == [("A1", "R5")]

    def test_deep_formulas_are_parse_cells(self, tmp_path, capsys):
        book = tmp_path / "book.csv"
        rows = ["=" + "-" * 3000 + "1", "=" + "2^" * 3000 + "1",
                '"=PMT(0.01' + "+0.01" * 2000 + ',12,100)"']
        book.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["audit", str(book)]) == 0
        assert capsys.readouterr().out == ""

    def test_rules_flag_disables(self, tmp_path, capsys):
        config = tmp_path / "rules.json"
        config.write_text(json.dumps({"enabled": ["R1", "R2"]}))
        path = str(FIXTURES / "traps" / "r5_rate_magnitude.csv")
        assert main(["audit", path, "--rules", str(config)]) == 0
        assert capsys.readouterr().out == ""

    def test_rules_env_var(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "rules.json"
        config.write_text(json.dumps({"severities": {"R5": "info"}}))
        monkeypatch.setenv(RULES_ENV_VAR, str(config))
        path = str(FIXTURES / "traps" / "r5_rate_magnitude.csv")
        assert main(["audit", path]) == 0
        assert " info " in capsys.readouterr().out

    def test_invalid_rules_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "rules.json"
        config.write_text(json.dumps({"enabled": ["R99"]}))
        path = str(FIXTURES / "traps" / "r5_rate_magnitude.csv")
        assert main(["audit", path, "--rules", str(config)]) == 2
        assert "R99" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config", [{"enabled": 5}, {"thresholds": 5}, {"enabled": [["R1"]]}]
    )
    def test_malformed_rules_config_exits_2(self, tmp_path, capsys, config):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(config))
        book = str(FIXTURES / "traps" / "r5_rate_magnitude.csv")
        assert main(["audit", book, "--rules", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: rule config: ")


class TestSchedule:
    def test_emitted_schedule_round_trips_implied_rate(self, capsys):
        code = main([
            "schedule", "--principal", "10000", "--rate", EFFECTIVE_ANNUAL,
            "--term", "12",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "month,opening,interest,payment,closing"
        assert len(lines) == 13
        payment = float(lines[1].split(",")[3])
        recovered = implied_monthly_rate(10000.0, payment, 12)
        assert recovered.rate == pytest.approx(0.01, abs=1e-8)

    def test_percent_rate_form_is_identical(self, capsys):
        main(["schedule", "--principal", "10000", "--rate", "0.119", "--term", "24"])
        fraction_out = capsys.readouterr().out
        main(["schedule", "--principal", "10000", "--rate", "11.9%", "--term", "24"])
        assert capsys.readouterr().out == fraction_out

    def test_verify_against_own_output_is_clean(self, tmp_path, capsys):
        out_file = tmp_path / "schedule.csv"
        base = [
            "schedule", "--principal", "10000", "--rate", EFFECTIVE_ANNUAL,
            "--term", "12",
        ]
        assert main(base + ["-o", str(out_file)]) == 0
        assert main(base + ["--published", str(out_file)]) == 0
        assert "0 discrepancies" in capsys.readouterr().out

    def test_convention_mismatch_reported(self, tmp_path, capsys):
        out_file = tmp_path / "us_schedule.csv"
        assert main([
            "schedule", "--principal", "10000", "--rate", EFFECTIVE_ANNUAL,
            "--term", "12", "--convention", "us", "-o", str(out_file),
        ]) == 0
        code = main([
            "schedule", "--principal", "10000", "--rate", EFFECTIVE_ANNUAL,
            "--term", "12", "--convention", "uk", "--published", str(out_file),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "month 1: " in out
        assert "payment" in out

    def test_invalid_spec_names_field(self, capsys):
        code = main(["schedule", "--principal", "-5", "--rate", "0.1", "--term", "12"])
        assert code == 2
        assert "principal" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option", [["--rate", "nan"], ["--rate", "inf"], ["--rate", "NaN%"], ["--principal", "inf"]]
    )
    def test_non_finite_terms_exit_2(self, option, capsys):
        argv = ["schedule", "--principal", "10000", "--rate", "0.1", "--term", "12", *option]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "finite" in captured.err

    @pytest.fixture
    def wrong_table(self, tmp_path):
        """A published table for 10,000 at EFFECTIVE_ANNUAL over 12 months, one row off."""
        path = tmp_path / "schedule.csv"
        assert main([
            "schedule", "--principal", "10000", "--rate", EFFECTIVE_ANNUAL, "--term", "12",
            "-o", str(path),
        ]) == 0
        lines = path.read_text().splitlines()
        fields = lines[5].split(",")
        fields[2] = str(float(fields[2]) + 5.0)  # month 5 interest
        lines[5] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_nan_rate_does_not_verify_a_table(self, wrong_table, capsys):
        argv = ["schedule", "--principal", "10000", "--rate", "nan", "--term", "12"]
        assert main(argv + ["--published", str(wrong_table)]) == 2
        assert "discrepancies" not in capsys.readouterr().out

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-0.01"])
    def test_tolerance_not_finite_and_non_negative_exits_2(self, wrong_table, tolerance, capsys):
        argv = ["schedule", "--principal", "10000", "--rate", EFFECTIVE_ANNUAL, "--term", "12",
                "--published", str(wrong_table)]
        assert main(argv) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "1 discrepancies"
        assert main(argv + [f"--tolerance={tolerance}"]) == 2
        captured = capsys.readouterr()
        assert "discrepancies" not in captured.out
        assert captured.err.startswith("error: ") and "tolerance" in captured.err

    def test_nan_row_is_a_discrepancy(self, tmp_path, capsys):
        path = tmp_path / "schedule.csv"
        path.write_text("month,opening,interest,payment,closing\n1,nan,nan,nan,nan\n")
        argv = ["schedule", "--principal", "1000", "--rate", "0.1", "--term", "1"]
        assert main(argv + ["--published", str(path)]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "4 discrepancies"

    def test_holiday_rows_have_zero_payment(self, capsys):
        assert main([
            "schedule", "--principal", "10000", "--rate", EFFECTIVE_ANNUAL,
            "--term", "12", "--holiday", "3",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 13
        for line in lines[1:4]:
            assert float(line.split(",")[3]) == 0.0


class TestDepr:
    def test_compat_gap_is_material(self, capsys):
        assert main([
            "depr", "--cost", "1000000", "--salvage", "100000", "--life", "6",
            "--mode", "compat",
        ]) == 0
        out = capsys.readouterr().out
        gap = float(out.split("gap=")[1].split()[0])
        assert gap == pytest.approx(-256.9437332, abs=1e-6)
        assert "FLAGGED" in out

    def test_exact_gap_is_negligible(self, capsys):
        assert main([
            "depr", "--cost", "1000000", "--salvage", "100000", "--life", "6",
        ]) == 0
        out = capsys.readouterr().out
        gap = float(out.split("gap=")[1].split()[0])
        assert abs(gap) <= 1e-6 * 100000
        assert "FLAGGED" not in out

    def test_month_7_emits_extra_period(self, capsys):
        assert main([
            "depr", "--cost", "1000000", "--salvage", "100000", "--life", "6",
            "--month", "7", "--mode", "compat",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "period,depreciation,book_value_end"
        assert len(lines) == 9  # header + 7 periods + reconciliation line
        assert lines[-1].startswith("reconciliation:")

    def test_salvage_equal_cost_all_zero(self, capsys):
        assert main(["depr", "--cost", "5000", "--salvage", "5000", "--life", "4"]) == 0
        out = capsys.readouterr().out
        assert "gap=0" in out
        for line in out.strip().splitlines()[1:-1]:
            assert float(line.split(",")[1]) == 0.0

    def test_invalid_spec_exits_2(self, capsys):
        assert main(["depr", "--cost", "-1", "--salvage", "0", "--life", "4"]) == 2
        assert "cost" in capsys.readouterr().err

    def test_infinite_cost_exits_2(self, capsys):
        assert main(["depr", "--cost", "inf", "--salvage", "1", "--life", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cost must be positive and finite, got inf\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["schedule", "--principal", "10000", "--rate", "0.1", "--term", "12"],
            ["depr", "--cost", "1000", "--salvage", "100", "--life", "5"],
        ],
        ids=["schedule", "depr"],
    )
    def test_format_is_not_an_option(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--format", "structured"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err

    def test_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "depr.csv"
        assert main([
            "depr", "--cost", "1000", "--salvage", "100", "--life", "5",
            "-o", str(out_file),
        ]) == 0
        assert capsys.readouterr().out == ""
        content = out_file.read_text()
        assert content.startswith("period,depreciation,book_value_end")
        assert "reconciliation:" in content
