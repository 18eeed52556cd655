"""Command-line behavior: subcommands, exit codes, output formats."""

import contextlib
import csv
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from sheet_strategies import REPROS, sheets

from ledgerlint.audit import RULE_IDS
from ledgerlint.cli import RULES_ENV_VAR, main
from ledgerlint.depreciation import MAX_SCHEDULE_ROWS
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

    @pytest.mark.parametrize(
        "argv,record",
        [
            (['="a"&"b"'], {"kind": "text", "value": "ab"}),
            (["=A1", "--bind", "A1=2024-01-31"], {"kind": "date", "value": "2024-01-31"}),
        ],
        ids=["text", "date"],
    )
    def test_structured_text_and_date(self, argv, record, capsys):
        assert main(["eval", *argv, "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out) == record

    def test_a_formula_write_off_prints_no_warning(self, capsys):
        assert main(["eval", "=DB(1,0,6,1)"]) == 0
        assert capsys.readouterr() == ("1\n", "")

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
        assert main(["audit", str(book)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert finding_keys(out) == [("A1", "R0")]
        assert " warning formula could not be parsed: " in out[0]

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
        assert main(["audit", str(book)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert finding_keys(out) == [("A1", "R0"), ("A2", "R0"), ("A3", "R0")]

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize(
        "text,cells",
        [
            # an error chain whose only unchecked cell is a formula that does not parse
            ('=1/0\n=A1+1\n=A2*2\n"=PMT(0.1,12"\n', ["A4"]),
            # an unquoted formula: the CSV reader splits it at its commas
            ("=PMT(5,12,1000)\n", ["A1"]),
        ],
        ids=["error-chain", "unquoted"],
    )
    def test_a_book_with_an_unparsable_formula_is_not_clean(
        self, tmp_path, capsys, text, cells, fmt
    ):
        book = tmp_path / "book.csv"
        book.write_text(text, encoding="utf-8")
        assert main(["audit", str(book), "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        if fmt == "structured":
            records = [json.loads(line) for line in lines]
            assert [(r["cell"], r["rule_id"], r["severity"]) for r in records] == [
                (cell, "R0", "warning") for cell in cells
            ]
            assert all("could not be parsed: expected ')'" in r["message"] for r in records)
        else:
            assert finding_keys(lines) == [(cell, "R0") for cell in cells]

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_a_date_chain_of_year_0_evaluates_to_div0(self, tmp_path, capsys, fmt):
        """R6 prints the chain's value, here an error value, by format_value."""
        book = tmp_path / "book.csv"
        book.write_text("=1/1/0\n", encoding="utf-8")
        assert main(["audit", str(book), "--format", fmt]) == 1
        out = capsys.readouterr().out
        if fmt == "structured":
            [record] = [json.loads(line) for line in out.splitlines()]
            assert (record["cell"], record["rule_id"], record["evidence"]) == ("A1", "R6", [])
            message = record["message"]
        else:
            [line] = out.splitlines()
            assert line.startswith(f"{book}:A1 R6 error ")
            message = line
        assert "1/1/0 is a division chain evaluating to #DIV0!, not a date;" in message

    def test_the_rule_config_turns_the_parse_rule_off_or_down(self, tmp_path, capsys):
        book = tmp_path / "book.csv"
        book.write_text("=PMT(5,12,1000)\n", encoding="utf-8")
        config = tmp_path / "rules.json"
        config.write_text(json.dumps({"enabled": ["R1", "R5"]}))
        assert main(["audit", str(book), "--rules", str(config)]) == 0
        assert capsys.readouterr().out == ""
        config.write_text(json.dumps({"severities": {"R0": "info"}}))
        assert main(["audit", str(book), "--rules", str(config)]) == 0
        assert " R0 info " in capsys.readouterr().out

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

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_a_deeply_nested_rules_config_exits_2(self, tmp_path, monkeypatch, capsys, via):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)  # json.load recurses once per '['
        book = str(FIXTURES / "traps" / "r5_rate_magnitude.csv")
        if via == "env":
            monkeypatch.setenv(RULES_ENV_VAR, str(path))
        argv = ["audit", book] + (["--rules", str(path)] if via == "flag" else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: rule config: JSON nested too deeply: {path}\n"

    def test_a_rules_config_that_is_not_an_object_is_labelled_once(self, tmp_path, capsys):
        path = tmp_path / "arr.json"
        path.write_text("[]")
        book = str(FIXTURES / "traps" / "r5_rate_magnitude.csv")
        assert main(["audit", book, "--rules", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: rule config: not a JSON object: {path}\n"

    @pytest.mark.parametrize(
        "threshold,shown", [("1e999", "inf"), ("1" + "0" * 400, "1" + "0" * 400)],
        ids=["inf", "400 digits"],
    )
    def test_a_threshold_must_be_finite(self, tmp_path, capsys, threshold, shown):
        book = tmp_path / "book.csv"
        book.write_text('"=PMT(5,12,100)"\n')
        assert main(["audit", str(book)]) == 1  # R5 at error with the default threshold
        capsys.readouterr()
        path = tmp_path / "rules.json"
        path.write_text('{"thresholds": {"R5": %s}}' % threshold)  # JSON reads 1e999 as inf
        assert main(["audit", str(book), "--rules", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: rule config: threshold for R5 must be finite, got {shown}\n"


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

    def test_verify_reads_its_own_output_behind_a_byte_order_mark(self, tmp_path, capsys):
        out_file = tmp_path / "schedule.csv"
        base = ["schedule", "--principal", "10000", "--rate", EFFECTIVE_ANNUAL, "--term", "12"]
        assert main(base + ["-o", str(out_file)]) == 0
        out_file.write_bytes(b"\xef\xbb\xbf" + out_file.read_bytes())  # Excel's "CSV UTF-8"
        assert main(base + ["--published", str(out_file)]) == 0
        assert capsys.readouterr().out == "0 discrepancies\n"

    @pytest.mark.parametrize(
        "table,message",
        [
            (b"payment,month\n100\n", "line 2: month must be an integer, got None"),
            (b"month,payment\n1,\xff100\n", "can't decode byte 0xff"),
            (b"month,payment\n1," + b"9" * 200_000 + b"\n", "field larger than field limit"),
            (b"month,month\n1,2\n", "repeated columns in repayment table: ['month']"),
            (b"month,payment\n2,abc\n", "line 2: payment must be a number, got 'abc'"),
            (b"month,fee\n1,2\n", "unknown columns in repayment table: ['fee']"),
        ],
        ids=["short row", "not UTF-8", "oversized field", "repeated column", "value not a number",
             "unknown column"],
    )
    def test_unreadable_published_table_exits_2(self, tmp_path, capsys, table, message):
        path = tmp_path / "table.csv"
        path.write_bytes(table)
        argv = ["schedule", "--principal", "1000", "--rate", "0.1", "--term", "1"]
        assert main(argv + ["--published", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ") and message in captured.err

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--tolerance", "5"], "--tolerance: not allowed without --published"),
            (["--tolerance", "nan"], "--tolerance: not allowed without --published"),
            (["--published", "{table}", "-o", "{out}"], "not allowed with argument --published"),
        ],
    )
    def test_an_option_that_would_be_ignored_is_a_usage_error(self, tmp_path, capsys, extra, message):
        table, out = tmp_path / "table.csv", tmp_path / "out.csv"
        table.write_text("month,payment\n1,100\n")
        argv = ["schedule", "--principal", "1000", "--rate", "0.1", "--term", "1"]
        with pytest.raises(SystemExit) as exit_:
            main(argv + [arg.format(table=table, out=out) for arg in extra])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert captured.err.startswith("usage: ledgerlint schedule")
        assert not out.exists()

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

    @pytest.mark.parametrize("rate", ["1_0%", "0.1_2", "١٢%", "1e1_0"])
    def test_a_rate_is_written_as_a_formula_writes_a_number(self, rate, capsys):
        # float() reads each of these; a cell and a published field do not
        argv = ["schedule", "--principal", "10000", "--rate", rate, "--term", "12"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: invalid rate {rate!r}: expected a decimal fraction or percent string\n"

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

    def test_a_full_write_off_prints_one_warning_line(self, capsys):
        argv = ["depr", "--cost", "1000", "--salvage", "0", "--life", "3"]
        for _ in range(2):  # each run reports it, not only the first in a process
            assert main(argv) == 0
            assert capsys.readouterr() == (
                "period,depreciation,book_value_end\r\n1,1000.0,0.0\r\n2,0.0,0.0\r\n3,0.0,0.0\r\n"
                "reconciliation: total_depreciation=1000 residual_book_value=0 gap=0\n",
                "warning: salvage of 0 makes the declining-balance rate 1, writing the asset "
                "off entirely in the first period\n",
            )

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


SCHEDULE = ["schedule", "--principal", "1000", "--rate", "0.1", "--term", "12"]
DEPR = ["depr", "--cost", "1000", "--salvage", "100", "--life", "5"]


@pytest.mark.parametrize(
    "argv,expected",
    [
        pytest.param(
            "schedule --principal 1000 --rate 0.1 --term 3",
            b"month,opening,interest,payment,closing\r\n"
            b"1,1000.0,7.974140428903764,338.66350118903614,669.3106392398677\r\n"
            b"2,669.3106392398677,5.337177027858051,338.66350118903614,335.9843150786896\r\n"
            b"3,335.9843150786896,2.679186110346519,338.6635011890361,0.0\r\n",
            id="schedule",
        ),
        pytest.param(
            "schedule --principal 2500 --rate 7.5% --term 4 --holiday 1 --convention us",
            b"month,opening,interest,payment,closing\r\n"
            b"1,2500.0,15.624999999999998,0.0,2515.625\r\n"
            b"2,2515.625,15.722656249999998,849.0452064240402,1682.3024498259597\r\n"
            b"3,1682.3024498259597,10.514390311412248,849.0452064240402,843.7716337133317\r\n"
            b"4,843.7716337133317,5.273572710708322,849.04520642404,0.0\r\n",
            id="schedule with a holiday",
        ),
        pytest.param(
            "depr --cost 1000 --salvage 100 --life 3 --month 7",
            b"period,depreciation,book_value_end\r\n"
            b"1,312.5739847059212,687.4260152940788\r\n"
            b"2,368.35112364168634,319.0748916523924\r\n"
            b"3,170.9734462343972,148.10144541799522\r\n"
            b"4,33.066184953578045,115.03526046441718\r\n"
            b"reconciliation: total_depreciation=884.9647395355828 "
            b"residual_book_value=115.0352604644172 gap=15.035260464417206 FLAGGED\n",
            id="depr with a partial first year",
        ),
        pytest.param(
            "depr --cost 5000 --salvage 250 --life 2 --mode exact",
            b"period,depreciation,book_value_end\r\n"
            b"1,3881.9660112501056,1118.0339887498944\r\n"
            b"2,868.0339887498945,249.9999999999999\r\n"
            b"reconciliation: total_depreciation=4750 residual_book_value=250 gap=0\n",
            id="depr exact",
        ),
    ],
)
def test_schedule_files_keep_their_bytes(argv, expected, tmp_path):
    """schedule -o and depr -o write a header, then each field by repr, with
    '\r\n' line ends (depr's reconciliation line ends in '\n')."""
    out_file = tmp_path / "out.csv"
    assert main(argv.split() + ["-o", str(out_file)]) == 0
    assert out_file.read_bytes() == expected


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["eval", "=A1", "--bind", "A1"], id="eval binding without ="),
        pytest.param(["eval", "=A1", "--bind", "A0=1"], id="eval binding address"),
        pytest.param(["eval", "=1+"], id="eval parse failure"),
        pytest.param(["audit", "{tmp}/missing.csv"], id="audit missing workbook"),
        pytest.param(["audit", "{tmp}/latin1.csv"], id="audit workbook not UTF-8"),
        pytest.param(["audit", "{tmp}/table.csv", "--rules", "{tmp}/missing.json"],
                     id="audit missing rule config"),
        pytest.param(["audit", "{tmp}/table.csv", "--rules", "{tmp}/array.json"],
                     id="audit rule config not an object"),
        pytest.param(SCHEDULE + ["--principal", "-5"], id="schedule principal"),
        pytest.param(SCHEDULE + ["--rate", "abc"], id="schedule rate not a number"),
        pytest.param(SCHEDULE + ["--rate", "nan"], id="schedule rate not finite"),
        pytest.param(SCHEDULE + ["--holiday", "12"], id="schedule holiday"),
        pytest.param(SCHEDULE + ["--published", "{tmp}/missing.csv"], id="schedule missing table"),
        pytest.param(SCHEDULE + ["--published", "{tmp}/latin1.csv"], id="schedule table not UTF-8"),
        pytest.param(SCHEDULE + ["--published", "{tmp}/table.csv", "--tolerance", "-1"],
                     id="schedule tolerance"),
        pytest.param(SCHEDULE + ["-o", "{tmp}/no/such/dir/out.csv"], id="schedule -o"),
        pytest.param(DEPR + ["--cost", "-1"], id="depr cost"),
        pytest.param(DEPR + ["--month", "13"], id="depr month"),
        pytest.param(DEPR + ["-o", "{tmp}/no/such/dir/out.csv"], id="depr -o"),
        pytest.param(DEPR + ["-o", "{tmp}"], id="depr -o a directory"),
    ],
)
def test_invalid_input_prints_one_error_line_and_exits_2(tmp_path, capsys, argv):
    (tmp_path / "latin1.csv").write_bytes("caf\xe9\n".encode("latin-1"))
    (tmp_path / "array.json").write_text("[]")
    (tmp_path / "table.csv").write_text("month,payment\n1,100\n")
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.err.endswith("\n") and "Traceback" not in captured.err


# schedules whose arithmetic overflows in their first period, as =DB(1e308,1,5,1) does
OVERFLOWS = [
    ["depr", "--cost", "1e308", "--salvage", "1", "--life", "5"],
    ["depr", "--cost", "2e307", "--salvage", "1", "--life", "3", "--mode", "compat"],
    ["schedule", "--principal", "1e308", "--rate", "1000000", "--term", "3"],
]


@pytest.mark.parametrize("argv", OVERFLOWS, ids=["depr exact", "depr compat", "schedule"])
def test_a_schedule_that_overflows_exits_2_naming_its_period(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: numeric overflow in period 1 of the schedule\n")


CHILD_ADDRESS_SPACE = 256 << 20  # bytes: a builder that makes rows before the cap check dies of MemoryError


@pytest.mark.parametrize(
    "argv",
    [
        ["schedule", "--principal", "1000", "--rate", "0.1", "--term", "100000000"],
        ["depr", "--cost", "1000", "--salvage", "100", "--life", "100000000"],
    ],
    ids=["schedule", "depr"],
)
def test_a_schedule_past_the_row_cap_exits_2_before_building_a_row(argv):
    """In a child whose address space is capped, so that a schedule built
    row by row fails there rather than taking the host's memory."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-m", "ledgerlint.cli", *argv],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=60,
    )
    message = f"error: a schedule of 100000000 periods is longer than {MAX_SCHEDULE_ROWS}\n"
    assert (run.returncode, run.stdout, run.stderr) == (2, "", message)


_AMOUNTS = st.floats(max_value=1e308)
_COUNTS = st.integers(max_value=24)
SCHEDULES = st.builds(
    lambda cost, salvage, life, month, mode: [
        "depr", f"--cost={cost!r}", f"--salvage={salvage!r}", f"--life={life}", f"--month={month}",
        "--mode", mode,
    ],
    _AMOUNTS, _AMOUNTS, _COUNTS, st.integers(0, 13), st.sampled_from(["exact", "compat"]),
) | st.builds(
    lambda principal, rate, term, holiday, convention: [
        "schedule", f"--principal={principal!r}", f"--rate={rate!r}", f"--term={term}",
        f"--holiday={holiday}", "--convention", convention,
    ],
    _AMOUNTS, _AMOUNTS, _COUNTS, st.integers(0, 24), st.sampled_from(["uk", "us"]),
)


@settings(max_examples=300, deadline=None)
@given(SCHEDULES)
@example(OVERFLOWS[0])
@example(OVERFLOWS[1])
@example(OVERFLOWS[2])
def test_a_schedule_exits_0_1_or_2_and_prints_only_finite_numbers(argv):
    """Any amounts up to 1e308 and any term or life up to 24: exit 0, 1 or
    2, an error: line exactly on 2, and no nan or inf in what is printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert (code == 2) == err.getvalue().startswith("error: "), err.getvalue()
    if code != 2:
        assert "nan" not in out.getvalue() and "inf" not in out.getvalue(), out.getvalue()


def test_a_schedule_whose_payment_overflows_is_one_error_line(capsys):
    argv = ["schedule", "--principal", "1000", "--rate", "-0.9999999999999999", "--term", "1000"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: arithmetic out of range: math range error\n")


_NEAR_MINUS_ONE = st.integers(-2, 8).map(lambda ulps: -1.0 + ulps * 2.0**-53)
EXTREME_SCHEDULES = st.builds(
    lambda cost, salvage, life, month, mode: [
        "depr", f"--cost={cost!r}", f"--salvage={salvage!r}", f"--life={life}", f"--month={month}",
        "--mode", mode,
    ],
    _AMOUNTS, _AMOUNTS, st.integers(1, 3000), st.integers(1, 12), st.sampled_from(["exact", "compat"]),
) | st.builds(
    lambda principal, rate, term, holiday, convention: [
        "schedule", f"--principal={principal!r}", f"--rate={rate!r}", f"--term={term}",
        f"--holiday={holiday}", "--convention", convention,
    ],
    _AMOUNTS, _NEAR_MINUS_ONE, st.integers(1, 3000), st.integers(0, 12),
    st.sampled_from(["uk", "us"]),
)


@settings(max_examples=200, deadline=None)
@given(EXTREME_SCHEDULES)
def test_a_long_schedule_at_extreme_rates_and_amounts_exits_0_1_or_2(argv):
    """Terms and lives up to 3,000, rates within 8 ulps of -1 and amounts up
    to 1e308: exit 0, 1 or 2, an error: line exactly on 2, and no nan or inf
    in what is printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert [line for line in lines if not line.startswith("warning: ")] == lines[:code == 2]
    assert (code == 2) == err.getvalue().startswith("error: "), err.getvalue()
    if code != 2:
        assert "nan" not in out.getvalue() and "inf" not in out.getvalue(), out.getvalue()


def _csv_bytes(rows) -> bytes:
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return text.getvalue().encode()


_PIECES = [
    "=", "A1", "$A$1", "b2", "A1:B3", "$A1:A$9", "SUM(", "NPV(", "PMT(", "DB(", "INTRATE(", "XNPV(",
    "ACCRINT(", "DAYS360(", "EFFECT(", ")", ",", "+", "-", "*", "/", "^", "&", "<>", "1", "0.05",
    "12", "1e308", "5%", '"', "x", "2024-01-31", " ", "\n", "\x00", "é",
]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_RULE_ID = st.sampled_from([*RULE_IDS, "R99"])
_CONFIGS = st.fixed_dictionaries({}, optional={
    "enabled": st.lists(_RULE_ID, max_size=3) | _JSON,
    "thresholds": st.dictionaries(_RULE_ID, st.floats() | st.integers() | _JSON, max_size=2) | _JSON,
    "severities": st.dictionaries(_RULE_ID, st.sampled_from(["error", "info", "fatal"]) | _JSON, max_size=2),
}) | st.dictionaries(st.text(max_size=10), _JSON, max_size=2)
_CALLS = st.builds(
    "={}({})".format,
    st.sampled_from(["PMT", "NPV", "DB", "INTRATE", "ACCRINT", "DAYS360", "SUM"]),
    st.lists(st.sampled_from(["A1", "B1", "A1:B2", "5", "0.05", "7", "0", "", "-1", '"x"']), max_size=6)
    .map(",".join),
)
_CELLS = st.lists(st.sampled_from(_PIECES), max_size=8).map("".join) | _CALLS
BOOKS = (
    st.binary(max_size=40)
    | st.lists(st.lists(_CELLS, max_size=4), max_size=5).map(_csv_bytes)
    | sheets(max_rows=20).map(_csv_bytes)
)
RULE_CONFIGS = st.one_of(
    st.none(),
    _CONFIGS.map(json.dumps).map(str.encode),
    _JSON.map(json.dumps).map(str.encode),
    st.binary(max_size=20),
)


# the autouse fixture clears the rules variable once, which holds for every example
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(BOOKS, RULE_CONFIGS, st.sampled_from(["text", "structured"]))
@example(_csv_bytes(REPROS["running balance"]), None, "text")
@example(_csv_bytes(REPROS["chain down"]), None, "structured")
@example(_csv_bytes([["5", f"=PMT($A$1,12,{r}00)"] for r in range(1, 40)]), b'{"enabled": ["R5"]}', "text")
def test_an_audit_exits_0_1_or_2_whatever_it_reads(book, config, fmt):
    """Any CSV bytes and any rule config: exit 0, 1 or 2, no exception, and
    stderr starts with an error: line exactly when the exit code is 2."""
    with tempfile.TemporaryDirectory() as tmp:
        path, rules = Path(tmp, "book.csv"), Path(tmp, "rules.json")
        path.write_bytes(book)
        argv = ["audit", "--format", fmt, str(path)]
        if config is not None:
            rules.write_bytes(config)
            argv += ["--rules", str(rules)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert (code == 2) == err.getvalue().startswith("error: "), err.getvalue()


# text that often breaks a line: each character str.splitlines splits at, and any other
_LINES = st.text(st.sampled_from("\n\r\x0b\x0c\x1c\x85\u2028") | st.characters(), max_size=6)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["enabled", "thresholds", "severities", "severity name", "workbook"]),
    _LINES.filter(lambda text: text not in RULE_IDS and text not in {"error", "warning", "info"}),
)
def test_a_diagnostic_is_one_line_whatever_it_quotes(where, text):
    """A rule id, a severity name or a workbook path that holds a line break
    still makes exactly one error: line, its control characters escaped."""
    with tempfile.TemporaryDirectory() as tmp:
        book, rules = Path(tmp, "book.csv"), Path(tmp, "rules.json")
        book.write_text("1\n")
        config = {
            "enabled": {"enabled": [text]},
            "thresholds": {"thresholds": {text: 1}},
            "severities": {"severities": {text: "error"}},
            "severity name": {"severities": {"R1": text}},
            "workbook": {},
        }[where]
        rules.write_text(json.dumps(config))
        path = Path(tmp, "missing", text) if where == "workbook" else book
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["audit", str(path), "--rules", str(rules)])
    assert code == 2
    assert err.getvalue().startswith("error: ") and len(err.getvalue().splitlines()) == 1
    assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), err.getvalue()


# Runs the CLI as `python -m ledgerlint.cli` does, then lists the module of
# each dataclass that a loaded ledgerlint module holds, and every module loaded.
RUN_CLI = """
import runpy, sys
sys.argv[0] = "ledgerlint"
try:
    runpy.run_module("ledgerlint.cli", run_name="__main__", alter_sys=True)
finally:
    sys.stdout.flush()
    modules = " ".join(sys.modules)
    is_dataclass = getattr(sys.modules.get("dataclasses"), "is_dataclass", None)
    homes = is_dataclass and {
        value.__module__
        for name, module in list(sys.modules.items()) if name.startswith("ledgerlint")
        for value in vars(module).values()
        if isinstance(value, type) and is_dataclass(value)
    }
    sys.stderr.write("\\ndataclasses in: " + " ".join(sorted(homes or ())))
    sys.stderr.write("\\nmodules: " + modules)
"""


def _fresh(flags: list[str], code: str, *args: str):
    """A fresh interpreter's run of code with args, and the modules it loaded."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop(RULES_ENV_VAR, None)
    result = subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return result, set(result.stderr.rsplit("modules: ", 1)[1].split())


def _bare(flags: list[str]) -> set[str]:
    """What the interpreter loads on its own (site may load pathlib): not the CLI's doing."""
    return _fresh(flags, "import sys; sys.stderr.write('modules: ' + ' '.join(sys.modules))")[1]


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no_site"])
def test_a_text_audit_loads_only_what_it_uses(flags):
    books = sorted(str(path) for path in FIXTURES.rglob("*.csv"))
    audit, modules = _fresh(flags, RUN_CLI, "audit", *books)
    assert audit.returncode == 1, audit.stderr
    assert " R1 " in audit.stdout
    assert "ledgerlint.audit" in modules
    unused = {"json", "calendar", "decimal", "ledgerlint.loan", "pathlib", "typing"} - _bare(flags)
    if flags == ["-S"]:
        assert {"pathlib", "typing"} <= unused
    assert modules & unused == set()


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no_site"])
@pytest.mark.parametrize("args", [
    ["depr", "--cost", "1000", "--salvage", "100", "--life", "5", "--month", "6"],
    ["schedule", "--principal", "1000", "--rate", "5%", "--term", "12", "--holiday", "2"],
], ids=["depr", "schedule"])
def test_a_schedule_loads_no_formula_package_and_no_dataclasses(flags, args):
    run, modules = _fresh(flags, RUN_CLI, *args)
    assert run.returncode == 0, run.stderr
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(args) == 0
    assert run.stdout.splitlines() == out.getvalue().splitlines()  # the child's '\r\n' reads as '\n'
    never = {"dataclasses", "inspect", "ledgerlint.audit", "ledgerlint.formula", "typing"}
    unused = never - _bare(flags)
    if flags == ["-S"]:
        assert unused == never
    assert modules & unused == set()


def test_an_audit_builds_no_dataclass_outside_the_ast():
    books = sorted(str(path) for path in FIXTURES.rglob("*.csv"))
    audit, modules = _fresh([], RUN_CLI, "audit", *books)
    assert audit.returncode == 1, audit.stderr
    homes = audit.stderr.rsplit("dataclasses in: ", 1)[1].split("\n", 1)[0].split()
    # the AST nodes alone are still dataclasses; every other record is a record.Record
    assert homes == ["ledgerlint.formula.ast"]
    assert "ledgerlint.record" in modules


def test_an_audit_into_a_closed_pipe_exits_2_with_one_error_line(tmp_path):
    # about 400 KB of findings, far more than a pipe holds, so the audit is
    # still writing when the reader closes it after one line, as `| head -1` does
    book = tmp_path / "book.csv"
    book.write_bytes(_csv_bytes([["0.05", "1000", f"=PMT(A{r}/12,60,B{r})"] for r in range(1, 2001)]))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop(RULES_ENV_VAR, None)
    with subprocess.Popen(
        [sys.executable, "-m", "ledgerlint.cli", "audit", str(book)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as child:
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=120)
    assert first.startswith(f"{book}:C1 R2 info ".encode())
    # no traceback, and no 'Exception ignored' line from the interpreter's last flush
    assert (code, err) == (2, b"error: stdout: Broken pipe\n")
