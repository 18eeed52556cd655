"""Rule engine: trap fixtures, clean corpus, config, determinism."""

import json
from pathlib import Path

import pytest

from ledgerlint.audit import (
    _RULES,
    _plan,
    BASIS_POSITIONS,
    RATE_POSITIONS,
    RULE_IDS,
    Finding,
    RuleConfig,
    Severity,
    explain_rule,
    render_text,
    run_rules,
    to_record,
)
from ledgerlint.formula import FUNCTION_CATALOG, Binary, ErrorValue, Sheet, load_workbook, parse
from ledgerlint.formula.evaluator import Evaluator, Role

FIXTURES = Path(__file__).parent / "fixtures"

TRAPS = [
    ("r1_npv_period0.csv", "R1", "B1"),
    ("r2_rate_div_12.csv", "R2", "A1"),
    ("r3_intrate_compound.csv", "R3", "B1"),
    ("r4_db_month.csv", "R4", "B1"),
    ("r5_rate_magnitude.csv", "R5", "A1"),
    ("r6_date_arithmetic.csv", "R6", "A1"),
    ("r7_basis_default.csv", "R7", "B1"),
    ("r8_divisor_360.csv", "R8", "B1"),
]


@pytest.mark.parametrize("filename,rule_id,cell", TRAPS)
def test_each_trap_fires_exactly_its_own_rule(filename, rule_id, cell):
    sheet = load_workbook(FIXTURES / "traps" / filename)
    findings = run_rules(sheet)
    assert len(findings) == 1
    assert findings[0].rule_id == rule_id
    assert findings[0].cell == cell


@pytest.mark.parametrize("path", sorted((FIXTURES / "clean").glob("*.csv")))
def test_clean_corpus_has_zero_findings(path):
    assert run_rules(load_workbook(path)) == []


def test_nested_traps_keep_their_finding_order():
    """Rule-major within a cell, nodes in pre-order within a rule; text and JSON pinned."""
    traps = FIXTURES / "traps"
    findings = run_rules(load_workbook(traps / "nested_order.csv"))
    label = "nested_order.csv"
    expected_text = (traps / "nested_order.txt").read_text(encoding="utf-8").splitlines()
    expected_json = (traps / "nested_order.jsonl").read_text(encoding="utf-8").splitlines()
    assert [render_text(f, label) for f in findings] == expected_text
    assert [json.dumps(to_record(f, label)) for f in findings] == expected_json


def test_every_rule_declares_known_triggers():
    """A misspelt trigger key would switch its rule off without a finding changing.
    R0 alone has none: run_rules hands it the cells that could not be parsed."""
    for rule_id in RULE_IDS:
        triggers = _RULES[rule_id].triggers
        assert bool(triggers) == (rule_id != "R0"), rule_id
        for key in triggers:
            if key[0].isalpha():
                assert key in FUNCTION_CATALOG, (rule_id, key)
            else:
                node = parse(f"=1{key}1")
                assert isinstance(node, Binary) and node.op == key, (rule_id, key)


def test_rate_and_basis_positions():
    """R2, R5 and R7 read these argument positions; each function keeps its own."""
    assert RATE_POSITIONS == {
        "NPV": 0, "XNPV": 0, "PMT": 0, "EFFECT": 0, "NOMINAL": 0, "ACCRINT": 2,
    }
    assert BASIS_POSITIONS == {"ACCRINT": 4, "INTRATE": 4, "DAYS360": 2}


def test_r3_r4_and_r5_read_the_catalog_s_parameters():
    """The argument positions R3, R4 and R5 read are those of the catalog's
    parameters they name: INTRATE's settlement, maturity and basis, DB's
    month, and each rate function's rate."""
    def read(rule_id: str) -> dict:
        return {name: [FUNCTION_CATALOG[name].params[index] for index in indices]
                for name, indices in _RULES[rule_id].arguments.items()}

    assert {name: [p.name for p in params] for name, params in read("R3").items()} == {
        "INTRATE": ["settlement", "maturity", "basis"]
    }
    assert {name: [p.name for p in params] for name, params in read("R4").items()} == {
        "DB": ["month"]
    }
    assert {name: [p.role for p in params] for name, params in read("R5").items()} == {
        name: [Role.RATE] for name in RATE_POSITIONS
    }
    assert {rule_id for rule_id, spec in _RULES.items() if spec.arguments} == {"R3", "R4", "R5"}


def test_findings_reference_existing_cells():
    for filename, _, _ in TRAPS:
        sheet = load_workbook(FIXTURES / "traps" / filename)
        for finding in run_rules(sheet):
            assert finding.cell in sheet.cells
            for address, _ in finding.evidence:
                assert address in sheet.cells


def multi_trap_sheet():
    rows = [
        ["-1000", "=NPV(0.1,A1:A3)", "=PMT(0.12/12,60,10000)"],
        ["400", "=EFFECT(12,12)"],
        ["500", "=1/1/80"],
    ]
    return Sheet.from_rows(rows)


def test_findings_ordered_row_major_then_rule():
    findings = run_rules(multi_trap_sheet())
    keys = [(f.cell, f.rule_id) for f in findings]
    assert keys == [("B1", "R1"), ("C1", "R2"), ("B2", "R5"), ("B3", "R6")]


def test_determinism_byte_for_byte():
    first = run_rules(multi_trap_sheet())
    second = run_rules(multi_trap_sheet())
    assert first == second


def test_disabling_a_rule_removes_exactly_its_findings():
    sheet = multi_trap_sheet()
    full = run_rules(sheet)
    config = RuleConfig.from_dict({"enabled": [r for r in RULE_IDS if r != "R5"]})
    trimmed = run_rules(multi_trap_sheet(), config)
    assert trimmed == [f for f in full if f.rule_id != "R5"]


def test_rule_subsets_are_order_independent():
    full = run_rules(multi_trap_sheet())
    for rule_id in RULE_IDS:
        config = RuleConfig.from_dict({"enabled": [rule_id]})
        only = run_rules(multi_trap_sheet(), config)
        assert only == [f for f in full if f.rule_id == rule_id]


def test_threshold_overrides():
    sheet = load_workbook(FIXTURES / "traps" / "r3_intrate_compound.csv")
    relaxed = RuleConfig.from_dict({"thresholds": {"R3": 5.0}})
    assert run_rules(sheet, relaxed) == []

    strict = RuleConfig.from_dict({"thresholds": {"R5": 0.05}})
    rows = [["=PMT(0.12,60,10000)"]]
    findings = run_rules(Sheet.from_rows(rows), strict)
    assert [f.rule_id for f in findings] == ["R5"]
    # default cutoff of 1 does not flag an ordinary 12% rate
    assert run_rules(Sheet.from_rows(rows)) == []


def test_severity_overrides_and_defaults():
    """Every rule's findings carry its README default, or the configured severity."""
    defaults = dict(R1="warning", R2="info", R3="warning", R4="warning",
                    R5="error", R6="error", R7="info", R8="info")
    for filename, rule_id, _ in TRAPS:
        sheet = load_workbook(FIXTURES / "traps" / filename)
        assert [f.severity for f in run_rules(sheet)] == [Severity(defaults[rule_id])]
        for severity in Severity:
            config = RuleConfig.from_dict({"severities": {rule_id: severity.value}})
            assert [f.severity for f in run_rules(sheet, config)] == [severity], rule_id


@pytest.mark.parametrize("filename,rule_id,cell", TRAPS)
def test_a_check_returns_message_and_evidence(filename, rule_id, cell):
    """run_rules adds the rule id, the severity and the cell to what the check
    returns: a per-shape check's finding in the plan, or the per-cell check's,
    which gets the call's arguments that the rule reads, as Evaluator.argument
    reads them for the formula's own tree."""
    sheet = load_workbook(FIXTURES / "traps" / filename)
    spec = _RULES[rule_id]
    values = Evaluator(sheet)
    threshold = RuleConfig().threshold(rule_id)

    def check(node, found):
        if found is not None:
            return found
        indices = spec.arguments[node.name] if spec.arguments else ()
        return spec.check(node, values, threshold, None, *[values.argument(node, i) for i in indices])

    results = [
        check(node, found)
        for planned, node, _, found in _plan(sheet.cells[cell].formula, values)
        if planned is spec
    ]
    [(message, evidence)] = [result for result in results if result is not None]
    assert isinstance(message, str) and isinstance(evidence, tuple)
    assert all(isinstance(a, str) and isinstance(v, str) for a, v in evidence)
    assert run_rules(sheet) == [Finding(rule_id, spec.default_severity, cell, message, evidence)]


def test_rule_config_validation():
    with pytest.raises(ValueError, match="R99"):
        RuleConfig.from_dict({"enabled": ["R99"]})
    with pytest.raises(ValueError, match="positive"):
        RuleConfig.from_dict({"thresholds": {"R3": -1.0}})
    with pytest.raises(ValueError, match="R99"):
        RuleConfig.from_dict({"thresholds": {"R99": 1.0}})
    with pytest.raises(ValueError, match="severity"):
        RuleConfig.from_dict({"severities": {"R2": "fatal"}})
    with pytest.raises(ValueError, match="R99"):
        RuleConfig.from_dict({"severities": {"R99": "error"}})


@pytest.mark.parametrize(
    "data,message",
    [
        ({"enabled": 5}, "enabled must be a list of rule ids, got 5"),
        ({"enabled": "R5"}, "enabled must be a list of rule ids, got 'R5'"),
        ({"enabled": [["R1"]]}, "enabled must be a list of rule ids, got [['R1']]"),
        ({"thresholds": 5}, "thresholds must be an object keyed by rule id, got 5"),
        ({"severities": ["R2"]}, "severities must be an object keyed by rule id, got ['R2']"),
        ({"thresholds": {"R1": 5}}, "rule R1 takes no threshold"),
        ({"thresholds": {"R5": True}}, "threshold for R5 must be positive, got True"),
        ({"thresholds": {"R3": "2"}}, "threshold for R3 must be positive, got '2'"),
        ({"enabled": ["R1"], "extra": 1}, "unknown config fields: ['extra']"),
        ({"enabled": None}, "enabled must be a list of rule ids, got None"),
    ],
)
def test_rule_config_shape_checks(data, message):
    with pytest.raises(ValueError) as excinfo:
        RuleConfig.from_dict(data)
    assert str(excinfo.value) == message


def test_rule_defaults_come_from_the_rule_table():
    config = RuleConfig()
    assert {r: config.threshold(r) for r in RULE_IDS if _RULES[r].threshold} == {
        "R3": 1.0,
        "R5": 1.0,
    }
    assert RuleConfig.from_dict({"thresholds": {"R5": 2}}).threshold("R5") == 2.0


def test_rule_config_from_json_file(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"enabled": ["R2"], "severities": {"R2": "warning"}}))
    config = RuleConfig.from_json_file(path)
    sheet = load_workbook(FIXTURES / "traps" / "r2_rate_div_12.csv")
    findings = run_rules(sheet, config)
    assert [f.rule_id for f in findings] == ["R2"]
    assert findings[0].severity is Severity.WARNING


def test_explain_rule_coverage():
    for rule_id in RULE_IDS:
        text = explain_rule(rule_id)
        assert isinstance(text, str) and len(text) > 40


def test_explain_rule_content_contracts():
    r2 = explain_rule("R2")
    assert "effective" in r2.lower() and "nominal" in r2.lower()
    assert "EFFECT" in r2 and "NOMINAL" in r2
    r7 = explain_rule("R7")
    assert "US" in r7 and "European" in r7
    assert "default" in r7.lower()


def test_explain_rule_unknown_id():
    with pytest.raises(KeyError):
        explain_rule("R99")


def test_r1_requires_negative_first_value_and_no_additive_term():
    fires = Sheet.from_rows([["-1000", "=NPV(0.1,A1:A3)"], ["400"], ["500"]])
    assert [f.rule_id for f in run_rules(fires)] == ["R1"]

    outside = Sheet.from_rows([["-1000", "=A1+NPV(0.1,A2:A3)"], ["-400"], ["500"]])
    assert run_rules(outside) == []

    positive_first = Sheet.from_rows([["400", "=NPV(0.1,A1:A3)"], ["500"], ["600"]])
    assert run_rules(positive_first) == []

    scalar_args = Sheet.from_rows([["=NPV(0.1,-1000,400)"]])
    assert run_rules(scalar_args) == []


def test_r1_evidence_names_the_offending_cell():
    sheet = Sheet.from_rows([["-1000", "=NPV(0.1,A1:A3)"], ["400"], ["500"]])
    finding = run_rules(sheet)[0]
    assert finding.evidence[0][0] == "A1"
    assert "-1000" in finding.evidence[0][1]
    # the head of the range is its first number: text, dates and errors are skipped
    rows = [["flows", "=NPV(0.1,A1:A6)"], ["=1/0"], ["=1+"], ["2024-01-01"], ["-1000"], ["400"]]
    findings = run_rules(Sheet.from_rows(rows))
    assert [(f.rule_id, f.cell, f.evidence) for f in findings] == [
        ("R1", "B1", (("A5", "-1000"),)),
        ("R0", "A3", ()),  # '=1+' could not be parsed
    ]
    rows = [["flows", "=NPV(0.1,A1:A3)"], ["400"], ["-1000"]]
    assert run_rules(Sheet.from_rows(rows)) == []


def test_r1_and_r5_resolve_whole_sheet_ranges():
    # B1:ZZZ999999 has 1.8e10 slots; the rules pay only for the populated ones.
    npv = "=NPV(0.1,B1:ZZZ999999)"
    pmt = "=PMT(SUM(B1:ZZZ999999),12,100)"
    assert run_rules(Sheet.from_rows([[npv]])) == []
    assert run_rules(Sheet.from_rows([[pmt]])) == []
    r1 = run_rules(Sheet.from_rows([[npv, "-100"]]))
    assert [(f.rule_id, f.cell, f.evidence) for f in r1] == [("R1", "A1", (("B1", "-100"),))]
    r5 = run_rules(Sheet.from_rows([[pmt, "5"]]))
    assert [(f.rule_id, f.cell) for f in r5] == [("R5", "A1")]
    assert "resolves to 5;" in r5[0].message


@pytest.mark.parametrize("in_cell", [False, True], ids=["literal", "cell"])
@pytest.mark.parametrize("month,fires", [("7", True), ("0", False), ("-3", False), ("7.5", False)])
def test_r4_reads_the_month_as_db_does(month, fires, in_cell):
    """Only an integer month from 1 to 11 is a partial first year; any other
    month makes DB itself fail, so there is no schedule to warn about."""
    sheet = Sheet.from_rows([[f"=DB(1000,100,5,1,{'B1' if in_cell else month})", month]])
    assert isinstance(sheet.value("A1"), ErrorValue) is not fires
    findings = run_rules(sheet)
    assert [(f.rule_id, f.evidence) for f in findings] == (
        [("R4", (("B1", month),) if in_cell else ())] if fires else []
    )


@pytest.mark.parametrize(
    "formula",
    ["=PMT(5,12)", "=NPV(5)", "=DB(1000,100,5,1,7,1)", "=INTRATE(B1,C1,100,125,0,1)"],
)
def test_a_call_with_the_wrong_number_of_arguments_gets_no_argument_finding(formula):
    """R3, R4 and R5 read arguments as the call would get them, and a call of
    the wrong arity gets none: its value is the arity error."""
    sheet = Sheet.from_rows([[formula, "2020-01-01", "2024-01-01"]])
    assert "arguments, got" in sheet.value("A1").message
    assert run_rules(sheet, RuleConfig(enabled=frozenset({"R3", "R4", "R5"}))) == []


def test_r6_bounds_on_date_components():
    assert [f.rule_id for f in run_rules(Sheet.from_rows([["=31/12/1999"]]))] == ["R6"]
    assert [f.rule_id for f in run_rules(Sheet.from_rows([["=1/1/80"]]))] == ["R6"]
    assert run_rules(Sheet.from_rows([["=45/3/2024"]])) == []  # day > 31
    assert run_rules(Sheet.from_rows([["=1/15/80"]])) == []  # month > 12
    assert run_rules(Sheet.from_rows([["=1/1/500"]])) == []  # year neither 0-99 nor 1900-2199
    assert run_rules(Sheet.from_rows([["=10/2.5/80"]])) == []  # non-integer component


def test_r7_fires_on_all_family_members():
    rows = [
        ["2024-01-15", "=DAYS360(A1,A2)"],
        ["2024-03-31", "=INTRATE(A1,A2,100,102)"],
        ["", "=ACCRINT(A1,A2,0.05,1000,)"],
    ]
    findings = run_rules(Sheet.from_rows(rows))
    assert [f.rule_id for f in findings] == ["R7", "R7", "R7"]
    assert [f.cell for f in findings] == ["B1", "B2", "B3"]


def test_r8_requires_date_difference_and_literal_360():
    rows = [["2024-01-01", "=(A2-A1)/365"], ["2024-03-01"]]
    assert run_rules(Sheet.from_rows(rows)) == []
    rows = [["100", "=(A2-A1)/360"], ["50"]]
    assert run_rules(Sheet.from_rows(rows)) == []


def test_anchored_rate_gives_r2_as_its_unanchored_twin():
    twin = Sheet.from_rows([["0.06", "=PMT(A1/12,60,10000)"]])
    expected = run_rules(twin)
    assert [f.rule_id for f in expected] == ["R2"]
    for source in ("=PMT($A$1/12,60,10000)", "=PMT(A$1/12,60,10000)", "=PMT($A1/12,60,10000)"):
        sheet = Sheet.from_rows([["0.06", source]])
        assert run_rules(sheet) == expected
        assert sheet.evaluate_all() == twin.evaluate_all()


def test_r2_passes_over_a_rate_function_called_with_no_arguments():
    assert run_rules(Sheet.from_rows([["=PMT()", "=NPV()"]])) == []


def test_rules_skip_strange_cells():
    nan = "1e308*10-1e308*10"
    rows = [
        ["=1+", "=NOSUCH(1)", "=A1", "x", "=NPV(0.1,Z9:Z12)"],
        ["2020-01-01", "2024-01-01", "=INTRATE(A2,B2,100,110,1e308*10)",
         f"=PMT({nan},12,100)", f"=DB(100,10,6,1,{nan})"],
    ]
    # only the formula that could not be parsed is reported, and only by R0
    findings = run_rules(Sheet.from_rows(rows))
    assert [(f.rule_id, f.cell, f.severity) for f in findings] == [("R0", "A1", Severity.WARNING)]
    assert findings[0].message == (
        "formula could not be parsed: unexpected end of formula at column 3; no rule checked it"
    )


def test_finding_is_frozen_record():
    finding = run_rules(multi_trap_sheet())[0]
    assert isinstance(finding, Finding)
    with pytest.raises(AttributeError):
        finding.cell = "Z9"
