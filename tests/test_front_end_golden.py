"""Golden record of the formula front end: exact tokens and ASTs, or the exact
parse error and column, for every formula in fixtures/front_end.jsonl."""

import json
from pathlib import Path

from ledgerlint.formula import ParseError, parse, tokenize


def _outcome(front_end, source):
    try:
        return repr(front_end(source))
    except ParseError as exc:
        return f"ParseError({str(exc)!r}, {exc.position})"


def test_front_end_golden():
    # fixture and benchmark formulas, every lexer and parser error path, the
    # reference-or-call lookahead, operator pairs and seeded token soups
    path = Path(__file__).parent / "fixtures" / "front_end.jsonl"
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert len(records) >= 300
    mismatches = [
        (record["formula"], stage, expected, got)
        for record in records
        for stage, front_end in (("tokens", tokenize), ("parse", parse))
        for expected, got in [(record[stage], _outcome(front_end, record["formula"]))]
        if got != expected
    ]
    assert mismatches == []
