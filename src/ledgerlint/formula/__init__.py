"""Spreadsheet formula language: lexer, parser, printer, sheets, evaluator."""

from .ast import (
    EMPTY,
    Binary,
    Call,
    CellRef,
    EmptyArg,
    FormulaNode,
    NumberLit,
    PercentLit,
    RangeRef,
    TextLit,
    Unary,
    to_source,
)
from .parser import ParseError, Token, TokenKind, parse, parse_address, tokenize
from .sheet import Cell, ErrorKind, ErrorValue, Sheet, load_workbook
from .evaluator import FUNCTION_CATALOG, evaluate

__all__ = [
    "EMPTY",
    "Binary",
    "Call",
    "CellRef",
    "EmptyArg",
    "FormulaNode",
    "NumberLit",
    "PercentLit",
    "RangeRef",
    "TextLit",
    "Unary",
    "to_source",
    "ParseError",
    "Token",
    "TokenKind",
    "parse",
    "tokenize",
    "Cell",
    "ErrorKind",
    "ErrorValue",
    "Sheet",
    "load_workbook",
    "parse_address",
    "FUNCTION_CATALOG",
    "evaluate",
]
