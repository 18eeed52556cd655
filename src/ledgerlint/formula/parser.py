"""Lexer and precedence-climbing parser for spreadsheet formulas.

Three tables state the language: the token pattern (_TOKEN_RE), the A1
reference pattern (_REF_RE, with optional '$' anchors) and the operator
precedence table of the printer (ast._BINARY_PREC).  Grammar:

    expression[p] := ('-' expression[^] | postfix) (OP expression[q])*
        OP is an operator of _BINARY_PREC binding at p or tighter, and q the
        next tighter level, except for the right-associative '^' (q is ^);
        so unary '-' binds looser than '^' (-2^2 is -(2^2)) and tighter than
        every other operator.  A formula is expression[=].
    postfix    := atom ('%')?                   numeric literals only
    atom       := NUMBER | STRING | REF (':' REF)? | IDENT '(' args ')' | '(' expression ')'
    args       := nothing | arg (',' arg)*      an absent arg is an EmptyArg slot

The lexer yields one plain (kind, text, pos, value) tuple per token, the
fields of a Token; tokenize() returns them as Tokens, and parse() reads the
tuples by index from a list that ends in one end-of-input sentinel (kind None,
at column len(text)), so that running out of tokens is an ordinary token.

Parentheses and calls nest at most MAX_NESTING deep, and operators and calls
at most MAX_DEPTH levels, so that evaluating and printing a parsed formula
stay within Python's default recursion limit.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from typing import NamedTuple

from .ast import (
    _BINARY_PREC,
    _PREC_COMPARE,
    _PREC_POWER,
    EMPTY,
    Binary,
    Call,
    CellRef,
    FormulaNode,
    NumberLit,
    PercentLit,
    RangeRef,
    TextLit,
    Unary,
)

__all__ = ["TokenKind", "Token", "ParseError", "tokenize", "parse", "parse_address"]

MAX_NESTING = 64
MAX_DEPTH = 256


class TokenKind(str, Enum):
    NUMBER = "number"
    STRING = "string"
    REF = "ref"
    IDENT = "ident"
    OP = "op"
    LPAREN = "lparen"
    RPAREN = "rparen"
    COMMA = "comma"
    COLON = "colon"


# column anchor, letters, row anchor, row
_REF_RE = re.compile(r"(\$?)([A-Za-z]{1,3})(\$?)([1-9][0-9]*)")
# letters-then-digits is a cell ref unless a call's '(' follows
_REF_TOKEN = rf"{_REF_RE.pattern}(?![A-Za-z0-9(])"
_OPERATORS = sorted([*_BINARY_PREC, "%"], key=len, reverse=True)  # '<=' before '<'
# one alternative per token kind, named after its TokenKind value; ASCII only,
# since \d and str.isalpha would also accept characters such as '²' and 'é'
_TOKEN_RE = re.compile(
    "|".join([
        r"[ \t]+",
        r"(?P<number>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)",
        r'(?P<string>"(?:[^"]|"")*"(?!"))',
        rf"(?P<ref>{_REF_TOKEN})",
        r"(?P<ident>[A-Za-z][A-Za-z0-9]*)",
        "(?P<op>" + "|".join(map(re.escape, _OPERATORS)) + ")",
        r"(?P<lparen>\()",
        r"(?P<rparen>\))",
        r"(?P<comma>,)",
        r"(?P<colon>:)",
        r"(?P<bad>.)",
    ]),
    re.ASCII | re.DOTALL,
)
_KINDS = {kind.value: kind for kind in TokenKind}
_NUMBER, _STRING, _REF, _IDENT, _OP, _LPAREN, _RPAREN, _COMMA, _COLON = TokenKind
_ARG_ENDS = (_COMMA, _RPAREN)  # what follows an absent argument


class Token(NamedTuple):
    kind: TokenKind
    text: str
    pos: int
    value: float | None = None


class ParseError(ValueError):
    """Lexical or syntactic failure; position is the column in the source."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


def _lex(text: str) -> list[tuple]:
    """The (kind, text, pos, value) tuple of each token, as a Token's fields."""
    if not text.startswith("="):
        raise ParseError("formula must begin with '='", 0)
    tokens = []
    append = tokens.append
    for match in _TOKEN_RE.finditer(text, 1):
        kind = match.lastgroup
        if kind is None:
            continue  # blanks
        lexeme = match.group()
        if kind == "ref" or kind == "ident":  # names are case-insensitive
            append((_KINDS[kind], lexeme.upper(), match.start(), None))
        elif kind == "number":
            value = float(lexeme)
            if value == math.inf:
                pos = match.start()
                raise ParseError(f"number {lexeme} is too large at column {pos}", pos)
            append((_NUMBER, lexeme, match.start(), value))
        elif kind == "string":
            append((_STRING, lexeme[1:-1].replace('""', '"'), match.start(), None))
        elif kind == "bad":
            pos = match.start()
            if lexeme == '"':
                raise ParseError(f"unterminated string at column {pos}", pos)
            raise ParseError(f"illegal character {lexeme!r} at column {pos}", pos)
        else:
            append((_KINDS[kind], lexeme, match.start(), None))
    return tokens


def tokenize(text: str) -> list[Token]:
    return list(map(Token._make, _lex(text)))


class _Parser:
    """Parse methods return a node and its depth in operator and call levels."""

    def __init__(self, tokens: list[tuple]):
        self.tokens = tokens  # ends in the end-of-input sentinel
        self.index = 0
        self.nesting = 0  # open parentheses and calls
        self.levels = 0  # enclosing '-' and '^', whose operands are parsed by recursion

    def expect(self, kind: TokenKind, what: str) -> str:
        """Consume a token of kind and return its text."""
        kind_found, text, pos, _ = self.tokens[self.index]
        if kind_found is not kind:
            raise ParseError(f"expected {what} at column {pos}", pos)
        self.index += 1
        return text

    def enter(self, pos: int) -> None:
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ParseError(
                f"formula nesting deeper than {MAX_NESTING} levels at column {pos}", pos
            )

    def level(self, depth: int, pos: int) -> int:
        """A node's depth, checked against MAX_DEPTH; pos is its operator or name."""
        if depth > MAX_DEPTH:
            raise ParseError(
                f"formula deeper than {MAX_DEPTH} operator and call levels at column {pos}",
                pos,
            )
        return depth

    def power_operand(self, pos: int) -> tuple[FormulaNode, int]:
        """The operand of a unary '-' or the right side of a '^'."""
        self.levels = self.level(self.levels + 1, pos)
        result = self.expression(_PREC_POWER)
        self.levels -= 1
        return result

    def expression(self, min_prec: int = _PREC_COMPARE) -> tuple[FormulaNode, int]:
        """Precedence climbing over the operators that bind at min_prec or tighter."""
        tokens = self.tokens
        kind, op, pos, _ = tokens[self.index]
        if kind is _OP and op == "-":
            self.index += 1
            child, depth = self.power_operand(pos)
            node, depth = Unary("-", child), self.level(depth + 1, pos)
        else:
            node, depth = self.postfix()
        while True:
            kind, op, pos, _ = tokens[self.index]
            if kind is not _OP:
                return node, depth
            prec = _BINARY_PREC.get(op, 0)
            if prec < min_prec:
                return node, depth
            self.index += 1
            if prec == _PREC_POWER:
                right, right_depth = self.power_operand(pos)
            else:
                right, right_depth = self.expression(prec + 1)
            node = Binary(op, node, right)
            depth = self.level(max(depth, right_depth) + 1, pos)

    def postfix(self) -> tuple[FormulaNode, int]:
        node, depth = self.atom()
        kind, text, pos, _ = self.tokens[self.index]
        if kind is _OP and text == "%":
            self.index += 1
            if not isinstance(node, NumberLit):
                raise ParseError(f"'%' only follows numeric literals at column {pos}", pos)
            return PercentLit(node.value), depth
        return node, depth

    def atom(self) -> tuple[FormulaNode, int]:
        tokens = self.tokens
        kind, text, pos, value = tokens[self.index]
        self.index += 1
        if kind is _REF:
            ref = _make_ref(text)
            if tokens[self.index][0] is _COLON:
                self.index += 1
                other = self.expect(_REF, "cell reference after ':'")
                return RangeRef(ref, _make_ref(other)), 0
            return ref, 0
        if kind is _NUMBER:
            return NumberLit(value), 0
        if kind is _IDENT:
            if tokens[self.index][0] is not _LPAREN:
                raise ParseError(f"unexpected identifier {text!r} at column {pos}", pos)
            self.enter(pos)
            self.index += 1
            args, depth = self.call_args()
            self.expect(_RPAREN, "')'")
            self.nesting -= 1
            return Call(text, args), self.level(depth + 1, pos)
        if kind is _LPAREN:
            self.enter(pos)
            node, depth = self.expression()
            self.expect(_RPAREN, "')'")
            self.nesting -= 1
            return node, depth
        if kind is _STRING:
            return TextLit(text), 0
        if kind is None:
            raise ParseError(f"unexpected end of formula at column {pos}", pos)
        raise ParseError(f"unexpected token {text!r} at column {pos}", pos)

    def call_args(self) -> tuple[tuple[FormulaNode, ...], int]:
        tokens = self.tokens
        if tokens[self.index][0] is _RPAREN:
            return (), 0
        args: list[FormulaNode] = []
        depth = 0
        while True:
            if tokens[self.index][0] in _ARG_ENDS:
                args.append(EMPTY)
            else:
                arg, arg_depth = self.expression()
                args.append(arg)
                depth = max(depth, arg_depth)
            if tokens[self.index][0] is not _COMMA:
                return tuple(args), depth
            self.index += 1


def _make_ref(text: str) -> CellRef:
    """text is a REF token's, upper-case already; matched one-letter columns are shared strings."""
    column_anchor, column, row_anchor, row = _REF_RE.fullmatch(text).groups()
    return CellRef(column, int(row), column_anchor == "$", row_anchor == "$")


def parse_address(address: str) -> tuple[str, int]:
    """Split "B3" into ("B", 3); a cell address carries no '$' anchors."""
    match = _REF_RE.fullmatch(address.strip())
    if not match or match.group(1) or match.group(3):
        raise ValueError(f"not a cell address: {address!r}")
    return match.group(2).upper(), int(match.group(4))


def parse(text: str) -> FormulaNode:
    """Parse a '='-prefixed formula into its AST."""
    tokens = _lex(text)
    tokens.append((None, "", len(text), None))
    parser = _Parser(tokens)
    node, _ = parser.expression()
    kind, leftover, pos, _ = parser.tokens[parser.index]
    if kind is not None:
        raise ParseError(f"unexpected token {leftover!r} at column {pos}", pos)
    return node
