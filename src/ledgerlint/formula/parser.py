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

Parentheses and calls nest at most MAX_NESTING deep, and operators and calls
at most MAX_DEPTH levels, so that evaluating and printing a parsed formula
stay within Python's default recursion limit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum

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


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    pos: int
    value: float | None = None


class ParseError(ValueError):
    """Lexical or syntactic failure; position is the column in the source."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


def tokenize(text: str) -> list[Token]:
    if not text.startswith("="):
        raise ParseError("formula must begin with '='", 0)
    tokens: list[Token] = []
    for match in _TOKEN_RE.finditer(text, 1):
        kind = match.lastgroup
        if kind is None:
            continue  # blanks
        lexeme = match.group()
        pos = match.start()
        if kind == "number":
            value = float(lexeme)
            if value == math.inf:
                raise ParseError(f"number {lexeme} is too large at column {pos}", pos)
            tokens.append(Token(TokenKind.NUMBER, lexeme, pos, value))
        elif kind == "string":
            tokens.append(Token(TokenKind.STRING, lexeme[1:-1].replace('""', '"'), pos))
        elif kind == "bad":
            if lexeme == '"':
                raise ParseError(f"unterminated string at column {pos}", pos)
            raise ParseError(f"illegal character {lexeme!r} at column {pos}", pos)
        elif kind == "ref" or kind == "ident":  # names are case-insensitive
            tokens.append(Token(_KINDS[kind], lexeme.upper(), pos))
        else:
            tokens.append(Token(_KINDS[kind], lexeme, pos))
    return tokens


class _Parser:
    """Parse methods return a node and its depth in operator and call levels."""

    def __init__(self, tokens: list[Token], end_pos: int):
        self.tokens = tokens
        self.index = 0
        self.end_pos = end_pos
        self.nesting = 0  # open parentheses and calls
        self.levels = 0  # enclosing '-' and '^', whose operands are parsed by recursion

    def peek(self) -> Token | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def advance(self) -> Token:
        token = self.peek()
        if token is None:
            raise ParseError(
                f"unexpected end of formula at column {self.end_pos}", self.end_pos
            )
        self.index += 1
        return token

    def expect(self, kind: TokenKind, what: str) -> Token:
        token = self.peek()
        if token is None or token.kind is not kind:
            pos = self.end_pos if token is None else token.pos
            raise ParseError(f"expected {what} at column {pos}", pos)
        self.index += 1
        return token

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

    def power_operand(self, token: Token) -> tuple[FormulaNode, int]:
        """The operand of a unary '-' or the right side of a '^'."""
        self.levels = self.level(self.levels + 1, token.pos)
        result = self.expression(_PREC_POWER)
        self.levels -= 1
        return result

    def expression(self, min_prec: int = _PREC_COMPARE) -> tuple[FormulaNode, int]:
        """Precedence climbing over the operators that bind at min_prec or tighter."""
        token = self.peek()
        if token is not None and token.kind is TokenKind.OP and token.text == "-":
            self.index += 1
            child, depth = self.power_operand(token)
            node, depth = Unary("-", child), self.level(depth + 1, token.pos)
        else:
            node, depth = self.postfix()
        while True:
            token = self.peek()
            if token is None or token.kind is not TokenKind.OP:
                return node, depth
            prec = _BINARY_PREC.get(token.text, 0)
            if prec < min_prec:
                return node, depth
            self.index += 1
            if prec == _PREC_POWER:
                right, right_depth = self.power_operand(token)
            else:
                right, right_depth = self.expression(prec + 1)
            node = Binary(token.text, node, right)
            depth = self.level(max(depth, right_depth) + 1, token.pos)

    def postfix(self) -> tuple[FormulaNode, int]:
        node, depth = self.atom()
        token = self.peek()
        if token is not None and token.kind is TokenKind.OP and token.text == "%":
            self.index += 1
            if not isinstance(node, NumberLit):
                raise ParseError(
                    f"'%' only follows numeric literals at column {token.pos}", token.pos
                )
            return PercentLit(node.value), depth
        return node, depth

    def atom(self) -> tuple[FormulaNode, int]:
        token = self.advance()
        if token.kind is TokenKind.NUMBER:
            return NumberLit(token.value), 0
        if token.kind is TokenKind.STRING:
            return TextLit(token.text), 0
        if token.kind is TokenKind.REF:
            ref = _make_ref(token)
            next_token = self.peek()
            if next_token is not None and next_token.kind is TokenKind.COLON:
                self.advance()
                other = self.expect(TokenKind.REF, "cell reference after ':'")
                return RangeRef(ref, _make_ref(other)), 0
            return ref, 0
        if token.kind is TokenKind.IDENT:
            next_token = self.peek()
            if next_token is None or next_token.kind is not TokenKind.LPAREN:
                raise ParseError(
                    f"unexpected identifier {token.text!r} at column {token.pos}", token.pos
                )
            self.enter(token.pos)
            self.advance()
            args, depth = self.call_args()
            self.expect(TokenKind.RPAREN, "')'")
            self.nesting -= 1
            return Call(token.text, args), self.level(depth + 1, token.pos)
        if token.kind is TokenKind.LPAREN:
            self.enter(token.pos)
            node, depth = self.expression()
            self.expect(TokenKind.RPAREN, "')'")
            self.nesting -= 1
            return node, depth
        raise ParseError(
            f"unexpected token {token.text!r} at column {token.pos}", token.pos
        )

    def call_args(self) -> tuple[tuple[FormulaNode, ...], int]:
        token = self.peek()
        if token is not None and token.kind is TokenKind.RPAREN:
            return (), 0
        args: list[FormulaNode] = []
        depth = 0
        while True:
            token = self.peek()
            if token is not None and token.kind in (TokenKind.COMMA, TokenKind.RPAREN):
                args.append(EMPTY)
            else:
                arg, arg_depth = self.expression()
                args.append(arg)
                depth = max(depth, arg_depth)
            token = self.peek()
            if token is not None and token.kind is TokenKind.COMMA:
                self.advance()
                continue
            return tuple(args), depth


def _make_ref(token: Token) -> CellRef:
    """The token is upper-case already; its matched one-letter columns are shared strings."""
    column_anchor, column, row_anchor, row = _REF_RE.fullmatch(token.text).groups()
    return CellRef(column, int(row), column_anchor == "$", row_anchor == "$")


def parse_address(address: str) -> tuple[str, int]:
    """Split "B3" into ("B", 3); a cell address carries no '$' anchors."""
    match = _REF_RE.fullmatch(address.strip())
    if not match or match.group(1) or match.group(3):
        raise ValueError(f"not a cell address: {address!r}")
    return match.group(2).upper(), int(match.group(4))


def parse(text: str) -> FormulaNode:
    """Parse a '='-prefixed formula into its AST."""
    tokens = tokenize(text)
    parser = _Parser(tokens, end_pos=len(text))
    node, _ = parser.expression()
    leftover = parser.peek()
    if leftover is not None:
        raise ParseError(
            f"unexpected token {leftover.text!r} at column {leftover.pos}", leftover.pos
        )
    return node
