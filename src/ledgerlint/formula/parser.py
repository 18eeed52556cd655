"""Lexer and recursive-descent parser for spreadsheet formulas.

Grammar, loosest binding first:

    comparison := concat (('='|'<>'|'<'|'>'|'<='|'>=') concat)*
    concat     := additive ('&' additive)*
    additive   := multiplicative (('+'|'-') multiplicative)*
    multiplicative := unary (('*'|'/') unary)*
    unary      := '-' unary | power
    power      := postfix ('^' unary)?          right-associative
    postfix    := atom ('%')?                   numeric literals only
    atom       := NUMBER | STRING | REF (':' REF)? | IDENT '(' args ')' | '(' comparison ')'
    args       := nothing | arg (',' arg)*      an absent arg is an EmptyArg slot
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .ast import (
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

__all__ = ["TokenKind", "Token", "ParseError", "tokenize", "parse"]

MAX_NESTING = 64

_NUMBER_RE = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?", re.ASCII)
_WORD_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_REF_RE = re.compile(r"([A-Za-z]{1,3})([1-9][0-9]*)$")
# str.isdigit and str.isalpha would also accept characters such as '²' and 'é'
_DIGITS = frozenset("0123456789")
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_TWO_CHAR_OPS = ("<=", ">=", "<>")
_ONE_CHAR_OPS = "=<>&+-*/^%"


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
    i = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch in _DIGITS or (ch == "." and i + 1 < n and text[i + 1] in _DIGITS):
            match = _NUMBER_RE.match(text, i)
            lexeme = match.group()
            tokens.append(Token(TokenKind.NUMBER, lexeme, i, value=float(lexeme)))
            i = match.end()
            continue
        if ch == '"':
            start = i
            i += 1
            parts: list[str] = []
            while True:
                if i >= n:
                    raise ParseError(f"unterminated string at column {start}", start)
                if text[i] == '"':
                    if i + 1 < n and text[i + 1] == '"':
                        parts.append('"')
                        i += 2
                        continue
                    i += 1
                    break
                parts.append(text[i])
                i += 1
            tokens.append(Token(TokenKind.STRING, "".join(parts), start))
            continue
        if ch in _LETTERS:
            match = _WORD_RE.match(text, i)
            word = match.group().upper()
            # letters-then-digits is a cell ref unless a call's '(' follows
            is_ref = _REF_RE.fullmatch(word) and not text[match.end():match.end() + 1] == "("
            kind = TokenKind.REF if is_ref else TokenKind.IDENT
            tokens.append(Token(kind, word, i))
            i = match.end()
            continue
        two = text[i:i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token(TokenKind.OP, two, i))
            i += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token(TokenKind.OP, ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(Token(TokenKind.LPAREN, ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(Token(TokenKind.RPAREN, ch, i))
            i += 1
            continue
        if ch == ",":
            tokens.append(Token(TokenKind.COMMA, ch, i))
            i += 1
            continue
        if ch == ":":
            tokens.append(Token(TokenKind.COLON, ch, i))
            i += 1
            continue
        raise ParseError(f"illegal character {ch!r} at column {i}", i)
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], end_pos: int):
        self.tokens = tokens
        self.index = 0
        self.end_pos = end_pos
        self.depth = 0

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

    def at_op(self, *ops: str) -> bool:
        token = self.peek()
        return token is not None and token.kind is TokenKind.OP and token.text in ops

    def expect(self, kind: TokenKind, what: str) -> Token:
        token = self.peek()
        if token is None or token.kind is not kind:
            pos = self.end_pos if token is None else token.pos
            raise ParseError(f"expected {what} at column {pos}", pos)
        self.index += 1
        return token

    def enter(self, pos: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"formula nesting deeper than {MAX_NESTING} levels at column {pos}", pos
            )

    def leave(self) -> None:
        self.depth -= 1

    # grammar tiers

    def comparison(self) -> FormulaNode:
        node = self.concat()
        while self.at_op("=", "<>", "<", ">", "<=", ">="):
            op = self.advance().text
            node = Binary(op, node, self.concat())
        return node

    def concat(self) -> FormulaNode:
        node = self.additive()
        while self.at_op("&"):
            self.advance()
            node = Binary("&", node, self.additive())
        return node

    def additive(self) -> FormulaNode:
        node = self.multiplicative()
        while self.at_op("+", "-"):
            op = self.advance().text
            node = Binary(op, node, self.multiplicative())
        return node

    def multiplicative(self) -> FormulaNode:
        node = self.unary()
        while self.at_op("*", "/"):
            op = self.advance().text
            node = Binary(op, node, self.unary())
        return node

    def unary(self) -> FormulaNode:
        if self.at_op("-"):
            self.advance()
            return Unary("-", self.unary())
        return self.power()

    def power(self) -> FormulaNode:
        node = self.postfix()
        if self.at_op("^"):
            self.advance()
            return Binary("^", node, self.unary())
        return node

    def postfix(self) -> FormulaNode:
        node = self.atom()
        if self.at_op("%"):
            token = self.advance()
            if not isinstance(node, NumberLit):
                raise ParseError(
                    f"'%' only follows numeric literals at column {token.pos}", token.pos
                )
            return PercentLit(node.value)
        return node

    def atom(self) -> FormulaNode:
        token = self.advance()
        if token.kind is TokenKind.NUMBER:
            return NumberLit(token.value)
        if token.kind is TokenKind.STRING:
            return TextLit(token.text)
        if token.kind is TokenKind.REF:
            ref = _make_ref(token)
            next_token = self.peek()
            if next_token is not None and next_token.kind is TokenKind.COLON:
                self.advance()
                other = self.peek()
                if other is None or other.kind is not TokenKind.REF:
                    pos = self.end_pos if other is None else other.pos
                    raise ParseError(
                        f"expected cell reference after ':' at column {pos}", pos
                    )
                self.advance()
                return RangeRef(ref, _make_ref(other))
            return ref
        if token.kind is TokenKind.IDENT:
            next_token = self.peek()
            if next_token is None or next_token.kind is not TokenKind.LPAREN:
                raise ParseError(
                    f"unexpected identifier {token.text!r} at column {token.pos}", token.pos
                )
            self.enter(token.pos)
            self.advance()
            args = self.call_args()
            self.expect(TokenKind.RPAREN, "')'")
            self.leave()
            return Call(token.text, args)
        if token.kind is TokenKind.LPAREN:
            self.enter(token.pos)
            node = self.comparison()
            self.expect(TokenKind.RPAREN, "')'")
            self.leave()
            return node
        raise ParseError(
            f"unexpected token {token.text!r} at column {token.pos}", token.pos
        )

    def call_args(self) -> tuple[FormulaNode, ...]:
        token = self.peek()
        if token is not None and token.kind is TokenKind.RPAREN:
            return ()
        args: list[FormulaNode] = []
        while True:
            token = self.peek()
            if token is not None and token.kind in (TokenKind.COMMA, TokenKind.RPAREN):
                args.append(EMPTY)
            else:
                args.append(self.comparison())
            token = self.peek()
            if token is not None and token.kind is TokenKind.COMMA:
                self.advance()
                continue
            return tuple(args)


def _make_ref(token: Token) -> CellRef:
    match = _REF_RE.fullmatch(token.text)
    return CellRef(match.group(1), int(match.group(2)))


def parse(text: str) -> FormulaNode:
    """Parse a '='-prefixed formula into its AST."""
    tokens = tokenize(text)
    parser = _Parser(tokens, end_pos=len(text))
    node = parser.comparison()
    leftover = parser.peek()
    if leftover is not None:
        raise ParseError(
            f"unexpected token {leftover.text!r} at column {leftover.pos}", leftover.pos
        )
    return node
