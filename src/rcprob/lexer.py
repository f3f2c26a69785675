"""Tokenizer shared by the model (`.rcm`) and property (`.rcp`) parsers."""

from __future__ import annotations

from fractions import Fraction

from .record import Record


class ParseError(ValueError):
    """Syntax error carrying a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


NAME = "name"
NUMBER = "number"
OP = "op"
EOF = "eof"

# Longest match first.  `=?` and `?=` are both accepted query markers.
_OPERATORS = [
    "::", "->", "/\\", "\\/", "==", "!=", "<=", ">=", "=>", "?=", "=?", "``",
    "{", "}", "(", ")", "[", "]", ";", ",", ":", ".", "=", "<", ">",
    "+", "-", "*", "/", "%", "@", "#", "&", "`", "!", "?",
]


class Token(Record):
    kind: str
    text: str
    line: int
    col: int
    value: object = None  # int or Fraction for NUMBER tokens

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token(NAME, text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j + 1 < n and text[j] == "." and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
                tok = Token(NUMBER, text[i:j], line, col, value=Fraction(text[i:j]))
            else:
                tok = Token(NUMBER, text[i:j], line, col, value=int(text[i:j]))
            tokens.append(tok)
            col += j - i
            i = j
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token(OP, op, line, col))
                i += len(op)
                col += len(op)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token(EOF, "", line, col))
    return tokens


class TokenStream:
    """Cursor over a token list with single-token lookahead helpers."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, ahead: int = 1) -> Token:
        idx = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[idx]

    def at(self, text: str) -> bool:
        return self.current.text == text and self.current.kind != EOF

    def at_name(self, text: str | None = None) -> bool:
        if self.current.kind != NAME:
            return False
        return text is None or self.current.text == text

    def at_eof(self) -> bool:
        return self.current.kind == EOF

    def advance(self) -> Token:
        tok = self.current
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def accept(self, text: str) -> Token | None:
        if self.at(text):
            return self.advance()
        return None

    def expect(self, text: str) -> Token:
        if self.at(text):
            return self.advance()
        raise self.error(f"expected {text!r} but found {self.current.text!r}")

    def expect_name(self, what: str = "identifier") -> Token:
        if self.current.kind != NAME:
            raise self.error(f"expected {what} but found {self.current.text!r}")
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        if self.at_name(word):
            return self.advance()
        raise self.error(f"expected keyword {word!r} but found {self.current.text!r}")

    def error(self, message: str) -> ParseError:
        tok = self.current
        return ParseError(message, tok.line, tok.col)
