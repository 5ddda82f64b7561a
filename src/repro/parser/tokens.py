"""Token definitions shared by both scanners.

The input language is line-oriented: a statement ends at a newline unless
the next line begins with whitespace (classic UUCP-map continuation) or
the line ends with a backslash.  Comments run from ``#`` to end of line.

Host names may contain letters, digits and ``. - _ +`` and may begin with
``.`` (a domain).  Inside parentheses — cost-expression context — ``+``
and ``-`` become operators instead of name characters; this is how
``HOURLY-5`` stays an expression while ``UNC-dwarf`` stays a name.
"""

from __future__ import annotations

import enum


class SlotValue:
    """Base of the front end's high-volume value classes.

    A frozen dataclass's generated ``__init__`` pays one
    ``object.__setattr__`` per field; a compile makes ~135k tokens and
    ~30k host declarations, so those classes are plain slotted classes
    instead.  They keep a frozen dataclass's value semantics: equality
    and hash over the fields named in ``__slots__`` (equal only within
    one class) and a field-by-field repr.  Instances are treated as
    immutable, though nothing enforces it.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class TokenKind(enum.Enum):
    NAME = "name"
    NUMBER = "number"
    STRING = "string"
    COMMA = ","
    EQUALS = "="
    LBRACE = "{"
    RBRACE = "}"
    LPAREN = "("
    RPAREN = ")"
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    OP = "op"          # routing operator character: ! @ : %
    NEWLINE = "eol"    # statement boundary
    EOF = "eof"


class Token(SlotValue):
    """A lexical token with source coordinates for diagnostics."""

    __slots__ = ("kind", "text", "line", "value")

    def __init__(self, kind: TokenKind, text: str, line: int,
                 value: int = 0) -> None:
        self.kind = kind
        self.text = text
        self.line = line
        self.value = value  # numeric payload for NUMBER tokens

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r}, line {self.line})"


#: Characters legal in a host name outside cost context.
NAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-+")

#: Characters legal in a name inside cost context (no arithmetic chars).
COST_NAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._")

#: Single-character tokens valid in either context.
SINGLE_CHAR = {
    ",": TokenKind.COMMA,
    "=": TokenKind.EQUALS,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
}

#: Routing operator characters (position decides LEFT/RIGHT).
OP_CHARS = frozenset("!@:%")

DIGITS = frozenset("0123456789")
