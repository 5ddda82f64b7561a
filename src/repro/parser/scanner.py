"""The hand-rolled scanner.

"Since our input tokens are easy to recognize, we built a simple scanner
and cut the overall run time by 40%."  This is that scanner: a direct
character-dispatch loop over each physical line, with three pieces of
state — the current line number, the parenthesis depth (cost-expression
context changes which characters may appear in names), and whether the
previous physical line requested continuation.

It emits one NEWLINE token per *logical* line (statement) and a final
EOF.  Blank lines and comment-only lines emit nothing.
"""

from __future__ import annotations

from repro.errors import ScanError
from repro.parser.tokens import (
    COST_NAME_CHARS,
    DIGITS,
    NAME_CHARS,
    OP_CHARS,
    SINGLE_CHAR,
    Token,
    TokenKind,
)


class Scanner:
    """Tokenize pathalias input text.

    Args:
        text: full input text.
        filename: reported in diagnostics.
    """

    def __init__(self, text: str, filename: str = "<stdin>"):
        self.text = text
        self.filename = filename

    def tokens(self) -> list[Token]:
        """Scan the whole input and return the token list."""
        out: list[Token] = []
        append = out.append
        paren_depth = 0
        statement_open = False  # tokens emitted since last NEWLINE
        continuation = False    # previous line ended with a backslash

        for lineno, line in enumerate(self.text.split("\n"), start=1):
            # Strip comments; '#' cannot occur inside names or strings
            # in this language, so a plain find suffices.
            hash_pos = line.find("#")
            if hash_pos >= 0:
                line = line[:hash_pos]

            backslash = line.endswith("\\")
            if backslash:
                line = line[:-1]

            stripped = line.strip()
            if not stripped:
                # Blank line: terminates any open statement.
                if statement_open and not continuation and paren_depth == 0:
                    append(Token(TokenKind.NEWLINE, "", lineno))
                    statement_open = False
                continuation = backslash and continuation
                continue

            starts_indented = line[0] in " \t"
            if (statement_open and not continuation and paren_depth == 0
                    and not starts_indented):
                # New statement begins at column 0: close the previous one.
                append(Token(TokenKind.NEWLINE, "", lineno))
                statement_open = False

            paren_depth = self._scan_line(line, lineno, paren_depth, out)
            if len(out) and out[-1].kind is not TokenKind.NEWLINE:
                statement_open = True
            continuation = backslash

        if statement_open:
            append(Token(TokenKind.NEWLINE, "", lineno))
        append(Token(TokenKind.EOF, "", lineno))
        return out

    def _scan_line(self, line: str, lineno: int, paren_depth: int,
                   out: list[Token]) -> int:
        """Scan one physical line; returns updated paren depth."""
        i = 0
        n = len(line)
        append = out.append
        while i < n:
            c = line[i]
            if c in " \t":
                i += 1
                continue
            if paren_depth > 0:
                name_chars = COST_NAME_CHARS
            else:
                name_chars = NAME_CHARS
            if c in DIGITS:
                j = i + 1
                while j < n and line[j] in DIGITS:
                    j += 1
                # A digit run followed by name characters is a host name
                # like "4votes", not a number — outside cost context.
                if paren_depth == 0 and j < n and line[j] in name_chars:
                    while j < n and line[j] in name_chars:
                        j += 1
                    append(Token(TokenKind.NAME, line[i:j], lineno))
                else:
                    text = line[i:j]
                    append(Token(TokenKind.NUMBER, text, lineno,
                                 value=number(text, self.filename,
                                              lineno)))
                i = j
                continue
            if c in name_chars:
                j = i + 1
                while j < n and line[j] in name_chars:
                    j += 1
                append(Token(TokenKind.NAME, line[i:j], lineno))
                i = j
                continue
            if c == "(":
                paren_depth += 1
                append(Token(TokenKind.LPAREN, c, lineno))
                i += 1
                continue
            if c == ")":
                if paren_depth == 0:
                    raise ScanError("unbalanced ')'", self.filename, lineno)
                paren_depth -= 1
                append(Token(TokenKind.RPAREN, c, lineno))
                i += 1
                continue
            if paren_depth > 0 and c == "+":
                append(Token(TokenKind.PLUS, c, lineno))
                i += 1
                continue
            if paren_depth > 0 and c == "-":
                append(Token(TokenKind.MINUS, c, lineno))
                i += 1
                continue
            if c in SINGLE_CHAR:
                append(Token(SINGLE_CHAR[c], c, lineno))
                i += 1
                continue
            if c in OP_CHARS:
                append(Token(TokenKind.OP, c, lineno))
                i += 1
                continue
            if c == '"':
                j = line.find('"', i + 1)
                if j < 0:
                    raise ScanError("unterminated string",
                                    self.filename, lineno)
                append(Token(TokenKind.STRING, line[i + 1:j], lineno))
                i = j + 1
                continue
            raise ScanError(f"unexpected character {c!r}",
                            self.filename, lineno)
        return paren_depth


def number(text: str, filename: str, lineno: int) -> int:
    """The value of a digit run; past ``int()``'s digit limit (Python
    3.11+ refuses to convert over 4,300 digits) a :class:`ScanError`,
    not a bare ``ValueError``."""
    try:
        return int(text)
    except ValueError:
        raise ScanError(f"number of {len(text)} digits is too long",
                        filename, lineno) from None


def scan_text(text: str, filename: str = "<stdin>") -> list[Token]:
    """Convenience: tokenize ``text`` with the hand-rolled scanner."""
    return Scanner(text, filename).tokens()
