"""Table-driven DFA scanner: the stand-in for *lex* (experiment E3).

The paper: "We experimented with lex for transforming the raw input into
lexical tokens, but were disappointed with its performance: half the run
time was spent in the scanner."  lex compiles regular expressions into a
character-indexed DFA transition table and interprets it with maximal
munch; that per-character table interpretation is exactly what this
module does.  It shares the logical-line driver with the hand scanner
(comments, continuation, NEWLINE emission) so the two differ only in how
a physical line is tokenized — the part lex would have generated.

Both scanners are verified token-for-token identical by property tests.
"""

from __future__ import annotations

from repro.errors import ScanError
from repro.parser.scanner import Scanner, number
from repro.parser.tokens import (
    COST_NAME_CHARS,
    DIGITS,
    NAME_CHARS,
    OP_CHARS,
    SINGLE_CHAR,
    Token,
    TokenKind,
)

# DFA states.
_START, _NAME, _NUMBER, _STRING, _STRING_END, _PUNCT = range(6)

#: Accepting states and the token kind they emit.
_ACCEPT = {
    _NAME: TokenKind.NAME,
    _NUMBER: TokenKind.NUMBER,
    _STRING_END: TokenKind.STRING,
    _PUNCT: None,  # resolved from the lexeme text
}

#: Default transitions, taken on any character the state's row lacks:
#: what a complemented class like lex's ``[^"]`` compiles to.  Inside a
#: string every character but the closing quote stays in the string,
#: as in the hand scanner.
_DEFAULT = {_STRING: _STRING}


def _build_table(cost_context: bool) -> dict[int, dict[str, int]]:
    """Construct the char-indexed transition table, lex-style.

    Two tables exist because cost context changes the character classes:
    inside parentheses ``+``/``-`` are operators and digits start
    numbers; outside, both are name characters (digit runs that stand
    alone still accept as NUMBER via the _NUMBER state).
    """
    name_chars = COST_NAME_CHARS if cost_context else NAME_CHARS
    punct = set(SINGLE_CHAR) | OP_CHARS
    if cost_context:
        punct |= {"+", "-"}

    table: dict[int, dict[str, int]] = {
        _START: {}, _NAME: {}, _NUMBER: {}, _STRING: {},
    }
    for c in name_chars:
        table[_NAME][c] = _NAME
        if c in DIGITS:
            table[_START][c] = _NUMBER
        else:
            table[_START][c] = _NAME
    for c in DIGITS:
        table[_NUMBER][c] = _NUMBER
        # A digit run extending into name characters becomes a name
        # (maximal munch does the disambiguation): only outside cost
        # context, where identifiers may begin with digits.
    if not cost_context:
        for c in name_chars - DIGITS:
            table[_NUMBER][c] = _NAME
    for c in punct:
        table[_START][c] = _PUNCT
    table[_START]['"'] = _STRING
    table[_STRING]['"'] = _STRING_END
    return table


_TABLE_NORMAL = _build_table(cost_context=False)
_TABLE_COST = _build_table(cost_context=True)


class LexScanner(Scanner):
    """Scanner whose per-line loop interprets a DFA transition table."""

    def _scan_line(self, line: str, lineno: int, paren_depth: int,
                   out: list[Token]) -> int:
        i = 0
        n = len(line)
        append = out.append
        while i < n:
            c = line[i]
            if c in " \t":
                i += 1
                continue
            table = _TABLE_COST if paren_depth > 0 else _TABLE_NORMAL
            state = _START
            j = i
            last_accept = -1
            last_state = -1
            # Maximal munch: advance the DFA as far as possible,
            # remembering the most recent accepting position.
            while j < n:
                row = table.get(state)
                if row is None:
                    break
                nxt = row.get(line[j])
                if nxt is None:
                    nxt = _DEFAULT.get(state)
                    if nxt is None:
                        break
                state = nxt
                j += 1
                if state in _ACCEPT:
                    last_accept = j
                    last_state = state
            if last_accept < 0:
                raise ScanError(f"unexpected character {line[i]!r}",
                                self.filename, lineno)
            lexeme = line[i:last_accept]
            kind = _ACCEPT[last_state]
            if last_state == _PUNCT:
                if lexeme == "(":
                    paren_depth += 1
                    append(Token(TokenKind.LPAREN, lexeme, lineno))
                elif lexeme == ")":
                    if paren_depth == 0:
                        raise ScanError("unbalanced ')'",
                                        self.filename, lineno)
                    paren_depth -= 1
                    append(Token(TokenKind.RPAREN, lexeme, lineno))
                elif lexeme == "+":
                    append(Token(TokenKind.PLUS, lexeme, lineno))
                elif lexeme == "-":
                    append(Token(TokenKind.MINUS, lexeme, lineno))
                elif lexeme in SINGLE_CHAR:
                    append(Token(SINGLE_CHAR[lexeme], lexeme, lineno))
                else:
                    append(Token(TokenKind.OP, lexeme, lineno))
            elif kind is TokenKind.NUMBER:
                append(Token(kind, lexeme, lineno,
                             value=number(lexeme, self.filename, lineno)))
            elif kind is TokenKind.STRING:
                if len(lexeme) < 2 or not lexeme.endswith('"'):
                    raise ScanError("unterminated string",
                                    self.filename, lineno)
                append(Token(kind, lexeme[1:-1], lineno))
            else:
                append(Token(kind, lexeme, lineno))
            i = last_accept
        return paren_depth
