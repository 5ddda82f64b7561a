"""Recursive-descent grammar over the token stream.

The original used yacc with syntax-directed translation; the grammar is
small enough that recursive descent is clearer in Python.  Statements:

    hostdecl   := NAME linklist
    linklist   := link { ',' link }
    link       := [OP] NAME [OP] [ '(' costexpr ')' ]
    netdecl    := NAME '=' [OP] '{' namelist '}' [OP] [ '(' costexpr ')' ]
    aliasdecl  := NAME '=' NAME { ',' NAME }
    private    := 'private' '{' namelist '}'
    dead       := 'dead' '{' deaditem { ',' deaditem } '}'
    deaditem   := NAME [ OP NAME ]
    adjust     := 'adjust' '{' NAME '(' costexpr ')' { ',' ... } '}'
    delete     := 'delete' '{' deaditem { ',' deaditem } '}'
    filedecl   := 'file' STRING
    gatewayed  := 'gatewayed' '{' namelist '}'

A link may carry its routing operator before the name (host appears on
the RIGHT of the operator in addresses: ``@b`` means ``%s@b``) or after
it (host on the LEFT: ``b!`` means ``b!%s``); bare names default to
``!`` LEFT.

Nearly every statement of a real map has one shape, a host and its
operator-free link list on one line (``host<TAB>name(COST), ...``).  A
parser built by :meth:`Parser.from_text` with the hand scanner
recognises such a line whole with one regular expression and builds its
:class:`HostDecl` directly; every other statement is scanned and parsed
token by token, and the two lists are merged by line.  The declarations,
and any error, are those of the token path.
"""

from __future__ import annotations

import re
from operator import attrgetter

from repro.config import COST_SYMBOLS
from repro.errors import CostExpressionError, InputError, ParseError
from repro.parser.ast import (
    AdjustDecl,
    AliasDecl,
    DeadDecl,
    Declaration,
    DeleteDecl,
    Direction,
    FileDecl,
    GatewayedDecl,
    HostDecl,
    LinkSpec,
    NetDecl,
    PrivateDecl,
)
from repro.parser.costexpr import CostExpression, evaluate_cost
from repro.parser.scanner import Scanner
from repro.parser.tokens import Token, TokenKind

#: Statement keywords, recognized only in statement-initial position so
#: that e.g. a host may still link *to* a machine named "dead".
KEYWORDS = frozenset({"private", "dead", "adjust", "delete", "file",
                      "gatewayed"})

#: A name the scanner reads as one NAME token: name characters, at
#: least one of them not a digit (an all-digit run is a NUMBER).
_NAME = r"[0-9]*[A-Za-z._+-][A-Za-z0-9._+-]*"
#: An operator-free cost: cost-context names, numbers, ``*`` and ``/``.
_COST = r"[A-Za-z0-9._*/]+"
_LINK = rf"{_NAME}(?:[ \t]*\({_COST}\))?"
#: The common host statement, matched against one whole physical line.
_HOST_LINE = re.compile(
    rf"({_NAME})[ \t]+{_LINK}(?:[ \t]*,[ \t]*{_LINK})*[ \t]*")
#: One link of a matched line: its name and its cost text ('' if none).
_LINKS = re.compile(rf"({_NAME})(?:[ \t]*\(({_COST})\))?")
#: Memo entry of a cost text whose statement must take the token path.
_DECLINE = object()


class Parser:
    """Parse a token stream into a list of declarations.

    ``Parser(tokens)`` parses tokens a scanner already made;
    :meth:`from_text` builds a parser over a file's text.
    """

    def __init__(self, tokens: list[Token], filename: str = "<stdin>",
                 case_fold: bool = False,
                 symbols: dict[str, int] | None = None):
        self.tokens = tokens
        self.filename = filename
        self.case_fold = case_fold
        #: cost-symbol table: the paper's unless the caller passes one
        #: (experiments substitute alternatives, e.g. the additive-theory
        #: table)
        self.symbols = COST_SYMBOLS if symbols is None else symbols
        self.pos = 0
        #: the file text, when :meth:`parse` is to recognise common host
        #: statements whole and scan only the rest
        self.text: str | None = None

    @classmethod
    def from_text(cls, text: str, filename: str = "<stdin>",
                  case_fold: bool = False,
                  scanner_class: type[Scanner] = Scanner,
                  symbols: dict[str, int] | None = None) -> Parser:
        """A parser over ``text`` as ``scanner_class`` tokenizes it.

        With the hand :class:`Scanner`, the text is kept and
        :meth:`parse` takes the statement-level fast path.  Any other
        scanner (the lex-style baseline) tokenizes the whole text here,
        so its scan stays a phase of its own and every statement takes
        the token path.
        """
        if scanner_class is not Scanner:
            return cls(scanner_class(text, filename).tokens(), filename,
                       case_fold, symbols)
        parser = cls([], filename, case_fold, symbols)
        parser.text = text
        return parser

    # -- token plumbing -----------------------------------------------------

    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def _expect(self, kind: TokenKind, what: str) -> Token:
        tok = self._peek()
        if tok.kind is not kind:
            raise self._error(f"expected {what}, got {tok.text!r}")
        return self._advance()

    def _error(self, message: str) -> ParseError:
        return ParseError(message, self.filename, self._peek().line)

    def _name(self, what: str = "host name") -> str:
        tok = self._expect(TokenKind.NAME, what)
        return tok.text.lower() if self.case_fold else tok.text

    def _end_statement(self) -> None:
        tok = self._peek()
        if tok.kind is TokenKind.NEWLINE:
            self._advance()
        elif tok.kind is not TokenKind.EOF:
            raise self._error(f"trailing junk {tok.text!r} in statement")

    # -- statements ---------------------------------------------------------

    def parse(self) -> list[Declaration]:
        """Parse every statement; raises the first bad one's InputError."""
        if self.text is None:
            return self._statements()
        decls, rest = self._host_lines(self.text)
        if rest is None:
            return decls
        self.tokens = Scanner(rest, self.filename).tokens()
        self.pos = 0
        return sorted(decls + self._statements(), key=attrgetter("line"))

    def _statements(self) -> list[Declaration]:
        decls: list[Declaration] = []
        while self._peek().kind is not TokenKind.EOF:
            if self._peek().kind is TokenKind.NEWLINE:
                self._advance()
                continue
            decls.append(self._statement())
        return decls

    # -- the statement-level fast path ----------------------------------------

    def _host_lines(self, text: str) -> tuple[list[HostDecl], str | None]:
        """Build a :class:`HostDecl` for each line that is one whole
        common-shape host statement; return them with the text the
        token path must still parse (``None`` if there is none).

        A line is taken only where the token path would read it as
        exactly that statement: it starts at column 0, its host is no
        keyword, no name is all digits, every cost evaluates, and the
        next line does not start with a blank (a continuation).  No
        line is taken from a text with a backslash, a quote, or a line
        whose parentheses, comment aside, do not pair up by count: in
        any other text every line starts outside a cost and no line
        continues the one before it.  Taken lines are blanked in the
        returned text, so each remaining token keeps its line, and so
        does the NEWLINE that closes each remaining statement (a blank
        line closes a statement where the taken line did).
        """
        if "\\" in text or '"' in text:
            return [], text
        lines = text.split("\n")
        decls: list[HostDecl] = []
        costs: dict[str, object] = {}
        filename = self.filename
        fold = self.case_fold
        match = _HOST_LINE.fullmatch
        last = len(lines) - 1
        taken = declined = False
        for index, line in enumerate(lines):
            found = match(line)
            if found is not None and found.group(1) not in KEYWORDS \
                    and not (index < last and
                             lines[index + 1].startswith((" ", "\t"))):
                links = self._fast_links(line, found.end(1), costs)
                if links is not None:
                    host = found.group(1)
                    decls.append(HostDecl(host.lower() if fold else host,
                                          links, filename, index + 1))
                    lines[index] = ""
                    taken = True
                    continue
            # A taken line pairs its parentheses, so checking the lines
            # left is checking them all.
            code = line.partition("#")[0]
            if code.count("(") != code.count(")"):
                return [], text
            # a blank or comment-only line leaves the token path nothing
            declined = declined or bool(code.strip())
        if not declined:
            return decls, None
        return decls, "\n".join(lines) if taken else text

    def _fast_links(self, line: str, start: int,
                    costs: dict[str, object]) -> tuple[LinkSpec, ...] | None:
        """The links of a matched host line, or ``None`` if a cost would
        fail on the token path.  ``costs`` memoises each cost text."""
        fold = self.case_fold
        left = Direction.LEFT
        links = []
        for name, text in _LINKS.findall(line, start):
            cost = None
            if text:
                cost = costs.get(text)
                if cost is None:
                    cost = costs[text] = self._fast_cost(text)
                if cost is _DECLINE:
                    return None
            links.append(LinkSpec(name.lower() if fold else name, "!",
                                  left, cost))
        return tuple(links)

    def _fast_cost(self, text: str) -> object:
        """The value the token path gives an operator-free cost text, or
        ``_DECLINE`` where it would fail."""
        try:
            if text.isdigit():
                return int(text)
            if text[0].isdigit() or "*" in text or "/" in text:
                return evaluate_cost(text, self.symbols)
            return self.symbols[text]  # one NAME token: a symbol
        except (InputError, KeyError, ValueError):
            return _DECLINE

    def _statement(self) -> Declaration:
        tok = self._peek()
        if tok.kind is not TokenKind.NAME:
            raise self._error(f"statement must begin with a name, "
                              f"got {tok.text!r}")
        if tok.text in KEYWORDS:
            return self._keyword_statement(tok.text)
        name = self._name()
        if self._peek().kind is TokenKind.EQUALS:
            return self._equals_statement(name, tok.line)
        return self._host_statement(name, tok.line)

    def _host_statement(self, name: str, line: int) -> HostDecl:
        links = [self._link()]
        while self._peek().kind is TokenKind.COMMA:
            self._advance()
            links.append(self._link())
        self._end_statement()
        return HostDecl(name, tuple(links), self.filename, line)

    def _link(self) -> LinkSpec:
        op = None
        direction = None
        if self._peek().kind is TokenKind.OP:
            # Prefix operator: host on the RIGHT (user@host).
            op = self._advance().text
            direction = Direction.RIGHT
        name = self._name("link target")
        if self._peek().kind is TokenKind.OP:
            if op is not None:
                raise self._error("routing operator on both sides of name")
            # Postfix operator: host on the LEFT (host!user).
            op = self._advance().text
            direction = Direction.LEFT
        cost = self._optional_cost()
        if op is None:
            op, direction = "!", Direction.LEFT
        return LinkSpec(name, op, direction, cost)

    def _optional_cost(self) -> int | None:
        tokens, pos = self.tokens, self.pos
        if tokens[pos].kind is not TokenKind.LPAREN:
            return None
        # Most costs are a lone factor, "(DAILY)" or "(7)": evaluate
        # those inline, exactly as CostExpression would.
        tok = tokens[pos + 1]
        kind = tok.kind
        if (kind is TokenKind.NAME or kind is TokenKind.NUMBER) \
                and tokens[pos + 2].kind is TokenKind.RPAREN:
            self.pos = pos + 3
            if kind is TokenKind.NUMBER:
                return tok.value
            try:
                return self.symbols[tok.text]
            except KeyError:
                raise CostExpressionError(
                    f"unknown cost symbol {tok.text!r}",
                    self.filename, tok.line) from None
        self._advance()
        evaluator = CostExpression(self.tokens, self.pos, self.filename,
                                   symbols=self.symbols)
        cost = evaluator.parse()
        self.pos = evaluator.pos
        self._expect(TokenKind.RPAREN, "')' after cost")
        return cost

    def _equals_statement(self, name: str, line: int) -> Declaration:
        self._expect(TokenKind.EQUALS, "'='")
        op = None
        direction = None
        if self._peek().kind is TokenKind.OP:
            op = self._advance().text
            direction = Direction.RIGHT
        if self._peek().kind is TokenKind.LBRACE:
            return self._net_statement(name, line, op, direction)
        if op is not None:
            raise self._error("routing operator requires a {network}")
        # Alias list: name = a, b, c
        aliases = [self._name("alias")]
        while self._peek().kind is TokenKind.COMMA:
            self._advance()
            aliases.append(self._name("alias"))
        self._end_statement()
        return AliasDecl(name, tuple(aliases), self.filename, line)

    def _net_statement(self, name: str, line: int, op: str | None,
                       direction: Direction | None) -> NetDecl:
        members = self._brace_list("network member")
        if self._peek().kind is TokenKind.OP:
            if op is not None:
                raise self._error("routing operator on both sides of "
                                  "network braces")
            op = self._advance().text
            direction = Direction.LEFT
        cost = self._optional_cost()
        self._end_statement()
        if op is None:
            op, direction = "!", Direction.LEFT
        return NetDecl(name, tuple(members), op, direction, cost,
                       self.filename, line)

    def _brace_list(self, what: str) -> list[str]:
        self._expect(TokenKind.LBRACE, "'{'")
        names = [self._name(what)]
        while self._peek().kind is TokenKind.COMMA:
            self._advance()
            names.append(self._name(what))
        self._expect(TokenKind.RBRACE, "'}'")
        return names

    # -- keyword statements ---------------------------------------------------

    def _keyword_statement(self, keyword: str) -> Declaration:
        line = self._peek().line
        self._advance()
        if keyword == "private":
            names = self._brace_list("private host")
            self._end_statement()
            return PrivateDecl(tuple(names), self.filename, line)
        if keyword == "gatewayed":
            names = self._brace_list("network name")
            self._end_statement()
            return GatewayedDecl(tuple(names), self.filename, line)
        if keyword == "file":
            tok = self._expect(TokenKind.STRING, "quoted file name")
            self._end_statement()
            return FileDecl(tok.text, self.filename, line)
        if keyword == "adjust":
            return self._adjust_statement(line)
        # dead / delete share the host-or-link item syntax.
        hosts, links = self._host_or_link_list()
        self._end_statement()
        if keyword == "dead":
            return DeadDecl(tuple(hosts), tuple(links), self.filename, line)
        return DeleteDecl(tuple(hosts), tuple(links), self.filename, line)

    def _adjust_statement(self, line: int) -> AdjustDecl:
        self._expect(TokenKind.LBRACE, "'{'")
        items: list[tuple[str, int]] = []
        while True:
            name = self._name("host to adjust")
            cost = self._optional_cost()
            if cost is None:
                raise self._error("adjust requires a (cost) per host")
            items.append((name, cost))
            if self._peek().kind is TokenKind.COMMA:
                self._advance()
                continue
            break
        self._expect(TokenKind.RBRACE, "'}'")
        self._end_statement()
        return AdjustDecl(tuple(items), self.filename, line)

    def _host_or_link_list(self) -> tuple[list[str], list[tuple[str, str]]]:
        self._expect(TokenKind.LBRACE, "'{'")
        hosts: list[str] = []
        links: list[tuple[str, str]] = []
        while True:
            first = self._name("host")
            if self._peek().kind is TokenKind.OP:
                self._advance()
                second = self._name("link target")
                links.append((first, second))
            else:
                hosts.append(first)
            if self._peek().kind is TokenKind.COMMA:
                self._advance()
                continue
            break
        self._expect(TokenKind.RBRACE, "'}'")
        return hosts, links


def parse_text(text: str, filename: str = "<stdin>",
               case_fold: bool = False,
               scanner_class: type[Scanner] = Scanner) -> list[Declaration]:
    """Scan and parse ``text`` into declarations (see
    :meth:`Parser.from_text`)."""
    return Parser.from_text(text, filename, case_fold, scanner_class).parse()
