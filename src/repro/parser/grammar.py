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
"""

from __future__ import annotations

from repro.config import COST_SYMBOLS
from repro.errors import CostExpressionError, ParseError
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
from repro.parser.costexpr import CostExpression
from repro.parser.scanner import Scanner
from repro.parser.tokens import Token, TokenKind

#: Statement keywords, recognized only in statement-initial position so
#: that e.g. a host may still link *to* a machine named "dead".
KEYWORDS = frozenset({"private", "dead", "adjust", "delete", "file",
                      "gatewayed"})


class Parser:
    """Parse a token stream into a list of declarations."""

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
        """Parse every statement; raises ParseError on the first bad one."""
        decls: list[Declaration] = []
        while self._peek().kind is not TokenKind.EOF:
            if self._peek().kind is TokenKind.NEWLINE:
                self._advance()
                continue
            decls.append(self._statement())
        return decls

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
    """Scan and parse ``text`` into declarations."""
    tokens = scanner_class(text, filename).tokens()
    return Parser(tokens, filename, case_fold).parse()
