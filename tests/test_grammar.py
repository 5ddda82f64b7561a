"""Unit tests for the recursive-descent grammar."""

import pytest

from repro.errors import CostExpressionError, ParseError
from repro.parser.ast import (
    AdjustDecl,
    AliasDecl,
    DeadDecl,
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
from repro.parser.grammar import Parser, parse_text
from repro.parser.scanner import Scanner
from repro.parser.tokens import Token, TokenKind


def one(text: str):
    decls = parse_text(text)
    assert len(decls) == 1
    return decls[0]


class TestHostDecl:
    def test_basic_links(self):
        decl = one("a b(10), c(20)")
        assert isinstance(decl, HostDecl)
        assert decl.name == "a"
        assert [(l.name, l.cost) for l in decl.links] == \
            [("b", 10), ("c", 20)]

    def test_default_operator_is_bang_left(self):
        decl = one("a b(10)")
        link = decl.links[0]
        assert link.op == "!"
        assert link.direction is Direction.LEFT

    def test_prefix_at_is_right(self):
        decl = one("a @b(10)")
        link = decl.links[0]
        assert link.op == "@"
        assert link.direction is Direction.RIGHT

    def test_postfix_bang_is_left_explicit(self):
        decl = one("a b!(10)")
        link = decl.links[0]
        assert link.op == "!"
        assert link.direction is Direction.LEFT

    def test_percent_and_colon_operators(self):
        decl = one("a %b(1), c:(2)")
        assert decl.links[0].op == "%"
        assert decl.links[0].direction is Direction.RIGHT
        assert decl.links[1].op == ":"
        assert decl.links[1].direction is Direction.LEFT

    def test_cost_optional(self):
        decl = one("a b")
        assert decl.links[0].cost is None

    def test_symbolic_cost_evaluated(self):
        decl = one("a b(HOURLY*4)")
        assert decl.links[0].cost == 2000

    def test_operator_on_both_sides_rejected(self):
        with pytest.raises(ParseError):
            parse_text("a @b!(10)")

    def test_multiline_continuation(self):
        decl = one("a b(10),\n\tc(20)")
        assert len(decl.links) == 2

    def test_source_coordinates(self):
        decls = parse_text("x y\na b(10)", filename="d.map")
        assert decls[1].filename == "d.map"
        assert decls[1].line == 2


class TestNetDecl:
    def test_plain_net(self):
        decl = one("UNC-dwarf = {dopey, grumpy, sleepy}(10)")
        assert isinstance(decl, NetDecl)
        assert decl.members == ("dopey", "grumpy", "sleepy")
        assert decl.cost == 10
        assert decl.op == "!"

    def test_arpa_style_net(self):
        decl = one("ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)")
        assert decl.op == "@"
        assert decl.direction is Direction.RIGHT
        assert decl.cost == 95

    def test_postfix_operator_net(self):
        decl = one("NET = {a, b}!(10)")
        assert decl.op == "!"
        assert decl.direction is Direction.LEFT

    def test_cost_optional(self):
        decl = one("NET = {a, b}")
        assert decl.cost is None

    def test_domain_net(self):
        decl = one(".edu = {.rutgers}")
        assert decl.name == ".edu"
        assert decl.members == (".rutgers",)

    def test_operator_both_sides_rejected(self):
        with pytest.raises(ParseError):
            parse_text("NET = @{a}!(10)")


class TestAliasDecl:
    def test_single_alias(self):
        decl = one("princeton = fun")
        assert isinstance(decl, AliasDecl)
        assert decl.aliases == ("fun",)

    def test_multiple_aliases(self):
        decl = one("nosc = noscvax, nosc-arpa")
        assert decl.aliases == ("noscvax", "nosc-arpa")

    def test_operator_without_braces_rejected(self):
        with pytest.raises(ParseError):
            parse_text("a = @b")


class TestKeywordDecls:
    def test_private(self):
        decl = one("private {bilbo, frodo}")
        assert isinstance(decl, PrivateDecl)
        assert decl.names == ("bilbo", "frodo")

    def test_gatewayed(self):
        decl = one("gatewayed {ARPA, CSNET}")
        assert isinstance(decl, GatewayedDecl)

    def test_dead_hosts_and_links(self):
        decl = one("dead {vortex, a!b, c@d}")
        assert isinstance(decl, DeadDecl)
        assert decl.hosts == ("vortex",)
        assert decl.links == (("a", "b"), ("c", "d"))

    def test_delete(self):
        decl = one("delete {x, y!z}")
        assert isinstance(decl, DeleteDecl)
        assert decl.hosts == ("x",)
        assert decl.links == (("y", "z"),)

    def test_adjust(self):
        decl = one("adjust {vortex(100), wheel(-50)}")
        assert isinstance(decl, AdjustDecl)
        assert decl.adjustments == (("vortex", 100), ("wheel", -50))

    def test_adjust_requires_cost(self):
        with pytest.raises(ParseError):
            parse_text("adjust {vortex}")

    def test_file(self):
        decl = one('file "d.region1"')
        assert isinstance(decl, FileDecl)
        assert decl.name == "d.region1"

    def test_keyword_only_at_statement_start(self):
        """A host may still link to a machine named like a keyword."""
        decl = one("a dead(10)")
        assert isinstance(decl, HostDecl)
        assert decl.links[0].name == "dead"


class TestCaseFolding:
    def test_fold_lower(self):
        decls = parse_text("Princeton TOPAZ(10)", case_fold=True)
        assert decls[0].name == "princeton"
        assert decls[0].links[0].name == "topaz"

    def test_no_fold_by_default(self):
        decls = parse_text("Princeton TOPAZ(10)")
        assert decls[0].name == "Princeton"


class TestErrors:
    def test_statement_must_start_with_name(self):
        with pytest.raises(ParseError):
            parse_text(", a b")

    def test_trailing_junk(self):
        with pytest.raises(ParseError):
            parse_text("a b(10) {")

    def test_unclosed_brace(self):
        with pytest.raises(ParseError):
            parse_text("NET = {a, b")

    def test_empty_input_ok(self):
        assert parse_text("") == []
        assert parse_text("# only comments\n\n") == []

    def test_multiple_statements(self):
        decls = parse_text("a b(1)\nc d(2)\nNET = {x, y}(3)")
        assert len(decls) == 3


class TestInlineCost:
    """The parser evaluates a lone ``(NAME)`` or ``(NUMBER)`` cost
    itself; every cost must still read as CostExpression reads it."""

    @staticmethod
    def evaluate(run):
        try:
            return run(), None
        except CostExpressionError as exc:
            return None, (str(exc), exc.message, exc.line)

    @pytest.mark.parametrize("cost,value", [
        ("(DAILY)", 5000),
        ("(7)", 7),
        ("(NOSUCH)", None),
        ("((DAILY))", 5000),
        ("(DAILY*2)", 10000),
    ])
    def test_matches_cost_expression(self, cost, value):
        text = f"# header\n\na\tb{cost}, c\n"
        tokens = Scanner(text, "m").tokens()
        lparen = [t.kind for t in tokens].index(TokenKind.LPAREN)
        want = self.evaluate(
            lambda: CostExpression(tokens, lparen + 1, "m").parse())
        got = self.evaluate(
            lambda: parse_text(text, "m")[0].links[0].cost)
        assert got == want
        assert got[0] == value
        if value is None:
            assert got[1] == ('"m", line 3: unknown cost symbol '
                              "'NOSUCH'", "unknown cost symbol 'NOSUCH'",
                              3)

    def test_custom_symbol_table(self):
        tokens = Scanner("a b(X), c(HOURLY*0+X)").tokens()
        decl = Parser(tokens, symbols={"X": 21, "HOURLY": 1}).parse()[0]
        assert [l.cost for l in decl.links] == [21, 21]
        with pytest.raises(CostExpressionError):
            Parser(Scanner("a b(HOURLY)").tokens(),
                   symbols={"X": 21}).parse()


class TestValueClasses:
    """Token, LinkSpec and HostDecl are slotted classes with a frozen
    dataclass's value semantics."""

    MAKERS = [
        lambda: Token(TokenKind.NUMBER, "7", 3, 7),
        lambda: LinkSpec("b", "@", Direction.RIGHT, 10),
        lambda: HostDecl("a", (LinkSpec("b", cost=10),), "m", 2),
    ]

    @pytest.mark.parametrize("make", MAKERS)
    def test_hashable_and_equal_by_value(self, make):
        x, y = make(), make()
        assert x is not y
        assert x == y
        assert hash(x) == hash(y)
        assert len({x, y}) == 1
        assert not hasattr(x, "__dict__")

    @pytest.mark.parametrize("make", MAKERS)
    def test_unequal_to_other_classes_with_same_fields(self, make):
        x = make()
        fields = tuple(getattr(x, name) for name in x.__slots__)
        twin = type("Twin", (type(x),), {})(*fields)
        for other in (twin, fields):
            assert x != other
            assert other != x
        assert hash(x) == hash(fields)

    def test_defaults(self):
        assert Token(TokenKind.NAME, "a", 1).value == 0
        assert LinkSpec("b") == LinkSpec(
            name="b", op="!", direction=Direction.LEFT, cost=None)
        assert HostDecl("a", ()) == HostDecl(
            name="a", links=(), filename="<stdin>", line=0)

    def test_reprs(self):
        assert repr(Token(TokenKind.NUMBER, "7", 3, 7)) == \
            "Token(NUMBER, '7', line 3)"
        assert repr(LinkSpec("b", cost=10)) == (
            "LinkSpec(name='b', op='!', "
            "direction=<Direction.LEFT: 'left'>, cost=10)")
        assert repr(HostDecl("a", (LinkSpec("b", "@", Direction.RIGHT),))) \
            == ("HostDecl(name='a', links=(LinkSpec(name='b', op='@', "
                "direction=<Direction.RIGHT: 'right'>, cost=None),), "
                "filename='<stdin>', line=0)")
