"""The parser's statement-level fast path, held to the token path.

A parser built by ``Parser.from_text`` with the hand scanner (the path
``parse_text`` and ``Pathalias.build`` take) recognises a whole
common-shape host line, ``host<TAB>name(COST), ...``, with one regular
expression; every other statement goes through ``Scanner`` and the
token parser.  These tests are the fast path's only guard (the compile
benchmark's reference digest goes through the same
``Pathalias.build``): its declarations must equal
``Parser(Scanner(text).tokens()).parse()``, fields and line included,
under both ``case_fold`` values, and a bad input must fail with the
same error type and ``pretty()`` text.
"""

from __future__ import annotations

import functools
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.pathalias import Pathalias
from repro.errors import InputError
from repro.netsim.churn import ChurnParams, ChurnScenario
from repro.netsim.mapgen import MapParams, generate_map
from repro.netsim.writer import render_declaration, render_file
from repro.parser.ast import (
    AliasDecl,
    Direction,
    HostDecl,
    LinkSpec,
    NetDecl,
)
from repro.parser.grammar import KEYWORDS, Parser, parse_text
from repro.parser.lexgen import LexScanner
from repro.parser.scanner import Scanner

DATA = Path(__file__).parent / "data"
FIXTURES = sorted(DATA.glob("d.*"))


def outcome(parse):
    """The declarations ``parse()`` returns, or its error's type and
    text."""
    try:
        return parse()
    except InputError as exc:
        return type(exc), exc.pretty()


def assert_same(text: str, filename: str = "m", case_fold: bool = False,
                symbols: dict[str, int] | None = None) -> None:
    want = outcome(lambda: Parser(Scanner(text, filename).tokens(),
                                  filename, case_fold, symbols).parse())
    got = outcome(lambda: Parser.from_text(text, filename, case_fold,
                                           symbols=symbols).parse())
    assert got == want


@functools.lru_cache(maxsize=None)
def generated(preset: str, seed: int):
    return generate_map(getattr(MapParams, preset)(seed))


class TestDifferential:
    @pytest.mark.parametrize("case_fold", [False, True])
    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.name)
    def test_fixture_maps(self, path, case_fold):
        assert_same(path.read_text(), path.name, case_fold)

    @pytest.mark.parametrize("case_fold", [False, True])
    @pytest.mark.parametrize("seed", [1, 7, 2024])
    @pytest.mark.parametrize("preset", ["small", "medium", "usenet_1986"])
    def test_generated_maps(self, preset, seed, case_fold):
        for filename, text in generated(preset, seed).files:
            assert_same(text, filename, case_fold)

    @pytest.mark.parametrize("case_fold", [False, True])
    def test_churn_map(self, case_fold):
        scenario = ChurnScenario(ChurnParams(nodes=600, events=1, seed=5))
        for name, text in scenario.map_files().items():
            assert_same(text, name, case_fold)

    def test_caller_symbols_are_honoured(self):
        text = "a\tb(X), c(X*2), d(HOURLY)\ne\tf(X/4)\n"
        assert_same(text, symbols={"X": 21, "HOURLY": 1})
        assert_same(text, symbols={"X": 21})  # HOURLY unknown: an error
        decl = parse_text("a\tb(DAILY/2)")[0]
        assert decl.links[0].cost == 2500


#: Statements just off the common shape: each must take the token path
#: (or give the same declarations if it is taken).
NEAR_MISSES = [
    "a\tb(1)  # trailing comment",
    "# a comment line",
    "   ",
    "\t# an indented comment",
    "a = b, c",
    "NET = {a, b, c}(DAILY)",
    "NET = @{a, b}(10)",
    "a\t{b}",
    "a\t@b(1)",
    "a\tb!(1)",
    "a\t%b, c:(2)",
    'file "x.map"',
    'x ")" (',
    "a\tb(1), ça(2)",
    "a\tb(HOURLY+1)",
    "a\tb(DAILY-2)",
    "a\tb( 1 )",
    "a\tb(1)\r",
    "a\tb(1),",
    "a\tb(1),,c",
    "dead\tb(1)",
    "Dead\tb(1)",
    "private {a}",
    "123\tb(1)",
    "a\t123(1)",
    "4votes\t1a(1), .edu(2), +x(3), -y",
    "a\tb(1)\n\tc(2)",
    "a\tb(1), \\\nc(2)",
    "a\tb(1\n)",
    "a\tb((1)",
    "a\tb(1))",
    "a\tb(1 # )\nc\td(2)",
    "a\tb(NOPE)",
    "a\tb(1/0)",
    "a\tb(12ab)",
    "a\tb(1.5)",
    "a\tb()",
    "a b c",
    "\ta\tb(1)",
    "a\tb(" + "9" * 5000 + ")",
    "a\tb(HOURLY*3), c(DAILY/2), d(007), e",
    "a\x0cb(1)",
    "a\tb(1)\x0b",
    "a\tb(1)\n \n",
    "a\tb(HIGH)",
]

#: Cost texts for generated host lines: lone symbols and numbers, the
#: operator-free expressions the fast path evaluates, and ones it must
#: decline.
COST_TEXTS = ["DEMAND", "HOURLY", "7", "007", "0", "HOURLY*3", "DAILY/2",
              "HIGH", "daily", "NOPE", "1/0", "12ab", "1.5", "HOURLY+1",
              "DAILY-2", " 1 ", ""]

names = st.one_of(
    st.from_regex(r"[A-Za-z0-9._+-]{1,6}", fullmatch=True),
    st.sampled_from(sorted(KEYWORDS) + ["Dead", "PRIVATE", "123", "4votes",
                                        ".edu", "-"]))

link_specs = st.builds(
    LinkSpec, name=names, op=st.sampled_from("!!!@:%"),
    direction=st.sampled_from(list(Direction)),
    cost=st.one_of(st.none(), st.integers(0, 99999)))

declarations = st.one_of(
    st.builds(HostDecl, name=names,
              links=st.lists(link_specs, min_size=1, max_size=5).map(tuple)),
    st.builds(NetDecl, name=names,
              members=st.lists(names, min_size=1, max_size=4).map(tuple),
              op=st.sampled_from("!@"),
              direction=st.sampled_from(list(Direction)),
              cost=st.one_of(st.none(), st.integers(0, 9999))),
    st.builds(AliasDecl, name=names,
              aliases=st.lists(names, min_size=1, max_size=3).map(tuple)))


@st.composite
def host_lines(draw) -> str:
    """A host line with symbolic costs and varied spacing."""
    links = draw(st.lists(st.tuples(names, st.sampled_from(COST_TEXTS)),
                          min_size=1, max_size=5))
    gap = draw(st.sampled_from(["\t", " ", " \t "]))
    comma = draw(st.sampled_from([", ", ",", " , ", ",\t"]))
    body = comma.join(f"{name}({cost})" if cost else name
                      for name, cost in links)
    return f"{draw(names)}{gap}{body}{draw(st.sampled_from(['', ' ']))}"


map_texts = st.lists(
    st.one_of(declarations.map(render_declaration), host_lines(),
              st.sampled_from(NEAR_MISSES)),
    max_size=8,
).map(lambda pieces: "\n".join(pieces))


class TestNearMisses:
    @pytest.mark.parametrize("case_fold", [False, True])
    @pytest.mark.parametrize("miss", NEAR_MISSES,
                             ids=[f"{i:02d}" for i in range(len(NEAR_MISSES))])
    def test_alone_and_between_common_lines(self, miss, case_fold):
        assert_same(miss, case_fold=case_fold)
        assert_same(f"x\ty(1), z\n{miss}\nw\tv(DEMAND)\n",
                    case_fold=case_fold)

    @given(map_texts, st.booleans())
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_generated_texts(self, text, case_fold):
        assert_same(text, case_fold=case_fold)
        assert_same(text + "\n", case_fold=case_fold)

    @given(st.lists(declarations, max_size=8), st.booleans())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_rendered_files(self, decls, case_fold):
        assert_same(render_file(decls, banner="generated\nmap"),
                    case_fold=case_fold)


def scanned_texts(monkeypatch) -> list:
    """Start recording ``(scanner class, text)`` for every scan."""
    seen = []
    real = Scanner.tokens

    def tokens(self):
        seen.append((type(self), self.text))
        return real(self)

    monkeypatch.setattr(Scanner, "tokens", tokens)
    return seen


class TestWhichPathRuns:
    def test_common_host_lines_never_reach_the_scanner(self, monkeypatch):
        """Fails if the fast path stops taking the common shape: every
        host line of d.backbone has it, so the token scanner sees the
        file with each of them blanked."""
        text = (DATA / "d.backbone").read_text()
        want = Parser(Scanner(text).tokens(), "d.backbone").parse()
        hosts = {d.line for d in want if isinstance(d, HostDecl)}
        assert len(hosts) == 7
        seen = scanned_texts(monkeypatch)
        assert parse_text(text, "d.backbone") == want
        blanked = "\n".join("" if number in hosts else line
                            for number, line
                            in enumerate(text.split("\n"), start=1))
        assert seen == [(Scanner, blanked)]

    def test_lex_scans_each_whole_file(self, monkeypatch):
        """``pathalias --lex`` stays the E3 baseline: LexScanner
        tokenizes every file's full text, and the hand scanner never
        runs."""
        files = [(path.name, path.read_text()) for path in FIXTURES]
        seen = scanned_texts(monkeypatch)
        graph = Pathalias(scanner_class=LexScanner).build(files)
        assert seen == [(LexScanner, text) for _, text in files]
        assert graph.link_count == Pathalias().build(files).link_count

    def test_compact_compile_equals_the_lex_token_path(self):
        """A compile-level oracle that shares no fast-path code: the
        route table through the fast path equals the one through
        LexScanner and the token parser."""
        usenet = generated("usenet_1986", 1986)
        fast = Pathalias(engine="compact").run_texts(usenet.files,
                                                     usenet.localhost)
        lex = Pathalias(engine="compact", scanner_class=LexScanner) \
            .run_texts(usenet.files, usenet.localhost)
        assert fast.format_tab() == lex.format_tab()
        assert len(fast) > 8000
