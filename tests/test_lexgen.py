"""The DFA scanner must produce token-identical output to the hand one."""

import pytest

from repro.errors import ScanError
from repro.parser.lexgen import LexScanner
from repro.parser.scanner import Scanner

SAMPLES = [
    "a b(10), c(20)",
    "a @b(10), @c(20)",
    "a b!(10), c!(20)",
    "UNC-dwarf = {dopey, grumpy, sleepy}(10)",
    "ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)",
    "unc\tduke(HOURLY), phs(HOURLY*4)",
    "duke\tunc(DEMAND), research(DAILY/2), phs(DEMAND)",
    "private {bilbo}\nbilbo\twiretap(10)",
    "dead {a!b, c}",
    "adjust {vortex(HIGH), foo(-5+10)}",
    'file "d.region7"',
    "x\ty(((1+2))*3)",
    "a b(10),\n\tc(20), \\\nd(30)",
    "# comment only\n\n\nq r\n",
    ".edu = {.rutgers}",
    "3com 4votes(5)",
    "gatewayed {ARPA, CSNET}",
    'file "a\tb"',
    'file "café"',
]


@pytest.mark.parametrize("text", SAMPLES)
def test_token_streams_identical(text):
    hand = Scanner(text, "x").tokens()
    dfa = LexScanner(text, "x").tokens()
    assert hand == dfa


def test_errors_raised_on_same_inputs():
    for bad in ("a ;", "a b)"):
        with pytest.raises(ScanError):
            Scanner(bad).tokens()
        with pytest.raises(ScanError):
            LexScanner(bad).tokens()


def test_large_input_equivalence():
    from repro.netsim.mapgen import MapParams, generate_map

    generated = generate_map(MapParams.small(seed=7))
    for name, text in generated.files:
        assert Scanner(text, name).tokens() == \
            LexScanner(text, name).tokens()


def test_dfa_is_table_driven():
    """Guard the experimental setup: the lex stand-in interprets
    transition tables (per-character dict lookups), it does not call the
    hand scanner."""
    import repro.parser.lexgen as lexgen

    assert lexgen._TABLE_NORMAL is not lexgen._TABLE_COST
    assert lexgen.LexScanner._scan_line is not Scanner._scan_line
