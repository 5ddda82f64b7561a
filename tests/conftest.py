"""Shared fixtures: the paper's worked examples as reusable inputs."""

from __future__ import annotations

import pytest

#: The "simplified portion of the map from 1981" (OUTPUT section).
PAPER_1981_MAP = """\
unc\tduke(HOURLY), phs(HOURLY*4)
duke\tunc(DEMAND), research(DAILY/2), phs(DEMAND)
phs\tunc(HOURLY*4), duke(HOURLY)
research\tduke(DEMAND), ucbvax(DEMAND)
ucbvax\tresearch(DAILY)
ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)
"""

#: The output the paper prints for it, verbatim (tab-separated here).
PAPER_1981_OUTPUT = [
    (0, "unc", "%s"),
    (500, "duke", "duke!%s"),
    (800, "phs", "duke!phs!%s"),
    (3000, "research", "duke!research!%s"),
    (3300, "ucbvax", "duke!research!ucbvax!%s"),
    (3395, "mit-ai", "duke!research!ucbvax!%s@mit-ai"),
    (3395, "stanford", "duke!research!ucbvax!%s@stanford"),
]

#: The domain-tree example (Domains section): seismo gateways .edu,
#: .rutgers under .edu, caip under .rutgers.
DOMAIN_TREE_MAP = """\
local\tseismo(DEDICATED)
seismo\tlocal(DEDICATED), .edu(DEDICATED)
.edu = {.rutgers}
.rutgers = {caip}
caip\tblue(LOCAL)
blue\tcaip(LOCAL)
"""

#: The PROBLEMS-section graph: the shortest-path tree cannot express the
#: route set we want (motown via topaz-direct, topaz via the domain).
MOTOWN_MAP = """\
princeton\tcaip(200), topaz(300)
caip\tprinceton(200), .rutgers.edu(25)
.rutgers.edu = {topaz}
topaz\tmotown(200), princeton(300)
motown\ttopaz(200)
"""


@pytest.fixture
def v1_stamped(tmp_path):
    """A factory: copy a snapshot with its header's version field set
    to 1, the retired format.  The field sits outside the payload CRC,
    so only the reader's version check can refuse the copy."""
    from pathlib import Path

    def stamp(snapshot) -> Path:
        data = bytearray(Path(snapshot).read_bytes())
        data[8:12] = (1).to_bytes(4, "little")
        out = tmp_path / "format-v1.snap"
        out.write_bytes(bytes(data))
        return out

    return stamp


@pytest.fixture
def paper_map() -> str:
    return PAPER_1981_MAP


@pytest.fixture
def domain_map() -> str:
    return DOMAIN_TREE_MAP


@pytest.fixture
def motown_map() -> str:
    return MOTOWN_MAP


def run_paper(text: str, localhost: str, **kwargs):
    """Run the facade on a single text; small helper used everywhere."""
    from repro import Pathalias

    return Pathalias(**kwargs).run_text(text, localhost=localhost)


def stored_tree_links(reader, source: str) -> set:
    """Every ``(from, to)`` pair in ``source``'s ``TREE`` block, decoded
    whole from the section bytes — the reference the point query
    ``SnapshotTable.has_tree_link`` is checked against."""
    import struct

    data = reader.table_bytes(source)
    blocks = {tag: data[off:off + length] for tag, off, length
              in reader.table(source).block_map()}
    blob = blocks["BLOB"]

    def text(off: int, length: int) -> str:
        return blob[off:off + length].decode("utf-8")

    return {(text(aoff, alen), text(boff, blen)) for aoff, alen, boff, blen
            in struct.iter_unpack("<IIII", blocks["TREE"])}
