"""The wire transcript: both daemons' reply bytes, pinned.

A fixed script of request lines per service runs through
``handle_line`` over the ``d.*`` fixture maps, once for each of three
settings: the default cache, ``cache_size=0`` and ``dispatch="dict"``.
The script covers every verb and each ``ERR usage`` form, blank and
whitespace-only lines, unknown and lower-case verbs, misses, a
``SOURCE`` switch followed by repeated lookups (cache hits), names
containing ``%s``, and ``STATS``.  The same lines then run tagged over
one real connection per service, one request at a time, so the
counters in their ``STATS`` replies are deterministic; those replies
are compared by tag.

Every reply must equal ``tests/golden/transcript.txt`` byte for byte,
after two scrubs: the ``uptime_sec`` value and the temporary
directory's path.  The snapshot bytes behind ``snapshot_bytes`` are
pinned by the golden digests in ``tests/test_snapshot.py``.

Regenerate the golden file only when a reply is meant to change::

    PYTHONPATH=src python tests/test_transcript.py --write
"""

from __future__ import annotations

import asyncio
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from repro.core.pathalias import Pathalias
from repro.service.daemon import RouteService, serve
from repro.service.federation import FederationService
from repro.service.store import build_snapshot

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden" / "transcript.txt"
REGIONS = ("backbone", "universities", "arpa")

#: The service settings every script runs under.
CONFIGS = {
    "default": {},
    "nocache": {"cache_size": 0},
    "dict": {"dispatch": "dict"},
}

#: Request lines shared by both services.  ``{name}`` placeholders
#: expand to snapshot paths in the test's temporary directory.
COMMON = [
    "",
    "   ",
    "BOGUS",
    "bogus extra words",
    "route topaz",
    "ROUTE",
    "ROUTE topaz alice bob",
    "ROUTE topaz",
    "ROUTE topaz alice",
    "ROUTE topaz alice",
    "ROUTE topaz %s",
    "ROUTE caip.rutgers.edu bob",
    "ROUTE x.edu carol",
    "ROUTE x.edu dave",
    "ROUTE mit-ai u",
    "ROUTE nowhere",
    "ROUTE nowhere",
    "ROUTE %s.weird",
    "ROUTE %s.edu bob",
    "ROUTE %s.edu bob",
    "EXACT",
    "EXACT topaz extra",
    "EXACT topaz",
    "EXACT topaz",
    "EXACT .edu",
    "EXACT nowhere",
    "EXACT nowhere",
    "EXACT %s",
    "SOURCE",
    "SOURCE a b",
    "SOURCE ghost",
    "SOURCE princeton",
    "ROUTE topaz",
    "ROUTE topaz",
    "ROUTE mcvax erin",
    "ROUTE mcvax frank",
    "EXACT mcvax",
    "EXACT mcvax",
    "STATS",
    "PIPELINE extra",
    "PIPELINE",
    "pipeline",
]

DAEMON = COMMON + [
    "TABLE",
    "TABLE --fsm",
    "TABLE --fsm extra",
    "TABLE ghost",
    "TABLE ghost topaz",
    "TABLE princeton topaz nowhere .edu",
    "TABLE princeton",
    "COSTS",
    "COSTS ghost",
    "COSTS princeton topaz CSNET .edu nowhere",
    "COSTS princeton",
    "RELOAD",
    "RELOAD {missing}",
    "RELOAD {snap}",
    "ROUTE topaz",
    "ROUTE topaz",
    "STATS",
    "WRELOAD",
    "WRELOAD {missing}",
    "WRELOAD {snap}",
    "ROUTE topaz",
    "NOTIFY extra",
    "NOTIFY",
    "STATS extra",
    "WSTATS",
    "wstats extra",
    "QUIT",
]

FEDERATION = COMMON + [
    "SOURCE ihnp4",
    "ROUTE topaz alice",
    "ROUTE mit-ai",
    "SHARDS",
    "SHARDS extra",
    "ATTACH",
    "ATTACH extra",
    "ATTACH a b c",
    "ATTACH extra {missing}",
    "ATTACH arpa {arpa}",
    "ROUTE mit-ai",
    "DETACH",
    "DETACH a b",
    "DETACH ghost",
    "DETACH backbone",
    "ROUTE topaz",
    "EXACT topaz",
    "SOURCE princeton",
    "ROUTE mit-ai",
    "ROUTE mit-ai",
    "EXACT mit-ai",
    "ROUTE mcvax",
    "SOURCE seismo",
    "ROUTE topaz",
    "ROUTE caip.rutgers.edu",
    "ATTACH backbone {backbone}",
    "ROUTE topaz",
    "SOURCE ihnp4",
    "ROUTE mit-ai",
    "RELOAD",
    "RELOAD backbone",
    "RELOAD a b c",
    "RELOAD ghost {backbone}",
    "RELOAD backbone {missing}",
    "RELOAD backbone {backbone}",
    "ROUTE topaz",
    "STATS",
    "STATS extra",
    "QUIT",
]

SCRIPTS = {"daemon": DAEMON, "federation": FEDERATION}

_UPTIME = re.compile(r"uptime_sec=[0-9.]+")

#: Bulk replies: the head frame announces how many frames follow.
_BULK = re.compile(r"OK (?:index|fsm|table|costs) (\d+)$")


def build_fixtures(tmp: Path) -> dict[str, str]:
    """The snapshots the scripts name: the three maps in one snapshot
    (``snap``), one per map, and a path that does not exist."""
    files = [(f"d.{name}", (DATA / f"d.{name}").read_text())
             for name in REGIONS]
    paths = {"snap": str(tmp / "all.snap"),
             "missing": str(tmp / "missing.snap")}
    build_snapshot(Pathalias().build(files), paths["snap"])
    for name, text in zip(REGIONS, (text for _, text in files)):
        paths[name] = str(tmp / f"{name}.snap")
        build_snapshot(Pathalias().build([(f"d.{name}", text)]),
                       paths[name])
    return paths


def make_service(kind: str, paths: dict, config: dict):
    """A fresh service of ``kind`` over the fixture snapshots."""
    if kind == "daemon":
        return RouteService(paths["snap"], **config)
    return FederationService({name: paths[name] for name in REGIONS},
                             **config)


def scrub(text: str, tmp: Path) -> str:
    """Drop what varies between runs: uptime and the temp path."""
    return _UPTIME.sub("uptime_sec=<t>", text.replace(str(tmp), "<tmp>"))


async def run_in_process(service, lines, paths, tmp) -> list:
    """``(line, reply)`` per script line, through ``handle_line``."""
    state = service.initial_state()
    out = []
    for line in lines:
        reply = await service.handle_line(line.format(**paths), state)
        out.append((line, "<close>" if reply is None
                    else scrub(reply, tmp)))
    return out


async def run_over_wire(service, lines, paths, tmp) -> list:
    """``(tagged line, reply frames)`` per script line, sent tagged
    over one connection, each request answered before the next."""
    server = await serve(service)
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    out = []
    try:
        for i, line in enumerate(lines):
            tagged = f"@{i} {line}"
            writer.write(tagged.format(**paths).encode() + b"\n")
            await writer.drain()
            frames = []
            expected = 1
            while len(frames) < expected:
                raw = await asyncio.wait_for(reader.readline(), 10)
                assert raw, f"connection closed before {tagged!r}"
                frame = raw.decode().rstrip("\n")
                tag, _, body = frame.partition(" ")
                assert tag == f"@{i}", f"{frame!r} answers {tagged!r}"
                if not frames:
                    bulk = _BULK.match(body)
                    expected += int(bulk.group(1)) if bulk else 0
                frames.append(scrub(frame, tmp))
            out.append((tagged, "\n".join(frames)))
        assert await reader.read() == b""  # QUIT closed it
    finally:
        writer.close()
        server.close()
        await server.wait_closed()
    return out


def transcripts(tmp: Path) -> dict[str, list]:
    """Every section of the golden file, freshly computed."""
    paths = build_fixtures(tmp)

    async def collect():
        sections = {}
        for kind, lines in SCRIPTS.items():
            for name, config in CONFIGS.items():
                service = make_service(kind, paths, config)
                sections[f"{kind} {name}"] = await run_in_process(
                    service, lines, paths, tmp)
            service = make_service(kind, paths, {})
            sections[f"{kind} wire"] = await run_over_wire(
                service, lines, paths, tmp)
        return sections

    return asyncio.run(collect())


def render(sections: dict[str, list]) -> str:
    """The golden file's text: ``=== section`` headers, ``> request``
    lines (JSON-quoted), then the reply's frames verbatim."""
    out = []
    for name, pairs in sections.items():
        out.append(f"=== {name}")
        for line, reply in pairs:
            out.append(f"> {json.dumps(line)}")
            out.append(reply)
    return "\n".join(out) + "\n"


def parse(text: str) -> dict[str, list]:
    """Invert :func:`render`."""
    sections: dict[str, list] = {}
    pairs = None
    for row in text.splitlines():
        if row.startswith("=== "):
            pairs = sections[row[4:]] = []
        elif row.startswith("> "):
            pairs.append([json.loads(row[2:]), []])
        else:
            pairs[-1][1].append(row)
    return {name: [(line, "\n".join(frames)) for line, frames in pairs]
            for name, pairs in sections.items()}


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    return transcripts(tmp_path_factory.mktemp("transcript"))


@pytest.fixture(scope="module")
def golden():
    return parse(GOLDEN.read_text())


def test_golden_has_every_section(computed, golden):
    assert list(golden) == list(computed)


@pytest.mark.parametrize("kind", SCRIPTS)
@pytest.mark.parametrize("config", CONFIGS)
def test_handle_line_replies_match_golden(computed, golden, kind,
                                          config):
    section = f"{kind} {config}"
    want = golden[section]
    got = computed[section]
    assert [line for line, _ in got] == [line for line, _ in want]
    for (line, reply), (_, expected) in zip(got, want):
        assert reply == expected, f"{section}: {line!r}"


@pytest.mark.parametrize("kind", SCRIPTS)
def test_tagged_wire_replies_match_golden_by_tag(computed, golden,
                                                 kind):
    def by_tag(pairs):
        return {line.partition(" ")[0]: (line, reply)
                for line, reply in pairs}

    want = by_tag(golden[f"{kind} wire"])
    got = by_tag(computed[f"{kind} wire"])
    assert got.keys() == want.keys()
    for tag, (line, reply) in got.items():
        assert (line, reply) == want[tag], f"{kind} wire: {line!r}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(render(transcripts(Path(scratch))))
    print(f"wrote {GOLDEN}")
