"""The lookup daemon: protocol, hot-swap under load, sync client."""

from __future__ import annotations

import asyncio
import math
import socket
import struct
import subprocess
import sys
import threading
import zlib
from pathlib import Path

import pytest

from repro.core.pathalias import Pathalias
from repro.errors import RouteError
from repro.mailer.router import MailRouter
from repro.service.daemon import (
    DaemonRouteDatabase,
    RouteService,
    serve,
)
from repro.service.federation import (
    FederatedRouteDatabase,
    FederationService,
)
from repro.service import store
from repro.service.store import SnapshotError, SnapshotReader, build_snapshot

MAP_V1 = """\
a\tb(10), c(100)
b\ta(10), c(10)
c\tb(10), a(100), d(10)
d\tc(10)
"""

#: same topology, pricier bridge: a's route to c and d changes.
MAP_V2 = MAP_V1.replace("b\ta(10), c(10)", "b\ta(10), c(500)")


def make_snapshot(text, path):
    build_snapshot(Pathalias().build([("d.map", text)]), path)
    return str(path)


@pytest.fixture()
def snapshots(tmp_path):
    return (make_snapshot(MAP_V1, tmp_path / "v1.snap"),
            make_snapshot(MAP_V2, tmp_path / "v2.snap"))


async def request(reader, writer, line: str) -> str:
    writer.write(line.encode() + b"\n")
    await writer.drain()
    return (await reader.readline()).decode().rstrip("\n")


class TestProtocol:
    def test_commands(self, snapshots):
        snap1, _ = snapshots

        async def scenario():
            service = RouteService(snap1, default_source="a")
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", port)
            assert await request(r, w, "ROUTE d user") == \
                "OK 30 d b!c!d!%s b!c!d!user"
            assert await request(r, w, "ROUTE d") == \
                "OK 30 d b!c!d!%s b!c!d!%s"
            assert await request(r, w, "EXACT b") == "OK 10 b b!%s"
            assert (await request(r, w, "ROUTE nowhere")) == \
                "ERR noroute nowhere"
            assert (await request(r, w, "EXACT nowhere")) == \
                "ERR noroute nowhere"
            assert await request(r, w, "SOURCE d") == "OK source d"
            assert await request(r, w, "ROUTE a who") == \
                "OK 30 a c!b!a!%s c!b!a!who"
            assert (await request(r, w, "SOURCE ghost")).startswith(
                "ERR unknown-source")
            assert (await request(r, w, "BOGUS")).startswith(
                "ERR unknown-command")
            assert (await request(r, w, "ROUTE")).startswith(
                "ERR usage")
            stats = await request(r, w, "STATS")
            assert stats.startswith("OK lookups=")
            assert "sources=4" in stats
            assert "format=2" in stats
            assert await request(r, w, "QUIT") == "OK bye"
            w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_reload_swaps_routes(self, snapshots):
        snap1, snap2 = snapshots

        async def scenario():
            service = RouteService(snap1, default_source="a")
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", port)
            assert await request(r, w, "ROUTE d u") == \
                "OK 30 d b!c!d!%s b!c!d!u"
            reply = await request(r, w, f"RELOAD {snap2}")
            assert reply.startswith("OK reloaded 4 ")
            # v2's bridge costs 500: a now reaches d via the direct
            # a->c link.
            assert await request(r, w, "ROUTE d u") == \
                "OK 110 d c!d!%s c!d!u"
            bad = await request(r, w, "RELOAD /no/such/file.snap")
            assert bad.startswith("ERR reload")
            # the failed reload left the current snapshot serving
            assert await request(r, w, "ROUTE d u") == \
                "OK 110 d c!d!%s c!d!u"
            w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_unknown_source_at_start_rejected(self, snapshots):
        snap1, _ = snapshots
        with pytest.raises(SnapshotError, match="no table"):
            RouteService(snap1, default_source="ghost")

    def test_reload_takes_exactly_one_token(self, snapshots):
        """A snapshot path is one wire token: ``RELOAD a b`` is a usage
        error, never an attempt to open a file named ``'a b'``."""
        snap1, snap2 = snapshots

        async def scenario():
            service = RouteService(snap1, default_source="a")
            state = service.initial_state()
            assert await service.handle_line(
                f"RELOAD {snap2} extra", state) == \
                "ERR usage RELOAD <snapshot>"
            assert service.reloads == 0
            assert await service.handle_line(f"RELOAD {snap2}", state) \
                == f"OK reloaded 4 {snap2}"

        asyncio.run(scenario())

    def test_stats_format_and_verb_counters(self, snapshots):
        """STATS reports the served snapshot's format version and
        per-verb counters that a RELOAD must never reset."""
        snap1, snap2 = snapshots

        def parse(reply):
            return dict(token.partition("=")[::2]
                        for token in reply[3:].split())

        async def scenario():
            service = RouteService(snap1, default_source="a")
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", port)
            assert (await request(r, w, "ROUTE d u")).startswith("OK")
            assert (await request(r, w, "EXACT b")).startswith("OK")
            stats = parse(await request(r, w, "STATS"))
            assert stats["format"] == "2"
            assert stats["n_route"] == "1"
            assert stats["n_exact"] == "1"
            assert stats["n_stats"] == "1"
            assert stats["n_reload"] == "0"
            reply = await request(r, w, f"RELOAD {snap2}")
            assert reply.startswith("OK reloaded")
            stats = parse(await request(r, w, "STATS"))
            # the reload swapped in another snapshot and reset NO
            # counters
            assert stats["format"] == "2"
            assert stats["n_route"] == "1"
            assert stats["n_exact"] == "1"
            assert stats["n_reload"] == "1"
            assert stats["n_stats"] == "2"
            w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_pinned_format_enforced_on_reload(self, snapshots,
                                              v1_stamped):
        """The served format is pinned to v2 by the reader itself: the
        startup open and every later RELOAD refuse a retired-format
        file, so the daemon can never be downgraded mid-flight."""
        snap1, snap2 = snapshots
        v1 = v1_stamped(snap1)
        with pytest.raises(SnapshotError, match="version 1"):
            RouteService(str(v1), default_source="a")

        async def scenario():
            service = RouteService(snap1, default_source="a")
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", port)
            reply = await request(r, w, f"RELOAD {v1}")
            assert reply.startswith("ERR reload")
            assert "version 1" in reply and "rebuild" in reply
            # the refused reload left the pinned snapshot serving
            assert (await request(r, w, "ROUTE d u")).startswith(
                "OK 30 d")
            assert (await request(r, w,
                                  f"RELOAD {snap2}")).startswith(
                "OK reloaded")
            w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_stale_source_after_reload_survives(self, snapshots,
                                                tmp_path):
        """A RELOAD can replace the snapshot with one that lacks a
        connection's chosen source; the next lookup must answer ERR
        and leave the connection (and daemon) alive."""
        snap1, _ = snapshots
        other = make_snapshot("x\ty(10)\ny\tx(10)\n",
                              tmp_path / "other.snap")

        async def scenario():
            service = RouteService(snap1, default_source="a")
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", port)
            assert await request(r, w, "SOURCE d") == "OK source d"
            reply = await request(r, w, f"RELOAD {other}")
            assert reply.startswith("OK reloaded 2 ")
            assert await request(r, w, "ROUTE a u") == \
                "ERR unknown-source d"
            assert await request(r, w, "EXACT a") == \
                "ERR unknown-source d"
            # the connection is still serviceable
            assert await request(r, w, "SOURCE x") == "OK source x"
            assert await request(r, w, "ROUTE y u") == \
                "OK 10 y y!%s y!u"
            w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())


class TestMalformedLines:
    def test_garbage_between_valid_requests(self, snapshots):
        """Non-UTF-8 bytes and over-long junk interleaved with valid
        requests: each bad line errors exactly one request (counted in
        n_errors), the connection survives, and the verb counters are
        not skewed."""
        snap1, _ = snapshots

        async def scenario():
            service = RouteService(snap1, default_source="a")
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", port)

            assert await request(r, w, "ROUTE d u") == \
                "OK 30 d b!c!d!%s b!c!d!u"
            # garbage bytes that are not valid UTF-8
            w.write(b"\xff\xfe\x80 garbage \xff\n")
            await w.drain()
            assert (await r.readline()) == \
                b"ERR encoding expected UTF-8\n"
            # the same connection keeps answering
            assert await request(r, w, "ROUTE d u") == \
                "OK 30 d b!c!d!%s b!c!d!u"
            # a line longer than the 64 KiB stream frame limit used to
            # tear the whole connection down (uncaught ValueError from
            # readline); now the whole oversized line is discarded
            # through its newline and answered with EXACTLY ONE ERR —
            # a request/reply-lockstep client stays frame-aligned.
            # The sentinel request after it proves the ordering.
            for junk_len in (70000, 200000):
                w.write(b"R" * junk_len + b"\n")
                w.write(b"EXACT b\n")
                await w.drain()
                reply = await r.readline()
                assert reply.startswith(b"ERR overflow"), reply
                assert (await r.readline()) == b"OK 10 b b!%s\n"
            # still serviceable, and the counters stayed truthful:
            # exactly 3 ROUTE requests were ever dispatched, junk
            # lines skewing nothing
            assert await request(r, w, "ROUTE d u") == \
                "OK 30 d b!c!d!%s b!c!d!u"
            assert service.verb_counts["ROUTE"] == 3
            assert service.errors >= 2  # encoding + overflow junk
            stats = service.stats_line()
            assert f"n_errors={service.errors}" in stats
            w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_err_replies_counted(self, snapshots):
        """Protocol-level ERRs (misses, bad verbs) count in n_errors
        and survive RELOAD like every service-owned counter."""
        snap1, snap2 = snapshots

        async def scenario():
            service = RouteService(snap1, default_source="a")
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", port)
            assert (await request(r, w, "ROUTE nowhere")).startswith(
                "ERR noroute")
            assert (await request(r, w, "BOGUS")).startswith(
                "ERR unknown-command")
            assert service.errors == 2
            assert (await request(r, w,
                                  f"RELOAD {snap2}")).startswith("OK")
            stats = await request(r, w, "STATS")
            assert "n_errors=2" in stats
            w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())


def corrupt_dfsm(snapshot: str, source: str, fault: str, out) -> int:
    """Write ``snapshot`` to ``out`` with one field of ``source``'s
    ``DFSM`` block changed on the root's edge to the host ``d`` (the
    payload CRC re-stamped, so only the block's own checks can catch
    it); returns the section's file offset.

    ``fault`` is ``target`` (the edge's target state past the state
    count), ``label`` (the edge label's byte not UTF-8), ``payload``
    (``d``'s exact payload past the record count) or ``range`` (the
    root's edge count past the edge table)."""
    reader = SnapshotReader.open(snapshot)
    section = reader._entries[reader._find(source)][0]
    table = reader.table(source)
    dfsm = section + next(off for tag, off, _ in table.block_map()
                          if tag == "DFSM")
    records = len(table)
    reader.close()
    raw = bytearray(Path(snapshot).read_bytes())
    _, _, _, sc, ec, lc, nc = struct.unpack_from("<4sHHIIII", raw, dfsm)
    states = dfsm + 24
    edges = states + 16 * sc
    labels = edges + 8 * ec
    blob = labels + 8 * lc + 12 * nc
    first, count, _, _ = struct.unpack_from("<IIii", raw, states)
    for edge in range(first, first + count):
        lid, target = struct.unpack_from("<II", raw, edges + 8 * edge)
        off, length = struct.unpack_from("<II", raw, labels + 8 * lid)
        if raw[blob + off:blob + off + length] == b"d":
            break
    else:
        raise AssertionError("the root has no edge to d")
    if fault == "target":
        struct.pack_into("<I", raw, edges + 8 * edge + 4, sc + 5)
    elif fault == "label":
        raw[blob + off] = 0xFF
    elif fault == "range":
        struct.pack_into("<I", raw, states + 4, ec + 10)
    else:
        struct.pack_into("<i", raw, states + 16 * target + 8,
                         records + 1000)
    crc = zlib.crc32(bytes(raw[store._HEADER.size:])) & 0xFFFFFFFF
    struct.pack_into("<I", raw, 20, crc)
    Path(out).write_bytes(bytes(raw))
    return section


#: The table forms a lookup can meet a ``DFSM`` block in, as the
#: break-even ratio that forces each: inflating on the first lookup
#: (promoted) or never (the walk in place).
TABLE_FORMS = {"promoted": 0.0, "in-place": math.inf}

#: Each corrupt-block fault in each table form; a promoted case is
#: named by its fault alone.
CORRUPT_DFSM_CASES = [
    pytest.param(fault, form,
                 id=fault if form == "promoted" else f"{fault}-{form}")
    for fault in ("target", "label", "payload", "range")
    for form in TABLE_FORMS]


class TestCorruptDfsmBlock:
    """A ``DFSM`` block whose edge target, label bytes, payload or edge
    range is out of range fails the lookup as a ``SnapshotError`` naming the
    source and the section's file offset, whether the table walks it in
    place or has promoted to the inflated trie; over the wire the
    request gets an ``ERR`` line and the connection keeps serving."""

    @pytest.mark.parametrize("fault, form", CORRUPT_DFSM_CASES)
    def test_lookup_errs_and_connection_survives(self, snapshots,
                                                 tmp_path, fault, form,
                                                 monkeypatch):
        monkeypatch.setattr(store, "BREAK_EVEN_PER_STATE",
                            TABLE_FORMS[form])
        snap1, _ = snapshots
        bad = tmp_path / f"{fault}.snap"
        section = corrupt_dfsm(snap1, "a", fault, bad)
        with SnapshotReader.open(bad) as reader:
            with pytest.raises(SnapshotError) as err:
                reader.table("a").resolve_with_cost("d")
        assert "'a'" in str(err.value)
        assert f"at file offset {section}" in str(err.value)

        async def scenario():
            service = RouteService(str(bad), default_source="a")
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", port)
            assert (await request(r, w, "ROUTE d u")).startswith(
                f"ERR snapshot table section for 'a' at file offset "
                f"{section}: ")
            assert (await request(r, w, "STATS")).startswith(
                "OK lookups=")
            w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())


def corrupt_route_text(snapshot: str, source: str, name: str, out) -> int:
    """Write ``snapshot`` to ``out`` with the first byte of
    ``source``'s route to ``name`` made a byte that is not UTF-8 (the
    payload CRC re-stamped); returns the section's file offset."""
    reader = SnapshotReader.open(snapshot)
    section = reader._entries[reader._find(source)][0]
    table = reader.table(source)
    blob = section + next(off for tag, off, _ in table.block_map()
                          if tag == "BLOB")
    _, _, _, roff, _ = next(
        rec for rec in map(table._record, range(len(table)))
        if table._text(rec[1], rec[2]) == name)
    reader.close()
    raw = bytearray(Path(snapshot).read_bytes())
    raw[blob + roff] = 0xFF
    crc = zlib.crc32(bytes(raw[store._HEADER.size:])) & 0xFFFFFFFF
    struct.pack_into("<I", raw, 20, crc)
    Path(out).write_bytes(bytes(raw))
    return section


class TestCorruptTableText:
    """A route whose ``BLOB`` bytes are not UTF-8 fails each request
    that decodes it with one ``ERR snapshot`` line naming the source
    and the section's file offset, on both daemons; the connection
    keeps serving."""

    READERS = ("ROUTE d u", "EXACT d", "TABLE a", "TABLE a d")

    def test_each_reader_errs_and_connection_survives(self, snapshots,
                                                      tmp_path):
        snap1, _ = snapshots
        bad = tmp_path / "text.snap"
        section = corrupt_route_text(snap1, "a", "d", bad)
        want = (f"ERR snapshot table section for 'a' at file offset "
                f"{section}: BLOB text at offset ")
        with SnapshotReader.open(bad) as reader:
            with pytest.raises(SnapshotError) as err:
                reader.table("a").lookup("d")
        assert str(err.value).startswith(want[len("ERR snapshot "):])

        async def scenario():
            service = RouteService(str(bad), default_source="a")
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", port)
            try:
                for line in self.READERS:
                    assert (await request(r, w, line)).startswith(want)
                assert (await request(r, w, "EXACT b")) == "OK 10 b b!%s"
                assert (await request(r, w, "STATS")).startswith(
                    "OK lookups=")
            finally:
                w.close()
                server.close()
                await server.wait_closed()
            front = FederationService({"only": str(bad)},
                                      default_source="a")
            state = front.initial_state()
            for line in self.READERS[:2]:
                assert (await front.handle_line(line, state)
                        ).startswith(want)

        asyncio.run(scenario())


class TestResultCacheOverWire:
    """The generation-stamped result cache as the daemon serves it:
    STATS keys, RELOAD invalidation ordering, the dict-oracle pin."""

    def test_stats_survive_reload_and_answers_stay_fresh(
            self, snapshots):
        """Cache counters are service-owned (they survive RELOAD like
        every other counter), the RELOAD bumps the generation before
        acking, and the very next ROUTE serves the new snapshot —
        never a pre-swap cache entry."""
        snap1, snap2 = snapshots

        async def scenario():
            service = RouteService(snap1, default_source="a")
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", port)
            assert await request(r, w, "ROUTE d u") == \
                "OK 30 d b!c!d!%s b!c!d!u"  # miss, filled
            assert await request(r, w, "ROUTE d other") == \
                "OK 30 d b!c!d!%s b!c!d!other"  # hit, re-addressed
            assert await request(r, w, "EXACT b") == "OK 10 b b!%s"
            assert await request(r, w, "EXACT b") == "OK 10 b b!%s"
            stats = await request(r, w, "STATS")
            assert "cache=4096" in stats
            assert "n_cache_hits=2" in stats
            assert "n_cache_misses=2" in stats
            assert "n_cache_invalidations=0" in stats
            # RELOAD bumps before it acks: the reply IS the fence
            assert (await request(r, w,
                                  f"RELOAD {snap2}")).startswith("OK")
            assert await request(r, w, "ROUTE d u") == \
                "OK 110 d c!d!%s c!d!u"
            stats = await request(r, w, "STATS")
            assert "n_cache_hits=2" in stats  # survived the swap
            assert "n_cache_invalidations=1" in stats
            w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_cached_errors_replay_the_same_wire_code(self, snapshots):
        snap1, _ = snapshots

        async def scenario():
            service = RouteService(snap1, default_source="a")
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", port)
            first = await request(r, w, "ROUTE nowhere u")
            assert first == "ERR noroute nowhere"
            assert await request(r, w, "ROUTE nowhere v") == first
            assert service.cache.hits == 1
            w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_dict_dispatch_pins_the_cache_off(self, snapshots):
        """dispatch="dict" is the differential oracle; it must answer
        from the snapshot walk every time, and say so in STATS."""
        snap1, _ = snapshots

        async def scenario():
            service = RouteService(snap1, default_source="a",
                                   dispatch="dict")
            assert service.cache is None
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", port)
            assert await request(r, w, "ROUTE d u") == \
                "OK 30 d b!c!d!%s b!c!d!u"
            stats = await request(r, w, "STATS")
            assert "cache=0" in stats
            assert "n_cache_hits=0" in stats
            w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_explicit_cache_size_reported(self, snapshots):
        snap1, _ = snapshots

        async def scenario():
            service = RouteService(snap1, default_source="a",
                                   cache_size=7)
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", port)
            assert "cache=7" in await request(r, w, "STATS")
            w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())


class TestHotSwapUnderLoad:
    def test_no_request_dropped_during_reload(self, snapshots):
        """The acceptance bar: clients hammer ROUTE while another
        connection hot-swaps snapshots back and forth; every single
        request gets a well-formed OK answer."""
        snap1, snap2 = snapshots
        requests_per_client = 40
        clients = 6
        reloads = 10

        async def scenario():
            service = RouteService(snap1, default_source="a")
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]

            async def client(i):
                r, w = await asyncio.open_connection("127.0.0.1", port)
                answered = 0
                for k in range(requests_per_client):
                    reply = await request(r, w, f"ROUTE d u{i}.{k}")
                    # Both snapshots route a->d; whichever snapshot
                    # serves the request, the answer is complete and
                    # well-formed.
                    assert reply in (
                        f"OK 30 d b!c!d!%s b!c!d!u{i}.{k}",
                        f"OK 110 d c!d!%s c!d!u{i}.{k}")
                    answered += 1
                    await asyncio.sleep(0)
                w.close()
                return answered

            async def reloader():
                r, w = await asyncio.open_connection("127.0.0.1", port)
                for k in range(reloads):
                    target = snap2 if k % 2 == 0 else snap1
                    reply = await request(r, w, f"RELOAD {target}")
                    assert reply.startswith("OK reloaded")
                    await asyncio.sleep(0)
                w.close()
                return reloads

            results = await asyncio.gather(
                *(client(i) for i in range(clients)), reloader())
            # The reload-under-load counter bar: every ROUTE and every
            # RELOAD that was answered is still counted — a hot swap
            # must never reset the service's counters mid-traffic.
            assert service.verb_counts["ROUTE"] == \
                clients * requests_per_client
            assert service.verb_counts["RELOAD"] == reloads
            assert service.lookups == clients * requests_per_client
            stats = service.stats_line()
            assert f"n_route={clients * requests_per_client}" in stats
            assert f"n_reload={reloads}" in stats
            # the compiled-dispatch counters ride the same bar: the
            # default mode is fsm, and with the result cache on a hot
            # pair's repeats answer from the cache — dispatches plus
            # cache hits must still account for every lookup, and ten
            # hot swaps reset none of the counters
            assert "dispatch=fsm" in stats
            total = clients * requests_per_client
            assert service.fsm_hits + service.cache.hits == total
            assert service.fsm_hits >= 1  # at least the first walk
            assert "n_fsm_misses=0" in stats
            # every RELOAD bumped the cache generation exactly once
            assert f"n_cache_invalidations={reloads}" in stats
            server.close()
            await server.wait_closed()
            return results

        results = asyncio.run(scenario())
        assert results == [requests_per_client] * clients + [reloads]


class TestFederatedHotSwapUnderLoad:
    def test_shard_reload_drops_no_federated_requests(self, tmp_path):
        """The federated acceptance bar: clients hammer cross-shard
        ROUTEs while another connection hot-swaps ONE shard back and
        forth; every request gets a well-formed OK, and the answers
        only ever come from one shard generation or the other."""
        from repro.service.federation import FederationService

        left = make_snapshot(
            "a\tb(10), gate(100)\nb\ta(10)\ngate\ta(100)\n",
            tmp_path / "left.snap")
        right_v1 = make_snapshot(
            "gate\tz(10)\nz\tgate(10), y(10)\ny\tz(10)\n",
            tmp_path / "right1.snap")
        right_v2 = make_snapshot(
            "gate\tz(500)\nz\tgate(500), y(10)\ny\tz(10)\n",
            tmp_path / "right2.snap")
        requests_per_client = 40
        clients = 6
        reloads = 10

        async def scenario():
            service = FederationService(
                {"left": left, "right": right_v1},
                default_source="a")
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]

            async def client(i):
                r, w = await asyncio.open_connection("127.0.0.1", port)
                answered = 0
                for k in range(requests_per_client):
                    reply = await request(r, w, f"ROUTE y u{i}.{k}")
                    # a -> gate (left shard) stitched with gate -> y
                    # (right shard); both right generations route it.
                    assert reply in (
                        f"OK 120 y gate!z!y!%s gate!z!y!u{i}.{k}",
                        f"OK 610 y gate!z!y!%s gate!z!y!u{i}.{k}")
                    answered += 1
                    await asyncio.sleep(0)
                w.close()
                return answered

            async def reloader():
                r, w = await asyncio.open_connection("127.0.0.1", port)
                for k in range(reloads):
                    target = right_v2 if k % 2 == 0 else right_v1
                    reply = await request(r, w,
                                          f"RELOAD right {target}")
                    assert reply.startswith("OK reloaded right")
                    await asyncio.sleep(0)
                w.close()
                return reloads

            results = await asyncio.gather(
                *(client(i) for i in range(clients)), reloader())
            # the front end dispatches through the compiled automaton
            # by default; with the result cache on, hot-pair repeats
            # answer from the cache, so dispatches plus cache hits
            # account for every lookup — and per-shard hot swaps must
            # not reset the fsm counters any more than the others
            stats = service.stats_line()
            assert "dispatch=fsm" in stats
            total = clients * requests_per_client
            assert service.fsm_hits + service.cache.hits == total
            assert service.fsm_hits >= 1
            assert "n_fsm_misses=0" in stats
            # every per-shard RELOAD bumped the cache generation
            assert service.cache.invalidations == reloads
            server.close()
            await server.wait_closed()
            return results

        results = asyncio.run(scenario())
        assert results == [requests_per_client] * clients + [reloads]

    def test_attach_detach_churn_never_shows_half_swapped_view(
            self, tmp_path):
        """The swap-path audit bar: clients hammer ROUTEs whose
        answers cross a *stable* pair of shards while a third shard is
        attached and detached in a tight loop.  Every request must see
        a complete picture — either with the churned shard or without
        it, never a mixture — and the service counters must add up."""
        from repro.service.federation import FederationService

        left = make_snapshot(
            "a\tb(10), gate(100)\nb\ta(10)\ngate\ta(100)\n",
            tmp_path / "left.snap")
        right = make_snapshot(
            "gate\tz(10)\nz\tgate(10), y(10)\ny\tz(10)\n",
            tmp_path / "right.snap")
        # the churned shard owns host q, reachable only through it
        extra = make_snapshot(
            "z\tq(25)\nq\tz(25)\n", tmp_path / "extra.snap")
        requests_per_client = 40
        clients = 5
        churns = 12

        async def scenario():
            service = FederationService(
                {"left": left, "right": right},
                default_source="a")
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]

            async def client(i):
                r, w = await asyncio.open_connection("127.0.0.1", port)
                answered = 0
                for k in range(requests_per_client):
                    # a -> y stitches left -> right regardless of the
                    # churned shard; its answer must never change
                    reply = await request(r, w, f"ROUTE y u{i}.{k}")
                    assert reply == (f"OK 120 y gate!z!y!%s "
                                     f"gate!z!y!u{i}.{k}"), reply
                    # a -> q exists exactly when the extra shard is
                    # attached: OK through it, or a clean noroute —
                    # anything else is a torn picture
                    reply = await request(r, w, f"ROUTE q u{i}.{k}")
                    assert reply in (
                        f"OK 135 q gate!z!q!%s gate!z!q!u{i}.{k}",
                        "ERR noroute q"), reply
                    answered += 1
                    await asyncio.sleep(0)
                w.close()
                return answered

            async def churner():
                r, w = await asyncio.open_connection("127.0.0.1", port)
                for k in range(churns):
                    reply = await request(r, w,
                                          f"ATTACH extra {extra}")
                    assert reply.startswith("OK attached extra"), reply
                    await asyncio.sleep(0)
                    reply = await request(r, w, "DETACH extra")
                    assert reply == "OK detached extra", reply
                    await asyncio.sleep(0)
                w.close()
                return churns

            results = await asyncio.gather(
                *(client(i) for i in range(clients)), churner())
            assert service.attaches == churns
            assert service.detaches == churns
            assert service.verb_counts["ROUTE"] == \
                2 * clients * requests_per_client
            stats = service.stats_line()
            assert "shards=2" in stats  # churn always ended detached
            server.close()
            await server.wait_closed()
            return results

        results = asyncio.run(scenario())
        assert results == [requests_per_client] * clients + [churns]


class _ThreadedDaemon:
    """Run the asyncio server in a thread so synchronous clients
    (DaemonRouteDatabase, MailRouter) can talk to it from the test.

    Subclasses override ``_make_service`` to serve a different
    LineService (the federation tests reuse this harness).
    """

    def __init__(self, snapshot_path, source: str | None = None,
                 port: int = 0):
        self.snapshot_path = snapshot_path
        self.source = source
        self.port: int | None = None
        self._bind_port = port
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _make_service(self):
        return RouteService(self.snapshot_path,
                            default_source=self.source)

    def _run(self):
        async def amain():
            service = self._make_service()
            server = await serve(service, port=self._bind_port)
            self.port = server.sockets[0].getsockname()[1]
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self._ready.set()
            await self._stop.wait()
            server.close()
            await server.wait_closed()

        asyncio.run(amain())

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10), "daemon failed to start"
        return self

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(10)


class _FederatedDaemon(_ThreadedDaemon):
    """The same harness serving a one-shard federation front end."""

    def _make_service(self):
        return FederationService({"one": self.snapshot_path},
                                 default_source=self.source)


class TestClientSurvivesDaemonBounce:
    """The stale-pooled-socket bar: a daemon restart between two
    calls must be invisible to the synchronous clients."""

    def test_daemon_client_retries_stale_socket(self, snapshots):
        snap1, _ = snapshots
        with _ThreadedDaemon(snap1, source="a") as first:
            port = first.port
            db = DaemonRouteDatabase(("127.0.0.1", port), source="a")
            assert db.route("d") == "b!c!d!%s"
            # full daemon restart on the same port: the pooled socket
            # is now stale
        with _ThreadedDaemon(snap1, source="a", port=port):
            assert db.route("d") == "b!c!d!%s"
            res = db.resolve("d", "user")
            assert res.address == "b!c!d!user"
        db.close()

    def test_client_waits_out_a_short_restart_window(self, snapshots):
        """The reconnect is patient: a lookup issued while the daemon
        is briefly down succeeds once it comes back (within the
        client's reconnect patience)."""
        snap1, _ = snapshots
        with _ThreadedDaemon(snap1, source="a") as first:
            port = first.port
            db = DaemonRouteDatabase(("127.0.0.1", port), source="a")
            assert db.route("d") == "b!c!d!%s"
        # daemon is down now; restart it after a short delay while the
        # client call below is already retrying
        restarter = _ThreadedDaemon(snap1, source="a", port=port)

        def come_back():
            import time as _time

            _time.sleep(0.3)
            restarter.__enter__()

        thread = threading.Thread(target=come_back)
        thread.start()
        try:
            assert db.route("d") == "b!c!d!%s"
        finally:
            thread.join(10)
            restarter.__exit__()
            db.close()

    def test_first_connect_to_dead_address_fails_fast(self):
        """Patience is for *re*-connects only: a wrong address on the
        very first call errors immediately, not after a retry window."""
        import time as _time

        db = DaemonRouteDatabase(("127.0.0.1", 1), timeout=5.0)
        t0 = _time.monotonic()
        with pytest.raises(OSError):
            db.route("d")
        assert _time.monotonic() - t0 < 1.0

    def test_federated_client_retries_stale_socket(self, tmp_path):
        """The federated client inherits the same transparent retry."""
        snap = make_snapshot(MAP_V1, tmp_path / "one.snap")
        with _FederatedDaemon(snap, source="a") as first:
            port = first.port
            db = FederatedRouteDatabase(("127.0.0.1", port))
            assert db.route("d") == "b!c!d!%s"
        with _FederatedDaemon(snap, source="a", port=port):
            assert db.route("d") == "b!c!d!%s"
            assert set(db.shards()) == {"one"}
        db.close()


class TestSyncClient:
    def test_route_database_interface(self, snapshots):
        snap1, snap2 = snapshots
        with _ThreadedDaemon(snap1, source="a") as daemon:
            with DaemonRouteDatabase(("127.0.0.1", daemon.port)) as db:
                assert db.route("d") == "b!c!d!%s"
                assert db.route("ghost") is None
                assert "d" in db
                assert "ghost" not in db
                res = db.resolve("d", "user")
                assert res.address == "b!c!d!user"
                assert res.matched == "d"
                assert db.resolve_bang("d!user").address == "b!c!d!user"
                with pytest.raises(RouteError):
                    db.resolve("ghost", "user")
                stats = db.stats()
                assert stats["sources"] == "4"
                assert db.reload(snap2) == 4
                assert db.route("d") == "c!d!%s"

    def test_source_binding(self, snapshots):
        snap1, _ = snapshots
        with _ThreadedDaemon(snap1) as daemon:
            with DaemonRouteDatabase(("127.0.0.1", daemon.port),
                                     source="d") as db:
                assert db.route("a") == "c!b!a!%s"

    @pytest.mark.parametrize("harness,client", [
        (_ThreadedDaemon, DaemonRouteDatabase),
        (_FederatedDaemon, FederatedRouteDatabase),
    ], ids=["daemon", "federated"])
    def test_rejected_source_fails_every_request(self, snapshots,
                                                 harness, client):
        """A route is relative to its source host, so a client whose
        source the daemon rejects must keep failing: answering from
        the daemon's default source would be a wrong route."""
        snap1, _ = snapshots
        with harness(snap1, source="a") as daemon:
            with client(("127.0.0.1", daemon.port),
                        source="ghost") as db:
                for _ in range(2):
                    with pytest.raises(RouteError,
                                       match="rejected source 'ghost'"):
                        db.resolve("d")

    def test_rejects_spaces_in_tokens(self, snapshots):
        snap1, _ = snapshots
        with _ThreadedDaemon(snap1) as daemon:
            with DaemonRouteDatabase(("127.0.0.1", daemon.port)) as db:
                with pytest.raises(RouteError, match="protocol"):
                    db.resolve("d", "two words")

    def test_mail_router_through_daemon(self, snapshots):
        """MailRouter end to end against a live daemon instead of an
        in-memory table."""
        snap1, _ = snapshots
        with _ThreadedDaemon(snap1) as daemon:
            router = MailRouter.connected(
                "a", ("127.0.0.1", daemon.port))
            envelope = router.route("user@d", sender="postmaster")
            assert envelope.transport_address == "b!c!d!user"
            assert router.resolve("d", "user").address == "b!c!d!user"
            # explicitly routed mail goes through the optimizer, whose
            # database queries also hit the daemon
            envelope = router.route("c!d!user")
            assert envelope.transport_address == "b!c!d!user"
            router.db.close()


class TestServeProcess:
    """The ``pathalias serve`` entry point as a real process."""

    def test_serves_counts_and_reloads_under_load(self, snapshots):
        snap1, snap2 = snapshots
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", snap1,
             "--port", "0"],
            stderr=subprocess.PIPE, text=True)
        try:
            for line in proc.stderr:
                if "listening on" in line:
                    host, _, port = line.rsplit(
                        "listening on", 1)[1].strip().rpartition(":")
                    addr = (host, int(port))
                    break
            else:
                raise AssertionError("serve never reported listening")
            for _ in range(12):
                with DaemonRouteDatabase(addr, source="a") as db:
                    assert db.resolve("d").address == "b!c!d!%s"
            with DaemonRouteDatabase(addr, source="a") as db:
                assert db.stats()["lookups"] == "12"

                # reload under load: lookups keep answering across
                # the swap, each with the old or the new route
                stop = threading.Event()
                failures: list = []

                def hammer():
                    with DaemonRouteDatabase(addr, source="a") as h:
                        while not stop.is_set():
                            try:
                                if h.resolve("d").address not in (
                                        "b!c!d!%s", "c!d!%s"):
                                    failures.append("bad answer")
                            except Exception as exc:  # noqa: BLE001
                                failures.append(repr(exc))

                thread = threading.Thread(target=hammer)
                thread.start()
                try:
                    assert db.reload(snap2) == 4
                finally:
                    stop.set()
                    thread.join(timeout=10)
                assert failures == []
                assert db.stats()["reloads"] == "1"
            for _ in range(8):
                with DaemonRouteDatabase(addr, source="a") as db:
                    assert db.resolve("d").address == "c!d!%s"
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stderr.close()


def _scripted_sync_daemon(script):
    """A plain-socket daemon: connection ``i`` reads one request line
    per reply in ``script[i]`` and writes that reply's raw bytes, then
    closes.  Returns ``(port, thread)``."""
    listener = socket.create_server(("127.0.0.1", 0))

    def run():
        with listener:
            for replies in script:
                conn, _ = listener.accept()
                with conn, conn.makefile("rb") as lines:
                    for reply in replies:
                        lines.readline()
                        conn.sendall(reply)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return listener.getsockname()[1], thread


class TestTruncatedSyncReply:
    """A reply line that EOF cut short is no answer: the sync clients
    treat it as a dropped connection, and their one reconnect applies."""

    CUT = b"OK 300 seismo seismo!%s seismo!pi"
    WHOLE = b"OK 300 seismo seismo!%s seismo!piet\n"

    @pytest.fixture(params=["daemon", "federated"])
    def client_class(self, request):
        if request.param == "daemon":
            return DaemonRouteDatabase
        return FederatedRouteDatabase

    def test_cut_reply_is_an_error(self, client_class):
        port, thread = _scripted_sync_daemon([[self.CUT]])
        with client_class(("127.0.0.1", port)) as db:
            with pytest.raises(ConnectionError):
                db.resolve_with_cost("seismo", "piet")
        thread.join(10)

    def test_cut_reply_takes_the_one_reconnect(self, client_class):
        port, thread = _scripted_sync_daemon(
            [[self.WHOLE, self.CUT], [self.WHOLE]])
        with client_class(("127.0.0.1", port)) as db:
            assert db.resolve("seismo", "piet").address == "seismo!piet"
            cost, res = db.resolve_with_cost("seismo", "piet")
            assert (cost, res.address) == (300, "seismo!piet")
        thread.join(10)
