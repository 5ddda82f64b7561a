"""Tagged pipelining: many requests in flight per connection.

The acceptance bars:

* the daemon accepts tagged requests (``@<tag> VERB ...``) and may
  answer them out of order, every reply frame carrying the tag — and
  untagged clients still see the exact lockstep protocol;
* the mux client reassembles interleaved tagged bulk replies (a TABLE
  racing a COSTS on one connection) without mixing them up;
* a daemon restart with N tagged requests in flight loses and
  misdelivers nothing — every request is retried transparently or
  errors cleanly;
* a front end over pipelined backend daemons stays byte-identical to
  the in-process federation.
"""

from __future__ import annotations

import asyncio
from pathlib import Path

import pytest

from repro.core.pathalias import Pathalias
from repro.errors import BackendError, RouteError
from repro.service.backend import BackendShard, ShardBackend
from repro.service.daemon import RouteService, serve
from repro.service.federation import FederationService
from repro.service.shard import FederationView, Shard
from repro.service.store import build_snapshot

DATA = Path(__file__).parent / "data"
REGIONS = ("backbone", "universities", "arpa")


@pytest.fixture(scope="module")
def shard_paths(tmp_path_factory):
    """One snapshot per regional map, built once for the module."""
    tmp = tmp_path_factory.mktemp("pipeline-shards")
    paths = {}
    for name in REGIONS:
        text = (DATA / f"d.{name}").read_text()
        path = tmp / f"{name}.snap"
        build_snapshot(Pathalias().build([(f"d.{name}", text)]), path)
        paths[name] = str(path)
    return paths


async def _start(service):
    """Serve ``service`` on an ephemeral port; ``(server, port)``."""
    server = await serve(service)
    return server, server.sockets[0].getsockname()[1]


async def _lockstep(r, w, line):
    """One untagged request, its first reply line."""
    w.write(line.encode() + b"\n")
    await w.drain()
    return (await r.readline()).decode().rstrip("\n")


class TestTaggedWire:
    """The server side: raw tagged frames against the daemon."""

    def test_pipeline_probe(self, shard_paths):
        async def scenario():
            server, port = await _start(
                RouteService(shard_paths["backbone"]))
            r, w = await asyncio.open_connection("127.0.0.1", port)
            assert await _lockstep(r, w, "PIPELINE") == "OK pipeline 1"
            assert (await _lockstep(r, w, "PIPELINE extra")) == \
                "ERR usage PIPELINE"
            w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_tagged_replies_carry_the_tag(self, shard_paths):
        """A burst of tagged requests in one write: every reply frame
        is tagged, and reassembling by tag matches lockstep replies."""
        async def scenario():
            service = RouteService(shard_paths["backbone"])
            server, port = await _start(service)
            r, w = await asyncio.open_connection("127.0.0.1", port)
            want = {}
            for tag, line in (("a", "ROUTE mcvax piet"),
                              ("b", "EXACT mcvax"),
                              ("c", "ROUTE nowhere"),
                              ("d", "ROUTE allegra u")):
                want[tag] = await _lockstep(r, w, line)
            w.write(b"@a ROUTE mcvax piet\n@b EXACT mcvax\n"
                    b"@c ROUTE nowhere\n@d ROUTE allegra u\n")
            await w.drain()
            got = {}
            for _ in range(4):
                frame = (await r.readline()).decode().rstrip("\n")
                tagtok, _, reply = frame.partition(" ")
                assert tagtok.startswith("@"), frame
                got[tagtok[1:]] = reply
            assert got == want
            assert service.pipelined == 4
            assert service.inflight_hwm >= 1
            w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_tagged_source_applies_in_read_order(self, shard_paths):
        """``@1 SOURCE x`` then ``@2 ROUTE y`` in one write: the
        SOURCE is in effect (and answered) before the ROUTE runs."""
        async def scenario():
            server, port = await _start(
                RouteService(shard_paths["universities"]))
            r, w = await asyncio.open_connection("127.0.0.1", port)
            w.write(b"@1 SOURCE princeton\n@2 ROUTE topaz u\n")
            await w.drain()
            first = (await r.readline()).decode().rstrip("\n")
            assert first == "@1 OK source princeton"
            second = (await r.readline()).decode().rstrip("\n")
            assert second.startswith("@2 OK ")
            assert second.endswith("rutgers-ru!topaz!u")
            w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_tagged_bulk_frames_each_carry_the_tag(self, shard_paths):
        """A tagged TABLE: the head and all n continuation frames are
        prefixed, so a demux can tell them from a racing reply."""
        async def scenario():
            server, port = await _start(
                RouteService(shard_paths["arpa"]))
            r, w = await asyncio.open_connection("127.0.0.1", port)
            w.write(b"@t7 TABLE seismo brl-bmd nowhere\n")
            await w.drain()
            head = (await r.readline()).decode().rstrip("\n")
            assert head.startswith("@t7 OK table ")
            count = int(head.split()[-1])
            assert count == 2
            for _ in range(count):
                frame = (await r.readline()).decode().rstrip("\n")
                assert frame.startswith("@t7 ")
            w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_empty_tag_and_untagged_junk_stay_untagged(self,
                                                       shard_paths):
        async def scenario():
            server, port = await _start(
                RouteService(shard_paths["backbone"]))
            r, w = await asyncio.open_connection("127.0.0.1", port)
            reply = await _lockstep(r, w, "@ ROUTE mcvax")
            assert reply.startswith("ERR usage tagged request")
            # a still-healthy connection, lockstep as ever
            assert (await _lockstep(r, w, "EXACT mcvax")
                    ).startswith("OK ")
            w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_untagged_request_drains_tagged_work_first(self,
                                                       shard_paths):
        """Mixing styles on one connection: the untagged STATS reply
        comes after every in-flight tagged reply, strictly ordered."""
        async def scenario():
            server, port = await _start(
                RouteService(shard_paths["backbone"]))
            r, w = await asyncio.open_connection("127.0.0.1", port)
            w.write(b"@x ROUTE mcvax piet\n@y EXACT allegra\nSTATS\n")
            await w.drain()
            frames = [(await r.readline()).decode().rstrip("\n")
                      for _ in range(3)]
            assert frames[2].startswith("OK ")  # untagged, and last
            assert {f.split()[0] for f in frames[:2]} == {"@x", "@y"}
            w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_tagged_quit_drains_then_says_bye(self, shard_paths):
        async def scenario():
            server, port = await _start(
                RouteService(shard_paths["backbone"]))
            r, w = await asyncio.open_connection("127.0.0.1", port)
            w.write(b"@1 ROUTE mcvax piet\n@2 QUIT\n")
            await w.drain()
            frames = [(await r.readline()).decode().rstrip("\n")
                      for _ in range(2)]
            assert frames[0].startswith("@1 OK ")
            assert frames[1] == "@2 OK bye"
            assert (await r.readline()) == b""  # server hung up
            w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_stats_reports_pipeline_counters(self, shard_paths):
        async def scenario():
            server, port = await _start(
                RouteService(shard_paths["backbone"]))
            r, w = await asyncio.open_connection("127.0.0.1", port)
            w.write(b"@1 ROUTE mcvax\n@2 ROUTE allegra\n")
            await w.drain()
            await r.readline()
            await r.readline()
            stats = await _lockstep(r, w, "STATS")
            assert "n_pipelined=2" in stats
            assert "inflight_hwm=" in stats
            w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())


class TestMuxDemux:
    """The client side: the reply demultiplexer against a scripted
    server that interleaves bulk replies frame by frame — legal on the
    wire (every frame is tagged), even though the real daemon happens
    to write whole replies atomically."""

    def test_interleaved_table_and_costs_come_apart(self):
        received = []

        async def scripted(reader, writer):
            try:
                tags = {}
                while len(tags) < 2:
                    line = (await reader.readline()).decode().strip()
                    received.append(line)
                    tagtok, _, body = line.partition(" ")
                    tags[body.split()[0]] = tagtok[1:]
                t, c = tags["TABLE"], tags["COSTS"]
                # COSTS head first, then strict alternation: two bulk
                # replies sharing the wire frame by frame
                writer.write(
                    f"@{c} OK costs 2\n"
                    f"@{t} OK table 2\n"
                    f"@{c} 250 ARPA\n"
                    f"@{t} 100 foo seismo!foo!%s\n"
                    f"@{c} 2100 mcvax\n"
                    f"@{t} 200 bar seismo!bar!%s\n".encode())
                await writer.drain()
                await reader.read()  # until the client hangs up
            finally:
                writer.close()

        async def scenario():
            server = await asyncio.start_server(scripted, "127.0.0.1",
                                                0)
            port = server.sockets[0].getsockname()[1]
            backend = ShardBackend("scripted", "127.0.0.1", port)
            task = asyncio.create_task(backend.table_rows("seismo"))
            await asyncio.sleep(0)  # let TABLE submit first
            costs = await asyncio.gather(
                backend.state_costs("seismo", ["ARPA", "mcvax"]))
            rows = await task
            assert rows == {"foo": (100, "seismo!foo!%s"),
                            "bar": (200, "seismo!bar!%s")}
            assert costs == [{"ARPA": 250, "mcvax": 2100}]
            # COSTS was submitted second but completed first
            assert backend.out_of_order == 1
            assert backend.pipelined == 2
            assert backend.health().startswith("connected:2:0:1:2:1")
            # no capability probe: the first frame is already tagged
            assert [line.split()[1] for line in received] == \
                ["TABLE", "COSTS"]
            await backend.aclose(grace=0.0)
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())


class TestSourceOrder:
    """The daemon answers an inline ``SOURCE`` before it reads the
    request behind it, so a request's reply can never overtake its
    ``SOURCE`` reply; a scripted server that breaks that order fails
    the one request as a protocol error instead of trusting it."""

    def test_reply_before_its_source_is_a_protocol_error(self):
        async def scenario():
            served = asyncio.Event()

            async def scripted(reader, writer):
                tags = []
                while len(tags) < 2:
                    line = (await reader.readline()).decode().strip()
                    tags.append(line.partition(" ")[0])
                src, req = tags
                writer.write(f"{req} OK 7 y y!%s y!%s\n".encode())
                await writer.drain()
                await asyncio.sleep(0.2)  # the client acts on the reply
                writer.write(f"{src} OK source x backbone\n".encode())
                await writer.drain()
                await reader.read()
                writer.close()
                served.set()

            server = await asyncio.start_server(scripted, "127.0.0.1",
                                                0)
            port = server.sockets[0].getsockname()[1]
            backend = ShardBackend("scripted", "127.0.0.1", port)
            with pytest.raises(BackendError, match="protocol error: "
                               "'OK 7 y y!%s y!%s'"):
                await backend.route("x", "y")
            await backend.aclose(grace=0.0)
            await asyncio.wait_for(served.wait(), 5)
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())


class TestConcurrentSources:
    """Many requests, many sources, one connection: ``submit`` writes
    each ``SOURCE`` ride-along and its request in one ``write``, so a
    request can never run under another request's source."""

    def test_gathered_lookups_keep_their_own_source(self, shard_paths):
        async def scenario():
            local = Shard.open("backbone", shard_paths["backbone"])
            names = local.sources()
            entries = names[:5]
            want = {(e, t): await local.entry_resolve(e, t)
                    for e in entries for t in names}
            # targets whose answer differs under every entry, so a
            # request served under the wrong source cannot pass
            targets = [t for t in names
                       if len({want[(e, t)] for e in entries})
                       == len(entries)]
            assert len(targets) >= 3
            pairs = [(entries[i % len(entries)],
                      targets[i % len(targets)]) for i in range(200)]

            server, port = await _start(
                RouteService(shard_paths["backbone"]))
            backend = ShardBackend("backbone", "127.0.0.1", port)
            shard = await BackendShard.connect("backbone", backend)
            frames = backend.pipelined
            got = await asyncio.gather(
                *(shard.entry_resolve(e, t) for e, t in pairs))
            assert got == [want[pair] for pair in pairs]
            # every request switched source: one SOURCE frame each,
            # all on the one connection
            assert backend.pipelined - frames == 2 * len(pairs)
            assert backend.connects == 1
            await backend.aclose(grace=0.0)
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())


class _SlowRouteService(RouteService):
    """ROUTE answers take a beat — long enough to bounce the daemon
    while a burst of tagged requests is genuinely in flight."""

    async def handle_line(self, line, state):
        if line.strip().upper().startswith("ROUTE"):
            await asyncio.sleep(0.1)
        return await super().handle_line(line, state)


class TestRestartMidPipeline:
    """The resilience bar: a daemon restart with N tagged requests in
    flight — every request retried transparently, answers matched to
    their own lookups (misdelivery would cross the unique targets)."""

    def test_in_flight_burst_survives_a_restart(self, shard_paths):
        async def scenario():
            local = Shard.open("backbone", shard_paths["backbone"])
            entry = "seismo"
            targets = [s for s in local.sources() if s != entry][:8]
            want = {t: await local.entry_resolve(entry, t)
                    for t in targets}
            assert len(set(want.values())) == len(targets)

            writers = []
            service = _SlowRouteService(shard_paths["backbone"])

            async def handler(r, w):
                writers.append(w)
                await service.handle_connection(r, w)

            server = await asyncio.start_server(handler, "127.0.0.1",
                                                0)
            port = server.sockets[0].getsockname()[1]
            backend = ShardBackend("backbone", "127.0.0.1", port)
            shard = await BackendShard.connect("backbone", backend)
            tasks = [asyncio.create_task(
                shard.entry_resolve(entry, t)) for t in targets]
            await asyncio.sleep(0.03)  # all tagged, all in flight
            # hard restart: kill the listener AND every live socket
            server.close()
            await server.wait_closed()
            for w in writers:
                w.transport.abort()
            fresh = _SlowRouteService(shard_paths["backbone"])
            server = await asyncio.start_server(
                fresh.handle_connection, "127.0.0.1", port)
            got = await asyncio.gather(*tasks)
            assert dict(zip(targets, got)) == want
            assert backend.connects >= 2  # it really reconnected
            await backend.aclose(grace=0.0)
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())


class TestPipelinedCluster:
    """The cluster bar: stitched answers over pipelined backend
    daemons stay byte-identical to the in-process federation."""

    DESTS = ("topaz", "caip.rutgers.edu", "mit-ai", "mcvax",
             "x.edu", "nowhere")

    def test_pipelined_cluster_end_to_end(self, shard_paths):
        local_view = FederationView(
            [Shard.open(name, path)
             for name, path in shard_paths.items()])

        async def scenario():
            servers = {}
            backends = {}
            for name, path in shard_paths.items():
                server, port = await _start(RouteService(path))
                servers[name] = server
                backends[name] = f"127.0.0.1:{port}"
            service = await FederationService.create(
                backends=backends, default_source="ihnp4")
            checked = 0
            for source in local_view.sources():
                for dest in self.DESTS:
                    if dest == source:
                        continue
                    try:
                        want = local_view.resolve_with_cost(
                            source, dest, "user")
                    except RouteError as exc:
                        want = type(exc).__name__
                    try:
                        got = await service.view.aresolve_with_cost(
                            source, dest, "user")
                    except RouteError as exc:
                        got = type(exc).__name__
                    if isinstance(want, str):
                        assert want == got, (source, dest)
                    else:
                        assert (got.cost, got.resolution, got.shard,
                                got.via) == \
                            (want.cost, want.resolution, want.shard,
                             want.via), (source, dest)
                    checked += 1
            assert checked > 100
            for shard in service.view.shards.values():
                assert shard.backend.pipelined > 0
            await service.aclose()
            for server in servers.values():
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())


class TestFederationObservability:
    def test_stats_line_has_pipeline_counters(self, shard_paths):
        """The federation's STATS reports its own tagged-request
        counters plus the six-field backend health tokens."""
        async def scenario():
            server, port = await _start(
                RouteService(shard_paths["universities"]))
            service = await FederationService.create(
                shards={"backbone": shard_paths["backbone"]},
                backends={"universities": f"127.0.0.1:{port}"},
                default_source="ihnp4")
            front, fport = await _start(service)
            r, w = await asyncio.open_connection("127.0.0.1", fport)
            w.write(b"@1 ROUTE topaz u\n@2 ROUTE topaz v\n")
            await w.drain()
            await r.readline()
            await r.readline()
            stats = await _lockstep(r, w, "STATS")
            assert "n_pipelined=2" in stats
            assert "inflight_hwm=" in stats
            token = next(t for t in stats.split()
                         if t.startswith("backend_universities="))
            fields = token.partition("=")[2].split(":")
            assert len(fields) == 6
            assert fields[0] == "connected"
            assert int(fields[4]) > 0  # it pipelined to the backend
            w.close()
            front.close()
            await front.wait_closed()
            await service.aclose()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())


class TestWireFuzz:
    """Property fuzz: seeded random interleavings of tagged requests,
    untagged requests, garbage verbs, empty tags, and raw non-UTF-8
    bytes — sent in arbitrarily split chunks — must keep the wire
    framing sound.  The invariants:

    * every tagged request gets exactly one reply frame carrying its
      tag, byte-equal to the in-process oracle's answer, in any order;
    * untagged replies (including the daemon's inline protocol
      errors) come back in exact submission order;
    * an untagged request that reaches the dispatcher drains all
      earlier tagged work first, so its reply appears on the wire
      after every earlier tagged reply;
    * one malformed line produces exactly one ``ERR`` frame — the
      connection and its framing survive.
    """

    EMPTY_TAG_ERR = ("ERR usage tagged request needs a non-empty "
                     "tag: @<tag> VERB ...")
    ENCODING_ERR = "ERR encoding expected UTF-8"

    def test_random_interleavings_keep_framing(self, shard_paths):
        import random

        from repro.service.store import SnapshotReader

        path = shard_paths["backbone"]
        dests = SnapshotReader.open(path).sources()

        async def scenario():
            service = RouteService(path)
            oracle = RouteService(path)
            ostate = oracle.initial_state()
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            for seed in range(3):
                rng = random.Random(seed)
                r, w = await asyncio.open_connection("127.0.0.1",
                                                     port)
                # (wire bytes, kind, tag, expected reply)
                script: list[tuple] = []
                for i in range(120):
                    roll = rng.random()
                    dest = rng.choice(dests)
                    verb = rng.choice(("ROUTE", "EXACT", "FROB"))
                    line = f"{verb} {dest}"
                    if roll < 0.55:
                        expected = await oracle.handle_line(line,
                                                            ostate)
                        script.append((f"@t{i} {line}\n".encode(),
                                       "tagged", f"t{i}", expected))
                    elif roll < 0.85:
                        expected = await oracle.handle_line(line,
                                                            ostate)
                        script.append((f"{line}\n".encode(),
                                       "untagged", None, expected))
                    elif roll < 0.93:
                        script.append((b"@ ROUTE x\n", "inline",
                                       None, self.EMPTY_TAG_ERR))
                    else:
                        script.append((b"\xff\xfe junk\n", "inline",
                                       None, self.ENCODING_ERR))
                # Send the whole script in randomly split chunks, so
                # lines arrive torn across reads.
                data = b"".join(entry[0] for entry in script)
                cut = 0
                while cut < len(data):
                    step = rng.randrange(1, 80)
                    w.write(data[cut:cut + step])
                    await w.drain()
                    cut += step
                replies = []
                for _ in range(len(script)):
                    raw = await asyncio.wait_for(r.readline(), 10)
                    assert raw.endswith(b"\n")
                    replies.append(raw.decode("utf-8").rstrip("\n"))

                tagged_pos: dict[str, int] = {}
                untagged: list[tuple[int, str]] = []
                for pos, reply in enumerate(replies):
                    if reply.startswith("@"):
                        tag, _, rest = reply.partition(" ")
                        assert tag[1:] not in tagged_pos, \
                            f"tag {tag} answered twice"
                        tagged_pos[tag[1:]] = pos
                        continue
                    untagged.append((pos, reply))
                # Every tagged request: one reply, right bytes.
                want_tags = {e[2]: e[3] for e in script
                             if e[1] == "tagged"}
                assert set(tagged_pos) == set(want_tags)
                for pos, reply in enumerate(replies):
                    if reply.startswith("@"):
                        tag, _, rest = reply.partition(" ")
                        assert rest == want_tags[tag[1:]]
                # Untagged replies: exact submission order.
                expected_untagged = [e[3] for e in script
                                     if e[1] != "tagged"]
                assert [text for _, text in untagged] == \
                    expected_untagged
                # Drain barrier: an untagged dispatcher request's
                # reply appears after every earlier tagged reply.
                untagged_iter = iter(untagged)
                for idx, entry in enumerate(script):
                    if entry[1] != "untagged":
                        if entry[1] == "inline":
                            next(untagged_iter)
                        continue
                    pos, _ = next(untagged_iter)
                    earlier = [tagged_pos[e[2]]
                               for e in script[:idx]
                               if e[1] == "tagged"]
                    assert all(p < pos for p in earlier), \
                        f"untagged reply #{idx} overtook tagged work"
                w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())
