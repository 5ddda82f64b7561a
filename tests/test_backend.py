"""The remote-backend federation tier: fan-out to per-shard daemons.

The acceptance bars:

* stitched answers from a federation of **remote backend** shards are
  byte-identical to the in-process federation over the same snapshots,
  across the whole ``d.*`` fixture matrix;
* one backend daemon restart mid-traffic loses no lookups — the
  client pool reconnects with backoff and retries transparently;
* the daemon's bulk ``TABLE``/``COSTS`` verbs export exactly the data
  the front end assembles its remote view from.
"""

from __future__ import annotations

import asyncio
import base64
import functools
import struct
from pathlib import Path

import pytest

from repro.core.pathalias import Pathalias
from repro.errors import BackendError, FederationError, RouteError
from repro.service.backend import (
    BackendShard,
    ShardBackend,
    parse_backend_spec,
)
from repro.service.daemon import RouteService, serve
from repro.service.federation import (
    FederatedRouteDatabase,
    FederationService,
)
from repro.service.shard import FederationView, Shard
from repro.service.store import SnapshotError, build_snapshot

DATA = Path(__file__).parent / "data"
REGIONS = ("backbone", "universities", "arpa")


@pytest.fixture(scope="module")
def shard_paths(tmp_path_factory):
    """One snapshot per regional map, built once for the module."""
    tmp = tmp_path_factory.mktemp("backend-shards")
    paths = {}
    for name in REGIONS:
        text = (DATA / f"d.{name}").read_text()
        path = tmp / f"{name}.snap"
        build_snapshot(Pathalias().build([(f"d.{name}", text)]), path)
        paths[name] = str(path)
    return paths


def repriced_universities() -> str:
    """d.universities with princeton->rutgers-ru repriced from LOCAL
    to DEMAND, which moves ihnp4->topaz from cost 650 to 925."""
    return (DATA / "d.universities").read_text().replace(
        "princeton\tallegra(DEMAND), rutgers-ru(LOCAL), "
        "winnie(HOURLY)",
        "princeton\tallegra(DEMAND), rutgers-ru(DEMAND), "
        "winnie(HOURLY)")


class _CountingShard(Shard):
    """A local shard that counts the owner lookups a walk asks it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.resolves = 0

    async def entry_resolve(self, entry, target):
        self.resolves += 1
        return await super().entry_resolve(entry, target)


async def _reply_frame(r, w, line):
    """One request line to a front end, its one reply frame."""
    w.write(line.encode() + b"\n")
    await w.drain()
    raw = await asyncio.wait_for(r.readline(), 10)
    assert raw, f"connection closed instead of answering {line!r}"
    return raw.decode().rstrip("\n")


class _Cluster:
    """Per-shard RouteService daemons on one event loop, plus their
    ``host:port`` backend specs — the in-loop stand-in for separate
    daemon processes."""

    def __init__(self):
        self.servers = {}
        self.services = {}
        self.specs = {}
        self.fronts = []
        self.backends = []
        #: each daemon's open connections, which :meth:`stop` drops
        self.writers = {}

    async def _serve(self, name: str, service: RouteService,
                     port: int = 0) -> int:
        """Serve ``service`` as shard ``name``; returns the port."""
        writers = self.writers[name] = set()

        async def handle(reader, writer):
            writers.add(writer)
            try:
                await service.handle_connection(reader, writer)
            finally:
                writers.discard(writer)

        server = await asyncio.start_server(handle, "127.0.0.1", port)
        self.servers[name] = server
        self.services[name] = service
        return server.sockets[0].getsockname()[1]

    async def start(self, name: str, snapshot_path: str,
                    service_class=RouteService) -> str:
        """Serve ``snapshot_path`` as shard ``name``; returns the
        backend spec."""
        port = await self._serve(name, service_class(snapshot_path))
        self.specs[name] = f"127.0.0.1:{port}"
        return self.specs[name]

    async def stop(self, name: str) -> int:
        """Stop shard ``name``'s daemon as its process exit would,
        dropping its open connections; returns the port it held."""
        server = self.servers.pop(name)
        port = server.sockets[0].getsockname()[1]
        server.close()
        for writer in self.writers.pop(name):
            writer.close()
        await server.wait_closed()
        return port

    async def restart(self, name: str, snapshot_path: str,
                      port: int) -> None:
        """Bind a fresh daemon for ``name`` on the same port."""
        await self._serve(name, RouteService(snapshot_path), port)

    def dial(self, name: str) -> ShardBackend:
        """A client of shard ``name``'s daemon; :meth:`close` closes
        it."""
        host, port = parse_backend_spec(self.specs[name])
        backend = ShardBackend(name, host, port)
        self.backends.append(backend)
        return backend

    async def front(self, **kwargs) -> FederationService:
        """A fan-out front end (``FederationService.create(**kwargs)``)
        whose backend connections :meth:`close` closes."""
        service = await FederationService.create(**kwargs)
        self.fronts.append(service)
        return service

    async def close(self) -> None:
        """Close every client this cluster handed out and every front
        end's backend connections, then stop every daemon."""
        while self.fronts:
            await self.fronts.pop().aclose()
        while self.backends:
            await self.backends.pop().aclose(grace=0.0)
        for name in list(self.servers):
            await self.stop(name)


def _run(scenario) -> None:
    """Run ``scenario(cluster)`` on a fresh event loop and a fresh
    :class:`_Cluster`, which is closed whether the scenario passes or
    fails."""
    async def main():
        cluster = _Cluster()
        try:
            await scenario(cluster)
        finally:
            await cluster.close()

    asyncio.run(main())


class TestBackendSpec:
    def test_parse(self):
        assert parse_backend_spec("127.0.0.1:4311") == \
            ("127.0.0.1", 4311)
        assert parse_backend_spec("shard-a.example:80") == \
            ("shard-a.example", 80)
        assert parse_backend_spec("/maps/backbone.snap") is None
        assert parse_backend_spec("host:port") is None
        assert parse_backend_spec("host:0") is None
        assert parse_backend_spec("host:99999") is None
        assert parse_backend_spec("h ost:80") is None


class TestBulkVerbs:
    """TABLE/COSTS on the single-snapshot daemon."""

    async def request_lines(self, r, w, line):
        w.write(line.encode() + b"\n")
        await w.drain()
        head = (await r.readline()).decode().rstrip("\n")
        lines = []
        if head.startswith("OK"):
            for _ in range(int(head.split()[-1])):
                lines.append((await r.readline()).decode().rstrip("\n"))
        return head, lines

    def test_table_and_costs(self, shard_paths):
        async def scenario():
            service = RouteService(shard_paths["arpa"])
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", port)

            # TABLE bare: the routing index (sources + domains)
            head, lines = await self.request_lines(r, w, "TABLE")
            assert head == f"OK index {len(lines)}"
            entries = [tuple(line.split()) for line in lines]
            assert ("D", ".edu") in entries
            assert ("S", "seismo") in entries
            assert [name for _, name in entries] == \
                sorted(name for _, name in entries)

            # TABLE <source>: the whole table, name order
            head, lines = await self.request_lines(r, w,
                                                   "TABLE seismo")
            assert head.startswith("OK table ")
            names = [line.split()[1] for line in lines]
            assert names == sorted(names)
            assert "caip.rutgers.edu" in names

            # TABLE <source> <dest>...: batched exact lookups
            head, lines = await self.request_lines(
                r, w, "TABLE seismo brl-bmd nowhere caip.rutgers.edu")
            assert head == "OK table 3"
            got = {line.split()[1]: line.split()[0] for line in lines}
            assert got["nowhere"] == "-"
            assert got["brl-bmd"].isdigit()
            assert got["caip.rutgers.edu"].isdigit()

            # COSTS <source> <name>...: exact per-state costs, which
            # answer even for nodes the route records never print
            head, lines = await self.request_lines(
                r, w, "COSTS seismo ARPA mcvax nowhere")
            assert head == "OK costs 3"
            costs = dict(line.split()[::-1] for line in lines)
            assert costs["ARPA"].isdigit()  # net placeholder: priced
            assert costs["nowhere"] == "-"

            # errors keep the connection alive
            head, _ = await self.request_lines(r, w, "TABLE ghost")
            assert head == "ERR unknown-source ghost"
            head, _ = await self.request_lines(r, w, "COSTS")
            assert head.startswith("ERR usage")
            head, lines = await self.request_lines(r, w, "TABLE")
            assert head.startswith("OK index")

            w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())


class TestBackendShard:
    def test_connect_assembles_the_shard_surface(self, shard_paths):
        async def scenario(cluster):
            spec = await cluster.start("arpa", shard_paths["arpa"])
            shard = await BackendShard.connect("arpa", cluster.dial("arpa"))
            local = Shard.open("arpa", shard_paths["arpa"])
            assert shard.sources() == local.sources()
            assert shard.source_set == local.source_set
            assert shard.domains() == local.domains()
            assert shard.routing_index() == local.routing_index()
            assert shard.source_count == local.source_count
            assert shard.version == local.version == 2
            assert shard.path == f"tcp://{spec}"
            assert shard.snapshot == shard_paths["arpa"]
            # the async entry-query surface answers like the local one
            assert await shard.entry_resolve("seismo", "mcvax") == \
                await local.entry_resolve("seismo", "mcvax")
            assert await shard.entry_exact("seismo", "mcvax") == \
                await local.entry_exact("seismo", "mcvax")
            gates = ["seismo", "ucbvax", "nowhere"]
            assert await shard.route_legs("mit-ai", gates) == \
                await local.route_legs("mit-ai", gates)

        _run(scenario)

    def test_connect_ships_the_compiled_index(self, shard_paths):
        # the front end reads its ownership index out of the compiled
        # block (bulk TABLE --fsm), never the text TABLE index, and
        # sends no PIPELINE probe
        async def scenario(cluster):
            await cluster.start("arpa", shard_paths["arpa"])
            backend = cluster.dial("arpa")
            sent = []
            real_call = backend._call

            async def spy(line, **kwargs):
                sent.append(line)
                return await real_call(line, **kwargs)

            backend._call = spy
            shard = await BackendShard.connect("arpa", backend)
            assert sorted(sent) == ["STATS", "TABLE --fsm"]
            assert cluster.services["arpa"].verb_counts["PIPELINE"] == 0
            local = Shard.open("arpa", shard_paths["arpa"])
            assert shard.routing_index() == local.routing_index()

        _run(scenario)

    def test_corrupt_shipped_index_is_federation_error(self,
                                                       shard_paths):
        async def scenario(cluster):
            await cluster.start("arpa", shard_paths["arpa"])
            backend = cluster.dial("arpa")
            real_call = backend._call

            async def corrupting(line, **kwargs):
                if line == "TABLE --fsm":
                    return "OK fsm 1", ["bm90LWEtYmxvY2s="]
                return await real_call(line, **kwargs)

            backend._call = corrupting
            with pytest.raises(FederationError,
                               match="corrupt index automaton"):
                await BackendShard.connect("arpa", backend)

        _run(scenario)

    def test_unreachable_backend_is_federation_error(self):
        async def scenario():
            backend = ShardBackend("ghost", "127.0.0.1", 1,
                                   reconnect_patience=0.0)
            with pytest.raises(FederationError, match="unreachable"):
                await BackendShard.connect("ghost", backend)
            assert backend.state == "down"

        asyncio.run(scenario())


class TestLegSingleFlight:
    """Coalesced leg fetches survive a cancelled request.

    A request is cancelled when its client connection closes; one
    parked on another request's in-flight leg fetch must neither
    poison that fetch for the owner (whose completion-signal
    ``set_result`` would hit an already-cancelled future) nor
    spuriously cancel unrelated coalesced lookups.
    """

    def test_cancelled_waiter_does_not_poison_the_fetch(self):
        calls = []

        class SlowBackend:
            def __init__(self):
                self.release = asyncio.Event()

            async def table_rows(self, entry, gates):
                calls.append((entry, tuple(gates)))
                await self.release.wait()
                return {g: (100, f"{entry}!{g}!%s") for g in gates}

            async def state_costs(self, entry, gates):
                return {}

        async def scenario():
            backend = SlowBackend()
            shard = BackendShard("slow", backend,
                                 [("a", False)], 2, "x.snap", 0)
            owner = asyncio.ensure_future(shard.route_legs("a", ["g"]))
            await asyncio.sleep(0)  # owner claims the fetch
            waiter = asyncio.ensure_future(shard.route_legs("a", ["g"]))
            victim = asyncio.ensure_future(shard.route_legs("a", ["g"]))
            await asyncio.sleep(0)  # both coalesce on the owner
            await asyncio.sleep(0)
            victim.cancel()  # its client went away
            with pytest.raises(asyncio.CancelledError):
                await victim
            backend.release.set()
            legs = await asyncio.wait_for(owner, 5)
            assert legs == {"g": (100, "a!g!%s")}
            assert await asyncio.wait_for(waiter, 5) == legs
            assert calls == [("a", ("g",))]  # single flight held
            assert shard._leg_pending == {}

        asyncio.run(scenario())

    def test_cancelled_owner_hands_off_to_a_waiter(self):
        class Backend:
            def __init__(self):
                self.calls = 0

            async def table_rows(self, entry, gates):
                self.calls += 1
                if self.calls == 1:  # first flight never lands
                    await asyncio.Event().wait()
                return {g: (7, f"{g}!%s") for g in gates}

            async def state_costs(self, entry, gates):
                return {}

        async def scenario():
            backend = Backend()
            shard = BackendShard("slow", backend,
                                 [("a", False)], 2, "x.snap", 0)
            owner = asyncio.ensure_future(shard.route_legs("a", ["g"]))
            await asyncio.sleep(0)
            waiter = asyncio.ensure_future(shard.route_legs("a", ["g"]))
            await asyncio.sleep(0)
            owner.cancel()
            with pytest.raises(asyncio.CancelledError):
                await owner
            # the keys come back unclaimed; the waiter retries them
            assert await asyncio.wait_for(waiter, 5) == {"g": (7, "g!%s")}
            assert backend.calls == 2
            assert shard._leg_pending == {}

        asyncio.run(scenario())


class TestFanOutFederation:
    """The tentpole bar: remote-backend federation == in-process."""

    def test_full_matrix_byte_identical_to_in_process(self,
                                                      shard_paths):
        local_view = FederationView(
            [Shard.open(name, path)
             for name, path in shard_paths.items()])

        async def scenario(cluster):
            backends = {}
            for name, path in shard_paths.items():
                backends[name] = await cluster.start(name, path)
            service = await cluster.front(
                backends=backends, default_source="ihnp4")
            remote_view = service.view

            sources = local_view.sources()
            destinations = sources + ["caip.rutgers.edu",
                                      "ernie.berkeley.edu", "x.edu"]
            checked = 0
            for source in sources:
                for dest in destinations:
                    if dest == source:
                        continue
                    try:
                        want = local_view.resolve_with_cost(
                            source, dest, "user")
                    except RouteError as exc:
                        want = type(exc).__name__
                    try:
                        got = await remote_view.aresolve_with_cost(
                            source, dest, "user")
                    except RouteError as exc:
                        got = type(exc).__name__
                    assert type(want) is type(got), (source, dest)
                    if isinstance(want, str):
                        assert want == got, (source, dest)
                    else:
                        assert (got.cost, got.resolution, got.shard,
                                got.via) == \
                            (want.cost, want.resolution, want.shard,
                             want.via), (source, dest)
                    checked += 1
            assert checked > 1000  # the suite really swept the matrix

        _run(scenario)

    def test_warm_stitch_asks_only_the_owner_entries_it_expands(
            self, shard_paths):
        """With every gateway leg cached, a stitch sends a backend
        exactly one request per owner entry the walk expands — the
        same owner lookups the in-process walk makes, shard by shard,
        and nothing for states it never pops."""
        local_view = FederationView(
            [_CountingShard.open(name, path)
             for name, path in shard_paths.items()])
        sources = local_view.sources()
        pairs = [(source, dest)
                 for source in sources
                 for dest in sources + ["caip.rutgers.edu",
                                        "ernie.berkeley.edu", "x.edu"]
                 if dest != source]

        async def sweep(view):
            for source, dest in pairs:
                try:
                    await view.aresolve_with_cost(source, dest, "user")
                except RouteError:
                    pass

        async def scenario(cluster):
            backends = {}
            for name, path in shard_paths.items():
                backends[name] = await cluster.start(name, path)
            service = await cluster.front(
                backends=backends, default_source="ihnp4", cache_size=0)
            remote = service.view
            await sweep(remote)  # warms every leg the matrix needs
            before = {name: shard.backend.requests
                      for name, shard in remote.shards.items()}
            await sweep(remote)
            asked = {name: shard.backend.requests - before[name]
                     for name, shard in remote.shards.items()}
            await sweep(local_view)
            expanded = {name: shard.resolves
                        for name, shard in local_view.shards.items()}
            assert sum(expanded.values()) > len(pairs)
            assert asked == expanded

        _run(scenario)

    def test_mixed_local_and_backend_shards(self, shard_paths):
        """--shard and --backend mix in one view; answers match the
        all-local federation."""
        local_view = FederationView(
            [Shard.open(name, path)
             for name, path in shard_paths.items()])

        async def scenario(cluster):
            spec = await cluster.start("universities",
                                       shard_paths["universities"])
            service = await cluster.front(
                shards={"backbone": shard_paths["backbone"],
                        "arpa": shard_paths["arpa"]},
                backends={"universities": spec},
                default_source="ihnp4")
            for dest in ("topaz", "caip.rutgers.edu", "mit-ai"):
                want = local_view.resolve_with_cost("ihnp4", dest,
                                                    "user")
                got = await service.view.aresolve_with_cost(
                    "ihnp4", dest, "user")
                assert (got.cost, got.resolution) == \
                    (want.cost, want.resolution)
            stats = service.stats_line()
            assert "backends=1" in stats
            assert "backend_universities=connected:" in stats

        _run(scenario)

    def test_protocol_replies_byte_compatible(self, shard_paths):
        """The fan-out front end's wire replies are indistinguishable
        from the in-process federation daemon's."""

        async def request(r, w, line):
            w.write(line.encode() + b"\n")
            await w.drain()
            return (await r.readline()).decode().rstrip("\n")

        async def scenario(cluster):
            backends = {}
            for name, path in shard_paths.items():
                backends[name] = await cluster.start(name, path)
            service = await cluster.front(
                backends=backends, default_source="ihnp4")
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", port)
            assert await request(r, w, "ROUTE topaz user") == \
                ("OK 650 topaz allegra!princeton!rutgers-ru!topaz!%s "
                 "allegra!princeton!rutgers-ru!topaz!user")
            assert await request(r, w, "EXACT topaz") == \
                "OK 650 topaz allegra!princeton!rutgers-ru!topaz!%s"
            assert await request(r, w, "SOURCE princeton") == \
                "OK source princeton backbone"
            assert await request(r, w, "ROUTE mit-ai bob") == \
                ("OK 695 mit-ai allegra!seismo!%s@mit-ai "
                 "allegra!seismo!bob@mit-ai")
            assert (await request(r, w, "ROUTE nowhere")) == \
                "ERR noroute nowhere"
            shards_reply = await request(r, w, "SHARDS")
            assert "arpa=17:tcp://" in shards_reply
            w.close()
            server.close()
            await server.wait_closed()

        _run(scenario)

    def test_federated_client_unchanged(self, shard_paths):
        """FederatedRouteDatabase drives a fan-out front end without a
        single client-side change."""
        import threading

        ready = threading.Event()
        box = {}

        def run_front_end():
            async def amain(cluster):
                backends = {}
                for name, path in shard_paths.items():
                    backends[name] = await cluster.start(name, path)
                service = await cluster.front(
                    backends=backends, default_source="ihnp4")
                server = await serve(service)
                box["port"] = server.sockets[0].getsockname()[1]
                box["stop"] = asyncio.Event()
                box["loop"] = asyncio.get_running_loop()
                ready.set()
                await box["stop"].wait()
                server.close()
                await server.wait_closed()

            _run(amain)

        thread = threading.Thread(target=run_front_end, daemon=True)
        thread.start()
        assert ready.wait(10)
        try:
            with FederatedRouteDatabase(
                    ("127.0.0.1", box["port"])) as db:
                assert db.route("topaz") == \
                    "allegra!princeton!rutgers-ru!topaz!%s"
                res = db.resolve("caip.rutgers.edu", "honey")
                assert res.address == "seismo!caip.rutgers.edu!honey"
                shards = db.shards()
                assert set(shards) == set(REGIONS)
                stats = db.stats()
                assert stats["backends"] == "3"
        finally:
            box["loop"].call_soon_threadsafe(box["stop"].set)
            thread.join(10)


class TestBackendRestart:
    """The resilience bar: one backend daemon restart mid-traffic,
    zero failed lookups."""

    def test_restart_between_lookups(self, shard_paths):
        async def scenario(cluster):
            backends = {}
            for name, path in shard_paths.items():
                backends[name] = await cluster.start(name, path)
            service = await cluster.front(
                backends=backends, default_source="ihnp4")
            fed = await service.view.aresolve_with_cost(
                "ihnp4", "topaz", "user")
            assert fed.cost == 650
            # bounce the universities daemon on the same port
            port = await cluster.stop("universities")
            await cluster.restart("universities",
                                  shard_paths["universities"], port)
            # the pooled sockets are stale; the next lookup must
            # reconnect transparently and still answer identically
            fed = await service.view.aresolve_with_cost(
                "ihnp4", "topaz", "user")
            assert fed.cost == 650
            assert fed.resolution.address == \
                "allegra!princeton!rutgers-ru!topaz!user"

        _run(scenario)

    def test_restart_mid_traffic_no_failed_lookup(self, shard_paths):
        """Clients hammer stitched lookups while one backend daemon
        goes down and comes back; every request is answered OK."""
        requests_per_client = 30
        clients = 4

        async def scenario(cluster):
            backends = {}
            for name, path in shard_paths.items():
                backends[name] = await cluster.start(name, path)
            service = await cluster.front(
                backends=backends, default_source="ihnp4")
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]

            async def request(r, w, line):
                w.write(line.encode() + b"\n")
                await w.drain()
                return (await r.readline()).decode().rstrip("\n")

            async def client(i):
                r, w = await asyncio.open_connection("127.0.0.1",
                                                     port)
                answered = 0
                for k in range(requests_per_client):
                    reply = await request(r, w, f"ROUTE topaz u{i}.{k}")
                    assert reply == (
                        f"OK 650 topaz "
                        f"allegra!princeton!rutgers-ru!topaz!%s "
                        f"allegra!princeton!rutgers-ru!topaz!u{i}.{k}"
                    ), reply
                    answered += 1
                    await asyncio.sleep(0)
                w.close()
                return answered

            async def bouncer():
                # one restart of the universities backend mid-traffic;
                # the brief down window is inside the pool's
                # reconnect patience
                await asyncio.sleep(0.05)
                bounce_port = await cluster.stop("universities")
                await asyncio.sleep(0.1)
                await cluster.restart(
                    "universities", shard_paths["universities"],
                    bounce_port)
                return 1

            results = await asyncio.gather(
                *(client(i) for i in range(clients)), bouncer())
            assert results == [requests_per_client] * clients + [1]
            health = service.stats_line()
            assert "backend_universities=connected:" in health
            server.close()
            await server.wait_closed()

        _run(scenario)


class _BadIndexService(RouteService):
    """A backend daemon whose ``TABLE --fsm`` block names its first
    index entry badly: with a byte that is not UTF-8 (``utf8``) or
    with a ref that runs past the block's blob (``past-blob``)."""

    fault = "utf8"

    async def do_TABLE(self, args, state):
        if args != ["--fsm"]:
            return await super().do_TABLE(args, state)
        block = bytearray(self.reader.index_fsm_bytes())
        _, _, _, sc, ec, lc, nc = struct.unpack_from("<4sHHIIII", block)
        names = 24 + 16 * sc + 8 * ec + 8 * lc
        off, _, _ = struct.unpack_from("<III", block, names)
        if self.fault == "utf8":
            block[names + 12 * nc + off] = 0xFF
        else:
            struct.pack_into("<I", block, names + 4, len(block))
        return f"OK fsm 1\n{base64.b64encode(bytes(block)).decode()}"


class TestBackendAdministration:
    async def request(self, r, w, line):
        w.write(line.encode() + b"\n")
        await w.drain()
        return (await r.readline()).decode().rstrip("\n")

    def test_attach_detach_backend_spec(self, shard_paths):
        """ATTACH accepts host:port specs; DETACH closes the pool
        after the swap."""
        async def scenario(cluster):
            spec_b = await cluster.start("backbone",
                                         shard_paths["backbone"])
            spec_u = await cluster.start("universities",
                                         shard_paths["universities"])
            service = await cluster.front(
                backends={"backbone": spec_b},
                default_source="ihnp4")
            service.retire_grace = 0.05  # fast pool retirement
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", port)
            assert (await self.request(r, w, "ROUTE topaz u")) == \
                "ERR noroute topaz"
            reply = await self.request(
                r, w, f"ATTACH universities {spec_u}")
            assert reply.startswith("OK attached universities 11 ")
            assert (await self.request(r, w, "ROUTE topaz u")
                    ).startswith("OK 650 ")
            # the detached backend's pool retires in the background
            # (after the grace window for pinned in-flight lookups)
            backend = service.view.shards["universities"].backend
            assert await self.request(r, w, "DETACH universities") \
                == "OK detached universities"
            for _ in range(100):
                if backend.state == "closed":
                    break
                await asyncio.sleep(0.01)
            assert backend.state == "closed"
            # ... and the shard is gone from the picture
            assert (await self.request(r, w, "ROUTE topaz u")) == \
                "ERR noroute topaz"
            # a bad spec/port is an attach error, connection survives
            reply = await self.request(r, w,
                                       "ATTACH ghost 127.0.0.1:1")
            assert reply.startswith("ERR attach")
            assert (await self.request(r, w, "SHARDS")).startswith(
                "OK 1 backbone=10:tcp://")
            w.close()
            server.close()
            await server.wait_closed()

        _run(scenario)

    @pytest.mark.parametrize("fault", ["utf8", "past-blob"])
    def test_attach_refuses_a_bad_index_name(self, shard_paths, fault):
        """A backend whose shipped index block holds a bad name fails
        ATTACH with ``ERR attach``; the connection keeps serving and
        the shard stays out of the picture."""
        async def scenario():
            bad = _BadIndexService(shard_paths["arpa"])
            bad.fault = fault
            backend_server = await serve(bad)
            port = backend_server.sockets[0].getsockname()[1]
            service = FederationService(
                {"backbone": shard_paths["backbone"]},
                default_source="ihnp4")
            server = await serve(service)
            r, w = await asyncio.open_connection(
                "127.0.0.1", server.sockets[0].getsockname()[1])
            try:
                reply = await self.request(
                    r, w, f"ATTACH arpa 127.0.0.1:{port}")
                assert reply.startswith("ERR attach backend arpa "), reply
                assert "corrupt index automaton" in reply
                assert (await self.request(r, w, "SHARDS")).startswith(
                    "OK 1 backbone=")
            finally:
                w.close()
                server.close()
                await server.wait_closed()
                await service.aclose()
                backend_server.close()
                await backend_server.wait_closed()

        asyncio.run(scenario())

    def test_reload_forwards_to_backend_and_resyncs(self, shard_paths,
                                                    tmp_path):
        """RELOAD <shard> <snap> on a backend shard reloads the remote
        daemon and re-synchronizes the cached index in one swap."""
        revised = repriced_universities()
        revised_snap = tmp_path / "universities2.snap"
        build_snapshot(
            Pathalias().build([("d.universities", revised)]),
            revised_snap)

        async def scenario(cluster):
            backends = {}
            for name, path in shard_paths.items():
                backends[name] = await cluster.start(name, path)
            service = await cluster.front(
                backends=backends, default_source="ihnp4")
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", port)
            assert (await self.request(r, w, "ROUTE topaz u")
                    ).startswith("OK 650 ")
            reply = await self.request(
                r, w, f"RELOAD universities {revised_snap}")
            assert reply.startswith("OK reloaded universities 11 ")
            # the remote daemon itself was reloaded...
            assert cluster.services["universities"].reader.path == \
                revised_snap
            # ... and stitched answers use the repriced link
            assert (await self.request(r, w, "ROUTE topaz u")
                    ).startswith("OK 925 ")
            # untouched shards keep answering identically
            assert (await self.request(r, w, "ROUTE mcvax piet")) == \
                "OK 2100 mcvax seismo!mcvax!%s seismo!mcvax!piet"
            # reload of a missing file: ERR reload, old picture serves
            bad = await self.request(
                r, w, "RELOAD universities /no/such.snap")
            assert bad.startswith("ERR reload")
            assert (await self.request(r, w, "ROUTE topaz u")
                    ).startswith("OK 925 ")
            w.close()
            server.close()
            await server.wait_closed()

        _run(scenario)

    def test_failed_resync_rolls_the_backend_back(
            self, shard_paths, tmp_path, monkeypatch):
        """A forwarded reload whose index re-sync fails must not
        split-brain the shard: the backend daemon is rolled back to
        the snapshot the cached index still describes, and answers
        stay unchanged."""
        revised = repriced_universities()
        revised_snap = tmp_path / "universities2.snap"
        build_snapshot(
            Pathalias().build([("d.universities", revised)]),
            revised_snap)

        async def scenario(cluster):
            backends = {}
            for name, path in shard_paths.items():
                backends[name] = await cluster.start(name, path)
            service = await cluster.front(
                backends=backends, default_source="ihnp4")
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", port)
            assert (await self.request(r, w, "ROUTE topaz u")
                    ).startswith("OK 650 ")

            async def failing_sync(cls, name, backend):
                raise FederationError(f"backend {name}: sync failed")

            monkeypatch.setattr(BackendShard, "connect",
                                classmethod(failing_sync))
            reply = await self.request(
                r, w, f"RELOAD universities {revised_snap}")
            assert reply.startswith("ERR reload")
            assert "sync failed" in reply
            # the backend daemon was rolled back, so the front end's
            # cached index and the remote snapshot still agree ...
            assert cluster.services["universities"].reader.path == \
                Path(shard_paths["universities"])
            # ... and stitched answers are unchanged
            assert (await self.request(r, w, "ROUTE topaz u")
                    ).startswith("OK 650 ")
            assert service.reloads == 0
            w.close()
            server.close()
            await server.wait_closed()

        _run(scenario)


class TestNotifyInvalidatesCache:
    """A backend daemon reloaded *directly* (never through the front
    end) pushes NOTIFY; the front end's result cache must bump for
    exactly that shard — once on the push, again after the re-sync
    swap — so no caller ever gets a pre-reload cached answer after
    the new generation is visible."""

    async def request(self, r, w, line):
        w.write(line.encode() + b"\n")
        await w.drain()
        return (await r.readline()).decode().rstrip("\n")

    def test_direct_backend_reload_bumps_the_front_cache(
            self, shard_paths, tmp_path):
        revised = repriced_universities()
        revised_snap = tmp_path / "universities-notify.snap"
        build_snapshot(
            Pathalias().build([("d.universities", revised)]),
            revised_snap)

        async def scenario(cluster):
            backends = {}
            for name, path in shard_paths.items():
                backends[name] = await cluster.start(name, path)
            service = await cluster.front(
                backends=backends, default_source="ihnp4")
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", port)
            # prime the cache with the old-generation answer
            assert (await self.request(r, w, "ROUTE topaz u")
                    ).startswith("OK 650 ")
            assert (await self.request(r, w, "ROUTE topaz v")
                    ).startswith("OK 650 ")
            assert service.cache.hits == 1
            # reload the backend daemon directly — the front end
            # learns only through the NOTIFY push
            await cluster.services["universities"].reload(
                str(revised_snap))
            for _ in range(500):
                if service.resyncs >= 1:
                    break
                await asyncio.sleep(0.01)
            assert service.resyncs == 1
            assert service.reloads == 0
            # bumped on the push AND after the re-sync swap
            assert service.cache.invalidations >= 2
            # the next answer is the new generation's, not the cache's
            assert (await self.request(r, w, "ROUTE topaz u")
                    ).startswith("OK 925 ")
            stats = await self.request(r, w, "STATS")
            assert "n_cache_invalidations=" in stats
            w.close()
            server.close()
            await server.wait_closed()

        _run(scenario)

    def test_push_during_resync_is_not_lost(self, shard_paths, tmp_path,
                                            monkeypatch):
        """A second push that lands while the first push's re-sync
        already holds the older picture must still reach the view:
        the front end re-syncs once more after that re-sync finishes,
        with no third push."""
        gen1 = tmp_path / "universities-gen1.snap"
        build_snapshot(Pathalias().build(
            [("d.universities", repriced_universities())]), gen1)
        gen2 = tmp_path / "universities-gen2.snap"
        build_snapshot(Pathalias().build(
            [("d.universities",
              repriced_universities() + "princeton\tnewhost(DEMAND)\n")]),
            gen2)
        real_connect = BackendShard.connect.__func__

        async def scenario(cluster):
            backends = {}
            for name, path in shard_paths.items():
                backends[name] = await cluster.start(name, path)
            service = await cluster.front(
                backends=backends, default_source="ihnp4")
            fetched = asyncio.Event()
            release = asyncio.Event()
            connects = []

            async def holding_connect(cls, name, backend):
                shard = await real_connect(cls, name, backend)
                connects.append(shard.snapshot)
                if len(connects) == 1:
                    # the first re-sync has read the gen-1 STATS and
                    # index; hold it there
                    fetched.set()
                    await release.wait()
                return shard

            monkeypatch.setattr(BackendShard, "connect",
                                classmethod(holding_connect))
            daemon = cluster.services["universities"]
            await daemon.reload(str(gen1))
            await asyncio.wait_for(fetched.wait(), 5)
            assert connects == [str(gen1)]
            bumps = service.cache.invalidations
            await daemon.reload(str(gen2))
            for _ in range(500):
                if service.cache.invalidations > bumps:
                    break
                await asyncio.sleep(0.01)
            assert service.cache.invalidations > bumps
            release.set()

            oracle = FederationService(
                dict(shard_paths, universities=str(gen2)),
                default_source="ihnp4", dispatch="dict")
            want = await oracle.handle_line("ROUTE newhost u",
                                            oracle.initial_state())
            assert want.startswith("OK ")
            state = service.initial_state()
            for _ in range(500):
                got = await service.handle_line("ROUTE newhost u", state)
                if got == want:
                    break
                await asyncio.sleep(0.01)
            assert got == want
            assert daemon.notify_pushes == 2
            assert service.resyncs == 2

        _run(scenario)

    def test_same_path_backend_reload_resyncs(self, shard_paths,
                                              tmp_path):
        """A backend reloaded directly at the path the front end's
        view already names, after the file was rewritten in place, is
        new bytes, not the echo of a forwarded reload: the front end
        must re-sync and answer like a fresh dict-walk oracle."""
        import shutil

        # the module-scoped fixture file is shared: rewrite a copy
        universities = tmp_path / "universities.snap"
        shutil.copyfile(shard_paths["universities"], universities)
        paths = dict(shard_paths, universities=str(universities))

        async def scenario(cluster):
            backends = {}
            for name, path in paths.items():
                backends[name] = await cluster.start(name, path)
            service = await cluster.front(
                backends=backends, default_source="ihnp4")
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", port)
            assert (await self.request(r, w, "ROUTE topaz u")
                    ).startswith("OK 650 ")
            build_snapshot(Pathalias().build(
                [("d.universities", repriced_universities())]),
                universities)
            await cluster.services["universities"].reload(
                str(universities))
            for _ in range(500):
                if service.resyncs >= 1:
                    break
                await asyncio.sleep(0.01)
            assert service.resyncs == 1
            oracle = FederationService(paths, default_source="ihnp4",
                                       dispatch="dict")
            want = await oracle.handle_line("ROUTE topaz u",
                                            oracle.initial_state())
            assert want.startswith("OK 925 ")
            assert await self.request(r, w, "ROUTE topaz u") == want
            w.close()
            server.close()
            await server.wait_closed()

        _run(scenario)


async def _until(predicate) -> None:
    """Wait up to 5 s for ``predicate()`` to hold."""
    for _ in range(500):
        if predicate():
            return
        await asyncio.sleep(0.01)


def _repriced_snapshot(tmp_path) -> Path:
    """The repriced universities map as a snapshot."""
    path = tmp_path / "universities-repriced.snap"
    build_snapshot(Pathalias().build(
        [("d.universities", repriced_universities())]), path)
    return path


async def _oracle_reply(paths: dict, line: str) -> str:
    """``line`` answered by an in-process dict-walk federation."""
    oracle = FederationService(paths, default_source="ihnp4",
                               dispatch="dict")
    return await oracle.handle_line(line, oracle.initial_state())


class TestFailedCreate:
    """A ``FederationService.create`` that fails closes every backend
    it already dialed, so the daemon's connection handler ends."""

    @pytest.mark.parametrize("other, source, error", [
        ({"b": "127.0.0.1:1"}, None, FederationError),
        ({}, "ghost", SnapshotError),
    ], ids=["unreachable", "ghost-source"])
    def test_dialed_backends_are_closed(self, shard_paths, other, source,
                                        error):
        async def scenario(cluster):
            spec = await cluster.start("backbone", shard_paths["backbone"])
            with pytest.raises(error):
                await FederationService.create(
                    backends={"a": spec, **other}, default_source=source)
            assert cluster.services["backbone"].connections == 1
            handlers = cluster.writers["backbone"]
            await asyncio.wait_for(_until(lambda: not handlers), 1.0)
            assert not handlers

        _run(scenario)


class TestOneConnectionPerBackend:
    """Reload pushes ride the request connection: one socket per
    backend, and a re-dialed connection is subscribed again, which
    re-syncs the front end."""

    def test_one_connection_per_backend(self, shard_paths):
        async def scenario(cluster):
            backends = {name: await cluster.start(name, path)
                        for name, path in shard_paths.items()}
            front = await cluster.front(backends=backends,
                                        default_source="ihnp4")
            stats = front.stats_line()
            for name, daemon in cluster.services.items():
                assert daemon.connections == 1
                assert len(daemon.notify_subscribers) == 1
                token = next(t for t in stats.split()
                             if t.startswith(f"backend_{name}="))
                assert token.split("=", 1)[1].split(":")[3] == "1"

        _run(scenario)

    def test_restart_on_another_snapshot_resyncs(self, shard_paths,
                                                  tmp_path):
        """A backend restarted at the same port on another snapshot
        sends no push; the re-dialed, re-subscribed connection still
        re-syncs the front end, which then answers like a fresh
        oracle."""
        revised = _repriced_snapshot(tmp_path)

        async def scenario(cluster):
            backends = {name: await cluster.start(name, path)
                        for name, path in shard_paths.items()}
            front = await cluster.front(backends=backends,
                                        default_source="ihnp4")
            state = front.initial_state()
            assert (await front.handle_line("ROUTE topaz u", state)
                    ).startswith("OK 650 ")
            port = await cluster.stop("universities")
            await cluster.restart("universities", str(revised), port)
            await _until(lambda: front.resyncs >= 1)
            assert front.resyncs == 1
            assert cluster.services["universities"].notify_pushes == 0
            want = await _oracle_reply(
                dict(shard_paths, universities=str(revised)),
                "ROUTE topaz u")
            assert want.startswith("OK 925 ")
            assert await front.handle_line("ROUTE topaz u", state) == want

        _run(scenario)

    def test_deadline_failure_keeps_the_subscription(
            self, shard_paths, tmp_path, monkeypatch):
        """A stalled backend's deadline fails its connection; the
        connection that replaces it is subscribed, so a later direct
        reload of that backend still re-syncs the front end."""
        revised = _repriced_snapshot(tmp_path)
        # every backend the front end dials waits 0.2 s per request
        monkeypatch.setattr(ShardBackend, "__init__", functools.partialmethod(
            ShardBackend.__init__, timeout=0.2))

        async def scenario(cluster):
            backends = {}
            for name, path in shard_paths.items():
                backends[name] = await cluster.start(
                    name, path, _StallingService
                    if name == "universities" else RouteService)
            daemon = cluster.services["universities"]
            daemon.stalling = False
            front = await cluster.front(backends=backends,
                                        default_source="ihnp4",
                                        cache_size=0)
            state = front.initial_state()
            assert (await front.handle_line("ROUTE topaz u", state)
                    ).startswith("OK 650 ")
            daemon.stalling = True
            reply = await front.handle_line("ROUTE topaz u", state)
            assert reply.startswith("ERR federation backend universities")
            assert reply.endswith("failed: TimeoutError")
            daemon.stalling = False
            await daemon.reload(str(revised))
            await _until(lambda: front.resyncs >= 1)
            assert front.resyncs == 1
            want = await _oracle_reply(
                dict(shard_paths, universities=str(revised)),
                "ROUTE topaz u")
            assert await front.handle_line("ROUTE topaz u", state) == want

        _run(scenario)


class _GarblingService(RouteService):
    """A backend daemon that breaks the protocol on purpose: for the
    verbs in ``garble``, its ``ROUTE``/``EXACT`` replies and the data
    lines of its ``OK table``/``OK costs`` replies carry a non-integer
    cost."""

    garble: frozenset = frozenset()

    async def handle_line(self, line, state):
        reply = await super().handle_line(line, state)
        verb = line.split()[0].upper() if line.split() else ""
        if verb not in self.garble:
            return reply
        head, *rows = reply.split("\n")
        if verb in ("ROUTE", "EXACT") and head.startswith("OK "):
            ok, cost, rest = head.split(" ", 2)
            return f"{ok} {cost}x {rest}"
        if head.startswith(("OK table", "OK costs")):
            return "\n".join([head] + [f"x{row}" if row[0].isdigit()
                                       else row for row in rows])
        return reply


class TestMalformedBackendReply:
    """A backend reply whose cost field is not an integer fails that
    one request with ``ERR federation``, tagged or not; the front
    end's connection keeps serving and counts the error."""

    @pytest.mark.parametrize("verb, request_line, frame", [
        ("ROUTE", "ROUTE seismo", "OK 300x seismo seismo!%s seismo!%s"),
        ("EXACT", "EXACT seismo", "OK 300x seismo seismo!%s"),
        ("TABLE", "ROUTE topaz", "x300 allegra allegra!%s"),
        ("COSTS", "ROUTE topaz", "x300 allegra"),
    ])
    def test_error_reply_and_connection_survives(self, shard_paths, verb,
                                                 request_line, frame):
        async def reply_frame(r, w, line):
            w.write(line.encode() + b"\n")
            await w.drain()
            raw = await asyncio.wait_for(r.readline(), 10)
            assert raw, f"connection closed instead of answering {line!r}"
            return raw.decode().rstrip("\n")

        async def scenario():
            servers, backends = [], {}
            for name, path in shard_paths.items():
                service = _GarblingService(path)
                service.garble = frozenset({verb})
                server = await serve(service)
                servers.append(server)
                backends[name] = \
                    f"127.0.0.1:{server.sockets[0].getsockname()[1]}"
            front = await FederationService.create(
                backends=backends, default_source="ihnp4", cache_size=0)
            server = await serve(front)
            port = server.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", port)
            try:
                error = ("ERR federation backend backbone protocol "
                         f"error: {frame!r}")
                assert await reply_frame(r, w, request_line) == error
                assert await reply_frame(
                    r, w, f"@t1 {request_line}") == f"@t1 {error}"
                stats = await reply_frame(r, w, "STATS")
                assert stats.startswith("OK lookups=")
                assert " n_errors=2 " in stats
            finally:
                w.close()
                server.close()
                await server.wait_closed()
                await front.aclose()
                for backend_server in servers:
                    backend_server.close()
                    await backend_server.wait_closed()

        asyncio.run(scenario())


class TestBackendFaultNotCached:
    """A backend fault answers ``ERR federation`` but is not a fact of
    the map: with the result cache on, the pair's next request asks
    the backend again and gets the real answer once it recovers."""

    def test_recovered_backend_answers_through_the_cache(
            self, shard_paths):
        async def scenario():
            servers, services, backends = [], {}, {}
            for name, path in shard_paths.items():
                services[name] = service = _GarblingService(path)
                server = await serve(service)
                servers.append(server)
                backends[name] = \
                    f"127.0.0.1:{server.sockets[0].getsockname()[1]}"
            front = await FederationService.create(
                backends=backends, default_source="ihnp4")
            assert front.cache is not None
            server = await serve(front)
            port = server.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", port)
            try:
                services["backbone"].garble = frozenset({"ROUTE"})
                assert await _reply_frame(r, w, "ROUTE seismo") == (
                    "ERR federation backend backbone protocol error: "
                    "'OK 300x seismo seismo!%s seismo!%s'")
                services["backbone"].garble = frozenset()
                answer = "OK 300 seismo seismo!%s seismo!%s"
                assert await _reply_frame(r, w, "ROUTE seismo") == answer
                # the recovered answer is cached like any other
                assert await _reply_frame(r, w, "ROUTE seismo") == answer
                stats = await _reply_frame(r, w, "STATS")
                assert " n_cache_hits=1 " in stats
            finally:
                w.close()
                server.close()
                await server.wait_closed()
                await front.aclose()
                for backend_server in servers:
                    backend_server.close()
                    await backend_server.wait_closed()

        asyncio.run(scenario())


class _StallingService(RouteService):
    """A backend daemon whose ``ROUTE`` replies come too late while
    :attr:`stalling` is set."""

    stalling = True

    async def handle_line(self, line, state):
        if self.stalling and line.split()[:1] == ["ROUTE"]:
            await asyncio.sleep(1.0)
        return await super().handle_line(line, state)


class TestStalledBackend:
    def test_timeout_twice_is_a_federation_error(self, shard_paths):
        """A backend that misses the client timeout on the request and
        on its one retry fails that request with ``ERR federation``;
        the front end's connection keeps serving."""

        async def reply_frame(r, w, line):
            w.write(line.encode() + b"\n")
            await w.drain()
            raw = await asyncio.wait_for(r.readline(), 10)
            assert raw, f"connection closed instead of answering {line!r}"
            return raw.decode().rstrip("\n")

        async def scenario():
            backend_server = await serve(
                _StallingService(shard_paths["backbone"]))
            port = backend_server.sockets[0].getsockname()[1]
            backend = ShardBackend("backbone", "127.0.0.1", port,
                                   timeout=0.2)
            shard = await BackendShard.connect("backbone", backend)
            front = FederationService([shard], default_source="ihnp4",
                                      cache_size=0)
            server = await serve(front)
            r, w = await asyncio.open_connection(
                "127.0.0.1", server.sockets[0].getsockname()[1])
            try:
                error = (f"ERR federation backend backbone "
                         f"(127.0.0.1:{port}) failed: TimeoutError")
                assert await reply_frame(r, w, "ROUTE seismo") == error
                assert await reply_frame(r, w, "@t1 ROUTE seismo") == \
                    f"@t1 {error}"
                stats = await reply_frame(r, w, "STATS")
                assert " n_errors=2 " in stats
            finally:
                w.close()
                server.close()
                await server.wait_closed()
                await backend.aclose(grace=0.0)
                backend_server.close()
                await backend_server.wait_closed()

        asyncio.run(scenario())


class TestStalledBackendDeadline:
    def test_gathered_calls_share_one_deadline_handle(self, shard_paths):
        """Three calls in flight on one connection to a stalled daemon
        all fail with the one-retry ``TimeoutError`` well inside the
        window of two timeouts each; ``aclose`` then cancels the
        connection's armed deadline handle and closes its transport."""

        async def scenario():
            backend_server = await serve(
                _StallingService(shard_paths["backbone"]))
            port = backend_server.sockets[0].getsockname()[1]
            backend = ShardBackend("backbone", "127.0.0.1", port,
                                   timeout=0.2)
            loop = asyncio.get_running_loop()
            try:
                start = loop.time()
                results = await asyncio.gather(
                    *(backend.route("seismo", target)
                      for target in ("mcvax", "ucbvax", "allegra")),
                    return_exceptions=True)
                assert loop.time() - start < 2.0
                for result in results:
                    assert isinstance(result, BackendError), result
                    assert str(result) == (
                        f"backend backbone (127.0.0.1:{port}) "
                        f"failed: TimeoutError")
                # a call that completes leaves the handle armed ...
                backend.timeout = 30.0
                assert (await backend.stats())["format"] == "2"
                mux = backend._mux
                assert mux._timer is not None
            finally:
                await backend.aclose(grace=0.0)
                backend_server.close()
                await backend_server.wait_closed()
            # ... and closing the backend disarms it
            assert mux._timer is None
            assert mux.transport.is_closing()

        asyncio.run(scenario())

    def test_lowered_timeout_takes_effect_at_once(self, shard_paths):
        """A timeout lowered on a live connection bounds the very next
        request: a ``ROUTE`` the backend stalls for 1 s fails with the
        one-retry ``TimeoutError`` well before the stall ends, although
        the connection's handle was armed for the old 5 s deadline."""

        async def scenario(cluster):
            backends = {}
            for name, path in shard_paths.items():
                backends[name] = await cluster.start(
                    name, path, _StallingService
                    if name == "universities" else RouteService)
            daemon = cluster.services["universities"]
            daemon.stalling = False
            front = await cluster.front(backends=backends,
                                        default_source="ihnp4",
                                        cache_size=0)
            state = front.initial_state()
            assert (await front.handle_line("ROUTE topaz u", state)
                    ).startswith("OK 650 ")
            backend = front.view.shards["universities"].backend
            assert backend.timeout == 5.0
            assert backend._mux._timer is not None
            backend.timeout = 0.2
            daemon.stalling = True
            loop = asyncio.get_running_loop()
            start = loop.time()
            reply = await front.handle_line("ROUTE topaz u", state)
            assert loop.time() - start < 0.8
            assert reply.startswith("ERR federation backend universities")
            assert reply.endswith("failed: TimeoutError")

        _run(scenario)


async def _scripted_backend(replies):
    """A scripted daemon.  ``replies[i]`` is ``(data, close)``:
    connection ``i`` reads one tagged request, writes ``data`` with
    ``{tag}`` replaced by the request's tag, then hangs up if
    ``close``, else waits for the client to.  Returns the server."""
    served = iter(replies)

    async def handler(reader, writer):
        try:
            data, close = next(served)
            line = (await reader.readline()).decode()
            tag = line.partition(" ")[0][1:]
            writer.write(data.replace(b"{tag}", tag.encode()))
            await writer.drain()
            if not close:
                await reader.read()
        finally:
            writer.close()

    return await asyncio.start_server(handler, "127.0.0.1", 0)


class TestReplyFraming:
    """A reply frame is whole only once its newline has arrived: the
    mux never delivers a frame that EOF cut short as an answer, and a
    frame it cannot trust fails the connection."""

    CUT = b"@{tag} OK table 1\n@{tag} 12 gate a!b!ga"
    WHOLE = b"@{tag} OK table 1\n@{tag} 12 gate a!b!gate!%s\n"

    def _table_rows(self, replies):
        async def scenario():
            server = await _scripted_backend(replies)
            backend = ShardBackend(
                "scripted", "127.0.0.1",
                server.sockets[0].getsockname()[1])
            try:
                return await backend.table_rows("src", ["gate"])
            finally:
                await backend.aclose(grace=0.0)
                server.close()
                await server.wait_closed()

        return asyncio.run(scenario())

    def test_cut_reply_is_an_error(self):
        with pytest.raises(BackendError,
                           match="failed: backend closed the connection"):
            self._table_rows([(self.CUT, True), (self.CUT, True)])

    def test_cut_reply_takes_the_one_retry(self):
        assert self._table_rows([(self.CUT, True), (self.WHOLE, False)]) \
            == {"gate": (12, "a!b!gate!%s")}

    @pytest.mark.parametrize("junk", [
        b"OK table 0\n",                            # untagged
        b"@zz OK table 0\n",                        # unknown tag
        b"@{tag} OK table 1\n@{tag} \xff\xfe\n",     # not UTF-8
        b"@{tag} OK table x\n",                     # bulk count
        b"@{tag} OK table 1\n@{tag} 1 a " + b"x" * 70000,  # > 64 KiB
        b"NOTIFY reloaded 1 /maps/x.snap\n",         # never subscribed
    ], ids=["untagged", "unknown-tag", "not-utf8", "bulk-count",
            "overlong-partial", "unsubscribed-push"])
    def test_broken_framing_fails_the_connection(self, junk):
        """A frame the mux cannot trust fails the connection at once —
        the overlong one without waiting for its newline — so the
        request takes its one retry and then fails, long before its
        deadline."""
        async def scenario():
            server = await _scripted_backend([(junk, False)] * 2)
            backend = ShardBackend(
                "scripted", "127.0.0.1",
                server.sockets[0].getsockname()[1], timeout=5.0)
            loop = asyncio.get_running_loop()
            start = loop.time()
            try:
                with pytest.raises(BackendError, match="failed: ") as err:
                    await backend.table_rows("src", ["gate"])
                assert "TimeoutError" not in str(err.value)
                assert loop.time() - start < 2.0
                assert backend.connects == 2
            finally:
                await backend.aclose(grace=0.0)
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())


def _task_name(task) -> str:
    """The qualified name of the coroutine ``task`` runs."""
    return task.get_coro().__qualname__


def _client_tasks() -> set:
    """The running tasks that no daemon connection runs."""
    return {t for t in asyncio.all_tasks()
            if _task_name(t) not in ("LineService.handle_connection",
                                     "_Cluster._serve.<locals>.handle")}


class _TaskRecordingService(RouteService):
    """Records the task each ``ROUTE`` and ``TABLE`` handler ran on."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tasks = []

    async def do_ROUTE(self, args, state):
        self.tasks.append(asyncio.current_task())
        return await super().do_ROUTE(args, state)

    async def do_TABLE(self, args, state):
        self.tasks.append(asyncio.current_task())
        return await super().do_TABLE(args, state)


class _TaskRecordingFederation(FederationService):
    """Records the task each ``ROUTE`` handler ran on."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tasks = []

    async def do_ROUTE(self, args, state):
        self.tasks.append(asyncio.current_task())
        return await super().do_ROUTE(args, state)


class TestNoHops:
    """The lookup round trip starts no task on either side: the
    single-snapshot daemon answers tagged lookups inline, and the mux
    resolves replies from its protocol callback."""

    BURST = ("ROUTE mcvax", "TABLE seismo ucbvax nowhere", "ROUTE allegra",
             "TABLE seismo", "ROUTE nowhere", "ROUTE ucbvax u")

    def test_daemon_answers_tagged_lookups_on_the_connection(
            self, shard_paths):
        async def scenario():
            service = _TaskRecordingService(shard_paths["backbone"])
            server = await serve(service)
            r, w = await asyncio.open_connection(
                "127.0.0.1", server.sockets[0].getsockname()[1])
            try:
                w.write("".join(f"@{i} {line}\n" for i, line
                                in enumerate(self.BURST)).encode())
                w.write(b"QUIT\n")
                await w.drain()
                frames = (await asyncio.wait_for(r.read(), 10)).decode()
                assert frames.endswith("OK bye\n")
                assert {f.split()[0] for f in frames.splitlines()[:-1]} \
                    == {f"@{i}" for i in range(len(self.BURST))}
            finally:
                w.close()
                server.close()
                await server.wait_closed()
            assert len(service.tasks) == len(self.BURST)
            assert len(set(service.tasks)) == 1
            assert _task_name(service.tasks[0]) == \
                "LineService.handle_connection"

        asyncio.run(scenario())

    def test_federation_answers_tagged_lookups_on_tasks(self, shard_paths):
        async def scenario(cluster):
            backends = {name: await cluster.start(name, path)
                        for name, path in shard_paths.items()}
            front = await _TaskRecordingFederation.create(
                backends=backends, default_source="ihnp4", cache_size=0)
            cluster.fronts.append(front)
            server = await serve(front)
            r, w = await asyncio.open_connection(
                "127.0.0.1", server.sockets[0].getsockname()[1])
            targets = ("topaz", "mit-ai", "mcvax", "caip.rutgers.edu")
            try:
                w.write("".join(f"@{i} ROUTE {t}\n" for i, t
                                in enumerate(targets)).encode())
                await w.drain()
                for _ in targets:
                    frame = await asyncio.wait_for(r.readline(), 10)
                    assert frame.startswith(b"@")
            finally:
                w.close()
                server.close()
                await server.wait_closed()
            assert len(front.tasks) == len(targets)
            assert len(set(front.tasks)) == len(targets)
            assert all(_task_name(t) != "LineService.handle_connection"
                       for t in front.tasks)

        _run(scenario)

    def test_connect_leaves_no_task_running(self, shard_paths):
        async def scenario(cluster):
            await cluster.start("arpa", shard_paths["arpa"])
            before = _client_tasks()
            shard = await BackendShard.connect("arpa", cluster.dial("arpa"))
            assert _client_tasks() == before
            await shard.entry_resolve("seismo", "mcvax")  # nor a lookup
            assert _client_tasks() == before

        _run(scenario)

    def test_subscribed_front_end_leaves_no_task_running(self,
                                                         shard_paths):
        """A front end subscribed to every backend's reload pushes
        runs no client task: the pushes ride the request connection,
        which is read by its protocol callback."""
        async def scenario(cluster):
            backends = {name: await cluster.start(name, path)
                        for name, path in shard_paths.items()}
            before = _client_tasks()
            front = await cluster.front(backends=backends,
                                        default_source="ihnp4")
            for daemon in cluster.services.values():
                assert len(daemon.notify_subscribers) == 1
            assert _client_tasks() == before
            assert (await front.handle_line(
                "ROUTE topaz u", front.initial_state())
            ).startswith("OK 650 ")
            assert _client_tasks() == before

        _run(scenario)
