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
from pathlib import Path

import pytest

from repro.core.pathalias import Pathalias
from repro.errors import FederationError, RouteError
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
from repro.service.store import build_snapshot

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


class _Cluster:
    """Per-shard RouteService daemons on one event loop, plus their
    ``host:port`` backend specs — the in-loop stand-in for separate
    daemon processes."""

    def __init__(self):
        self.servers = {}
        self.services = {}
        self.specs = {}

    async def start(self, name: str, snapshot_path: str) -> str:
        """Serve ``snapshot_path`` as shard ``name``; returns the
        backend spec."""
        service = RouteService(snapshot_path)
        server = await serve(service)
        port = server.sockets[0].getsockname()[1]
        self.servers[name] = server
        self.services[name] = service
        self.specs[name] = f"127.0.0.1:{port}"
        return self.specs[name]

    async def stop(self, name: str) -> int:
        """Stop shard ``name``'s daemon; returns the port it held."""
        server = self.servers.pop(name)
        port = server.sockets[0].getsockname()[1]
        server.close()
        await server.wait_closed()
        return port

    async def restart(self, name: str, snapshot_path: str,
                      port: int) -> None:
        """Bind a fresh daemon for ``name`` on the same port."""
        service = RouteService(snapshot_path)
        server = await asyncio.start_server(
            service.handle_connection, "127.0.0.1", port)
        self.servers[name] = server
        self.services[name] = service

    async def close(self) -> None:
        """Stop every daemon."""
        for name in list(self.servers):
            await self.stop(name)


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
        async def scenario():
            cluster = _Cluster()
            spec = await cluster.start("arpa", shard_paths["arpa"])
            host, port = parse_backend_spec(spec)
            shard = await BackendShard.connect(
                "arpa", ShardBackend("arpa", host, port))
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
            await cluster.close()

        asyncio.run(scenario())

    def test_connect_ships_the_compiled_index(self, shard_paths):
        # the front end reads its ownership index out of the compiled
        # block (bulk TABLE --fsm), never the text TABLE index, and
        # sends no PIPELINE probe
        async def scenario():
            cluster = _Cluster()
            spec = await cluster.start("arpa", shard_paths["arpa"])
            host, port = parse_backend_spec(spec)
            backend = ShardBackend("arpa", host, port)
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
            await cluster.close()

        asyncio.run(scenario())

    def test_corrupt_shipped_index_is_federation_error(self,
                                                       shard_paths):
        async def scenario():
            cluster = _Cluster()
            spec = await cluster.start("arpa", shard_paths["arpa"])
            host, port = parse_backend_spec(spec)
            backend = ShardBackend("arpa", host, port)
            real_call = backend._call

            async def corrupting(line, **kwargs):
                if line == "TABLE --fsm":
                    return "OK fsm 1", ["bm90LWEtYmxvY2s="]
                return await real_call(line, **kwargs)

            backend._call = corrupting
            with pytest.raises(FederationError,
                               match="corrupt index automaton"):
                await BackendShard.connect("arpa", backend)
            await cluster.close()

        asyncio.run(scenario())

    def test_unreachable_backend_is_federation_error(self):
        async def scenario():
            backend = ShardBackend("ghost", "127.0.0.1", 1,
                                   reconnect_patience=0.0)
            with pytest.raises(FederationError, match="unreachable"):
                await BackendShard.connect("ghost", backend)
            assert backend.state == "down"

        asyncio.run(scenario())


class TestLegSingleFlight:
    """Coalesced leg fetches survive speculative-stitch reaping.

    The stitched Dijkstra cancels speculative prefetch tasks it never
    expanded; a cancelled task parked on another fetch's in-flight
    future must neither poison that future for the owner (whose
    completion-signal ``set_result`` would hit an already-cancelled
    future) nor spuriously cancel unrelated coalesced lookups.
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
            victim.cancel()  # the stitch reaps a speculative task
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

        async def scenario():
            cluster = _Cluster()
            backends = {}
            for name, path in shard_paths.items():
                backends[name] = await cluster.start(name, path)
            service = await FederationService.create(
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
            await cluster.close()

        asyncio.run(scenario())

    def test_mixed_local_and_backend_shards(self, shard_paths):
        """--shard and --backend mix in one view; answers match the
        all-local federation."""
        local_view = FederationView(
            [Shard.open(name, path)
             for name, path in shard_paths.items()])

        async def scenario():
            cluster = _Cluster()
            spec = await cluster.start("universities",
                                       shard_paths["universities"])
            service = await FederationService.create(
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
            await cluster.close()

        asyncio.run(scenario())

    def test_protocol_replies_byte_compatible(self, shard_paths):
        """The fan-out front end's wire replies are indistinguishable
        from the in-process federation daemon's."""

        async def request(r, w, line):
            w.write(line.encode() + b"\n")
            await w.drain()
            return (await r.readline()).decode().rstrip("\n")

        async def scenario():
            cluster = _Cluster()
            backends = {}
            for name, path in shard_paths.items():
                backends[name] = await cluster.start(name, path)
            service = await FederationService.create(
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
            await cluster.close()

        asyncio.run(scenario())

    def test_federated_client_unchanged(self, shard_paths):
        """FederatedRouteDatabase drives a fan-out front end without a
        single client-side change."""
        import threading

        ready = threading.Event()
        box = {}

        def run_front_end():
            async def amain():
                cluster = _Cluster()
                backends = {}
                for name, path in shard_paths.items():
                    backends[name] = await cluster.start(name, path)
                service = await FederationService.create(
                    backends=backends, default_source="ihnp4")
                server = await serve(service)
                box["port"] = server.sockets[0].getsockname()[1]
                box["stop"] = asyncio.Event()
                box["loop"] = asyncio.get_running_loop()
                ready.set()
                await box["stop"].wait()
                server.close()
                await server.wait_closed()
                await cluster.close()

            asyncio.run(amain())

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
        async def scenario():
            cluster = _Cluster()
            backends = {}
            for name, path in shard_paths.items():
                backends[name] = await cluster.start(name, path)
            service = await FederationService.create(
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
            await cluster.close()

        asyncio.run(scenario())

    def test_restart_mid_traffic_no_failed_lookup(self, shard_paths):
        """Clients hammer stitched lookups while one backend daemon
        goes down and comes back; every request is answered OK."""
        requests_per_client = 30
        clients = 4

        async def scenario():
            cluster = _Cluster()
            backends = {}
            for name, path in shard_paths.items():
                backends[name] = await cluster.start(name, path)
            service = await FederationService.create(
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
            await cluster.close()

        asyncio.run(scenario())


class TestBackendAdministration:
    async def request(self, r, w, line):
        w.write(line.encode() + b"\n")
        await w.drain()
        return (await r.readline()).decode().rstrip("\n")

    def test_attach_detach_backend_spec(self, shard_paths):
        """ATTACH accepts host:port specs; DETACH closes the pool
        after the swap."""
        async def scenario():
            cluster = _Cluster()
            spec_b = await cluster.start("backbone",
                                         shard_paths["backbone"])
            spec_u = await cluster.start("universities",
                                         shard_paths["universities"])
            service = await FederationService.create(
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
            await cluster.close()

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

        async def scenario():
            cluster = _Cluster()
            backends = {}
            for name, path in shard_paths.items():
                backends[name] = await cluster.start(name, path)
            service = await FederationService.create(
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
            await cluster.close()

        asyncio.run(scenario())

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

        async def scenario():
            cluster = _Cluster()
            backends = {}
            for name, path in shard_paths.items():
                backends[name] = await cluster.start(name, path)
            service = await FederationService.create(
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
            await cluster.close()

        asyncio.run(scenario())


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

        async def scenario():
            cluster = _Cluster()
            backends = {}
            for name, path in shard_paths.items():
                backends[name] = await cluster.start(name, path)
            service = await FederationService.create(
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
            # bumped on the push AND after the re-sync swap, for
            # exactly the reloaded shard
            assert service.cache.invalidations >= 2
            assert service.cache.generations.token(
                "universities") >= 2
            assert service.cache.generations.token("backbone") == 0
            # the next answer is the new generation's, not the cache's
            assert (await self.request(r, w, "ROUTE topaz u")
                    ).startswith("OK 925 ")
            stats = await self.request(r, w, "STATS")
            assert "n_cache_invalidations=" in stats
            w.close()
            server.close()
            await server.wait_closed()
            await cluster.close()

        asyncio.run(scenario())

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

        async def scenario():
            cluster = _Cluster()
            backends = {}
            for name, path in shard_paths.items():
                backends[name] = await cluster.start(name, path)
            service = await FederationService.create(
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
            for shard in service.view.shards.values():
                await shard.backend.aclose(grace=0.0)
            await cluster.close()

        asyncio.run(scenario())

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

        async def scenario():
            cluster = _Cluster()
            backends = {}
            for name, path in paths.items():
                backends[name] = await cluster.start(name, path)
            service = await FederationService.create(
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
            await cluster.close()

        asyncio.run(scenario())


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
                for name, shard in front.view.shards.items():
                    await shard.backend.aclose(grace=0.0)
                for backend_server in servers:
                    backend_server.close()
                    await backend_server.wait_closed()

        asyncio.run(scenario())


class _StallingService(RouteService):
    """A backend daemon whose ``ROUTE`` replies come too late."""

    async def handle_line(self, line, state):
        if line.split()[:1] == ["ROUTE"]:
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
