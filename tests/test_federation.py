"""Sharded federation: ownership, gateway stitching, daemon verbs.

The fixtures are the three regional maps under ``tests/data`` —
``d.backbone``, ``d.universities``, ``d.arpa`` — served as independent
shards, which is exactly the multi-map UUCP deployment the federation
tier exists for.  The acceptance bar: a cross-shard lookup returns a
stitched ``%s`` route byte-equal to routing the *concatenated* map
through the same gateway.
"""

from __future__ import annotations

import asyncio
from pathlib import Path

import pytest

from repro.core.pathalias import Pathalias
from repro.errors import FederationError, RouteError
from repro.mailer.router import MailRouter
from repro.service.daemon import serve
from repro.service.federation import (
    FederatedRouteDatabase,
    FederationService,
)
from repro.service.shard import FederationView, Shard
from repro.service.store import SnapshotReader, build_snapshot

DATA = Path(__file__).parent / "data"
REGIONS = ("backbone", "universities", "arpa")


@pytest.fixture(scope="module")
def shard_paths(tmp_path_factory):
    """One snapshot per regional map, built once for the module."""
    tmp = tmp_path_factory.mktemp("shards")
    paths = {}
    for name in REGIONS:
        text = (DATA / f"d.{name}").read_text()
        path = tmp / f"{name}.snap"
        build_snapshot(Pathalias().build([(f"d.{name}", text)]), path)
        paths[name] = str(path)
    return paths


@pytest.fixture(scope="module")
def view(shard_paths):
    return FederationView(
        [Shard.open(name, path) for name, path in shard_paths.items()])


@pytest.fixture(scope="module")
def concat_tool():
    """The same three maps parsed as one graph (the oracle)."""
    named = [(f"d.{name}", (DATA / f"d.{name}").read_text())
             for name in REGIONS]
    return Pathalias().build(named)


def concat_table(concat_tool, source):
    from repro.core.fastmap import map_routes
    from repro.graph.compact import CompactGraph

    return map_routes(CompactGraph.compile(concat_tool), source)


class TestMergedIndex:
    def test_domain_names_exposed_by_reader(self, shard_paths):
        reader = SnapshotReader.open(shard_paths["arpa"])
        assert reader.domain_names() == [".berkeley", ".edu",
                                         ".rutgers"]
        assert SnapshotReader.open(
            shard_paths["backbone"]).domain_names() == []

    def test_routing_index_merges_sources_and_domains(self,
                                                      shard_paths):
        reader = SnapshotReader.open(shard_paths["arpa"])
        index = reader.routing_index()
        assert index == sorted(index)
        assert (".edu", True) in index
        assert ("seismo", False) in index

    def test_ownership_by_longest_suffix(self, view):
        assert view.owners_of("topaz") == ("topaz", ("universities",))
        assert view.owners_of("caip.rutgers.edu") == (".edu", ("arpa",))
        assert view.owners_of("allegra") == (
            "allegra", ("backbone", "universities"))
        assert view.owners_of("nowhere") == ("", ())

    def test_gateways_are_shared_table_hosts(self, view):
        assert view.gateways("backbone", "universities") == (
            "allegra", "cornell", "harvard", "princeton")
        assert view.gateways("backbone", "arpa") == ("seismo",
                                                     "ucbvax")
        assert view.gateways("universities", "arpa") == ()
        # symmetric
        assert view.gateways("arpa", "backbone") == (
            view.gateways("backbone", "arpa"))

    def test_home_shard_deterministic_for_gateways(self, view):
        # princeton has tables in backbone and universities; the
        # lexicographically first shard name wins, every time.
        assert view.home_shard("princeton").name == "backbone"
        assert view.home_shard("topaz").name == "universities"
        assert view.home_shard("ghost") is None


class TestStitching:
    def test_cross_shard_route_byte_equal_to_concat_map(
            self, view, concat_tool):
        """The acceptance bar: stitching through the gateway equals
        routing the concatenated map through the same gateway."""
        fed = view.resolve_with_cost("ihnp4", "topaz", "user")
        assert fed.federated
        gateway, entered = fed.via[0]
        assert (gateway, entered) == ("allegra", "universities")
        # stitch the oracle through the same gateway: concat-map route
        # ihnp4 -> allegra, then concat-map route allegra -> topaz.
        oracle = concat_table(concat_tool, "ihnp4")
        leg_a = oracle.route(gateway)
        leg_b = concat_table(concat_tool, gateway).route("topaz")
        assert fed.resolution.route == leg_a.replace("%s", leg_b, 1)
        # and the whole stitched route is byte-equal to the
        # concatenated map's own shortest path.
        assert fed.resolution.route == oracle.route("topaz")
        assert fed.cost == 650
        assert fed.resolution.address == \
            "allegra!princeton!rutgers-ru!topaz!user"

    def test_cross_shard_domain_suffix_route(self, view, concat_tool):
        fed = view.resolve_with_cost("ihnp4", "caip.rutgers.edu",
                                     "honey")
        assert fed.via == (("seismo", "arpa"),)
        assert fed.resolution.matched == "caip.rutgers.edu"
        oracle = concat_table(concat_tool, "ihnp4")
        assert fed.resolution.route == oracle.route("caip.rutgers.edu")
        assert fed.resolution.route == "seismo!caip.rutgers.edu!%s"
        assert fed.resolution.address == "seismo!caip.rutgers.edu!honey"
        assert fed.cost == 395

    def test_transit_shard_route(self, view, concat_tool):
        """topaz lives only in universities; mit-ai only in ARPA; no
        shared gateway — the route transits the backbone shard."""
        fed = view.resolve_with_cost("topaz", "mit-ai", "minsky")
        assert len(fed.via) == 2
        assert fed.via[1] == ("seismo", "arpa")
        oracle = concat_table(concat_tool, "topaz")
        assert fed.resolution.route == oracle.route("mit-ai")
        assert fed.resolution.address == \
            fed.resolution.route.replace("%s", "minsky", 1)

    def test_mixed_syntax_template_stitches(self, view):
        """An @-style inner template lands inside the outer bang path
        with its single %s intact."""
        fed = view.resolve_with_cost("princeton", "mit-ai", "bob")
        assert fed.resolution.route == "allegra!seismo!%s@mit-ai"
        assert fed.resolution.address == "allegra!seismo!bob@mit-ai"
        assert fed.cost == 695

    def test_without_user_keeps_relative_template(self, view):
        fed = view.resolve_with_cost("ihnp4", "topaz")
        assert fed.resolution.address == fed.resolution.route
        assert fed.resolution.route.count("%s") == 1

    def test_exact_lookup_federates(self, view):
        fed = view.exact("ihnp4", "topaz")
        assert fed.cost == 650
        assert fed.resolution.route == \
            "allegra!princeton!rutgers-ru!topaz!%s"
        with pytest.raises(RouteError):
            # EXACT consults the merged index verbatim: display names
            # match, but no suffix walk happens.
            view.exact("ihnp4", "x.edu")


class TestStitchedCostExactness:
    """Stitched costs read exact per-state numbers from v2 shards —
    and match the concatenated-map mapper *exactly*, source by
    source, destination by destination.

    Scope: every source outside the ``@``-style ARPA net.  For an
    ARPA member the single-label concat mapper contaminates its own
    labels with the mixed-syntax penalty (an ``!`` hop after the
    ``@`` entry), a paper-known artifact of one label per node that
    no per-shard decomposition can — or should — reproduce; each
    shard prices its own region (see shard.py).
    """

    def pure_sources(self, view):
        arpa = view.shards["arpa"]
        return [s for s in view.sources() if not arpa.has_source(s)]

    def test_every_pair_matches_concat_mapper(self, view,
                                              concat_tool):
        from repro.errors import RouteError
        from repro.mailer.routedb import RouteDatabase

        sources = self.pure_sources(view)
        assert len(sources) >= 15  # the fixtures' non-ARPA world
        # destinations: every table-owning host plus suffix-matched
        # domain members (exercise the domain walk across shards)
        destinations = view.sources() + ["caip.rutgers.edu",
                                         "ernie.berkeley.edu",
                                         "x.edu"]
        checked = 0
        for source in sources:
            oracle = RouteDatabase.from_table(
                concat_table(concat_tool, source))
            for dest in destinations:
                if dest == source:
                    continue
                try:
                    want_cost, want = oracle.resolve_with_cost(
                        dest, "user")
                except RouteError:
                    want_cost = want = None
                try:
                    fed = view.resolve_with_cost(source, dest,
                                                 "user")
                except RouteError:  # includes FederationError
                    assert want is None, (
                        f"{source}->{dest}: concat resolves "
                        f"({want_cost}), federation does not")
                    continue
                assert want is not None, (
                    f"{source}->{dest}: federation resolves "
                    f"({fed.cost}), concat does not")
                assert fed.cost == want_cost, (
                    f"{source}->{dest}: stitched {fed.cost} != "
                    f"concat {want_cost} (via {fed.via})")
                # addresses (fully instantiated) compare uniformly:
                # on a domain match the federation's template is
                # already gateway-relative, the oracle's is not.
                assert fed.resolution.address == want.address, (
                    f"{source}->{dest}: stitched address "
                    f"{fed.resolution.address!r} != concat "
                    f"{want.address!r}")
                checked += 1
        assert checked > 400  # the suite really swept the matrix

    def test_gateway_legs_priced_from_state_records(self, view):
        """The stitch's gateway costs come from the v2 STAT block
        (exact mapper state costs, keyed by node), and agree with the
        printed record where both exist."""
        backbone = view.shards["backbone"]
        for gate in view.gateways("backbone", "universities"):
            exact = backbone.state_cost("ihnp4", gate)
            record = backbone.table("ihnp4").cost(gate)
            assert exact is not None
            assert exact == record

    def test_state_cost_covers_unprinted_nodes(self, view):
        """Per-state costs answer for nodes the route records cannot:
        the ARPA net placeholder has no printed record, but its exact
        mapped cost is stored."""
        arpa = view.shards["arpa"]
        cost = arpa.state_cost("seismo", "ARPA")
        assert cost is not None
        assert arpa.table("seismo").cost("ARPA") is None


class TestEdgeCases:
    def test_dest_in_two_shards_cheapest_wins(self, view):
        """seismo has tables in backbone (cost 300 from ucbvax) and in
        ARPA (cost 95 over the ARPANET); the cheap regional view wins."""
        fed = view.resolve_with_cost("ucbvax", "seismo")
        assert fed.cost == 95
        assert fed.resolution.route == "%s@seismo"

    def test_tie_prefers_local_shard(self, view):
        """ihnp4 -> harvard costs 600 both locally and stitched via
        allegra; fewer crossings wins the tie, deterministically."""
        fed = view.resolve_with_cost("ihnp4", "harvard", "u")
        assert fed.cost == 600
        assert not fed.federated
        assert fed.resolution.address == "allegra!harvard!u"

    def test_gateway_missing_is_federation_error(self, shard_paths):
        """universities and ARPA share no host: with the backbone shard
        gone there is no gateway chain, and the failure is the distinct
        FederationError, not a generic miss."""
        two = FederationView([
            Shard.open("universities", shard_paths["universities"]),
            Shard.open("arpa", shard_paths["arpa"])])
        with pytest.raises(FederationError, match="no gateway chain"):
            two.resolve_with_cost("princeton", "mit-ai")

    def test_unknown_destination_is_plain_route_error(self, view):
        with pytest.raises(RouteError) as err:
            view.resolve_with_cost("ihnp4", "nowhere")
        assert not isinstance(err.value, FederationError)

    def test_unknown_source(self, view):
        with pytest.raises(RouteError, match="no shard"):
            view.resolve_with_cost("ghost", "topaz")

    def test_duplicate_shard_names_rejected(self, shard_paths):
        with pytest.raises(FederationError, match="duplicate"):
            FederationView([
                Shard.open("x", shard_paths["backbone"]),
                Shard.open("x", shard_paths["arpa"])])

    def test_view_swap_helpers(self, view, shard_paths):
        smaller = view.without_shard("arpa")
        assert smaller.shard_names() == ["backbone", "universities"]
        assert view.shard_names() == ["arpa", "backbone",
                                      "universities"]  # unchanged
        back = smaller.with_shard(Shard.open("arpa",
                                             shard_paths["arpa"]))
        assert back.shard_names() == view.shard_names()
        with pytest.raises(FederationError):
            smaller.without_shard("arpa")

    def test_replacement_patch_equals_full_rebuild(self, view,
                                                   shard_paths):
        """``with_shard`` on an existing name must be
        indistinguishable from constructing the view from scratch."""
        swapped = Shard.open("universities",
                             shard_paths["universities"])
        patched = view.with_shard(swapped)
        rebuilt = FederationView(
            [s for n, s in view.shards.items()
             if n != "universities"] + [swapped])
        assert list(patched.shards) == list(rebuilt.shards)
        assert patched._owners == rebuilt._owners
        assert patched._gateways == rebuilt._gateways

    def test_same_index_replacement_shares_the_picture(self,
                                                       shard_paths):
        """A replacement whose routing index is unchanged shares the
        ownership map, the compiled owner matcher and the gateway
        table with the view it replaces."""
        view = FederationView([Shard.open(name, path)
                               for name, path in shard_paths.items()])
        view.owners_of("caip.rutgers.edu")  # compiles the matcher
        swapped = Shard.open("universities",
                             shard_paths["universities"])
        shared = view.with_shard(swapped)
        assert shared.shards["universities"] is swapped
        assert shared._owners is view._owners
        assert shared._owner_match is view._owner_match
        assert shared._gateways is view._gateways

    def test_index_changing_replacement_rebuilds(self, view, tmp_path):
        """A replacement whose routing index changed (a new host)
        equals a view built from scratch."""
        text = (DATA / "d.universities").read_text() + \
            "princeton\tnewhost(DEMAND)\n"
        path = tmp_path / "universities.snap"
        build_snapshot(Pathalias().build([("d.universities", text)]),
                       path)
        grown = Shard.open("universities", path)
        replaced = view.with_shard(grown)
        fresh = FederationView(
            [s for n, s in view.shards.items() if n != "universities"]
            + [grown])
        assert replaced.shard_names() == fresh.shard_names()
        assert replaced._owners == fresh._owners
        assert replaced._gateways == fresh._gateways
        assert replaced.owners_of("newhost") == \
            fresh.owners_of("newhost") == ("newhost", ("universities",))


async def request(reader, writer, line: str) -> str:
    writer.write(line.encode() + b"\n")
    await writer.drain()
    return (await reader.readline()).decode().rstrip("\n")


class TestFederationDaemon:
    def test_protocol(self, shard_paths):
        async def scenario():
            service = FederationService(shard_paths,
                                        default_source="ihnp4")
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
            shards = await request(r, w, "SHARDS")
            assert shards.startswith("OK 3 arpa=17:")
            assert "backbone=10:" in shards
            assert (await request(r, w, "ROUTE nowhere")) == \
                "ERR noroute nowhere"
            assert (await request(r, w, "SOURCE ghost")).startswith(
                "ERR unknown-source")
            assert (await request(r, w, "RELOAD ghost x")).startswith(
                "ERR unknown-shard")
            stats = await request(r, w, "STATS")
            assert "shards=3" in stats and "federated=" in stats
            assert await request(r, w, "QUIT") == "OK bye"
            w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_detach_turns_stitch_into_federation_error(self,
                                                       shard_paths):
        async def scenario():
            service = FederationService(shard_paths,
                                        default_source="princeton")
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", port)
            ok = await request(r, w, "ROUTE mit-ai bob")
            assert ok.startswith("OK 695 ")
            assert await request(r, w, "DETACH backbone") == \
                "OK detached backbone"
            err = await request(r, w, "ROUTE mit-ai bob")
            assert err.startswith("ERR federation ")
            # local routing inside the remaining shards still works
            assert (await request(r, w, "ROUTE topaz u")).startswith(
                "OK 50 topaz")
            reply = await request(
                r, w, f"ATTACH backbone {shard_paths['backbone']}")
            assert reply.startswith("OK attached backbone 10 ")
            assert (await request(r, w, "ROUTE mit-ai bob")
                    ).startswith("OK 695 ")
            w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_pinned_format_enforced_on_attach_and_reload(
            self, shard_paths, v1_stamped):
        """The format pin (v2, enforced by the reader) covers ATTACH
        and per-shard RELOAD, not just startup."""
        from repro.service.store import SnapshotError

        v1 = v1_stamped(shard_paths["backbone"])
        with pytest.raises(SnapshotError, match="version 1"):
            FederationService({"backbone": str(v1)})

        async def scenario():
            service = FederationService(shard_paths,
                                        default_source="ihnp4")
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", port)
            reply = await request(r, w, f"RELOAD backbone {v1}")
            assert reply.startswith("ERR reload")
            assert "version 1" in reply
            reply = await request(r, w, f"ATTACH extra {v1}")
            assert reply.startswith("ERR attach")
            assert "version 1" in reply
            # the federation keeps serving v2 shards only
            stats = await request(r, w, "STATS")
            assert "formats=2,2,2" in stats
            assert (await request(r, w, "ROUTE topaz u")).startswith(
                "OK 650 ")
            w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_shard_reload_leaves_other_shards_serving(self, shard_paths,
                                                      tmp_path):
        """Reloading one shard must not disturb lookups whose answers
        live wholly in the other shards."""
        revised = (DATA / "d.universities").read_text().replace(
            "princeton\tallegra(DEMAND), rutgers-ru(LOCAL), "
            "winnie(HOURLY)",
            "princeton\tallegra(DEMAND), rutgers-ru(DEMAND), "
            "winnie(HOURLY)")
        assert "rutgers-ru(DEMAND)" in revised
        revised_snap = tmp_path / "universities2.snap"
        build_snapshot(
            Pathalias().build([("d.universities", revised)]),
            revised_snap)

        async def scenario():
            service = FederationService(shard_paths,
                                        default_source="ihnp4")
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            r, w = await asyncio.open_connection("127.0.0.1", port)
            assert (await request(r, w, "ROUTE topaz u")).startswith(
                "OK 650 ")
            reply = await request(
                r, w, f"RELOAD universities {revised_snap}")
            assert reply.startswith("OK reloaded universities 11 ")
            # the reloaded shard answers with the repriced link ...
            assert (await request(r, w, "ROUTE topaz u")).startswith(
                "OK 925 ")
            # ... and untouched shards kept their bytes and answers
            assert await request(r, w, "ROUTE mcvax piet") == \
                "OK 2100 mcvax seismo!mcvax!%s seismo!mcvax!piet"
            assert (await request(r, w,
                                  "ROUTE caip.rutgers.edu honey")) == \
                ("OK 395 caip.rutgers.edu seismo!caip.rutgers.edu!%s "
                 "seismo!caip.rutgers.edu!honey")
            w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())


class TestFederatedClient:
    def test_client_and_mail_router(self, shard_paths):
        from tests.test_daemon import _ThreadedDaemon

        class _FederatedDaemon(_ThreadedDaemon):
            def _make_service(self):
                return FederationService(self.snapshot_path,
                                         default_source=self.source)

        daemon = _FederatedDaemon(shard_paths, source="ihnp4")
        with daemon:
            with FederatedRouteDatabase(
                    ("127.0.0.1", daemon.port)) as db:
                assert db.route("topaz") == \
                    "allegra!princeton!rutgers-ru!topaz!%s"
                res = db.resolve("caip.rutgers.edu", "honey")
                assert res.address == "seismo!caip.rutgers.edu!honey"
                shards = db.shards()
                assert set(shards) == set(REGIONS)
                assert shards["backbone"][0] == 10
                assert db.reload_shard(
                    "backbone", shard_paths["backbone"]) == 10
                db.detach("arpa")
                assert set(db.shards()) == {"backbone",
                                            "universities"}
                assert db.attach("arpa", shard_paths["arpa"]) == 17
                stats = db.stats()
                assert stats["shards"] == "3"
            router = MailRouter.federated("ihnp4",
                                          ("127.0.0.1", daemon.port))
            envelope = router.route("user@topaz")
            assert envelope.transport_address == \
                "allegra!princeton!rutgers-ru!topaz!user"
            assert isinstance(router.db, FederatedRouteDatabase)
            router.db.close()
