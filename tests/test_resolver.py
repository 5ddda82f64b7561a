"""The unified Resolver stack: one protocol, four lookup surfaces.

The acceptance bar for the resolver refactor: the in-process snapshot
table, the daemon and federation clients, and the mailer's in-memory
table all satisfy the same :class:`repro.service.resolver.Resolver`
protocol, and the paper's domain-suffix search exists in exactly one
implementation (:class:`SuffixResolver`) that all in-process surfaces
share.
"""

from __future__ import annotations

import pytest

from repro.core.pathalias import Pathalias
from repro.mailer.router import MailRouter
from repro.mailer.routedb import RouteDatabase
from repro.service.daemon import DaemonRouteDatabase
from repro.service.federation import FederatedRouteDatabase
from repro.service.resolver import (
    Resolution,
    Resolver,
    SuffixResolver,
    domain_suffixes,
    resolve_with_cost_dict,
)
from repro.service.store import (
    SnapshotReader,
    SnapshotTable,
    build_snapshot,
)

from tests.conftest import DOMAIN_TREE_MAP

MAP = """\
a\tb(10), c(100)
b\ta(10), c(10)
c\tb(10), a(100), d(10)
d\tc(10)
"""


@pytest.fixture(scope="module")
def reader(tmp_path_factory):
    out = tmp_path_factory.mktemp("resolver") / "r.snap"
    build_snapshot(Pathalias().build([("d.map", MAP)]), out)
    return SnapshotReader.open(out)


class TestProtocolMembership:
    """All four lookup surfaces satisfy the Resolver protocol."""

    def test_in_process_snapshot_surface(self, reader):
        assert isinstance(reader.table("a"), Resolver)

    def test_daemon_client(self):
        # construction opens no socket, so the shape check is free
        assert isinstance(
            DaemonRouteDatabase(("127.0.0.1", 1)), Resolver)

    def test_federation_surfaces(self):
        assert isinstance(
            FederatedRouteDatabase(("127.0.0.1", 1)), Resolver)

    def test_mailer_route_database(self):
        assert isinstance(RouteDatabase({}), Resolver)

    def test_suffix_search_is_shared(self, reader):
        """One implementation of the paper's lookup procedure: the
        hot path is the compiled automaton, and the dict-dispatch
        oracle is the inherited walk over each surface's own lookup
        (the differential tests hold the two byte-identical)."""
        table = reader.table("a")
        db = RouteDatabase({"b": "b!%s", ".edu": "seismo!%s"},
                           costs={"b": 10, ".edu": 95})
        assert isinstance(table, SuffixResolver)
        assert isinstance(db, SuffixResolver)
        walk = SuffixResolver.resolve_with_cost
        assert SnapshotTable.resolve_with_cost is not walk
        assert RouteDatabase.resolve_with_cost is not walk
        for surface, target in ((table, "d"), (db, "b"), (db, "x.edu")):
            assert resolve_with_cost_dict(surface, target, "u") == \
                walk(surface, target, "u")
        assert RouteDatabase.resolve is SuffixResolver.resolve
        assert SnapshotTable.resolve is SuffixResolver.resolve


class TestRouteDatabaseCosts:
    def test_from_table_carries_costs_and_source(self):
        from repro.core.fastmap import map_routes
        from repro.graph.compact import CompactGraph

        graph = Pathalias().build([("d.map", MAP)])
        table = map_routes(CompactGraph.compile(graph), "a")
        db = RouteDatabase.from_table(table)
        cost, res = db.resolve_with_cost("d", "user")
        assert cost == 30
        assert res.address == "b!c!d!user"
        assert db.source_table() == "a"
        assert db.stats()["entries"] == "4"  # a b c d (self included)

    def test_dict_only_databases_report_zero_cost(self):
        db = RouteDatabase({"x": "x!%s"})
        cost, res = db.resolve_with_cost("x", "u")
        assert cost == 0
        assert res.address == "x!u"
        assert db.source_table() is None

    def test_suffix_semantics_unchanged(self):
        graph = Pathalias().build([("d.domains", DOMAIN_TREE_MAP)])
        from repro.core.fastmap import map_routes
        from repro.graph.compact import CompactGraph

        table = map_routes(CompactGraph.compile(graph), "local")
        db = RouteDatabase.from_table(table)
        res = db.resolve("caip.rutgers.edu", "pleasant")
        assert isinstance(res, Resolution)
        assert res.matched == "caip.rutgers.edu"


class TestMailRouterOnResolvers:
    def test_resolve_with_cost_through_db(self, reader):
        router = MailRouter("a", reader.table("a").database())
        cost, res = router.resolve_with_cost("d", "user")
        assert cost == 30
        assert res.address == "b!c!d!user"

    def test_snapshot_database_carries_costs(self, reader):
        db = reader.table("a").database()
        assert db.resolve_with_cost("d", "u")[0] == 30
        assert db.source_table() == "a"


class TestDomainSuffixes:
    def test_sequence(self):
        assert domain_suffixes("caip.rutgers.edu") == [
            "caip.rutgers.edu", ".rutgers.edu", ".edu"]

    def test_reexported_from_mailer(self):
        import repro.mailer.routedb as routedb
        import repro.service.resolver as resolver

        assert routedb.domain_suffixes is resolver.domain_suffixes
        assert routedb.Resolution is resolver.Resolution
