"""The generation-stamped result cache: its LRU semantics and races.

The acceptance bars:

* invalidation is an O(1) epoch bump that strands every older entry,
  and a result computed against a pre-bump view is **never** inserted
  as current (the stamp discipline), even when the compute spans
  await points in a live federation;
* a cached miss replays its error *class*, so a cached
  ``FederationError`` still reports the ``federation`` wire code;
* negative entries are bounded separately, so a scan of garbage names
  cannot evict the hot positive set;
* the differential oracle never answers from a cache: ``dict``
  dispatch turns a service's cache off.

That cached answers are byte-identical to computed ones, for every
user of a pair, is pinned on the wire by ``tests/test_transcript.py``,
which replays the same requests with the cache on and off.
"""

from __future__ import annotations

import asyncio
from pathlib import Path

import pytest

from repro.core.pathalias import Pathalias
from repro.errors import FederationError, RouteError
from repro.service.cache import ResultCache, negative_capacity
from repro.service.daemon import RouteService
from repro.service.federation import FederationService
from repro.service.store import build_snapshot

DATA = Path(__file__).parent / "data"
REGIONS = ("backbone", "universities", "arpa")

MAP_V1 = """\
a\tb(10), c(100)
b\ta(10), c(10)
c\tb(10), a(100), d(10)
d\tc(10)
"""


def make_snapshot(text, path):
    build_snapshot(Pathalias().build([("d.map", text)]), path)
    return str(path)


@pytest.fixture(scope="module")
def shard_paths(tmp_path_factory):
    """One snapshot per regional map, built once for the module."""
    tmp = tmp_path_factory.mktemp("cache-shards")
    paths = {}
    for name in REGIONS:
        text = (DATA / f"d.{name}").read_text()
        path = tmp / f"{name}.snap"
        build_snapshot(Pathalias().build([(f"d.{name}", text)]), path)
        paths[name] = str(path)
    return paths


class TestResultCache:
    def test_lru_bounds_positive_entries(self):
        cache = ResultCache(size=3)
        for k in range(5):
            cache.put(("R", f"h{k}"), k, cache.epoch)
        assert len(cache) == 3
        assert cache.get(("R", "h0")) is None  # evicted, oldest first
        assert cache.get(("R", "h4")) == (False, 4)

    def test_get_refreshes_recency(self):
        cache = ResultCache(size=2)
        cache.put(("R", "a"), 1, cache.epoch)
        cache.put(("R", "b"), 2, cache.epoch)
        assert cache.get(("R", "a")) == (False, 1)  # a is now newest
        cache.put(("R", "c"), 3, cache.epoch)
        assert cache.get(("R", "b")) is None
        assert cache.get(("R", "a")) == (False, 1)

    def test_bump_strands_every_entry_in_o1(self):
        cache = ResultCache(size=8)
        for k in range(8):
            cache.put(("R", f"h{k}"), k, cache.epoch)
        cache.bump()
        assert cache.invalidations == 1
        # no scan happened — entries are reaped lazily, on contact
        assert len(cache) == 8
        assert cache.get(("R", "h3")) is None
        assert len(cache) == 7  # the probed corpse was reaped
        # a post-bump insert with the *new* stamp is live again
        cache.put(("R", "h3"), 33, cache.epoch)
        assert cache.get(("R", "h3")) == (False, 33)

    def test_put_drops_stale_stamp(self):
        """The insertion-race rule: a result computed against
        generation N must never be inserted once a bump made N+1
        current."""
        cache = ResultCache(size=4)
        stamp = cache.epoch
        cache.bump()  # a reload landed while the compute ran
        assert cache.put(("R", "x"), 1, stamp) is False
        assert cache.get(("R", "x")) is None
        assert cache.put_negative(
            ("R", "y"), RouteError("no"), stamp) is False

    def test_negative_capacity_is_separate(self):
        """A scan of garbage names competes only with other garbage:
        it can never evict the hot positive set."""
        cache = ResultCache(size=100)
        for k in range(10):
            cache.put(("R", f"hot{k}"), k, cache.epoch)
        for k in range(500):
            cache.put_negative(("R", f"junk{k}"),
                               RouteError(f"no route to junk{k}"),
                               cache.epoch)
        assert len(cache._neg) == negative_capacity(100)
        for k in range(10):
            assert cache.get(("R", f"hot{k}")) == (False, k)

    def test_negative_capacity_default(self):
        assert negative_capacity(4096) == 1024
        assert negative_capacity(8) == 32  # floored

    def test_negative_preserves_error_class(self):
        """A cached FederationError must replay as a FederationError —
        the wire code (``ERR federation``) depends on the class."""
        cache = ResultCache(size=4)
        cache.put_negative(("R", "far"),
                           FederationError("gateway unreachable"),
                           cache.epoch)
        negative, payload = cache.get(("R", "far"))
        assert negative is True
        with pytest.raises(FederationError, match="gateway"):
            cache.raise_negative(payload)

    def test_positive_insert_clears_negative_twin(self):
        cache = ResultCache(size=4)
        cache.put_negative(("R", "x"), RouteError("no"), cache.epoch)
        cache.put(("R", "x"), 7, cache.epoch)
        assert cache.get(("R", "x")) == (False, 7)
        assert len(cache._neg) == 0

    def test_stats_keys(self):
        cache = ResultCache(size=16)
        cache.put(("R", "a"), 1, cache.epoch)
        cache.get(("R", "a"))
        cache.get(("R", "b"))
        cache.bump()
        assert cache.stats() == {
            "cache": "16", "n_cache_hits": "1",
            "n_cache_misses": "1", "n_cache_invalidations": "1"}


class TestServiceCacheWiring:
    def test_dict_dispatch_forces_cache_off(self, tmp_path):
        """The differential oracle must never answer from a cache."""
        snap = make_snapshot(MAP_V1, tmp_path / "v1.snap")
        assert RouteService(snap, dispatch="dict").cache is None
        assert RouteService(snap).cache is not None
        assert FederationService(
            {"m": snap}, dispatch="dict").cache is None
        assert FederationService({"m": snap}).cache is not None

    def test_cache_size_zero_disables(self, tmp_path):
        snap = make_snapshot(MAP_V1, tmp_path / "v1.snap")
        assert RouteService(snap, cache_size=0).cache is None
        assert FederationService({"m": snap}, cache_size=0).cache \
            is None


class TestFederationInvalidationRace:
    """The stamp discipline, exercised deterministically: a stitched
    compute spans await points; a swap+bump lands mid-flight; the
    stale result must not enter the cache."""

    def test_mid_compute_bump_drops_the_stale_insert(
            self, shard_paths, tmp_path):
        revised = (DATA / "d.universities").read_text().replace(
            "princeton\tallegra(DEMAND), rutgers-ru(LOCAL), "
            "winnie(HOURLY)",
            "princeton\tallegra(DEMAND), rutgers-ru(DEMAND), "
            "winnie(HOURLY)")
        revised_snap = tmp_path / "universities2.snap"
        build_snapshot(
            Pathalias().build([("d.universities", revised)]),
            revised_snap)

        async def scenario():
            service = FederationService(dict(shard_paths),
                                        default_source="ihnp4")
            old_cost, _ = await service.lookup("ihnp4", "topaz")
            service.cache.bump()  # start from an empty picture

            started = asyncio.Event()
            release = asyncio.Event()
            pinned = service._lookup_pinned

            async def slow(view, source, target, user):
                started.set()
                await release.wait()
                return await pinned(view, source, target, user)

            service._lookup_pinned = slow
            in_flight = asyncio.ensure_future(
                service.lookup("ihnp4", "topaz"))
            await started.wait()
            service._lookup_pinned = pinned
            # the reload swaps the view, then bumps — before acking
            await service.reload_shard("universities",
                                       str(revised_snap))
            release.set()
            # the in-flight caller gets the answer its pinned view
            # promised (the old generation) ...
            cost, _ = await in_flight
            assert cost == old_cost
            # ... but its insert was stamp-dropped: the next lookup
            # recomputes against the new generation
            new_cost, _ = await service.lookup("ihnp4", "topaz")
            assert new_cost != old_cost
            assert new_cost == (await service.lookup(
                "ihnp4", "topaz"))[0]  # and THAT one cached fine

        asyncio.run(scenario())

    def test_detach_bump_drops_the_stale_insert(self, shard_paths):
        """Same race against DETACH: the shard vanishes mid-compute;
        the computed answer (from the pinned, pre-detach view) must
        not be cached as current."""

        async def scenario():
            service = FederationService(dict(shard_paths),
                                        default_source="ihnp4")
            started = asyncio.Event()
            release = asyncio.Event()
            pinned = service._lookup_pinned

            async def slow(view, source, target, user):
                started.set()
                await release.wait()
                return await pinned(view, source, target, user)

            service._lookup_pinned = slow
            in_flight = asyncio.ensure_future(
                service.lookup("ihnp4", "topaz"))
            await started.wait()
            service._lookup_pinned = pinned
            await service.detach("universities")
            release.set()
            cost, _ = await in_flight  # old view: still resolves
            assert cost > 0
            # a fresh lookup sees the detached picture, not the cache
            with pytest.raises(RouteError):
                await service.lookup("ihnp4", "topaz")

        asyncio.run(scenario())

    def test_attach_and_reload_count_invalidations(self, shard_paths,
                                                   tmp_path):
        async def scenario():
            service = FederationService(
                {"backbone": shard_paths["backbone"]},
                default_source="ihnp4")
            await service.attach("arpa", shard_paths["arpa"])
            await service.detach("arpa")
            await service.reload_shard("backbone",
                                      shard_paths["backbone"])
            assert service.cache.invalidations == 3

        asyncio.run(scenario())
