"""The generation-stamped result cache: caching as a resolver *layer*.

The pathalias tables are recomputed rarely but queried constantly —
the serving tier answers millions of lookups between map revisions,
yet every ``ROUTE``/``EXACT`` still walks the snapshot.  This module
makes caching a composable layer rather than a feature bolted onto
one surface:

* :class:`Generations` — per-shard generation tokens plus one
  composite *epoch*.  Invalidation is an O(1) counter bump, never a
  key scan: entries are stamped with the epoch at insert and a bump
  strands every older stamp.
* :class:`ResultCache` — a bounded LRU of generation-stamped lookup
  results, with *negative* results (unresolvable destinations) held
  under their own, separate capacity so a scan of garbage names can
  never evict the hot positive set.
* :class:`CachingResolver` — an implementation of the
  :class:`~repro.service.resolver.Resolver` protocol that wraps *any*
  inner resolver (an in-process :class:`~repro.service.store.\
SnapshotResolver`, a :class:`~repro.service.daemon.\
DaemonRouteDatabase` client, a :class:`~repro.service.shard.\
FederationResolver`, the mailer's in-memory
  :class:`~repro.mailer.routedb.RouteDatabase`) with one of these
  caches.

**What is cached.**  The relative-template form of a resolution (the
``user="%s"`` answer): exact and domain matches alike instantiate for
any later user by substituting the template's single ``%s``, so one
cached entry serves every user addressing the same ``(source, dest)``
pair.  Misses are cached too — as the *error* (class and message), so
a cached ``FederationError`` replays byte-identical to a computed one.

**Why stamps, not per-shard entry tags.**  A federation's stitched
answer can change when *any* shard reloads — a repriced shard the old
route never touched can now offer a cheaper gateway chain — so
entry-level dependency tracking cannot invalidate safely.  Instead
every bump (of any shard's token) advances the composite epoch, and
validity is one integer comparison; the per-shard tokens exist so the
swap paths can say *which* shard moved (and coalesce duplicate
notifications) while correctness rides the epoch.

**The insertion race.**  Results are computed against a pinned
snapshot/view, possibly across await points; an entry computed
against generation N must never be inserted as generation N+1.  The
discipline: read :attr:`ResultCache.epoch` at the same moment the
snapshot is pinned (no await between), compute, then insert with that
*stamp* — :meth:`ResultCache.put` drops the entry if the epoch moved.
The mutator's mirror obligation: bump *after* publishing the new
snapshot (and before acknowledging the reload), so anything stamped
with the new epoch was computed against the new data.

The dict-walk differential oracle is never cached:
:func:`~repro.service.resolver.resolve_with_cost_dict` walks a
:class:`CachingResolver`'s inner surface, never its cache, and a
service pinned to ``dispatch="dict"`` disables its cache outright — an
oracle that answered from a cache would be comparing cache to cache.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import RouteError
from repro.service.resolver import Resolution

#: Positive-entry capacity a service cache defaults to (``serve
#: --cache SIZE`` overrides; ``--no-cache`` disables).
DEFAULT_CACHE_SIZE = 4096

#: The generation key local (single-snapshot) surfaces bump — there is
#: only one "shard" behind them.
LOCAL_GENERATION = "*"


def negative_capacity(size: int) -> int:
    """The default negative-side capacity for a positive capacity:
    a quarter of it, floored at 32 — big enough to absorb retry storms
    on dead names, small enough that garbage scans stay contained."""
    return max(32, size // 4)


class Generations:
    """Per-shard generation tokens plus the composite epoch.

    ``bump(shard)`` advances that shard's token *and* the epoch; cache
    entries are stamped with the epoch, so any bump invalidates every
    older entry in O(1) (stale entries are discarded lazily, on probe
    or LRU pressure — never scanned).
    """

    __slots__ = ("_tokens", "_epoch")

    def __init__(self) -> None:
        self._tokens: dict[str, int] = {}
        self._epoch = 0

    @property
    def epoch(self) -> int:
        """The composite generation: advances on every bump."""
        return self._epoch

    def token(self, shard: str = LOCAL_GENERATION) -> int:
        """One shard's own generation token (0 if never bumped)."""
        return self._tokens.get(shard, 0)

    def bump(self, shard: str = LOCAL_GENERATION) -> int:
        """Advance ``shard``'s token and the epoch; returns the new
        epoch.  O(1) — this is the whole invalidation."""
        self._tokens[shard] = self._tokens.get(shard, 0) + 1
        self._epoch += 1
        return self._epoch


class ResultCache:
    """A bounded LRU of generation-stamped lookup results.

    Keys are whatever tuple the caller chooses — the services use
    ``(kind, source, dest)`` — and values are opaque to the cache.
    Negative results (cached errors) live in their own LRU with a
    separate, smaller capacity (:func:`negative_capacity` by default),
    so unresolvable-name scans compete only with each other.

    Counters (``hits``/``misses``/``invalidations``) are owned by the
    cache object, which outlives every snapshot swap — exactly the
    RELOAD-surviving discipline the services' other counters follow.
    """

    def __init__(self, size: int, negative_size: int | None = None,
                 generations: Generations | None = None):
        """``size`` bounds positive entries; ``negative_size`` bounds
        cached misses (default :func:`negative_capacity` of ``size``).
        A shared :class:`Generations` may be injected so several
        caches invalidate together."""
        if size < 1:
            raise ValueError(f"cache size {size}: need at least 1")
        self.size = size
        self.negative_size = (negative_capacity(size)
                              if negative_size is None else negative_size)
        self.generations = generations or Generations()
        self._pos: OrderedDict = OrderedDict()
        self._neg: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    @property
    def epoch(self) -> int:
        """The composite generation entries are stamped with; read it
        when pinning the snapshot/view a result will be computed
        from, and hand it back to :meth:`put` as the stamp."""
        return self.generations.epoch

    def bump(self, shard: str = LOCAL_GENERATION) -> int:
        """Invalidate every current entry: O(1) generation bump of
        ``shard``'s token (no key scanning; stale entries are
        discarded lazily).  Returns the new epoch."""
        self.invalidations += 1
        return self.generations.bump(shard)

    def __len__(self) -> int:
        return len(self._pos) + len(self._neg)

    def _probe(self, store: OrderedDict, key, epoch: int):
        entry = store.get(key)
        if entry is None:
            return None
        if entry[0] != epoch:
            del store[key]  # stranded by a bump; reap on contact
            return None
        store.move_to_end(key)
        return entry

    def get(self, key):
        """``(negative, payload)`` for a live entry, else None.

        ``negative`` False: ``payload`` is whatever :meth:`put`
        stored.  ``negative`` True: ``payload`` is the
        ``(error class, message)`` pair :meth:`put_negative` stored.
        Counts a hit or a miss either way; a stamp-stranded entry is
        discarded and counted as a miss.
        """
        epoch = self.generations.epoch
        entry = self._probe(self._pos, key, epoch)
        if entry is not None:
            self.hits += 1
            return False, entry[1]
        entry = self._probe(self._neg, key, epoch)
        if entry is not None:
            self.hits += 1
            return True, entry[1]
        self.misses += 1
        return None

    def put(self, key, payload, stamp: int) -> bool:
        """Insert a positive entry stamped ``stamp``.

        ``stamp`` must be the epoch read when the computation pinned
        its snapshot; if a bump landed since, the entry describes a
        retired generation and is dropped (returns False).
        """
        if stamp != self.generations.epoch:
            return False
        self._neg.pop(key, None)
        self._pos[key] = (stamp, payload)
        self._pos.move_to_end(key)
        if len(self._pos) > self.size:
            self._pos.popitem(last=False)
        return True

    def put_negative(self, key, exc: RouteError, stamp: int) -> bool:
        """Insert a cached miss: the error's class and message, so a
        replay raises the same type with the same text (a
        ``FederationError`` must not come back as a plain noroute).
        Same stamp discipline as :meth:`put`; bounded by
        :attr:`negative_size`, never by the positive capacity.
        """
        if stamp != self.generations.epoch:
            return False
        self._pos.pop(key, None)
        self._neg[key] = (stamp, (type(exc), str(exc)))
        self._neg.move_to_end(key)
        if len(self._neg) > self.negative_size:
            self._neg.popitem(last=False)
        return True

    @staticmethod
    def raise_negative(payload):
        """Re-raise a cached miss: a fresh instance of the stored
        error class with the stored message."""
        cls, message = payload
        raise cls(message)

    def stats(self) -> dict:
        """Counter snapshot: the ``n_cache_*`` STATS keys' source."""
        return {"cache": str(self.size),
                "n_cache_hits": str(self.hits),
                "n_cache_misses": str(self.misses),
                "n_cache_invalidations": str(self.invalidations)}


def cache_stats_tokens(cache: ResultCache | None) -> str:
    """The ``cache=``/``n_cache_*`` STATS tokens — one formatter used
    by both daemons so the wire keys cannot drift; a disabled cache
    reports ``cache=0`` with zeroed counters.  The ``n_`` prefix is
    what makes the counters pool-aggregated: multi-worker STATS sums
    every ``n_`` key across workers."""
    stats = cache.stats() if cache is not None else {
        "cache": "0", "n_cache_hits": "0", "n_cache_misses": "0",
        "n_cache_invalidations": "0"}
    return " ".join(f"{key}={value}" for key, value in stats.items())


def instantiate(template: Resolution, user: str) -> Resolution:
    """A cached relative-template resolution, re-addressed for
    ``user`` — the template's single ``%s`` is the substitution
    point, exactly as when stitched templates concatenate."""
    if user == "%s":
        return template
    return Resolution(
        target=template.target, matched=template.matched,
        route=template.route,
        address=template.address.replace("%s", user, 1))


class CachingResolver:
    """Any :class:`~repro.service.resolver.Resolver`, wrapped in a
    generation-stamped result cache.

    Composes over every lookup surface — the four the serving tier
    ships and anything else satisfying the protocol — without the
    inner surface knowing it is cached.  The wrapper caches the
    relative-template form and instantiates per user, so one entry
    serves every user of a pair; misses are cached as their error
    (bounded separately — see :class:`ResultCache`).

    Invalidation: :meth:`bump` — O(1), called by whoever swaps the
    data under the inner resolver.  An inner surface that is immutable
    (a pinned snapshot table, a bound federation view, the in-memory
    mailer database) never needs it.

    The differential oracle
    (:func:`~repro.service.resolver.resolve_with_cost_dict`) walks
    :attr:`inner` and never this cache — fuzz suites comparing engine
    to oracle must never compare cache to cache.
    """

    def __init__(self, inner, size: int = DEFAULT_CACHE_SIZE,
                 cache: ResultCache | None = None):
        """Wrap ``inner``; ``cache`` (when given) overrides ``size``
        and may be shared across wrappers so one bump invalidates
        all of them."""
        self.inner = inner
        self.cache = cache if cache is not None else ResultCache(size)

    def bump(self, shard: str = LOCAL_GENERATION) -> int:
        """Invalidate everything cached so far (O(1) epoch bump)."""
        return self.cache.bump(shard)

    def _resolve_template(self, target: str) -> tuple[int, Resolution]:
        """The cached ``user="%s"`` resolution of ``target``."""
        cache = self.cache
        key = ("R", target)
        stamp = cache.epoch
        hit = cache.get(key)
        if hit is not None:
            negative, payload = hit
            if negative:
                cache.raise_negative(payload)
            return payload
        try:
            result = self.inner.resolve_with_cost(target, "%s")
        except RouteError as exc:
            cache.put_negative(key, exc, stamp)
            raise
        cache.put(key, result, stamp)
        return result

    def resolve_with_cost(self, target: str, user: str = "%s"
                          ) -> tuple[int, Resolution]:
        """Cached domain-suffix lookup: ``(cost, resolution)``,
        byte-identical to the inner surface's answer."""
        if "%s" in target:  # cannot template-substitute such a name
            return self.inner.resolve_with_cost(target, user)
        cost, template = self._resolve_template(target)
        return cost, instantiate(template, user)

    def resolve(self, target: str, user: str = "%s") -> Resolution:
        """Cached domain-suffix lookup, resolution only."""
        return self.resolve_with_cost(target, user)[1]

    def resolve_bang(self, bang_address: str) -> Resolution:
        """Resolve ``host!rest`` forms through the cache."""
        if "!" not in bang_address:
            raise RouteError(
                f"address {bang_address!r} names no user (expected "
                f"target!user)")
        target, user = bang_address.split("!", 1)
        return self.resolve(target, user)

    def lookup(self, name: str) -> tuple[int, str] | None:
        """Cached exact-name lookup (None on a miss, like the inner
        surface); only available when the inner surface has it."""
        cache = self.cache
        key = ("E", name)
        stamp = cache.epoch
        hit = cache.get(key)
        if hit is not None:
            negative, payload = hit
            return None if negative else payload
        result = self.inner.lookup(name)
        if result is None:
            cache.put_negative(
                key, RouteError(f"no route to {name!r}"), stamp)
        else:
            cache.put(key, result, stamp)
        return result

    def source_table(self) -> str | None:
        """The inner surface's bound source."""
        return self.inner.source_table()

    def stats(self) -> dict:
        """The inner surface's counters plus the cache's own."""
        out = dict(self.inner.stats())
        out.update(self.cache.stats())
        return out

    def __repr__(self) -> str:
        return (f"CachingResolver({self.inner!r}, "
                f"size={self.cache.size})")
