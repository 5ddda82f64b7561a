"""The generation-stamped result cache both daemons answer through.

The pathalias tables are recomputed rarely but queried constantly —
the serving tier answers millions of lookups between map revisions,
yet every ``ROUTE``/``EXACT`` still walks the snapshot.  A
:class:`ResultCache` sits inside the one request pipeline
(:class:`~repro.service.daemon.LineService`), so every lookup either
daemon answers goes through it, and nothing else caches a result.

**What is cached.**  The relative-template form of a resolution (the
``user="%s"`` answer): exact and domain matches alike instantiate for
any later user by substituting the template's single ``%s``
(:func:`instantiate`), so one cached entry serves every user
addressing the same ``(source, dest)`` pair.  Misses are cached too —
as the *error* (class and message), in their own, smaller LRU, so a
cached ``FederationError`` replays byte-identical to a computed one
and a scan of garbage names can never evict the hot positive set.

**One epoch.**  Invalidation is an O(1) counter bump, never a key
scan: entries are stamped with :attr:`ResultCache.epoch` at insert, a
bump strands every older stamp, and stale entries are reaped on
contact.  A federation's stitched answer can change when *any* shard
reloads — a repriced shard the old route never touched can now offer
a cheaper gateway chain — so entry-level dependency tracking cannot
invalidate safely, and every swap of any shard bumps the one epoch.

**The insertion race.**  Results are computed against a pinned
snapshot/view, possibly across await points; an entry computed
against generation N must never be inserted as generation N+1.  The
discipline: read :attr:`ResultCache.epoch` at the same moment the
snapshot is pinned (no await between), compute, then insert with that
*stamp* — :meth:`ResultCache.put` drops the entry if the epoch moved.
The mutator's mirror obligation: bump *after* publishing the new
snapshot (and before acknowledging the reload), so anything stamped
with the new epoch was computed against the new data.

The dict-walk differential oracle is never cached: a service pinned
to ``dispatch="dict"`` disables its cache outright, and
:func:`~repro.service.resolver.resolve_with_cost_dict` walks the
surface it is given — an oracle that answered from a cache would be
comparing cache to cache.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import RouteError
from repro.service.resolver import Resolution

#: Positive-entry capacity a service cache defaults to (``serve
#: --cache SIZE`` overrides; ``--no-cache`` disables).
DEFAULT_CACHE_SIZE = 4096


def negative_capacity(size: int) -> int:
    """The negative-side capacity for a positive capacity:
    a quarter of it, floored at 32 — big enough to absorb retry storms
    on dead names, small enough that garbage scans stay contained."""
    return max(32, size // 4)


class ResultCache:
    """A bounded LRU of generation-stamped lookup results.

    Keys are whatever tuple the caller chooses — the services use
    ``(kind, source, dest)`` — and values are opaque to the cache.
    Negative results (cached errors) live in their own LRU with a
    separate, smaller capacity (:func:`negative_capacity`), so
    unresolvable-name scans compete only with each other.

    Counters (``hits``/``misses``/``invalidations``) are owned by the
    cache object, which outlives every snapshot swap — exactly the
    RELOAD-surviving discipline the services' other counters follow.
    """

    def __init__(self, size: int):
        """``size`` bounds positive entries; cached misses are bounded
        by :func:`negative_capacity` of it."""
        if size < 1:
            raise ValueError(f"cache size {size}: need at least 1")
        self.size = size
        self.negative_size = negative_capacity(size)
        #: The generation entries are stamped with; read it when
        #: pinning the snapshot/view a result will be computed from,
        #: and hand it back to :meth:`put` as the stamp.
        self.epoch = 0
        self._pos: OrderedDict = OrderedDict()
        self._neg: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def bump(self) -> int:
        """Invalidate every current entry: an O(1) epoch bump (no key
        scanning; stale entries are discarded lazily).  Returns the
        new epoch."""
        self.invalidations += 1
        self.epoch += 1
        return self.epoch

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
        epoch = self.epoch
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
        if stamp != self.epoch:
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
        if stamp != self.epoch:
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
    reports ``cache=0`` with zeroed counters."""
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
