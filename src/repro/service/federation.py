"""The federation daemon: N regional snapshot shards behind one port.

The single-snapshot daemon (:mod:`repro.service.daemon`) serves one
map; real deployments stitched many regional maps — backbone,
universities, ARPA — into one routing picture.  This front end owns a
:class:`~repro.service.shard.FederationView` over named
:class:`~repro.service.shard.Shard` objects and speaks the same line
protocol, extended with shard administration:

========================  ===================================================
``ROUTE <dest> [user]``   federated domain-suffix search from the
                          connection's source; replies ``OK <cost>
                          <matched> <route> <address>``, byte-compatible
                          with the single-snapshot daemon — the route
                          may be stitched across shards through
                          gateway hosts.
``EXACT <dest>``          exact-name federated lookup; ``OK <cost>
                          <dest> <route>``.
``SOURCE <host>``         switch this connection's source (the host's
                          home shard is found automatically).
``SHARDS``                list attached shards: ``OK <n>
                          <name>=<sources>:<path>`` ...
``ATTACH <name> <spec>``  add a shard (or replace one, by name); the
                          spec is a snapshot path, or ``host:port``
                          for a remote backend daemon.
``DETACH <name>``         remove a shard.
``RELOAD <name> <snap>``  hot-swap one shard's snapshot; the other
                          shards keep serving, and in-flight federated
                          lookups keep the view they started with.
                          For a backend shard the reload is forwarded
                          to its daemon and the cached index re-synced.
``PIPELINE``              capability probe: ``OK pipeline 1`` — the
                          front end accepts tagged (pipelined)
                          requests, exactly like the single-snapshot
                          daemon.
``STATS``                 one ``key=value`` line of counters.
``QUIT``                  close the connection.
========================  ===================================================

A shard is either a **local snapshot** (the front end reads the file
in process) or a **remote backend** (a per-shard
:class:`~repro.service.daemon.RouteService` daemon the front end fans
out to through a :class:`~repro.service.backend.ShardBackend`
connection — see :mod:`repro.service.backend`); the two mix
freely in one view, and the reply bytes are identical either way.
The front end also subscribes to each backend daemon's ``NOTIFY``
reload push channel: when a backend reloads *itself* (an operator
RELOADs the shard daemon directly), the push re-syncs this front
end's cached ownership index and leg cache within one round trip —
no front-end RELOAD required (the ``resyncs`` STATS counter).

Every mutation builds a *new* immutable view and swaps it in with one
attribute assignment — the same no-dropped-requests discipline the
single daemon's RELOAD has, now per shard.  Request handlers pin
``self.view`` exactly once and never re-read it mid-request — with
remote backends a lookup awaits socket I/O, so ATTACH/DETACH/RELOAD
can (and do) land *between* its await points; the pinned-view
discipline is what keeps a half-swapped picture unobservable.  A
federated route failure (owner shard known but no gateway chain
reaches it) reports the distinct ``federation`` error code so callers
can tell a topology gap from a plain miss.

:class:`FederatedRouteDatabase` extends the synchronous
:class:`~repro.service.daemon.DaemonRouteDatabase` client with the
shard-administration verbs; the query surface is unchanged, so a
:class:`~repro.mailer.router.MailRouter` plugs into a federation
daemon exactly as it plugs into a single-snapshot one.
"""

from __future__ import annotations

import asyncio
import sys
import time

from repro.errors import (
    FederationError,
    RouteError,
    UnknownShardError,
)
from repro.service.backend import (
    BackendShard,
    ShardBackend,
    parse_backend_spec,
)
from repro.service.cache import cache_stats_tokens
# Imported for perfbench's tracer alone, whose patch list names
# ``repro.service.federation.instantiate``; the cache hits call the
# one in ``repro.service.daemon``.
from repro.service.cache import instantiate  # noqa: F401
from repro.service.daemon import (DaemonRouteDatabase, LineService, Verb,
                                  serve, verb_table)
from repro.service.shard import FederationView, Shard
from repro.service.store import SnapshotError, SnapshotReader


class FederationService(LineService):
    """Daemon state: the current federation view plus counters.

    The view is immutable; ATTACH/DETACH/RELOAD build a new one under
    a lock and swap it in, so concurrent lookups pin a consistent
    picture with a single attribute read.  Every view swap — ATTACH,
    DETACH, per-shard RELOAD, and NOTIFY-driven re-syncs — bumps the
    result cache's generation, which strands every stamped entry: a
    repriced shard can change the best *stitched* route for pairs
    whose old answer never touched it, so per-entry dependency
    tracking could not invalidate safely.
    """

    #: The verbs this daemon's line protocol implements (the CI docs
    #: job checks ``docs/protocol.md`` against this table).
    VERB_TABLE = verb_table(
        "ROUTE", "EXACT",
        Verb("SOURCE", "<host>", 1, 1, inline=True),
        Verb("SHARDS", most=None),
        Verb("ATTACH", "<name> <snapshot|host:port>", 2, 2, inline=True),
        Verb("DETACH", "<name>", 1, 1, inline=True),
        Verb("RELOAD", "<shard> <snapshot>", 2, 2, inline=True),
        "PIPELINE",
        Verb("STATS", most=None),
        "QUIT")
    VERBS = tuple(VERB_TABLE)
    handle_line = LineService.handle_line  # see LineService

    def __init__(self, shards, default_source: str | None = None,
                 dispatch: str = "fsm",
                 cache_size: int | None = None):
        """``shards`` maps shard names to snapshot paths (or is an
        iterable of :class:`Shard` / :class:`BackendShard` objects —
        remote backends need the async :meth:`create` constructor).
        ``dispatch`` selects the suffix-dispatch engine for the
        ownership index and every locally-served shard table, and
        ``cache_size`` bounds the result cache, both as for
        :class:`~repro.service.daemon.LineService`."""
        super().__init__(dispatch, cache_size)
        if isinstance(shards, dict):
            shards = [Shard.open(name, path, dispatch=dispatch)
                      for name, path in sorted(shards.items())]
        else:
            shards = list(shards)
        if not shards:
            raise SnapshotError(
                "FederationService needs at least one shard")
        self.view = FederationView(shards, dispatch=dispatch)
        if default_source is None:
            first = next(iter(self.view.shards.values()))
            sources = first.sources()
            if not sources:
                raise SnapshotError(
                    f"{first.path}: snapshot has no source tables")
            default_source = sources[0]
        elif self.view.home_shard(default_source) is None:
            raise SnapshotError(
                f"no shard holds a table for source "
                f"{default_source!r}")
        self.default_source = default_source
        self.reloads = 0
        self.attaches = 0
        self.detaches = 0
        #: View swaps driven by a backend daemon's ``NOTIFY reloaded``
        #: push (the backend reloaded *itself*; the front end re-synced
        #: its cached ownership index without being asked) — the
        #: ``resyncs`` STATS key.
        self.resyncs = 0
        self._resync_pending: set = set()
        #: Shards pushed again while their re-sync was pending.
        self._resync_dirty: set = set()
        self._resync_tasks: set = set()
        #: How long a replaced/detached backend keeps serving
        #: lookups still pinned to the outgoing view before closing.
        self.retire_grace = 2.0
        self._swap_lock = asyncio.Lock()
        self._retiring: set = set()

    @classmethod
    async def create(cls, shards=None, backends=None,
                     default_source: str | None = None,
                     dispatch: str = "fsm",
                     cache_size: int | None = None
                     ) -> "FederationService":
        """Build a service over local snapshots *and* remote backends.

        ``shards`` maps shard names to snapshot paths (served in
        process); ``backends`` maps shard names to ``host:port``
        specs, each dialed now — the ownership index is fetched from
        the daemon before the service answers its first request.
        ``dispatch`` picks the suffix-dispatch engine (see
        :class:`FederationService`).
        """
        objs: list = [Shard.open(name, path, dispatch=dispatch)
                      for name, path in sorted((shards or {}).items())]
        for name, spec in sorted((backends or {}).items()):
            addr = parse_backend_spec(spec)
            if addr is None:
                raise FederationError(
                    f"backend {name}={spec!r} is not of the form "
                    f"HOST:PORT")
            backend = ShardBackend(name, addr[0], addr[1])
            objs.append(await BackendShard.connect(name, backend))
        service = cls(objs, default_source=default_source,
                      dispatch=dispatch, cache_size=cache_size)
        for name, shard in service.view.shards.items():
            backend = getattr(shard, "backend", None)
            if backend is not None:
                await service._subscribe_backend(name, backend)
        return service

    # -- operations -----------------------------------------------------------
    #
    # The swap-path discipline, audited: every request handler reads
    # ``self.view`` exactly once and works against that immutable
    # object for its whole lifetime — across every await point.  The
    # mutators below build a new view under ``_swap_lock`` and publish
    # it with one attribute assignment, so a racing request sees the
    # old picture or the new one, never a mixture; backends are
    # closed only after the swap, with a grace window for requests
    # still pinned to the outgoing view.

    def _pin(self) -> FederationView:
        """The view one request works against."""
        return self.view

    async def _lookup_pinned(self, view: FederationView, source: str,
                             target: str, user: str) -> tuple:
        """The federated search against one pinned view (a test seam:
        the cache race tests stall it mid-compute)."""
        if view.home_shard(source) is None:
            raise SnapshotError(f"no shard owns source {source!r}")
        fed = await view.aresolve_with_cost(source, target, user)
        return fed.cost, fed.resolution, fed.federated

    async def _exact_pinned(self, view: FederationView, source: str,
                            target: str) -> tuple:
        """The exact federated lookup against one pinned view."""
        if view.home_shard(source) is None:
            raise SnapshotError(f"no shard owns source {source!r}")
        fed = await view.aexact(source, target)
        return fed.cost, fed.resolution.route, fed.federated

    def resolver(self, source: str):
        """The bound :class:`~repro.service.resolver.Resolver` surface
        over the *current* view (see
        :class:`~repro.service.shard.FederationResolver`); pins one
        federation picture, like every request handler does."""
        return self.view.resolver(source)

    def _retire(self, old) -> None:
        """Schedule a replaced/removed backend shard's connection for
        closing on a background task: the view has already swapped,
        and the backend keeps serving lookups pinned to the outgoing
        view for :attr:`retire_grace` seconds before it drains —
        without holding up the ATTACH/DETACH reply."""
        backend = getattr(old, "backend", None)
        if backend is None:
            return
        task = asyncio.get_running_loop().create_task(
            backend.aclose(self.retire_grace))
        self._retiring.add(task)
        task.add_done_callback(self._retiring.discard)

    async def _open_shard(self, name: str, spec: str):
        """Open an attachable shard from its spec: a ``host:port``
        backend (dialed and index-synced now) or a snapshot path
        (opened off-loop).  A backend that fails the sync has its
        freshly-opened connection closed rather than leaked."""
        addr = parse_backend_spec(spec)
        if addr is not None:
            backend = ShardBackend(name, addr[0], addr[1])
            try:
                shard = await BackendShard.connect(name, backend)
            except Exception:
                await backend.aclose(grace=0.0)
                raise
            await self._subscribe_backend(name, backend)
            return shard
        reader = await asyncio.to_thread(SnapshotReader.open, spec)
        return Shard(name, reader, dispatch=self.dispatch)

    async def _subscribe_backend(self, name: str,
                                 backend: ShardBackend) -> None:
        """Best-effort NOTIFY subscription on a backend daemon.

        Once up, the backend's own reloads push ``NOTIFY reloaded``
        frames and :meth:`_on_backend_reload` re-syncs this front
        end's cached ownership index and leg cache — no front-end
        RELOAD needed.  Subscription failure (an unreachable daemon)
        never fails the attach.
        """
        try:
            await backend.subscribe_reloads(
                lambda path, _n=name: self._on_backend_reload(_n, path))
        except FederationError:
            pass

    def _on_backend_reload(self, name: str, path: str) -> None:
        """Push callback: schedule a re-sync of shard ``name``.

        Runs on the backend's notify-listener task, so it only
        *schedules* — the swap itself takes ``_swap_lock``.  Pushes
        for a shard whose re-sync is already pending coalesce into one
        more re-sync after it.

        The result cache is bumped *immediately* (before the re-sync
        lands): the backend daemon has already swapped its snapshot,
        so cached answers touching this shard may already be stale —
        exactly the shard's generation token moves.  The bump is
        unconditional: a pushed path equal to the one the view names
        may still hold new bytes (the file was rewritten in place),
        and only the re-sync can tell that case from the echo of a
        forwarded RELOAD.
        """
        if self.cache is not None:
            self.cache.bump(name)
        if name in self._resync_pending:
            # that re-sync may already have read the older STATS: mark
            # the shard so it runs once more when it finishes
            self._resync_dirty.add(name)
            return
        self._schedule_resync(name)

    def _schedule_resync(self, name: str) -> None:
        """Start shard ``name``'s re-sync task and mark it pending."""
        self._resync_pending.add(name)
        task = asyncio.get_running_loop().create_task(
            self._resync_backend(name))
        self._resync_tasks.add(task)
        task.add_done_callback(self._resync_tasks.discard)

    async def _resync_backend(self, name: str) -> None:
        """Re-fetch a backend shard's index after its daemon's own
        reload and swap the refreshed picture into the view.

        Skips the swap when the daemon still reports the snapshot path
        *and* reload count the view already holds — the echo of a
        forwarded RELOAD, which :meth:`reload_shard` re-synced inside
        its own swap.  A reload of new bytes at the same path moves
        the count, so it re-syncs.  A failed re-fetch leaves the
        current view serving; the next push (or a front-end RELOAD)
        tries again.  A push that arrived while this re-sync ran
        schedules one more re-sync once it finishes (not when it is
        cancelled), so a reload pushed after this one read ``STATS``
        is never lost.
        """
        try:
            async with self._swap_lock:
                await self._swap_resynced(name)
        finally:
            self._resync_pending.discard(name)
        if name in self._resync_dirty:
            self._resync_dirty.discard(name)
            self._schedule_resync(name)

    async def _swap_resynced(self, name: str) -> None:
        """Fetch backend shard ``name``'s picture and swap it into the
        view unless it is the one the view holds (caller holds
        ``_swap_lock``)."""
        current = self.view.shards.get(name)
        backend = getattr(current, "backend", None)
        if backend is None:
            return
        try:
            shard = await BackendShard.connect(name, backend)
        except FederationError:
            return
        if (shard.snapshot, shard.reloads) == \
                (current.snapshot, current.reloads):
            return
        current.drop_cached_legs()
        self.view = self.view.with_shard(shard)
        self.resyncs += 1
        if self.cache is not None:
            # a second bump, after the swap: lookups cached during the
            # push-to-re-sync window were computed against the
            # outgoing view and must not outlive it
            self.cache.bump(name)

    async def attach(self, name: str, spec: str):
        """Attach (or replace, by name) a shard: a snapshot path or a
        ``host:port`` remote backend spec."""
        async with self._swap_lock:
            shard = await self._open_shard(name, spec)
            old = self.view.shards.get(name)
            self.view = self.view.with_shard(shard)
            self.attaches += 1
            if self.cache is not None:
                self.cache.bump(name)
        if old is not None:
            self._retire(old)
        return shard

    async def detach(self, name: str) -> None:
        """Remove a shard; the remaining shards keep serving.

        A backend shard's connection is closed only after the view
        swap, on a background task with a :attr:`retire_grace`
        window: a lookup that pinned the old view mid-flight finishes
        its round trips before the connection closes.
        """
        async with self._swap_lock:
            old = self.view.shards.get(name)
            self.view = self.view.without_shard(name)
            self.detaches += 1
            if self.cache is not None:
                self.cache.bump(name)
        self._retire(old)

    async def reload_shard(self, name: str, snapshot_path: str):
        """Hot-swap one shard's snapshot, leaving the others serving.

        The shard must already be attached (ATTACH adds new ones).  A
        failed open leaves the current view intact; in-flight lookups
        keep the view — and therefore every shard generation — they
        started with.  For a **backend shard** the reload is forwarded
        to its daemon (the path names a file on the backend's host)
        and the cached ownership index re-synchronized in the same
        swap.  One honest caveat there: the remote daemon swaps the
        moment it accepts the forwarded reload, so a lookup pinned to
        the outgoing view can reach the daemon during the short
        re-sync window and see new-snapshot legs — the outgoing
        shard's leg cache is cleared (below) so nothing from that
        window outlives it, but remote shards cannot give the perfect
        generation pinning local (in-memory) shards do.
        """
        async with self._swap_lock:
            current = self.view.shards.get(name)
            if current is None:
                raise UnknownShardError(f"no shard named {name!r}")
            backend = getattr(current, "backend", None)
            if backend is not None:
                await backend.reload(snapshot_path)
                try:
                    shard = await BackendShard.connect(name, backend)
                except FederationError:
                    # The backend daemon already swapped; serving on
                    # with the OLD cached index against its NEW
                    # snapshot would split-brain the shard.  Best
                    # effort: roll the daemon back to the snapshot
                    # this view still describes, then report the
                    # failure.
                    old_snap = getattr(current, "snapshot", "")
                    if old_snap:
                        try:
                            await backend.reload(old_snap)
                        except FederationError:
                            pass  # daemon gone mid-reload; the next
                            # lookup will surface its health anyway
                    # an in-flight lookup may have cached legs from
                    # the pre-rollback snapshot on the shard we are
                    # keeping — drop them so nothing poisoned persists
                    current.drop_cached_legs()
                    if self.cache is not None:
                        # ... and result-cache entries stitched from
                        # those legs; no swap happened, so only an
                        # explicit bump strands them
                        self.cache.bump(name)
                    raise
                # same window, success path: the outgoing shard stays
                # pinned by in-flight lookups; stale-vs-new mixtures
                # must not survive in its cache either
                current.drop_cached_legs()
            else:
                reader = await asyncio.to_thread(SnapshotReader.open,
                                                 snapshot_path)
                shard = Shard(name, reader, dispatch=self.dispatch)
            self.view = self.view.with_shard(shard)
            self.reloads += 1
            if self.cache is not None:
                # after the swap, before the ack: no post-ack request
                # can be answered from a pre-swap cache entry
                self.cache.bump(name)
            return shard

    def stats_line(self) -> str:
        """The one-line ``key=value`` counters the STATS verb returns.

        ``formats`` lists the attached shards' snapshot format
        versions in shard-name order; the ``n_<verb>`` counters live
        on the service and survive every view swap.  Remote backends
        add ``backends=`` plus one health token per backend —
        ``backend_<name>=<state>:<requests>:<errors>:<connects>`` —
        so an operator sees a bouncing shard daemon from the front
        end's STATS line alone.
        """
        view = self.view
        uptime = time.monotonic() - self.started
        tables = sum(s.source_count for s in view.shards.values())
        formats = view.shard_formats()
        verbs = self.verb_stats()
        backends = [(name, shard.backend)
                    for name, shard in view.shards.items()
                    if getattr(shard, "backend", None) is not None]
        health = "".join(
            f"backend_{name}={backend.health()} "
            for name, backend in backends)
        cache = cache_stats_tokens(self.cache)
        return (f"lookups={self.lookups} hits={self.hits} "
                f"misses={self.misses} federated={self.federated} "
                f"dispatch={self.dispatch} "
                f"n_fsm_hits={self.fsm_hits} "
                f"n_fsm_misses={self.fsm_misses} "
                f"{cache} "
                f"reloads={self.reloads} resyncs={self.resyncs} "
                f"attaches={self.attaches} "
                f"detaches={self.detaches} "
                f"connections={self.connections} "
                f"shards={len(view.shards)} tables={tables} "
                f"formats={formats} "
                f"backends={len(backends)} {health}"
                f"{verbs} "
                f"uptime_sec={uptime:.1f} "
                f"source={self.default_source} "
                f"shard_names={','.join(view.shard_names())}")

    # -- this daemon's verbs --------------------------------------------------

    async def do_SOURCE(self, args: list[str], state: dict) -> str:
        """Switch this connection's source; its home shard is found
        automatically."""
        home = self.view.home_shard(args[0])
        if home is None:
            return f"ERR unknown-source {args[0]}"
        state["source"] = args[0]
        return f"OK source {args[0]} {home.name}"

    async def do_SHARDS(self, args: list[str], state: dict) -> str:
        """The attached shards: ``OK <n> <name>=<sources>:<path>``
        ... in name order."""
        view = self.view
        parts = [f"{name}={shard.source_count}:{shard.path}"
                 for name, shard in view.shards.items()]
        return " ".join(["OK", str(len(parts))] + parts)

    async def do_ATTACH(self, args: list[str], state: dict) -> str:
        """Attach (or replace) a shard from a snapshot path or a
        ``host:port`` backend spec."""
        try:
            shard = await self.attach(*args)
        except (SnapshotError, FederationError) as exc:
            return f"ERR attach {exc}"
        return (f"OK attached {shard.name} {shard.source_count} "
                f"{shard.path}")

    async def do_DETACH(self, args: list[str], state: dict) -> str:
        """Remove a shard."""
        try:
            await self.detach(args[0])
        except UnknownShardError:
            return f"ERR unknown-shard {args[0]}"
        return f"OK detached {args[0]}"

    async def do_RELOAD(self, args: list[str], state: dict) -> str:
        """Hot-swap one shard's snapshot."""
        try:
            shard = await self.reload_shard(*args)
        except UnknownShardError:
            return f"ERR unknown-shard {args[0]}"
        except (SnapshotError, FederationError) as exc:
            # a refused local open, or a backend daemon refusing
            # (or being unreachable for) the forwarded reload
            return f"ERR reload {exc}"
        return (f"OK reloaded {shard.name} {shard.source_count} "
                f"{shard.path}")

    async def do_STATS(self, args: list[str], state: dict) -> str:
        """One ``key=value`` line of counters (:meth:`stats_line`)."""
        return f"OK {self.stats_line()}"


def run_federation_daemon(shards: dict, host: str = "127.0.0.1",
                          port: int = 4176,
                          source: str | None = None,
                          backends: dict | None = None,
                          dispatch: str = "fsm",
                          cache_size: int | None = None) -> int:
    """Blocking entry point for ``pathalias serve --shard/--backend``.

    ``shards`` maps names to local snapshot paths, ``backends`` maps
    names to ``host:port`` daemon addresses; the two mix freely.

    The front end itself is one process (its work is stitching, not
    route computation); the CPU-heavy half scales by pointing each
    ``--backend`` at a ``serve --workers N`` pool — the fan-out treats
    a worker pool exactly like a single daemon, including forwarded
    per-shard RELOADs, which the pool applies to every worker before
    acknowledging.
    """

    async def main() -> None:
        service = await FederationService.create(
            shards=shards, backends=backends, default_source=source,
            dispatch=dispatch, cache_size=cache_size)
        server = await serve(service, host, port)
        bound = server.sockets[0].getsockname()
        names = ",".join(service.view.shard_names())
        remote = len(backends or {})
        local = len(service.view.shards) - remote
        print(f"pathalias: serve: federating {len(service.view.shards)}"
              f" shard(s) [{names}] ({local} local, {remote} remote "
              f"backend(s)); listening on "
              f"{bound[0]}:{bound[1]}", file=sys.stderr, flush=True)
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("pathalias: serve: interrupted", file=sys.stderr)
    return 0


class FederatedRouteDatabase(DaemonRouteDatabase):
    """A live federation daemon with the ``RouteDatabase`` surface.

    Query methods (``route`` / ``resolve`` / ``resolve_bang`` /
    ``stats``) are inherited unchanged — the federated daemon's reply
    lines are byte-compatible — so a
    :class:`~repro.mailer.router.MailRouter` needs no changes.  The
    additions are the shard-administration verbs.
    """

    def shards(self) -> dict[str, tuple[int, str]]:
        """Attached shards as ``{name: (source_count, snapshot_path)}``."""
        reply = self._request("SHARDS")
        parts = reply.split()
        if len(parts) < 2 or parts[0] != "OK":
            raise RouteError(f"daemon protocol error: {reply!r}")
        out: dict[str, tuple[int, str]] = {}
        for token in parts[2:]:
            name, eq, rest = token.partition("=")
            count, colon, path = rest.partition(":")
            if not eq or not colon or not count.isdigit():
                # e.g. a snapshot path containing whitespace cannot
                # ride the space-delimited reply; fail the documented
                # way rather than with a bare ValueError.
                raise RouteError(f"daemon protocol error: {reply!r}")
            out[name] = (int(count), path)
        return out

    def attach(self, name: str, snapshot_path: str) -> int:
        """Attach (or replace) a shard; returns its source count."""
        reply = self._request(
            f"ATTACH {self._token(name, 'shard')} {snapshot_path}")
        parts = reply.split()
        if len(parts) < 4 or parts[:2] != ["OK", "attached"]:
            raise RouteError(f"daemon refused attach: {reply}")
        return int(parts[3])

    def detach(self, name: str) -> None:
        """Detach the named shard."""
        reply = self._request(f"DETACH {self._token(name, 'shard')}")
        if not reply.startswith("OK detached"):
            raise RouteError(f"daemon refused detach: {reply}")

    def reload_shard(self, name: str, snapshot_path: str) -> int:
        """Hot-swap one shard's snapshot; returns its source count."""
        reply = self._request(
            f"RELOAD {self._token(name, 'shard')} {snapshot_path}")
        parts = reply.split()
        if len(parts) < 4 or parts[:2] != ["OK", "reloaded"]:
            raise RouteError(f"daemon refused reload: {reply}")
        return int(parts[3])
