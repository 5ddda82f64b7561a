"""The route lookup daemon: snapshots served over a line protocol.

The paper places the pathalias query inside the delivery agent; at
mapping-project scale the query belongs in a long-running process that
many delivery agents share.  This daemon serves a
:class:`~repro.service.store.SnapshotReader` over TCP, one UTF-8 line
per request:

========================  ===================================================
``ROUTE <dest> [user]``   domain-suffix search from the connection's
                          source; replies ``OK <cost> <matched> <route>
                          <address>``.  Without a user the address is
                          the relative template (``%s`` left in place).
``EXACT <dest>``          exact-name lookup only; ``OK <cost> <dest>
                          <route>``.
``SOURCE <host>``         switch this connection's source table.
``TABLE [src] [dest...]`` bulk export: the routing index, a whole
                          source table, or batched exact lookups —
                          multi-line replies a federation front end
                          assembles its remote view from.
``COSTS <src> [name...]`` bulk per-state costs by node name — exact
                          gateway-leg pricing over the wire.
``RELOAD <snapshot>``     open a new snapshot off-loop and hot-swap it;
                          in-flight lookups keep the old reader (the
                          old mmap stays valid until its last view
                          drains) so no request is ever dropped or
                          mixed mid-swap.  In multi-worker mode the
                          swap is propagated to every sibling worker
                          before the OK comes back.
``WRELOAD <snapshot>``    worker-local reload: same swap, never
                          re-broadcast — it *is* the broadcast RELOAD
                          sends to sibling workers.
``NOTIFY``                subscribe this connection to reload pushes:
                          after ``OK notify 1``, every later snapshot
                          swap writes an unsolicited ``NOTIFY reloaded
                          <sources> <path>`` frame here.  A pipelined
                          connection may subscribe: the push is the
                          one untagged frame it then receives.
``PIPELINE``              capability probe: ``OK pipeline 1`` means the
                          daemon accepts *tagged* requests (below) —
                          kept for third-party clients that probe
                          before pipelining.
``STATS``                 one ``key=value`` line of counters; in
                          multi-worker mode the *aggregate* across all
                          workers, plus ``workers=`` and per-worker
                          health tokens.
``WSTATS``                this one worker's raw, unaggregated counters
                          (what STATS aggregates over the control
                          channel).
``QUIT``                  close the connection.
========================  ===================================================

Errors come back as ``ERR <code> <detail>``; the connection survives
them.  All daemon state lives in :class:`RouteService`, which is also
directly usable in-process (the benchmark drives it without sockets).

**Pipelining.**  A request line may be prefixed with a tag —
``@<tag> ROUTE topaz`` — in which case the client may have many
requests in flight on one connection and replies may return out of
order; *every* reply frame (including each continuation line of a
bulk ``TABLE``/``COSTS`` reply) carries the same ``@<tag> `` prefix,
so interleaved bulk replies reassemble by tag.  Untagged requests
keep the exact lockstep one-in/one-out behavior for simple clients;
see ``docs/protocol.md`` for the grammar.

**Multi-worker serving.**  ``pathalias serve --workers N``
(:func:`run_multi_daemon`) forks N worker processes that each
``SO_REUSEPORT``-listen on the same address — the kernel load-balances
connections across them — and each mmap the same snapshot file, so N
workers share *one* page-cache copy instead of holding N parsed ones.
Every worker also runs a loopback **control listener** speaking this
same protocol; the workers know each other's control ports, which is
how ``STATS`` aggregates every worker's counters (via ``WSTATS``) and
how ``RELOAD`` swaps the snapshot on every worker (via ``WRELOAD``)
before acknowledging.

:class:`DaemonRouteDatabase` is the synchronous client side: it speaks
the same protocol and quacks like
:class:`~repro.mailer.routedb.RouteDatabase`, so a
:class:`~repro.mailer.router.MailRouter` can route live traffic
through a daemon instead of an in-memory table.
"""

from __future__ import annotations

import asyncio
import base64
import multiprocessing
import signal
import socket
import sys
import time
from typing import NamedTuple

from repro.errors import BackendError, FederationError, RouteError
from repro.service.cache import (DEFAULT_CACHE_SIZE, ResultCache,
                                 cache_stats_tokens, instantiate)
from repro.service.resolver import Resolution, resolve_with_cost_dict
from repro.service.store import (SnapshotError, SnapshotReader,
                                 UnknownSourceError)

#: Reconnect backoff shared by every client of the line protocol
#: (the sync :class:`DaemonRouteDatabase` and the async
#: :class:`repro.service.backend.ShardBackend`): first retry delay,
#: doubling per attempt up to the cap.
RECONNECT_DELAY = 0.02
RECONNECT_DELAY_MAX = 0.25

#: Cap on concurrently *executing* tagged requests per connection: a
#: client that floods one connection with tagged work queues here
#: instead of spawning an unbounded task set.  Requests past the cap
#: are still read and answered — just not all at once.
MAX_INFLIGHT = 128


def wire_token(value: str, what: str) -> str:
    """Reject names that cannot ride the space-delimited wire.

    The one validator every client uses (sync and async), so the
    token rules cannot drift between them.
    """
    if not value or any(ch.isspace() for ch in value):
        raise RouteError(f"{what} {value!r} does not fit the "
                         f"daemon's whitespace-delimited protocol")
    return value


def parse_stats(reply: str) -> dict[str, str]:
    """A ``STATS`` or ``WSTATS`` reply's ``key=value`` tokens, in wire
    order, after the leading ``OK`` — the one parser the clients and
    the worker-pool roll-up share."""
    out: dict[str, str] = {}
    for token in reply.split()[1:]:
        key, _, value = token.partition("=")
        out[key] = value
    return out


class Verb(NamedTuple):
    """One row of a service's verb table.

    A request with fewer than ``least`` or more than ``most`` argument
    tokens (``most`` None: no limit) is answered with
    :attr:`usage_reply`, which quotes ``usage``, and never reaches the
    handler — the service's ``do_<name>(args, state)`` method.  A
    tagged request for an ``inline`` verb is answered in read order,
    on the connection's own coroutine; every other tagged request runs
    on a task of its own.  A verb is inline for one of two reasons.
    It changes connection or service state (or closes the
    connection), so it must not be reordered: a pipelined ``SOURCE``
    governs exactly the tagged requests read after it, and a tagged
    swap stays between the requests around it on its connection.  Or
    its handler never waits, so a task would only add an event-loop
    hop: the single-snapshot daemon's ``ROUTE``, ``EXACT``, ``TABLE``
    and ``COSTS`` are answered from memory.
    """

    name: str
    usage: str = ""
    least: int = 0
    most: int | None = 0
    inline: bool = False

    @property
    def usage_reply(self) -> str:
        """The ``ERR usage`` reply for a malformed request."""
        return f"ERR usage {self.name} {self.usage}".rstrip()


#: The verbs both daemons answer the same way: their handlers live on
#: :class:`LineService`, and a service's table names them by string.
SHARED_VERBS = {row.name: row for row in (
    Verb("ROUTE", "<dest> [user]", 1, 2),
    Verb("EXACT", "<dest>", 1, 1),
    Verb("PIPELINE", inline=True),
    Verb("QUIT", most=None, inline=True),
)}


def verb_table(*rows) -> dict[str, Verb]:
    """A service's verb table, in the order ``docs/protocol.md``
    documents the verbs; each row is a :class:`Verb` or the name of
    one of :data:`SHARED_VERBS`."""
    table = {}
    for row in rows:
        row = SHARED_VERBS[row] if isinstance(row, str) else row
        table[row.name] = row
    return table


class LineService:
    """The one request pipeline every line-protocol daemon serves
    through.

    :meth:`handle_connection` frames and counts requests;
    :meth:`handle_line` looks each verb up in the service's
    :attr:`VERB_TABLE`, checks its argument count, and calls its
    ``do_<VERB>`` handler.  The verbs every daemon answers alike
    (``ROUTE``, ``EXACT``, ``PIPELINE``, ``QUIT``) are handled here,
    with their error-to-wire mapping, and so is the cached, counted
    lookup path behind ``ROUTE`` and ``EXACT`` (:meth:`lookup`,
    :meth:`exact`).  A service supplies three hooks — :meth:`_pin`
    (the snapshot or view one request works against) and the two
    computations against it, :meth:`_lookup_pinned` and
    :meth:`_exact_pinned` — plus the handlers of its own verbs.  Both
    the single-snapshot :class:`RouteService` and the federated
    :class:`~repro.service.federation.FederationService` serve through
    this pipeline, so :func:`serve` works for either.

    Each service binds ``handle_line = LineService.handle_line`` in its
    own class body: perfbench's tracer times the method it finds in a
    class's own ``vars()``, and would find nothing on an inherited one.

    Every counter lives on the service — not on any snapshot or view —
    so a ``RELOAD`` (which swaps those) can never reset one: the
    per-verb ``n_<verb>`` counters (bumped by the connection loop for
    every request whose verb is in :attr:`VERBS`), ``n_errors``, the
    lookup counters, and the result cache's own.  The reload-under-load
    tests assert they stay consistent across swaps.
    """

    #: The verb table (subclasses build theirs with :func:`verb_table`).
    VERB_TABLE: dict = {}

    #: The table's verbs in documentation order (subclasses derive
    #: theirs from their table); seeds ``verb_counts``.
    VERBS: tuple = ()

    def __init__(self, dispatch: str = "fsm",
                 cache_size: int | None = None) -> None:
        """``dispatch`` selects the suffix-search engine — ``fsm``
        (the compiled automaton, default) or ``dict`` (the original
        walk, kept as a live differential oracle; ``serve --dispatch
        dict``).
        ``cache_size`` bounds the generation-stamped result cache
        (``serve --cache``): None takes the default, 0 disables
        (``--no-cache``), and ``dict`` dispatch forces it off — the
        dict walk *is* the differential oracle, and an oracle that
        answered from a cache would compare cache to cache."""
        self.connections = 0
        self.verb_counts = {verb: 0 for verb in self.VERBS}
        #: Requests answered with an ``ERR`` reply (malformed lines,
        #: bad encodings, misses, refused reloads, ...).  Service-owned
        #: like the verb counters: reported as ``n_errors`` by STATS
        #: and never reset by a RELOAD/ATTACH/DETACH.
        self.errors = 0
        #: Tagged (pipelined) requests received, across connections —
        #: the ``n_pipelined`` STATS key, so an operator can see
        #: whether clients actually negotiated pipelining.
        self.pipelined = 0
        #: Concurrently executing tagged requests right now, and the
        #: high-water mark since start (the ``inflight_hwm`` STATS
        #: key): the observable pipeline depth.
        self.inflight = 0
        self.inflight_hwm = 0
        self.dispatch = dispatch
        if dispatch == "dict":
            cache_size = 0
        size = DEFAULT_CACHE_SIZE if cache_size is None else cache_size
        #: The generation-stamped result cache (None when disabled).
        #: Service-owned like every counter here: a swap bumps the
        #: cache's generation, but the cache object — and its
        #: hit/miss/invalidation counters — survive.
        self.cache: ResultCache | None = \
            ResultCache(size) if size > 0 else None
        self.started = time.monotonic()
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        #: Automaton dispatches that matched / missed.  Both stay 0 in
        #: ``dict`` mode, which is how an operator reads the active
        #: engine off STATS (``dispatch=`` says it explicitly too).
        self.fsm_hits = 0
        self.fsm_misses = 0
        #: Answers whose route crossed a shard boundary.
        self.federated = 0
        #: The source every new connection starts on (subclasses set
        #: it once their snapshot or view is open).
        self.default_source = ""

    def initial_state(self) -> dict:
        """Fresh per-connection state: the default source."""
        return {"source": self.default_source}

    def connection_closed(self, state: dict) -> None:
        """Hook: the connection owning ``state`` is gone.

        The base loop calls this exactly once per connection, from its
        teardown path; subclasses use it to drop per-connection
        registrations (a NOTIFY subscription, say) so a dead socket
        never accumulates push targets.
        """

    def verb_stats(self) -> str:
        """The ``n_<verb>=count`` tokens for :meth:`stats_line` — one
        formatter so the two daemons' wire keys cannot drift — plus
        the service-owned ``n_errors`` counter."""
        tokens = [f"n_{verb.lower()}={count}"
                  for verb, count in self.verb_counts.items()]
        tokens.append(f"n_errors={self.errors}")
        tokens.append(f"n_pipelined={self.pipelined}")
        tokens.append(f"inflight_hwm={self.inflight_hwm}")
        return " ".join(tokens)

    # -- one request ----------------------------------------------------------

    async def handle_line(self, line: str, state: dict) -> str | None:
        """One request in, one reply line out (None closes): the verb's
        table row checks the argument count, then its ``do_<VERB>``
        handler answers; a corrupt snapshot section answers ``ERR
        snapshot``."""
        words = line.split()
        if not words:
            return "ERR empty-request send " + "/".join(self.VERBS)
        verb = words[0].upper()
        row = self.VERB_TABLE.get(verb)
        if row is None:
            return f"ERR unknown-command {verb}"
        args = words[1:]
        if len(args) < row.least or \
                (row.most is not None and len(args) > row.most):
            return row.usage_reply
        try:
            return await getattr(self, "do_" + verb)(args, state)
        except SnapshotError as exc:
            return f"ERR snapshot {exc}"

    async def do_ROUTE(self, args: list[str], state: dict) -> str:
        """Domain-suffix search from the connection's source: ``OK
        <cost> <matched> <route> <address>``."""
        try:
            cost, res = await self.lookup(state["source"], *args)
        except (RouteError, UnknownSourceError) as exc:
            return self._lookup_error(exc, args[0], state["source"])
        return f"OK {cost} {res.matched} {res.route} {res.address}"

    async def do_EXACT(self, args: list[str], state: dict) -> str:
        """Exact-name lookup: ``OK <cost> <dest> <route>``."""
        try:
            cost, route = await self.exact(state["source"], args[0])
        except (RouteError, UnknownSourceError) as exc:
            return self._lookup_error(exc, args[0], state["source"])
        return f"OK {cost} {args[0]} {route}"

    @staticmethod
    def _lookup_error(exc: Exception, dest: str, source: str) -> str:
        """The wire reply for a failed lookup of ``dest``: a topology
        gap between shards, a plain miss, or a source that a swap has
        since removed."""
        if isinstance(exc, FederationError):
            return f"ERR federation {exc}"
        if isinstance(exc, RouteError):
            return f"ERR noroute {dest}"
        return f"ERR unknown-source {source}"

    async def do_PIPELINE(self, args: list[str], state: dict) -> str:
        """Capability probe: ``OK pipeline 1`` — tagged requests are
        accepted (kept for third-party clients that probe first)."""
        return "OK pipeline 1"

    async def do_QUIT(self, args: list[str], state: dict) -> None:
        """Close the connection."""
        return None

    # -- the cached, counted lookup path --------------------------------------

    def _pin(self):
        """The snapshot or view one request works against; read once
        per request, never again across its await points."""
        raise NotImplementedError

    async def _lookup_pinned(self, pinned, source: str, target: str,
                             user: str) -> tuple:
        """Suffix-search ``target`` from ``source`` against ``pinned``:
        ``(cost, resolution, federated)``.  Raises ``RouteError`` on a
        miss and ``SnapshotError`` when ``source`` has no table."""
        raise NotImplementedError

    async def _exact_pinned(self, pinned, source: str,
                            target: str) -> tuple:
        """Exact-name lookup against ``pinned``: ``(cost, route,
        federated)``, raising like :meth:`_lookup_pinned`."""
        raise NotImplementedError

    async def lookup(self, source: str, target: str,
                     user: str = "%s") -> tuple[int, Resolution]:
        """Suffix-search ``target`` from ``source``: ``(cost,
        resolution)``.

        Raises :class:`~repro.errors.RouteError` on a miss — a
        :class:`~repro.errors.FederationError` when the owner shard is
        unreachable through gateways — and :class:`SnapshotError` when
        ``source`` has no table (a swap may have removed it).  Counts
        both ways.

        With the result cache on, the relative-template answer for
        ``(source, target)`` is cached generation-stamped and
        instantiated per user, so repeat traffic on a hot pair skips
        the search entirely.  Misses are cached too, as their error
        class, so a replayed ``FederationError`` still reports the
        ``federation`` wire code.
        """
        if self.cache is None or "%s" in target:
            # a literal %s in the name cannot template-substitute
            cost, res, _ = await self._counted(
                "R", self._pin(), source, target, user)
            return cost, res
        cost, template = await self._cached("R", source, target)
        return cost, instantiate(template, user)

    async def exact(self, source: str, target: str) -> tuple[int, str]:
        """Exact-name lookup from ``source``: ``(cost, route)``.

        Cached under its own key kind (``EXACT`` and ``ROUTE`` answers
        for one pair differ), with the same stamp discipline as
        :meth:`lookup`."""
        if self.cache is None:
            cost, route, _ = await self._counted(
                "E", self._pin(), source, target)
            return cost, route
        return await self._cached("E", source, target)

    async def _cached(self, kind: str, source: str, target: str):
        """``(cost, answer)`` for one ``kind`` of lookup through the
        result cache.

        The stamp is read before the snapshot or view is pinned, in
        the same event-loop step, and every swap bumps only after
        publishing itself: an answer computed across await points
        against a swapped-out picture carries a stranded stamp, and
        :meth:`~repro.service.cache.ResultCache.put` drops it.  A hit
        counts ``lookups`` and ``hits`` (or ``misses`` for a cached
        error) but not the ``fsm_*`` counters: no dispatch ran.
        """
        cache = self.cache
        stamp = cache.epoch   # read the stamp, *then* pin: a swap
        pinned = self._pin()  # between the two strands the stamp
        key = (kind, source, target)
        hit = cache.get(key)
        if hit is not None:
            self.lookups += 1
            negative, payload = hit
            if negative:
                self.misses += 1
                cache.raise_negative(payload)
            self.hits += 1
            cost, answer, federated = payload
            if federated:
                self.federated += 1
            return cost, answer
        try:
            result = await self._counted(kind, pinned, source, target)
        except (SnapshotError, BackendError):
            # never cached: the source may reappear on a swap, and a
            # backend fault may clear by the next request
            raise
        except RouteError as exc:
            cache.put_negative(key, exc, stamp)
            raise
        cache.put(key, result, stamp)
        return result[:2]

    async def _counted(self, kind: str, pinned, source: str,
                       target: str, user: str = "%s") -> tuple:
        """One uncached lookup against ``pinned`` — ``R`` a suffix
        search, ``E`` an exact name — counted.  Only a suffix search
        under ``fsm`` dispatch moves the ``fsm_*`` counters."""
        self.lookups += 1
        fsm = kind == "R" and self.dispatch != "dict"
        try:
            if kind == "R":
                result = await self._lookup_pinned(pinned, source,
                                                   target, user)
            else:
                result = await self._exact_pinned(pinned, source, target)
        except SnapshotError:
            self.misses += 1
            raise
        except RouteError:
            self.misses += 1
            if fsm:
                self.fsm_misses += 1
            raise
        self.hits += 1
        if fsm:
            self.fsm_hits += 1
        if result[2]:
            self.federated += 1
        return result

    # -- the connection loop --------------------------------------------------

    @staticmethod
    async def _read_request_line(reader: asyncio.StreamReader
                                 ) -> tuple[bytes, bool]:
        """One request line, with deterministic oversized-line
        handling: ``(line bytes, overflowed)``.

        A line that outgrows the stream's frame limit is discarded
        *through its terminating newline* — however many buffer
        refills that takes — and reported as a single overflow, so a
        request/reply-lockstep client sees exactly one ``ERR`` for it
        and the connection's framing stays aligned.  (Plain
        ``readline`` would clear only the buffered prefix and then
        serve the line's tail as phantom extra requests.)
        """
        try:
            return await reader.readuntil(b"\n"), False
        except asyncio.IncompleteReadError as exc:
            return exc.partial, False  # EOF (maybe a final bare line)
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed
            while True:
                if consumed:
                    await reader.readexactly(consumed)
                try:
                    await reader.readuntil(b"\n")
                    return b"", True
                except asyncio.IncompleteReadError:
                    return b"", True  # EOF amid the junk
                except asyncio.LimitOverrunError as again:
                    consumed = again.consumed

    @staticmethod
    def _tagged_frames(tag: str, reply: str) -> bytes:
        """Encode ``reply`` with every frame carrying ``@<tag> `` —
        bulk replies are newline-joined strings, and each of their
        lines is its own wire frame, so each gets the prefix."""
        return "".join(f"@{tag} {frame}\n"
                       for frame in reply.split("\n")).encode("utf-8")

    async def handle_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        """Serve one client connection until QUIT or disconnect.

        A malformed request — non-UTF-8 bytes, or a line so long the
        stream's frame limit cuts it off — errors *that one request*
        with a single protocol ``ERR`` reply, counted in ``n_errors``;
        the connection, its framing, and every service-owned counter
        survive it untouched.

        **Tagged requests** (``@<tag> VERB ...``) run concurrently:
        each spawns a per-request task over a *snapshot* of the
        connection state, its reply frames written atomically under a
        per-connection lock, so replies may interleave and return out
        of order — the tag is the correlation.  Verbs whose table row
        is ``inline`` (see :class:`Verb`) are answered on this
        coroutine in read order even when tagged, counted in
        ``inflight`` while they run; that is what makes ``@1 SOURCE
        a`` / ``@2 ROUTE x`` deterministic: the SOURCE is in effect —
        and its reply on the wire — before the ROUTE is even read.
        Untagged requests keep the strict lockstep behavior, including
        draining all in-flight tagged work first, so the two styles
        serialize cleanly if a client mixes them.
        """
        self.connections += 1
        state = self.initial_state()
        wlock = asyncio.Lock()
        gate = asyncio.Semaphore(MAX_INFLIGHT)
        tasks: set = set()

        async def write_frames(data: bytes) -> None:
            async with wlock:
                writer.write(data)
                await writer.drain()

        # NOTIFY subscriptions push unsolicited frames through this
        # same locked writer, so a push can interleave *between*
        # reply frames but never tear one mid-line.
        state["#push"] = write_frames

        async def counted(line: str, state: dict) -> str | None:
            # one tagged request executing, inline or on its own task
            self.inflight += 1
            self.inflight_hwm = max(self.inflight_hwm, self.inflight)
            try:
                return await self.handle_line(line, state)
            finally:
                self.inflight -= 1

        async def answer_tagged(tag: str, line: str,
                                snapshot: dict) -> None:
            try:
                reply = await counted(line, snapshot)
            finally:
                gate.release()
            if reply is None:  # unreachable: QUIT is inline
                reply = "OK bye"
            if reply.startswith("ERR"):
                self.errors += 1
            await write_frames(self._tagged_frames(tag, reply))

        async def drain_tagged() -> None:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)

        try:
            while True:
                raw, overflowed = await self._read_request_line(reader)
                if overflowed:
                    self.errors += 1
                    await write_frames(
                        b"ERR overflow request line exceeds "
                        b"the frame limit\n")
                    continue
                if not raw:
                    break
                try:
                    line = raw.decode("utf-8").strip()
                except UnicodeDecodeError:
                    self.errors += 1
                    await write_frames(b"ERR encoding expected UTF-8\n")
                    continue
                tag = None
                if line.startswith("@"):
                    first, _, body = line.partition(" ")
                    tag, line = first[1:], body.strip()
                    if not tag:
                        self.errors += 1
                        await write_frames(
                            b"ERR usage tagged request needs a "
                            b"non-empty tag: @<tag> VERB ...\n")
                        continue
                    self.pipelined += 1
                verb = line.split(None, 1)[0].upper() if line else ""
                if verb in self.verb_counts:
                    self.verb_counts[verb] += 1
                row = self.VERB_TABLE.get(verb)
                if tag is not None and line \
                        and not (row is not None and row.inline):
                    await gate.acquire()
                    task = asyncio.get_running_loop().create_task(
                        answer_tagged(tag, line, dict(state)))
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
                    continue
                if tag is None:
                    # Untagged lockstep: one in, one out, in order —
                    # after any in-flight tagged work has drained, so
                    # a client that mixes styles still sees strictly
                    # ordered lockstep replies.
                    await drain_tagged()
                    reply = await self.handle_line(line, state)
                else:
                    reply = await counted(line, state)
                if reply is None:
                    await drain_tagged()
                    data = b"OK bye\n" if tag is None else \
                        self._tagged_frames(tag, "OK bye")
                    await write_frames(data)
                    break
                if reply.startswith("ERR"):
                    self.errors += 1
                data = reply.encode("utf-8") + b"\n" if tag is None \
                    else self._tagged_frames(tag, reply)
                await write_frames(data)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Server teardown while this handler awaited a read; the
            # connection is finished either way — end quietly instead
            # of logging cancellation noise through the task callback.
            pass
        finally:
            self.connection_closed(state)
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            # close() alone: awaiting wait_closed() here would raise
            # CancelledError noise when the loop tears down while a
            # handler drains, and the transport closes regardless.
            writer.close()


class RouteService(LineService):
    """Daemon state: the current snapshot reader plus counters.

    Swapping snapshots is a single attribute assignment of an immutable
    reader, so concurrent lookups need no locking — each request grabs
    the reader reference once and works against that snapshot for its
    whole lifetime.
    """

    #: The verbs this daemon's line protocol implements, in the order
    #: ``docs/protocol.md`` documents them (the CI docs job checks the
    #: page against this table).  TABLE and COSTS are the *bulk*
    #: verbs a federation front end assembles its remote view from;
    #: WRELOAD and WSTATS are the worker-coordination halves of RELOAD
    #: and STATS (present — and harmless — in single-worker mode too).
    #: The lookup and bulk verbs read one pinned snapshot and never
    #: wait, so they are inline: a tagged one is answered on the
    #: connection's coroutine, with no task.  STATS stays a task, as
    #: it may ask the sibling workers.
    VERB_TABLE = verb_table(
        SHARED_VERBS["ROUTE"]._replace(inline=True),
        SHARED_VERBS["EXACT"]._replace(inline=True),
        Verb("SOURCE", "<host>", 1, 1, inline=True),
        Verb("TABLE", "[--fsm | <source> [dest ...]]", 0, None,
             inline=True),
        Verb("COSTS", "<source> [name ...]", 1, None, inline=True),
        Verb("RELOAD", "<snapshot>", 1, 1, inline=True),
        Verb("WRELOAD", "<snapshot>", 1, 1, inline=True),
        Verb("NOTIFY", inline=True),
        "PIPELINE",
        Verb("STATS", most=None),
        Verb("WSTATS", most=None),
        "QUIT")
    VERBS = tuple(VERB_TABLE)
    handle_line = LineService.handle_line  # see LineService

    #: STATS counters summed across workers in an aggregated reply
    #: (the ``n_<verb>``/``n_errors``/``n_pipelined`` keys are summed
    #: too, matched by their ``n_`` prefix).
    STATS_SUM_KEYS = frozenset({"lookups", "hits", "misses", "reloads",
                                "notify_pushes", "connections"})

    def __init__(self, snapshot_path: str | None = None,
                 reader: SnapshotReader | None = None,
                 default_source: str | None = None,
                 dispatch: str = "fsm",
                 cache_size: int | None = None):
        """Serve ``reader``, or the snapshot at ``snapshot_path``;
        ``dispatch`` and ``cache_size`` as for :class:`LineService`."""
        super().__init__(dispatch, cache_size)
        if reader is None:
            if snapshot_path is None:
                raise SnapshotError("RouteService needs a snapshot "
                                    "path or an open reader")
            reader = SnapshotReader.open(snapshot_path)
        self.reader = reader
        if default_source is None:
            sources = reader.sources()
            if not sources:
                raise SnapshotError(f"{reader.path}: snapshot has no "
                                    f"source tables")
            default_source = sources[0]
        elif not reader.has_source(default_source):
            raise SnapshotError(
                f"{reader.path}: no table for source "
                f"{default_source!r}")
        self.default_source = default_source
        self.reloads = 0
        self._reload_lock = asyncio.Lock()
        #: Per-connection push callables registered by the NOTIFY
        #: verb: every snapshot swap writes an unsolicited ``NOTIFY
        #: reloaded ...`` frame to each.  Entries are the connection's
        #: locked frame writer, discarded by :meth:`connection_closed`
        #: (or on the first failed push).
        self.notify_subscribers: set = set()
        #: Reload-push frames successfully written to subscribers —
        #: the ``notify_pushes`` STATS key.
        self.notify_pushes = 0
        self._notify_tasks: set = set()
        #: This process's worker id (0 outside multi-worker mode) and
        #: the control-channel map ``{worker_id: loopback port}`` over
        #: *all* workers, itself included.  An empty map means
        #: single-worker mode: STATS answers locally and RELOAD
        #: broadcasts to nobody.
        self.worker_id = 0
        self.worker_peers: dict[int, int] = {}

    # -- the lookup hooks -----------------------------------------------------

    def _pin(self) -> SnapshotReader:
        """The reader one request works against."""
        return self.reader

    async def _lookup_pinned(self, reader: SnapshotReader, source: str,
                             target: str, user: str) -> tuple:
        """The suffix search in ``source``'s table of one pinned
        reader, through the table's compiled automaton, or the
        original dict walk in ``dict`` mode."""
        # The cached SnapshotTable *is* the in-process Resolver
        # surface; no per-request wrapper on the hot path.
        table = reader.table(source)
        if self.dispatch == "dict":
            cost, resolution = resolve_with_cost_dict(table, target, user)
        else:
            cost, resolution = table.resolve_with_cost(target, user)
        return cost, resolution, False

    async def _exact_pinned(self, reader: SnapshotReader, source: str,
                            target: str) -> tuple:
        """The exact-name lookup against one pinned reader."""
        hit = reader.table(source).lookup(target)
        if hit is None:
            raise RouteError(f"no route to {target!r}")
        return hit[0], hit[1], False

    # -- this daemon's verbs --------------------------------------------------

    async def do_SOURCE(self, args: list[str], state: dict) -> str:
        """Switch this connection's source table."""
        if not self.reader.has_source(args[0]):
            return f"ERR unknown-source {args[0]}"
        state["source"] = args[0]
        return f"OK source {args[0]}"

    async def do_TABLE(self, args: list[str], state: dict) -> str:
        """The TABLE bulk verb: a multi-line data export.

        Four forms, all answered from one pinned snapshot:

        * ``TABLE`` — the routing index (``OK index <n>`` then one
          ``S <name>`` / ``D <name>`` line per source/domain);
        * ``TABLE --fsm`` — the routing index as a precompiled
          suffix-automaton block (``OK fsm <n>`` then n base64 lines
          of the serialized ``DFSM`` bytes, names embedded): the
          front end reads the index names straight out of it;
        * ``TABLE <source>`` — the whole route table (``OK table <n>``
          then ``<cost> <name> <route>`` lines in name order);
        * ``TABLE <source> <dest>...`` — batched exact lookups, one
          line per requested destination (``- <dest> -`` on a miss).

        This is what lets a federation front end build its ownership
        index and fetch a whole gateway-leg set in one round trip
        instead of one ``EXACT`` per destination.
        """
        reader = self.reader  # pin one snapshot for the whole reply
        if not args:
            lines = [f"{'D' if is_domain else 'S'} {name}"
                     for name, is_domain in reader.routing_index()]
            return "\n".join([f"OK index {len(lines)}"] + lines)
        if args[0] == "--fsm":
            if len(args) > 1:
                return self.VERB_TABLE["TABLE"].usage_reply
            blob = base64.b64encode(
                reader.index_fsm_bytes()).decode("ascii")
            lines = [blob[i:i + 76] for i in range(0, len(blob), 76)]
            return "\n".join([f"OK fsm {len(lines)}"] + lines)
        source, dests = args[0], args[1:]
        if not reader.has_source(source):
            return f"ERR unknown-source {source}"
        table = reader.table(source)
        if dests:
            lines = []
            for dest in dests:
                hit = table.lookup(dest)
                lines.append(f"- {dest} -" if hit is None
                             else f"{hit[0]} {dest} {hit[1]}")
        else:
            lines = [f"{cost} {name} {route}"
                     for cost, name, route in table.records()]
        return "\n".join([f"OK table {len(lines)}"] + lines)

    async def do_COSTS(self, args: list[str], state: dict) -> str:
        """The COSTS bulk verb: exact per-state costs by node name.

        ``COSTS <source> [name ...]`` answers ``OK costs <n>`` then
        one ``<cost> <name>`` line per node (``- <name>`` for an
        unreached or unknown name when names were given; without
        names, every reachable public node).  Costs come from the
        ``STAT`` records — exact mapper state costs, keyed by node,
        covering nets/domains and hosts the route records display
        under domain-qualified names.  Each given name is one point
        lookup in the block; without names, one pass over it answers
        every node.
        """
        reader = self.reader
        source, names = args[0], args[1:]
        if not reader.has_source(source):
            return f"ERR unknown-source {source}"
        if names:
            lines = []
            for name in names:
                cost = reader.state_cost(source, name)
                lines.append(f"- {name}" if cost is None
                             else f"{cost} {name}")
        else:
            costs = reader.table(source).node_costs()
            by_name = reader.decode_graph().cid_by_name
            lines = []
            for name in sorted(by_name):
                cost = costs.get(by_name[name])
                if cost is not None:
                    lines.append(f"{cost} {name}")
        return "\n".join([f"OK costs {len(lines)}"] + lines)

    async def reload(self, snapshot_path: str) -> SnapshotReader:
        """Open a new snapshot off the event loop and swap it in.

        The old reader stays valid for requests that already hold it;
        a failed open leaves the current snapshot serving.
        """
        async with self._reload_lock:
            reader = await asyncio.to_thread(SnapshotReader.open,
                                             snapshot_path)
            if not reader.has_source(self.default_source):
                sources = reader.sources()
                if not sources:
                    raise SnapshotError(
                        f"{reader.path}: snapshot has no source tables")
                self.default_source = sources[0]
            self.reader = reader
            self.reloads += 1
            if self.cache is not None:
                # Bump *after* publishing the swap and *before* the
                # caller acks: no post-ack request can be answered
                # from a pre-swap cache entry.
                self.cache.bump()
            self._push_reloaded(reader)
            return reader

    def _push_reloaded(self, reader: SnapshotReader) -> None:
        """Fan a ``NOTIFY reloaded`` push frame out to subscribers.

        Fire-and-forget per subscriber: pushes ride each target
        connection's own locked writer as background tasks, so a slow
        or dead subscriber never stalls the reload (or the other
        subscribers).  Runs for WRELOAD too — in multi-worker mode
        every worker notifies its own connections after its local
        swap, which is exactly the pool-wide fan-out an operator
        expects from one RELOAD.
        """
        if not self.notify_subscribers:
            return
        frame = (f"NOTIFY reloaded {reader.source_count} "
                 f"{reader.path}\n").encode("utf-8")
        loop = asyncio.get_running_loop()
        for push in tuple(self.notify_subscribers):
            task = loop.create_task(self._push_one(push, frame))
            self._notify_tasks.add(task)
            task.add_done_callback(self._notify_tasks.discard)

    async def _push_one(self, push, frame: bytes) -> None:
        """Write one push frame; a dead connection unsubscribes."""
        try:
            await push(frame)
        except (ConnectionError, OSError):
            self.notify_subscribers.discard(push)
        else:
            self.notify_pushes += 1

    def connection_closed(self, state: dict) -> None:
        """Drop this connection's reload-push subscription, if any."""
        self.notify_subscribers.discard(state.get("#push"))

    # -- worker coordination --------------------------------------------------

    async def peer_request(self, port: int, line: str,
                           timeout: float = 5.0) -> str:
        """One request/reply round trip to a sibling worker's
        loopback control listener; returns the reply line."""
        conn = asyncio.open_connection("127.0.0.1", port)
        reader, writer = await asyncio.wait_for(conn, timeout)
        try:
            writer.write(line.encode("utf-8") + b"\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.readline(), timeout)
        finally:
            writer.close()
        if not raw:
            raise ConnectionError(
                "worker closed the control connection")
        return str(raw, "utf-8").rstrip("\r\n")

    def _peer_ports(self) -> list[tuple[int, int]]:
        """``(worker_id, control port)`` for every *other* worker."""
        return [(wid, port)
                for wid, port in sorted(self.worker_peers.items())
                if wid != self.worker_id]

    async def broadcast_reload(self, path: str) -> list[str]:
        """Push a snapshot swap to every sibling worker.

        Sends ``WRELOAD`` (which swaps locally and never re-broadcasts,
        so the fan-out cannot loop) to each peer concurrently; returns
        a ``worker <id>: <why>`` note per worker that failed to swap —
        empty means the whole pool now serves the new snapshot.
        """
        async def push(wid: int, port: int) -> str | None:
            try:
                reply = await self.peer_request(port, f"WRELOAD {path}")
            except (OSError, asyncio.TimeoutError,
                    ConnectionError) as exc:
                return f"worker {wid}: {exc}"
            if not reply.startswith("OK"):
                return f"worker {wid}: {reply}"
            return None

        notes = await asyncio.gather(
            *(push(wid, port) for wid, port in self._peer_ports()))
        return [note for note in notes if note]

    async def do_STATS(self, args: list[str], state: dict) -> str:
        """The STATS reply: local counters, or — in multi-worker mode
        — the aggregate across the whole worker pool.

        Each sibling is asked for its raw ``WSTATS``; count keys
        (:attr:`STATS_SUM_KEYS` and the ``n_`` prefix) are summed,
        ``inflight_hwm``/``uptime_sec`` take the pool max, and
        snapshot-identity keys stay the answering worker's (every
        worker maps the same file).  ``workers=<n>`` plus one
        ``worker_<id>=ok:<lookups>`` / ``worker_<id>=down`` token per
        worker report pool size and health; an unreachable worker
        degrades its token, never the reply.
        """
        local = f"OK {self.stats_line()}"
        if not self.worker_peers:
            return local

        async def fetch(wid: int, port: int):
            try:
                reply = await self.peer_request(port, "WSTATS")
            except (OSError, asyncio.TimeoutError, ConnectionError):
                return wid, None
            if not reply.startswith("OK"):
                return wid, None
            return wid, parse_stats(reply)

        per_worker: dict[int, dict[str, str] | None] = {
            self.worker_id: parse_stats(local)}
        for wid, stats in await asyncio.gather(
                *(fetch(wid, port) for wid, port in self._peer_ports())):
            per_worker[wid] = stats
        merged = dict(per_worker[self.worker_id] or {})
        merged.pop("worker", None)
        for wid, stats in per_worker.items():
            if wid == self.worker_id or stats is None:
                continue
            for key, value in stats.items():
                if key not in merged:
                    continue
                try:
                    if key in self.STATS_SUM_KEYS \
                            or key.startswith("n_"):
                        merged[key] = str(int(merged[key]) + int(value))
                    elif key == "inflight_hwm":
                        merged[key] = str(max(int(merged[key]),
                                              int(value)))
                    elif key == "uptime_sec":
                        merged[key] = \
                            f"{max(float(merged[key]), float(value)):.1f}"
                except ValueError:
                    pass  # a non-numeric stray never breaks STATS
        tokens = [f"{key}={value}" for key, value in merged.items()]
        tokens.append(f"workers={len(self.worker_peers)}")
        for wid in sorted(self.worker_peers):
            stats = per_worker.get(wid)
            tokens.append(
                f"worker_{wid}=down" if stats is None
                else f"worker_{wid}=ok:{stats.get('lookups', '0')}")
        return "OK " + " ".join(tokens)

    def stats_line(self) -> str:
        """The one-line ``key=value`` counters the STATS verb returns.

        ``format`` is the served snapshot's format version; the
        ``n_<verb>`` counters live on the service and survive every
        reload.
        """
        reader = self.reader
        uptime = time.monotonic() - self.started
        verbs = self.verb_stats()
        cache = cache_stats_tokens(self.cache)
        return (f"lookups={self.lookups} hits={self.hits} "
                f"misses={self.misses} reloads={self.reloads} "
                f"notify_pushes={self.notify_pushes} "
                f"connections={self.connections} "
                f"sources={reader.source_count} "
                f"snapshot_bytes={reader.size} "
                f"format={reader.version} "
                f"dispatch={self.dispatch} "
                f"n_fsm_hits={self.fsm_hits} "
                f"n_fsm_misses={self.fsm_misses} "
                f"{cache} "
                f"{verbs} "
                f"uptime_sec={uptime:.1f} "
                f"source={self.default_source} "
                f"snapshot={reader.path}")

    # -- the swap and notify verbs -------------------------------------------

    async def do_RELOAD(self, args: list[str], state: dict) -> str:
        """Swap in a new snapshot; in multi-worker mode, on every
        sibling worker too before the OK comes back."""
        reply = await self.do_WRELOAD(args, state)
        if reply.startswith("OK") and self.worker_peers:
            failures = await self.broadcast_reload(args[0])
            if failures:
                return "ERR reload " + "; ".join(failures)
        return reply

    async def do_WRELOAD(self, args: list[str], state: dict) -> str:
        """Swap in a new snapshot on this worker only."""
        try:
            reader = await self.reload(args[0])
        except SnapshotError as exc:
            return f"ERR reload {exc}"
        return f"OK reloaded {reader.source_count} {reader.path}"

    async def do_NOTIFY(self, args: list[str], state: dict) -> str:
        """Subscribe this connection to reload pushes."""
        push = state.get("#push")
        if push is None:
            return ("ERR notify this transport cannot carry "
                    "unsolicited push frames")
        self.notify_subscribers.add(push)
        return "OK notify 1"

    async def do_WSTATS(self, args: list[str], state: dict) -> str:
        """This worker's own counters, unaggregated."""
        return f"OK worker={self.worker_id} {self.stats_line()}"


async def serve(service: LineService, host: str = "127.0.0.1",
                port: int = 0) -> asyncio.AbstractServer:
    """Start serving; ``port=0`` picks a free port (see
    ``server.sockets[0].getsockname()``)."""
    return await asyncio.start_server(service.handle_connection,
                                      host, port)


def run_daemon(snapshot_path: str, host: str = "127.0.0.1",
               port: int = 4176, source: str | None = None,
               workers: int = 1, dispatch: str = "fsm",
               cache_size: int | None = None) -> int:
    """Blocking daemon entry point for ``pathalias serve``.

    ``workers > 1`` hands off to :func:`run_multi_daemon`: N
    ``SO_REUSEPORT`` worker processes sharing one mapped snapshot.
    """
    if workers > 1:
        return run_multi_daemon(snapshot_path, host=host, port=port,
                                source=source, workers=workers,
                                dispatch=dispatch,
                                cache_size=cache_size)

    async def main() -> None:
        service = RouteService(snapshot_path, default_source=source,
                               dispatch=dispatch,
                               cache_size=cache_size)
        server = await serve(service, host, port)
        bound = server.sockets[0].getsockname()
        print(f"pathalias: serve: {service.reader.source_count} "
              f"sources from {snapshot_path}; listening on "
              f"{bound[0]}:{bound[1]}", file=sys.stderr, flush=True)
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("pathalias: serve: interrupted", file=sys.stderr)
    return 0


async def _worker_serve(worker_id: int, snapshot_path: str, host: str,
                        port: int, source: str | None, conn,
                        dispatch: str = "fsm",
                        cache_size: int | None = None) -> None:
    """One worker's async body: the shared-port listener, the loopback
    control listener, and the control-port exchange with the parent."""
    service = RouteService(snapshot_path, default_source=source,
                           dispatch=dispatch, cache_size=cache_size)
    service.worker_id = worker_id
    server = await asyncio.start_server(
        service.handle_connection, host, port, reuse_port=True)
    control = await asyncio.start_server(
        service.handle_connection, "127.0.0.1", 0)
    conn.send(control.sockets[0].getsockname()[1])
    # the parent answers with every worker's control port
    service.worker_peers = conn.recv()
    conn.close()
    async with server, control:
        await asyncio.gather(server.serve_forever(),
                             control.serve_forever())


def _worker_main(worker_id: int, snapshot_path: str, host: str,
                 port: int, source: str | None, conn,
                 dispatch: str = "fsm",
                 cache_size: int | None = None) -> None:
    """Process entry point of one SO_REUSEPORT worker."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent coordinates
    try:
        asyncio.run(_worker_serve(worker_id, snapshot_path, host, port,
                                  source, conn, dispatch=dispatch,
                                  cache_size=cache_size))
    except SnapshotError as exc:
        print(f"pathalias: serve: worker {worker_id}: {exc}",
              file=sys.stderr, flush=True)
        raise SystemExit(1) from None


def run_multi_daemon(snapshot_path: str, host: str = "127.0.0.1",
                     port: int = 4176, source: str | None = None,
                     workers: int = 2, dispatch: str = "fsm",
                     cache_size: int | None = None) -> int:
    """Serve one snapshot from N ``SO_REUSEPORT`` worker processes.

    Every worker listens on the *same* ``host:port`` — the kernel
    load-balances accepted connections across them — and mmaps the
    same snapshot file, so the pool shares a single page-cache copy
    of the data no matter how many workers run.  ``port=0`` has the
    parent reserve a free port (with a bound, never-listening
    ``SO_REUSEPORT`` socket, so no connection ever lands on it) and
    every worker binds that.  The parent prints the usual single
    ``listening on host:port`` line once the whole pool is up, then
    supervises: SIGTERM/SIGINT tears the pool down.

    Workers exchange loopback control ports through the parent at
    startup; that control mesh is what makes ``STATS`` aggregate and
    ``RELOAD`` swap the snapshot pool-wide (see the module docstring).
    Requires ``SO_REUSEPORT`` (Linux, the BSDs, macOS).
    """
    if workers < 1:
        raise SnapshotError(f"--workers {workers}: need at least 1")
    if not hasattr(socket, "SO_REUSEPORT"):
        raise SnapshotError(
            "--workers needs SO_REUSEPORT, which this platform "
            "lacks; run single-worker daemons on separate ports "
            "behind --backend fan-out instead")
    # Validate snapshot and source once, up front — one clear error
    # beats N concurrent worker tracebacks.
    probe = RouteService(snapshot_path, default_source=source,
                         dispatch=dispatch)
    source_count = probe.reader.source_count
    probe.reader.close()
    # Reserve the port (resolving port=0) without ever accepting:
    # a bound but not listening SO_REUSEPORT socket holds the number,
    # and the kernel only balances across *listening* sockets.
    guard = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    guard.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    guard.bind((host, port))
    port = guard.getsockname()[1]

    ctx = multiprocessing.get_context("spawn")
    procs: list = []
    pipes: list = []
    interrupted = False
    try:
        for wid in range(workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(wid, snapshot_path, host, port, source,
                      child_conn, dispatch, cache_size))
            proc.start()
            child_conn.close()
            procs.append(proc)
            pipes.append(parent_conn)
        control_ports: dict[int, int] = {}
        for wid, parent_conn in enumerate(pipes):
            if not parent_conn.poll(30):
                raise SnapshotError(
                    f"worker {wid} did not report its control port")
            try:
                control_ports[wid] = parent_conn.recv()
            except EOFError:
                raise SnapshotError(
                    f"worker {wid} died during startup (see its "
                    f"error above)") from None
        for parent_conn in pipes:
            parent_conn.send(control_ports)
        print(f"pathalias: serve: {source_count} sources from "
              f"{snapshot_path}; workers={workers}; listening on "
              f"{host}:{port}", file=sys.stderr, flush=True)

        def _terminate(signum, frame):  # SIGTERM == operator stop
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGTERM, _terminate)
        try:
            for proc in procs:
                proc.join()
        finally:
            signal.signal(signal.SIGTERM, previous)
    except KeyboardInterrupt:
        interrupted = True
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=5)
        guard.close()
    if interrupted:
        print("pathalias: serve: interrupted", file=sys.stderr)
    return 0


class DaemonRouteDatabase:
    """A live daemon behind the
    :class:`~repro.service.resolver.Resolver` protocol.

    One blocking TCP connection, reconnected transparently if the
    daemon restarted between requests.  Host and user tokens travel on
    a whitespace-delimited wire, so addresses containing spaces are
    rejected rather than silently corrupted.  The query surface is the
    same contract a snapshot's table and the federation client
    satisfy, so a :class:`~repro.mailer.router.MailRouter` plugs in a
    daemon exactly where it would plug in an in-memory
    :class:`~repro.mailer.routedb.RouteDatabase`.
    """

    def __init__(self, address: tuple[str, int],
                 source: str | None = None, timeout: float = 5.0,
                 reconnect_patience: float = 2.0):
        """``reconnect_patience`` bounds how long a *re*-connect keeps
        retrying the TCP connect while the daemon restarts (the very
        first connect still fails fast on a wrong address)."""
        self.address = address
        self.timeout = timeout
        self.reconnect_patience = reconnect_patience
        self.source = source
        self._sock: socket.socket | None = None
        self._file = None
        self._ever_connected = False

    # -- wire -----------------------------------------------------------------

    def _connect(self) -> None:
        self.close()
        # A daemon bounce closes the listener for a moment; once this
        # client has talked to the address successfully, give the
        # restart a short, bounded window instead of surfacing the
        # first ECONNREFUSED.  A never-reached address keeps failing
        # immediately — misconfiguration should not look like a bounce.
        deadline = time.monotonic() + (
            self.reconnect_patience if self._ever_connected else 0.0)
        delay = RECONNECT_DELAY
        while True:
            try:
                sock = socket.create_connection(self.address,
                                                timeout=self.timeout)
                break
            except OSError:
                if time.monotonic() + delay > deadline:
                    raise
                time.sleep(delay)
                delay = min(delay * 2, RECONNECT_DELAY_MAX)
        self._sock = sock
        self._file = sock.makefile("rwb")
        self._ever_connected = True
        if self.source is not None:
            reply = self._send(f"SOURCE {self.source}")
            if not reply.startswith("OK"):
                raise RouteError(f"daemon rejected source "
                                 f"{self.source!r}: {reply}")

    def _send(self, line: str) -> str:
        if any(ch in "\r\n" for ch in line):
            raise RouteError(f"request {line!r} contains a newline")
        self._file.write(line.encode("utf-8") + b"\n")
        self._file.flush()
        raw = self._file.readline()
        if not raw.endswith(b"\n"):
            # EOF, maybe mid-line: a reply cut short is no answer
            raise ConnectionError("daemon closed the connection")
        return raw.decode("utf-8").rstrip("\r\n")

    def _request(self, line: str) -> str:
        if self._sock is None:
            self._connect()
            return self._send(line)
        try:
            return self._send(line)
        except (ConnectionError, OSError, socket.timeout):
            # One transparent reconnect: the daemon may have been
            # restarted (or hot-swapped hosts) since the last call.
            self._connect()
            return self._send(line)

    def close(self) -> None:
        """Close the daemon connection (reopened lazily on next use)."""
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "DaemonRouteDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the Resolver protocol surface ----------------------------------------

    _token = staticmethod(wire_token)

    def route(self, name: str) -> str | None:
        """Exact-name route lookup (no suffix search)."""
        reply = self._request(f"EXACT {self._token(name, 'host')}")
        if reply.startswith("ERR noroute"):
            return None
        parts = reply.split()
        if len(parts) != 4 or parts[0] != "OK":
            raise RouteError(f"daemon protocol error: {reply!r}")
        return parts[3]

    def __contains__(self, name: str) -> bool:
        return self.route(name) is not None

    def resolve_with_cost(self, target: str,
                          user: str = "%s") -> tuple[int, Resolution]:
        """Like :meth:`resolve`, also returning the daemon's mapped
        cost for the route (the first OK field)."""
        reply = self._request(
            f"ROUTE {self._token(target, 'host')} "
            f"{self._token(user, 'user')}")
        if reply.startswith("ERR noroute"):
            raise RouteError(f"no route to {target!r}")
        if reply.startswith("ERR federation"):
            from repro.errors import FederationError

            raise FederationError(reply[len("ERR federation "):])
        parts = reply.split()
        if len(parts) != 5 or parts[0] != "OK":
            raise RouteError(f"daemon protocol error: {reply!r}")
        _, cost, matched, route, address = parts
        return int(cost), Resolution(target=target, matched=matched,
                                     route=route, address=address)

    def resolve(self, target: str, user: str = "%s") -> Resolution:
        """Resolve mail for ``user`` at ``target`` via the daemon's
        domain-suffix search."""
        return self.resolve_with_cost(target, user)[1]

    def source_table(self) -> str | None:
        """The source this connection is bound to (None: the daemon's
        default source answers)."""
        return self.source

    def resolve_bang(self, bang_address: str) -> Resolution:
        """Resolve ``host!rest`` forms, like RouteDatabase."""
        if "!" not in bang_address:
            raise RouteError(
                f"address {bang_address!r} names no user (expected "
                f"target!user)")
        target, user = bang_address.split("!", 1)
        return self.resolve(target, user)

    def stats(self) -> dict[str, str]:
        """The daemon's STATS counters as a string-valued dict."""
        reply = self._request("STATS")
        if not reply.startswith("OK "):
            raise RouteError(f"daemon protocol error: {reply!r}")
        return parse_stats(reply)

    def reload(self, snapshot_path: str) -> int:
        """Ask the daemon to hot-swap a new snapshot; returns its
        source count."""
        reply = self._request(f"RELOAD {snapshot_path}")
        parts = reply.split()
        if len(parts) < 3 or parts[:2] != ["OK", "reloaded"]:
            raise RouteError(f"daemon refused reload: {reply}")
        return int(parts[2])
