"""Remote federation backends: per-shard daemons behind one connection.

The federation front end (:mod:`repro.service.federation`) historically
answered every lookup itself from in-process
:class:`~repro.service.store.SnapshotReader` objects — sharded
snapshots, one CPU.  This module is the scale-out tier: each shard can
instead be a separate :class:`~repro.service.daemon.RouteService`
*process*, and the front end becomes a fan-out router that pushes the
whole per-shard lookup — the suffix walk, the binary searches, the
table decode — down to the shard daemon over the existing line
protocol.

Two classes:

* :class:`ShardBackend` — the asyncio client for one shard daemon: a
  single multiplexed connection speaking the tagged wire protocol.
  The connection is an :class:`asyncio.Protocol`: each request writes
  its tagged frames straight onto the transport, and the protocol's
  ``data_received`` routes tagged reply frames — out of order, bulk
  replies interleaved — back to their waiting futures as the bytes
  arrive, so many requests share one connection's round trip and a
  reply reaches its caller in one event-loop step.  One
  ``loop.call_at`` handle per connection enforces the request
  timeout, and the daemon's ``NOTIFY`` reload pushes ride the same
  connection.  It keeps a transparent single retry on a stale socket,
  reconnect-with-backoff while the daemon restarts, and health state
  (``connected`` / ``down`` / counters, including tagged-request and
  out-of-order-reply counts) surfaced through the federation's
  ``STATS`` line.

* :class:`BackendShard` — a federation shard whose answers come from a
  backend daemon.  It quacks exactly like an in-process
  :class:`~repro.service.shard.Shard`: the ownership index and source
  set are fetched once at attach time with the daemon's bulk ``TABLE
  --fsm`` verb, gateway legs are fetched batched (one ``TABLE``/``COSTS``
  round trip per Dijkstra expansion, cached per entry) and the final
  in-shard lookup is one ``ROUTE``/``EXACT`` dispatched to the daemon.
  A :class:`~repro.service.shard.FederationView` mixes local and
  backend shards freely, and stitched answers are byte-identical to
  the in-process federation over the same snapshots.

Because the remote daemon owns its snapshot, a backend shard's cached
view data describes the snapshot as of attach time; the federation's
``RELOAD <shard> <snapshot>`` verb forwards the reload to the backend
daemon and re-synchronizes the cached index in one step; a reload push
or a reconnect re-syncs it too.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import re

from repro.errors import BackendError
from repro.service.daemon import (
    RECONNECT_DELAY,
    RECONNECT_DELAY_MAX,
    parse_stats,
    wire_token,
)
from repro.service.fsm import (
    NAME_F_DOMAIN,
    AutomatonError,
    FlatSuffixAutomaton,
)

#: ``host:port`` — how a remote backend is named on the CLI
#: (``--backend NAME=HOST:PORT``) and in the ``ATTACH`` verb (which
#: tells a backend spec from a snapshot path by this shape).
_BACKEND_SPEC = re.compile(r"^(?P<host>[^\s/:]+):(?P<port>\d{1,5})$")


def parse_backend_spec(spec: str) -> tuple[str, int] | None:
    """``(host, port)`` for a ``host:port`` backend spec, else None."""
    match = _BACKEND_SPEC.match(spec)
    if match is None:
        return None
    port = int(match.group("port"))
    if not 0 < port < 65536:
        return None
    return match.group("host"), port


#: The longest reply frame the mux accepts, whole or still arriving
#: (64 KiB, the default ``limit`` of an asyncio stream); a longer one
#: fails the connection.
_FRAME_LIMIT = 2 ** 16


class _Pending:
    """One in-flight tagged request's reassembly state and deadline."""

    __slots__ = ("fut", "bulk", "deadline", "head", "lines", "want")

    def __init__(self, fut: asyncio.Future, bulk: bool, deadline: float):
        self.fut = fut
        self.bulk = bulk
        self.deadline = deadline
        self.head: str | None = None
        self.lines: list[str] = []
        self.want = 0


class _MuxConnection(asyncio.Protocol):
    """One pipelined daemon connection shared by many requests.

    An :class:`asyncio.Protocol`: :meth:`data_received` cuts the bytes
    into ``\\n``-terminated frames and resolves the waiting futures
    itself, so a reply costs the client one event-loop step and no
    task.  A frame counts only once its ``\\n`` has arrived: at EOF a
    partial frame is dropped, never delivered.  :meth:`submit` writes
    each request's frames to the transport itself: the event loop is
    single-threaded and ``transport.write`` takes a whole buffer
    synchronously, so frames never interleave and reach the wire in
    submit order.  Bulk replies reassemble by tag: the head frame
    (``@<tag> OK table <n>``) announces how many continuation frames
    belong to that tag, so two bulk replies can interleave arbitrarily
    on the wire and still come apart cleanly.

    **Deadlines.**  Each request's deadline is the owner's
    ``timeout`` as it read when the request was submitted, so a
    lowered timeout takes effect with the next request.  One
    ``loop.call_at`` handle polices them all: :meth:`submit` re-arms
    it when a new deadline comes before the armed one, and when it
    fires, an overdue earliest pending deadline fails the whole
    connection with ``TimeoutError`` (each pending request then takes
    its one retry), and otherwise the handle re-arms for that
    deadline.  A request that completes leaves the handle alone.

    ``SOURCE`` ordering: the daemon applies a tagged ``SOURCE``
    inline in read order, so writing ``@a SOURCE x`` immediately
    before ``@b ROUTE y`` (one ``write``) guarantees the ROUTE runs
    against source ``x``.  The connection tracks the last *written*
    source; dependent requests keep a reference to their SOURCE's
    future and fail if it failed — correctness never depends on the
    register guess being right.

    Once :meth:`subscribe` has written ``NOTIFY``, each untagged
    ``NOTIFY reloaded <n> <path>`` push runs the owner's reload
    callback; any other untagged frame fails the connection.
    """

    def __init__(self, owner: "ShardBackend"):
        self.owner = owner
        self.transport: asyncio.Transport | None = None
        self.broken: Exception | None = None
        self.subscribed = False
        self._loop = asyncio.get_running_loop()
        self._pending: dict[str, _Pending] = {}
        self._next_tag = 0
        self._wire_source: str | None = None
        self._source_fut: asyncio.Future | None = None
        self._partial = b""
        self._timer: asyncio.TimerHandle | None = None

    # -- submitting requests --------------------------------------------------

    def _register(self, bulk: bool,
                  deadline: float) -> tuple[str, asyncio.Future]:
        self._next_tag += 1
        tag = str(self._next_tag)
        fut = self._loop.create_future()
        self._pending[tag] = _Pending(fut, bulk, deadline)
        return tag, fut

    def submit(self, line: str, *, bulk: bool = False,
               source: str | None = None
               ) -> tuple[asyncio.Future, asyncio.Future | None]:
        """Write one tagged request; returns ``(reply future, source
        future or None)``.

        With ``source``, a tagged ``SOURCE`` ride-along goes first when
        the wire register differs — in the same ``write`` — and the
        returned source future must be checked ``OK`` by the caller
        before trusting the reply.
        """
        if self.broken is not None:
            raise ConnectionError(str(self.broken))
        deadline = self._loop.time() + self.owner.timeout
        frames = []
        src_fut = None
        if source is not None:
            if self._wire_source != source:
                stag, sfut = self._register(False, deadline)
                frames.append(f"@{stag} SOURCE {source}")
                self._wire_source = source
                self._source_fut = sfut
            src_fut = self._source_fut
        tag, fut = self._register(bulk, deadline)
        frames.append(f"@{tag} {line}")
        self.owner.pipelined += len(frames)
        self.transport.write(
            "".join(f + "\n" for f in frames).encode("utf-8"))
        timer = self._timer
        if timer is None or deadline < timer.when():
            if timer is not None:
                timer.cancel()
            self._timer = self._loop.call_at(deadline, self._expire)
        return fut, src_fut

    def subscribe(self) -> asyncio.Future:
        """Write a tagged ``NOTIFY``; returns its reply future."""
        fut, _ = self.submit("NOTIFY")
        self.subscribed = True
        return fut

    def reset_source(self, source: str) -> None:
        """Forget a source binding that the daemon refused, so the
        next request for it re-sends ``SOURCE``."""
        if self._wire_source == source:
            self._wire_source = None
            self._source_fut = None

    def _expire(self) -> None:
        """The deadline handle fired: fail the connection if its
        earliest pending deadline has passed, else re-arm for it."""
        self._timer = None
        if not self._pending:
            return
        deadline = min(pend.deadline for pend in self._pending.values())
        if deadline > self._loop.time():
            self._timer = self._loop.call_at(deadline, self._expire)
        else:
            self.abort(TimeoutError())

    # -- the protocol callbacks -----------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        """Keep the transport :meth:`submit` writes to."""
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        """Demultiplex each complete tagged reply frame into its
        pending future, and hand each reload push to the owner; keep
        a trailing partial frame for later."""
        if self._partial:
            data = self._partial + data
        *frames, self._partial = data.split(b"\n")
        try:
            for raw in frames:
                if len(raw) > _FRAME_LIMIT:
                    raise ConnectionError(
                        "reply frame exceeds the frame limit")
                line = raw.decode("utf-8").rstrip("\r")
                if not line.startswith("@"):
                    # Untagged junk mid-pipeline (an ERR overflow /
                    # encoding diagnostic we cannot correlate): the
                    # framing can no longer be trusted.
                    parts = line.split(None, 3)
                    if not (self.subscribed and len(parts) == 4
                            and parts[:2] == ["NOTIFY", "reloaded"]):
                        raise ConnectionError(
                            f"untagged frame on pipelined connection: "
                            f"{line!r}")
                    self.owner._reloaded()
                    continue
                tagtok, _, frame = line.partition(" ")
                tag = tagtok[1:]
                pend = self._pending.get(tag)
                if pend is None:
                    raise ConnectionError(
                        f"reply for unknown tag: {line!r}")
                self._deliver(tag, pend, frame)
            if len(self._partial) > _FRAME_LIMIT:
                raise ConnectionError(
                    "reply frame exceeds the frame limit")
        except (ConnectionError, UnicodeDecodeError) as exc:
            self.abort(exc)

    def eof_received(self) -> None:
        """The daemon hung up: fail every pending request (retryable);
        a partial frame is dropped with the connection."""
        self.abort(ConnectionError("backend closed the connection"))

    def connection_lost(self, exc: Exception | None) -> None:
        """The transport is gone: fail every pending request."""
        self.abort(exc or ConnectionError("backend closed the connection"))

    def _deliver(self, tag: str, pend: _Pending, frame: str) -> None:
        """Feed one reply frame into its request's reassembly; resolve
        the future when the reply is complete."""
        if pend.bulk and pend.head is None and frame.startswith("OK"):
            try:
                pend.want = int(frame.split()[-1])
            except ValueError:
                raise ConnectionError(
                    f"backend protocol error: {frame!r}") from None
            pend.head = frame
            if pend.want > 0:
                return  # continuation frames follow
            result: object = (frame, [])
        elif pend.bulk and pend.head is None:
            result = (frame, [])  # ERR head: no continuation
        elif pend.bulk:
            pend.lines.append(frame)
            if len(pend.lines) < pend.want:
                return
            result = (pend.head, pend.lines)
        else:
            result = frame
        oldest = next(iter(self._pending))
        del self._pending[tag]
        if oldest != tag:
            self.owner.out_of_order += 1
        if not pend.fut.done():
            pend.fut.set_result(result)

    # -- teardown -------------------------------------------------------------

    def abort(self, exc: Exception) -> None:
        """Tear the connection down (idempotent): fail every pending
        request with a retryable :class:`ConnectionError`, cancel the
        deadline handle, close the transport, and tell the owner."""
        if self.broken is not None:
            return
        self.broken = exc
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        detail = str(exc) or type(exc).__name__
        for pend in self._pending.values():
            if not pend.fut.done():
                pend.fut.set_exception(ConnectionError(detail))
                # mark retrieved: a caller that already failed on its
                # own future may never await this shared one
                pend.fut.exception()
        self._pending.clear()
        self._partial = b""
        self.transport.close()
        self.owner._lost()


class ShardBackend:
    """An asyncio client for one per-shard route daemon.

    One persistent pipelined connection (:class:`_MuxConnection`)
    carries every request, many of them in flight at once; its replies
    resolve straight from the protocol's ``data_received``, and one
    deadline handle fails the connection when its oldest request
    outlives ``timeout``.  A request that finds the connection stale
    (the daemon restarted since the last call), or that a missed
    deadline failed, transparently re-dials — waiting out a restart
    window up to ``reconnect_patience`` seconds with exponential
    backoff — and retries exactly once.  Health is observable:
    :attr:`state` plus the request/error/connect counters, which the
    federation daemon reports per backend in its ``STATS`` line.

    The same connection carries the daemon's reload pushes once
    :meth:`subscribe_reloads` has run; while a subscribed connection
    is down, one task re-dials it.

    A backend address served by ``serve --workers N`` needs no special
    handling: the kernel lands the connection on some worker, and
    because every request states its ``SOURCE`` on the connection and
    the workers serve one identical mmapped snapshot, any worker
    answers identically.
    """

    def __init__(self, name: str, host: str, port: int,
                 timeout: float = 5.0,
                 reconnect_patience: float = 2.0):
        self.name = name
        self.host = host
        self.port = port
        self.timeout = timeout
        self.reconnect_patience = reconnect_patience
        self.requests = 0
        self.errors = 0
        self.connects = 0
        #: Tagged request frames sent, and replies that completed out
        #: of submission order — the two extra fields of the
        #: :meth:`health` token.
        self.pipelined = 0
        self.out_of_order = 0
        self._mux: _MuxConnection | None = None
        self._mux_lock = asyncio.Lock()
        self._inflight = 0
        self._ever_connected = False
        self._last_failure: str | None = None
        self._draining = False
        #: The reload callback (see :meth:`subscribe_reloads`), and
        #: the task re-dialing a lost subscribed connection.
        self._on_reload = None
        self._redial: asyncio.Task | None = None

    # -- health ---------------------------------------------------------------

    @property
    def address(self) -> str:
        """The backend daemon's ``host:port``."""
        return f"{self.host}:{self.port}"

    @property
    def state(self) -> str:
        """One-word health: ``new`` (never connected), ``connected``,
        ``down`` (last connect attempt failed), or ``closed``."""
        if self._draining:
            return "closed"
        if self._last_failure is not None:
            return "down"
        return "connected" if self._ever_connected else "new"

    def health(self) -> str:
        """The ``STATS`` token value:
        ``<state>:<requests>:<errors>:<connects>:<pipelined>:<ooo>``
        — the last two are tagged request frames sent and replies
        that returned out of submission order."""
        return (f"{self.state}:{self.requests}:{self.errors}:"
                f"{self.connects}:{self.pipelined}:"
                f"{self.out_of_order}")

    # -- the connection -------------------------------------------------------

    async def _mux_get(self) -> _MuxConnection:
        """The shared pipelined connection, dialing it if needed.

        One dial at a time, waiting out a daemon restart with backoff
        between attempts; the lock is not held while backing off, so
        every caller keeps its own patience and takes a connection
        another caller opened meanwhile.  Once subscribed, a fresh
        connection's ``NOTIFY`` goes out before any request, and the
        reload callback runs: the daemon may have restarted on another
        snapshot.
        """
        conn = self._mux
        if conn is not None and conn.broken is None:
            return conn
        loop = asyncio.get_running_loop()
        deadline = loop.time() + (self.reconnect_patience
                                  if self._ever_connected else 0.0)
        delay = RECONNECT_DELAY
        while True:
            async with self._mux_lock:
                conn = self._mux
                if conn is not None and conn.broken is None:
                    return conn
                if self._draining:
                    raise BackendError(
                        f"backend {self.name} ({self.address}) is closed")
                try:
                    _, conn = await asyncio.wait_for(
                        loop.create_connection(
                            lambda: _MuxConnection(self),
                            self.host, self.port),
                        self.timeout)
                except (OSError, asyncio.TimeoutError) as exc:
                    if loop.time() + delay > deadline:
                        self._last_failure = str(exc) or type(exc).__name__
                        raise BackendError(
                            f"backend {self.name} ({self.address}) "
                            f"unreachable: {self._last_failure}") from None
                else:
                    self._ever_connected = True
                    self._last_failure = None
                    self.connects += 1
                    self._mux = conn
                    if self._on_reload is not None:
                        conn.subscribe()
                        self._reloaded()
                    return conn
            await asyncio.sleep(delay)
            delay = min(delay * 2, RECONNECT_DELAY_MAX)

    async def _call(self, line: str, *, bulk: bool = False,
                    source: str | None = None):
        """One tagged request over the shared connection; returns the
        reply line, or ``(head, continuation lines)`` with ``bulk``.

        With ``source``, the connection's source register is bound
        first by a tagged ``SOURCE`` ride-along.  The reply future is
        awaited directly: the connection's deadline handle fails it
        when the request outlives ``timeout``.  One transparent retry:
        a connection-class failure (a dropped connection, a garbled
        frame, a missed deadline) tears the connection down, re-dials
        (with restart patience) and resubmits exactly once; a
        second one raises :class:`BackendError`, so it fails the
        one request and never the caller's connection.  Protocol
        errors (``ERR`` replies) are not retried — they reached the
        daemon and back.
        """
        if self._draining:
            raise BackendError(
                f"backend {self.name} ({self.address}) is closed")
        self._inflight += 1
        self.requests += 1
        try:
            for attempt in (0, 1):
                conn = None
                try:
                    conn = await self._mux_get()
                    fut, src_fut = conn.submit(line, bulk=bulk,
                                               source=source)
                    result = await fut
                    if src_fut is not None:
                        # the daemon answers an inline SOURCE before it
                        # reads the line behind it, and replies resolve
                        # in wire order: the SOURCE reply is in hand
                        if not src_fut.done():
                            raise self._protocol_error(result)
                        src = src_fut.result()
                        if not src.startswith("OK"):
                            conn.reset_source(source)
                            raise BackendError(
                                f"backend {self.name}: {src}")
                    return result
                except (ConnectionError, OSError) as exc:
                    if conn is not None:  # the next request re-dials
                        conn.abort(ConnectionError(
                            str(exc) or type(exc).__name__))
                    if attempt:
                        self.errors += 1
                        raise BackendError(
                            f"backend {self.name} ({self.address}) "
                            f"failed: {str(exc) or type(exc).__name__}"
                        ) from exc
                except Exception:
                    self.errors += 1
                    raise
        finally:
            self._inflight -= 1

    async def aclose(self, grace: float = 2.0) -> None:
        """Close the connection after a grace window.

        A lookup pinned to a just-detached view may still need
        *future* round trips on this backend (it is between awaits),
        so the backend keeps serving for the whole ``grace`` window
        before it starts refusing — then in-flight stragglers get a
        short drain.  Callers that hold the swap lock should not await
        this; the federation retires backends on a background task.
        """
        loop = asyncio.get_running_loop()
        if grace > 0:
            await asyncio.sleep(grace)
        self._draining = True
        deadline = loop.time() + max(grace, 0.1)
        while self._inflight and loop.time() < deadline:
            await asyncio.sleep(0.01)
        # stragglers have drained (or forfeited their window): the
        # mux connection, its deadline handle and the re-dial task
        # can go away now
        if self._mux is not None:
            self._mux.abort(ConnectionError(
                f"backend {self.name} closed"))
            self._mux = None
        if self._redial is not None:
            self._redial.cancel()
            await asyncio.gather(self._redial, return_exceptions=True)

    # -- the daemon conversation ----------------------------------------------

    #: the one shared wire-token validator (see
    #: :func:`repro.service.daemon.wire_token`)
    _token = staticmethod(wire_token)

    def _protocol_error(self, frame: str) -> BackendError:
        """The error for a reply frame that breaks the protocol: it
        fails the one request, never the caller's connection."""
        return BackendError(
            f"backend {self.name} protocol error: {frame!r}")

    def _cost(self, field: str, frame: str) -> int:
        """The cost field of one reply frame, which must be an
        integer."""
        try:
            return int(field)
        except ValueError:
            raise self._protocol_error(frame) from None

    async def stats(self) -> dict[str, str]:
        """The backend daemon's ``STATS`` counters as a dict."""
        reply = await self._call("STATS")
        if not reply.startswith("OK "):
            raise self._protocol_error(reply)
        return parse_stats(reply)

    async def index_fsm(self) -> bytes:
        """The daemon's ownership index as a compiled suffix-automaton
        block (bulk ``TABLE --fsm``), routing-index names embedded."""
        head, lines = await self._call("TABLE --fsm", bulk=True)
        if not head.startswith("OK fsm"):
            raise self._protocol_error(head)
        try:
            return base64.b64decode("".join(lines), validate=True)
        except binascii.Error as exc:
            raise BackendError(
                f"backend {self.name} sent a corrupt index "
                f"automaton: {exc}") from None

    async def table_rows(self, source: str, dests=None
                         ) -> dict[str, tuple[int, str]]:
        """Route records from ``source``'s table, in one round trip.

        With ``dests``, a batched exact lookup (misses absent from the
        answer); without, the whole table.
        """
        request = f"TABLE {self._token(source, 'source')}"
        if dests:
            request += "".join(f" {self._token(d, 'destination')}"
                               for d in dests)
        head, lines = await self._call(request, bulk=True)
        if not head.startswith("OK table"):
            raise BackendError(
                f"backend {self.name}: {head}")
        out = {}
        for line in lines:
            parts = line.split()
            if len(parts) != 3:
                raise self._protocol_error(line)
            cost, name, route = parts
            if cost == "-":
                continue  # batched miss
            out[name] = (self._cost(cost, line), route)
        return out

    async def state_costs(self, source: str, names=None
                          ) -> dict[str, int]:
        """Exact per-state costs by name (bulk ``COSTS``); unreached
        names are absent from the answer."""
        request = f"COSTS {self._token(source, 'source')}"
        if names:
            request += "".join(f" {self._token(n, 'name')}"
                               for n in names)
        head, lines = await self._call(request, bulk=True)
        if not head.startswith("OK costs"):
            raise BackendError(
                f"backend {self.name}: {head}")
        out = {}
        for line in lines:
            parts = line.split()
            if len(parts) != 2:
                raise self._protocol_error(line)
            cost, name = parts
            if cost == "-":
                continue
            out[name] = self._cost(cost, line)
        return out

    async def route(self, entry: str, target: str):
        """The whole in-shard lookup, dispatched to the daemon:
        ``SOURCE entry`` + ``ROUTE target`` on one connection.

        Returns ``(cost, relative template, matched key)`` — the
        daemon's suffix walk did the work — or None on ``ERR
        noroute``.
        """
        entry = self._token(entry, "entry host")
        target = self._token(target, "destination")
        reply = await self._call(f"ROUTE {target}", source=entry)
        if reply.startswith("ERR noroute"):
            return None
        parts = reply.split()
        if len(parts) != 5 or parts[0] != "OK":
            raise BackendError(
                f"backend {self.name}: {reply}")
        _, cost, matched, _route, address = parts
        # without a user the address IS the relative template
        return self._cost(cost, reply), address, matched

    async def exact(self, entry: str, target: str):
        """Exact-name lookup dispatched to the daemon:
        ``(cost, route)`` or None on a miss."""
        entry = self._token(entry, "entry host")
        target = self._token(target, "destination")
        reply = await self._call(f"EXACT {target}", source=entry)
        if reply.startswith("ERR noroute"):
            return None
        parts = reply.split()
        if len(parts) != 4 or parts[0] != "OK":
            raise BackendError(
                f"backend {self.name}: {reply}")
        return self._cost(parts[1], reply), parts[3]

    async def reload(self, snapshot_path: str) -> str:
        """Forward a snapshot reload to the backend daemon; returns
        the daemon's ``OK reloaded ...`` reply (raises
        :class:`BackendError` on refusal).  A multi-worker backend
        (``serve --workers N``) acknowledges only after propagating
        the swap to its whole worker pool, so one forwarded RELOAD
        suffices no matter how many workers answer the address."""
        reply = await self._call(f"RELOAD {snapshot_path}")
        if not reply.startswith("OK reloaded"):
            raise BackendError(
                f"backend {self.name} refused reload: {reply}")
        return reply

    # -- reload push (NOTIFY) -------------------------------------------------

    async def subscribe_reloads(self, callback) -> None:
        """Subscribe to the daemon's reload pushes on the mux.

        Sends ``NOTIFY`` on the shared connection and waits for the
        daemon's ``OK``.  From then on ``callback()`` (a plain
        callable, which must not raise) runs for every ``NOTIFY
        reloaded <sources> <path>`` frame the daemon pushes, and once
        each time a re-dialed connection is subscribed again.  Raises
        :class:`BackendError` when the daemon is unreachable or
        refuses; :meth:`aclose` ends the subscription.
        """
        if self._on_reload is not None:
            return
        try:
            conn = await self._mux_get()
            self._on_reload = callback
            reply = await conn.subscribe()
            if not reply.startswith("OK"):
                raise BackendError(f"refused: {reply}")
        except (BackendError, ConnectionError, OSError) as exc:
            self._on_reload = None
            raise BackendError(
                f"backend {self.name} ({self.address}) notify "
                f"subscription failed: {exc}") from None

    def _reloaded(self) -> None:
        """Run the reload callback, if subscribed."""
        if self._on_reload is not None:
            self._on_reload()

    def _lost(self) -> None:
        """A connection failed: if the backend is subscribed and not
        closing, start the one task that re-dials it."""
        if self._on_reload is not None and not self._draining \
                and self._redial is None:
            self._redial = asyncio.get_running_loop().create_task(
                self._redial_loop())

    async def _redial_loop(self) -> None:
        """Re-dial, and so re-subscribe, until a connection is back or
        the subscription ends (each dial backs off on its own)."""
        try:
            while self._on_reload is not None and not self._draining:
                try:
                    await self._mux_get()
                    return
                except (BackendError, ConnectionError, OSError):
                    await asyncio.sleep(RECONNECT_DELAY_MAX)
        finally:
            self._redial = None

    def __repr__(self) -> str:
        return (f"ShardBackend({self.name!r}, {self.address!r}, "
                f"{self.state})")


class BackendShard:
    """A federation shard answered by a remote daemon process.

    Quacks like an in-process :class:`~repro.service.shard.Shard` —
    the same ownership, gateway, and async entry-query surface the
    :class:`~repro.service.shard.FederationView` stitches over — but
    every answer comes from the backend daemon: the index was fetched
    at attach time (bulk ``TABLE --fsm``), gateway legs are fetched batched
    and cached per entry (``TABLE``/``COSTS``), and the final in-shard
    lookup is a ``ROUTE``/``EXACT`` executed *by the daemon*, which is
    what actually shards the CPU.

    Immutable after :meth:`connect`, like every shard: the cached
    index describes the backend's snapshot as of attach time, and the
    federation's per-shard RELOAD re-connects a fresh instance.
    """

    def __init__(self, name: str, backend: ShardBackend,
                 index: list[tuple[str, bool]], version: int,
                 snapshot: str, reloads: int):
        self.name = name
        self.backend = backend
        #: The daemon's reload count as of this shard's ``STATS``:
        #: with :attr:`snapshot`, what tells a reload of new bytes at
        #: the same path from the echo of a reload already re-synced.
        self.reloads = reloads
        self._index = list(index)
        self._sources = [n for n, is_domain in index if not is_domain]
        self._source_set = frozenset(self._sources)
        self._domains = [n for n, is_domain in index if is_domain]
        self._version = version
        self._snapshot = snapshot
        #: per-(entry, gate) leg cache: the leg tuple, or None for a
        #: confirmed miss.  Keyed per gate (not per requested subset)
        #: so it is bounded by entries x gateways and every repeat
        #: expansion hits, whatever subset the Dijkstra asks for.
        self._legs: dict[tuple[str, str], tuple[int, str] | None] = {}
        #: single-flight registry: (entry, gate) keys a fetch already
        #: has in flight, mapped to that fetch's completion future —
        #: concurrent lookups await it instead of multiplying the
        #: same TABLE/COSTS round trip.
        self._leg_pending: dict[tuple[str, str], asyncio.Future] = {}

    @classmethod
    async def connect(cls, name: str,
                      backend: ShardBackend) -> "BackendShard":
        """Assemble the shard from backend answers: one ``STATS`` for
        the format/snapshot/reload-count identity, and one bulk
        ``TABLE --fsm`` whose compiled ownership block carries the
        index names and flags, read straight out of it."""
        # Not the smaller text TABLE: freeing this larger reply lifts
        # glibc's mmap threshold over asyncio's 256 KiB recv buffers.
        stats, blob = await asyncio.gather(backend.stats(),
                                           backend.index_fsm())
        try:
            names = FlatSuffixAutomaton(blob).names()
        except AutomatonError as exc:
            raise BackendError(
                f"backend {name} ({backend.address}) sent a "
                f"corrupt index automaton: {exc}") from None
        try:
            version = int(stats.get("format", ""))
            reloads = int(stats.get("reloads", ""))
        except ValueError:
            raise BackendError(
                f"backend {name} ({backend.address}) reported no "
                f"snapshot format or reload count in STATS") from None
        return cls(name, backend,
                   [(n, bool(flags & NAME_F_DOMAIN)) for n, flags in names],
                   version, stats.get("snapshot", ""), reloads)

    # -- the Shard surface ----------------------------------------------------

    def sources(self) -> list[str]:
        """Hosts with route tables in the backend, sorted."""
        return list(self._sources)

    @property
    def source_set(self) -> frozenset:
        """The table-owning hosts as a set (gateway intersection)."""
        return self._source_set

    def domains(self) -> list[str]:
        """Sorted public domain names the backend's map declares."""
        return list(self._domains)

    @property
    def source_count(self) -> int:
        """Number of route tables behind the backend."""
        return len(self._sources)

    @property
    def path(self) -> str:
        """Where the shard's answers come from: the backend address
        (the remote snapshot path is in :attr:`snapshot`)."""
        return f"tcp://{self.backend.address}"

    @property
    def snapshot(self) -> str:
        """The backend daemon's snapshot path, as it reported it."""
        return self._snapshot

    @property
    def version(self) -> int:
        """The backend's snapshot format version (from STATS)."""
        return self._version

    def routing_index(self) -> list[tuple[str, bool]]:
        """The source/domain ownership index fetched at attach time."""
        return list(self._index)

    def has_source(self, source: str) -> bool:
        """Whether the backend holds a table for ``source``."""
        return source in self._source_set

    def drop_cached_legs(self) -> None:
        """Forget every cached gateway leg.

        Called by the federation's forwarded-RELOAD path: the remote
        daemon swaps snapshots the moment it accepts the reload, so a
        lookup pinned to the outgoing view can cache legs from the
        *new* (or, after a rollback, the briefly-served) snapshot on
        this outgoing shard — clearing the cache keeps any such
        mixture from outliving the swap window.
        """
        self._legs.clear()

    # -- the async entry-query surface ----------------------------------------

    async def _fetch_legs(self, entry: str, fetch: list[str]) -> None:
        """One batched TABLE + COSTS round trip for ``fetch``, filling
        the per-(entry, gate) cache — misses included."""
        rows, costs = await asyncio.gather(
            self.backend.table_rows(entry, fetch),
            self.backend.state_costs(entry, fetch))
        for gate in fetch:
            hit = rows.get(gate)
            self._legs[(entry, gate)] = None if hit is None else \
                (costs.get(gate, hit[0]), hit[1])

    async def route_legs(self, entry: str,
                         gates: list[str]) -> dict[str, tuple[int, str]]:
        """Gateway legs out of ``entry``, one batched round trip.

        ``TABLE entry g1 g2 ...`` for the printed templates and
        (concurrently) ``COSTS entry g1 g2 ...`` for the exact
        per-state prices — the same cost selection an in-process
        shard makes.  Cached per ``(entry, gate)`` — misses included —
        and only the uncached gates ride the wire: the backend's
        snapshot is pinned for this shard's lifetime, so repeat
        expansions cost nothing whatever subset the stitch asks for.

        **Single-flight:** concurrent lookups asking for overlapping
        ``(entry, gate)`` keys share one in-flight fetch instead of
        multiplying identical backend round trips — every concurrent
        client request coalesces here.
        """
        cache = self._legs
        pending = self._leg_pending
        while True:
            missing = [g for g in gates if (entry, g) not in cache]
            if not missing:
                break
            waits = {pending[(entry, g)] for g in missing
                     if (entry, g) in pending}
            fetch = [g for g in missing if (entry, g) not in pending]
            if fetch:
                done = asyncio.get_running_loop().create_future()
                for g in fetch:
                    pending[(entry, g)] = done
                try:
                    await self._fetch_legs(entry, fetch)
                finally:
                    for g in fetch:
                        pending.pop((entry, g), None)
                    # waiters re-check the cache; on a failed fetch
                    # they find the keys unclaimed and retry them
                    if not done.done():
                        done.set_result(None)
            elif waits:
                # wait(), not gather(): gather propagates a waiter's
                # cancellation into the shared in-flight future, so a
                # request cancelled because its client connection
                # closed would poison the fetch for every request
                # coalesced on it (and the owner's set_result above
                # would then blow up on the already-cancelled future)
                await asyncio.wait(waits)
        out = {}
        for gate in gates:
            leg = cache[(entry, gate)]
            if leg is not None:
                out[gate] = leg
        return out

    async def entry_resolve(self, entry: str, target: str):
        """The whole domain-suffix lookup, executed by the daemon:
        ``(cost, relative template, matched)`` or None on a miss."""
        return await self.backend.route(entry, target)

    async def entry_exact(self, entry: str, target: str):
        """Exact-name lookup executed by the daemon:
        ``(cost, route, target)`` or None on a miss."""
        hit = await self.backend.exact(entry, target)
        if hit is None:
            return None
        cost, route = hit
        return cost, route, target

    def __repr__(self) -> str:
        return (f"BackendShard({self.name!r}, {self.source_count} "
                f"sources, {self.path!r})")
