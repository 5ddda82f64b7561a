"""Shards and the federation view: many regional maps, one route space.

The paper computes one site's view of one network map, but real UUCP
deployments stitched many regional maps — backbone, universities,
ARPA — into a single routing picture.  A *shard* is one regional
snapshot under a stable name; a :class:`FederationView` is an
immutable picture over a set of shards that answers the federated
query:

1. **Ownership.**  Each shard contributes its sorted source/domain
   index (:meth:`repro.service.store.SnapshotReader.routing_index`) to
   a merged map from name to owning shards.  A query for
   ``caip.rutgers.edu`` walks the paper's domain-suffix sequence
   (exact name, then ``.rutgers.edu``, then ``.edu``) over the merged
   index; the first — i.e. longest — matching key names the owner
   shard(s).

2. **Gateways.**  A *gateway* is a host that appears in two maps and
   therefore has a route table in both shards (``allegra`` in the
   backbone and the universities map, say).  Crossing from shard A
   into shard B at gateway G costs A's route to G and re-roots the
   rest of the address at B's view of G.

3. **Stitching.**  Route templates are the paper's ``host!%s`` format
   strings with exactly one ``%s``, so concatenation is substitution:
   if A routes the source to G via ``allegra!%s`` and B routes G to
   the destination via ``rutgers-ru!topaz!%s``, the stitched template
   is ``allegra!rutgers-ru!topaz!%s`` — replace the ``%s`` of the
   outer template with the inner template, repeatedly, leaving one
   ``%s`` for the user.  Costs add.

Shard-to-shard transit runs Dijkstra over ``(shard, entry host)``
states, so a destination owned by a shard two gateway hops away is
still stitched (universities -> backbone -> ARPA).  Ties break
deterministically on (cost, gateway crossings, shard name, crossing
path): a cheapest route is the same route on every run.  Cross-shard
costs are the sum of the per-shard mapped costs; inter-shard penalty
interactions (a domain seen in shard A raising relay costs in shard B)
are deliberately not modeled — each shard prices its own region, which
is exactly the independence that lets shards reload separately.

Everything here is immutable after construction: swapping one shard
builds a new :class:`FederationView` (cheap — readers are shared), so
a daemon hot-swaps views by plain attribute assignment while in-flight
lookups keep the view they started with.

The query surface is **async-first**: the stitched Dijkstra awaits
each shard's answers, so a shard backed by a remote daemon process
(:class:`repro.service.backend.BackendShard`) plugs in exactly where
an in-process snapshot does.  Local shards never actually suspend, so
the synchronous wrappers (``resolve_with_cost`` / ``exact``) drive
the coroutine to completion without an event loop — byte-identical
answers, no asyncio required for in-process use.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from heapq import heappop, heappush
from pathlib import Path

from repro.errors import (
    FederationError,
    RouteError,
    UnknownShardError,
)
from repro.service.fsm import compile_keys
from repro.service.resolver import (Resolution, domain_suffixes,
                                    resolve_with_cost_dict)
from repro.service.store import SnapshotReader

#: Dispatch modes a shard/view can resolve suffixes with: ``fsm`` (the
#: compiled automaton, default) or ``dict`` (the original walk — kept
#: as a live differential oracle, selectable via ``serve --dispatch``).
DISPATCH_MODES = ("fsm", "dict")


def drive_local(coro):
    """Run a coroutine that never actually suspends, synchronously.

    Local shards answer from in-memory snapshot bytes, so the async
    query surface completes on the first ``send`` — no event loop
    needed.  A view containing remote backend shards *does* suspend
    (socket I/O); callers holding one must use the ``a``-prefixed
    coroutine methods from a running event loop instead.
    """
    try:
        coro.send(None)
    except StopIteration as stop:
        return stop.value
    coro.close()
    raise FederationError(
        "view contains remote backend shards; use the async query "
        "surface (aresolve_with_cost/aexact) from an event loop")


class ShardIndex:
    """A named shard's sorted ``(name, is_domain)`` routing index
    (:meth:`repro.service.store.SnapshotReader.routing_index`), held
    once.

    The shard's sources, their set, its domains and its table count
    all derive from it, so two shards whose indexes are equal own the
    same names and have the same gateways.  :class:`Shard` and
    :class:`~repro.service.backend.BackendShard` are both built on it.
    """

    def __init__(self, name: str, index: list[tuple[str, bool]]):
        self.name = name
        self._index = index
        #: The table-owning hosts as a set (gateway intersection).
        self.source_set = frozenset(
            n for n, is_domain in index if not is_domain)

    def routing_index(self) -> list[tuple[str, bool]]:
        """The sorted source/domain ownership index (the stored list:
        callers must not mutate it)."""
        return self._index

    def sources(self) -> list[str]:
        """Hosts with route tables in this shard, in sorted order."""
        return [n for n, is_domain in self._index if not is_domain]

    def domains(self) -> list[str]:
        """Sorted public domain names this shard's map declares."""
        return [n for n, is_domain in self._index if is_domain]

    @property
    def source_count(self) -> int:
        """Number of route tables in this shard."""
        return len(self.source_set)

    def has_source(self, source: str) -> bool:
        """Whether this shard holds a table for ``source``."""
        return source in self.source_set


class Shard(ShardIndex):
    """One regional snapshot under a stable name.

    A thin, immutable wrapper over a
    :class:`~repro.service.store.SnapshotReader`, whose routing index
    it reads once, at construction: reloading a shard means building
    a new ``Shard`` around a new reader and swapping it into a new
    :class:`FederationView` — never mutating this one.
    """

    def __init__(self, name: str, reader: SnapshotReader,
                 dispatch: str = "fsm"):
        super().__init__(name, reader.routing_index())
        self.reader = reader
        self.dispatch = dispatch

    @classmethod
    def open(cls, name: str, path: str | Path,
             dispatch: str = "fsm") -> "Shard":
        """Open the snapshot at ``path`` as the shard called ``name``."""
        return cls(name, SnapshotReader.open(path), dispatch=dispatch)

    @property
    def path(self) -> Path:
        """The snapshot file this shard serves."""
        return self.reader.path

    @property
    def version(self) -> int:
        """The snapshot format version this shard serves."""
        return self.reader.version

    def table(self, source: str):
        """The decoded route table for ``source`` (see the reader)."""
        return self.reader.table(source)

    def state_cost(self, source: str, target: str) -> int | None:
        """The mapper's exact final cost ``source -> target`` from the
        stored per-state records, or None when the target is
        unreached.

        Keyed by compact id rather than route-record display name, and
        covering nodes the printed records omit entirely (nets,
        domains, private shadows).  The stitched Dijkstra prices
        gateway legs with this number; note that *stitching through* a
        gateway still needs its printed route template, so a gateway
        only reachable under a domain-qualified display name can be
        priced here but not crossed.

        No shadowing ambiguity is possible between the two lookups:
        route records never print private nodes and the graph's name
        index never contains them, so a record named ``target`` and
        this cid-keyed table always describe the same global node.
        """
        return self.reader.state_cost(source, target)

    # -- the async entry-query surface ----------------------------------------
    #
    # The three queries the stitched Dijkstra asks of a shard.  Local
    # shards answer from in-memory bytes and never suspend; a remote
    # BackendShard answers the same three questions over sockets.

    async def route_legs(self, entry: str,
                         gates: list[str]) -> dict[str, tuple[int, str]]:
        """Gateway legs out of ``entry``: ``{gate: (cost, template)}``.

        One batched question per Dijkstra expansion: for every
        candidate gateway, the printed route template from ``entry``
        and its cost — the exact per-state mapper cost where stored,
        else the printed record's.  Gateways ``entry`` cannot reach
        are absent from the answer.
        """
        table = self.table(entry)
        out: dict[str, tuple[int, str]] = {}
        for gate in gates:
            hit = table.lookup(gate)
            if hit is None:
                continue  # gateway unreachable inside this shard
            gate_cost, gate_route = hit
            exact = self.state_cost(entry, gate)
            if exact is not None:
                gate_cost = exact
            out[gate] = (gate_cost, gate_route)
        return out

    async def entry_resolve(self, entry: str, target: str):
        """Domain-suffix lookup of ``target`` in ``entry``'s table:
        ``(cost, relative template, matched key)``, or None on a miss.

        The template is the resolution's *address with the ``%s``
        left in place* — domain-gateway rewriting already applied —
        which is exactly the text the stitcher substitutes.

        Dispatches through the table's compiled automaton, or the
        original dict walk when the shard was opened with
        ``dispatch="dict"`` (the differential-oracle mode).
        """
        table = self.table(entry)
        try:
            if self.dispatch == "dict":
                cost, res = resolve_with_cost_dict(table, target, "%s")
            else:
                cost, res = table.resolve_with_cost(target, "%s")
        except RouteError:
            return None
        return cost, res.address, res.matched

    async def entry_exact(self, entry: str, target: str):
        """Exact-name lookup of ``target`` in ``entry``'s table:
        ``(cost, route template, target)``, or None on a miss."""
        hit = self.table(entry).lookup(target)
        if hit is None:
            return None
        cost, route = hit
        return cost, route, target

    def __repr__(self) -> str:
        return (f"Shard({self.name!r}, {self.source_count} sources, "
                f"{str(self.path)!r})")


@dataclass(frozen=True)
class FederatedResolution:
    """A federated lookup's answer plus how it was stitched.

    ``via`` records the gateway crossings in order as ``(gateway host,
    shard entered)`` pairs — empty for a purely local answer.
    """

    cost: int
    resolution: Resolution
    shard: str                           # shard that answered the final lookup
    via: tuple = ()

    @property
    def federated(self) -> bool:
        """Whether the route crossed at least one shard boundary."""
        return bool(self.via)


class FederationView:
    """An immutable ownership/gateway picture over a set of shards.

    Built once from the current shards; every query pins one view, so
    attaching, detaching, or reloading a shard (which builds a *new*
    view) can never mix two snapshot generations inside one request.
    """

    def __init__(self, shards, dispatch: str = "fsm"):
        ordered = sorted(shards, key=lambda s: s.name)
        self.shards: dict[str, Shard] = {}
        for shard in ordered:
            if shard.name in self.shards:
                raise FederationError(
                    f"duplicate shard name {shard.name!r}")
            self.shards[shard.name] = shard
        owners: dict[str, set] = {}
        for shard in ordered:
            for name, _is_domain in shard.routing_index():
                owners.setdefault(name, set()).add(shard.name)
        self._owners = {name: tuple(sorted(names))
                        for name, names in owners.items()}
        self._dispatch = dispatch
        # the compiled ownership matcher's bound match, built lazily on
        # the first suffix dispatch (exact-name surfaces never need it,
        # and a dict-mode view never pays for it)
        self._owner_match = None
        self._gateways: dict[tuple[str, str], tuple] = {}
        names = list(self.shards)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                shared = tuple(sorted(
                    self.shards[a].source_set
                    & self.shards[b].source_set))
                self._gateways[(a, b)] = shared
                self._gateways[(b, a)] = shared

    # -- structure ------------------------------------------------------------

    def shard_names(self) -> list[str]:
        """Attached shard names, sorted."""
        return list(self.shards)

    def gateways(self, a: str, b: str) -> tuple:
        """Hosts with route tables in both shard ``a`` and shard ``b``."""
        return self._gateways.get((a, b), ())

    @property
    def dispatch(self) -> str:
        """This view's suffix-dispatch mode (``fsm`` or ``dict``)."""
        return self._dispatch

    def owners_of(self, target: str) -> tuple[str, tuple]:
        """``(matched key, owning shard names)`` for a destination.

        The paper's domain-suffix dispatch over the merged
        source/domain index: the longest key present wins (the exact
        name beats any suffix).  In ``fsm`` mode — the default — one
        O(labels) automaton match answers; ``dict`` mode walks
        :func:`~repro.service.resolver.domain_suffixes` probe by probe
        (the differential oracle; both are asserted to agree on every
        surface).  Returns ``("", ())`` when no suffix is known to any
        shard.
        """
        if self._dispatch != "dict":
            match = self._owner_match
            if match is None:
                pairs = list(self._owners.items())
                match = self._owner_match = compile_keys(
                    [key for key, _ in pairs], payloads=pairs).match
            return match(target) or ("", ())
        for key in domain_suffixes(target):
            names = self._owners.get(key)
            if names:
                return key, names
        return "", ()

    def home_shard(self, source: str) -> Shard | None:
        """The shard serving ``source``'s table.

        A gateway host has a table in several shards; the
        lexicographically first shard name wins, deterministically.
        """
        names = self._owners.get(source)
        if not names:
            return None
        for name in names:
            if self.shards[name].has_source(source):
                return self.shards[name]
        return None

    def sources(self) -> list[str]:
        """The union of every shard's table-owning hosts, sorted."""
        out = set()
        for shard in self.shards.values():
            out.update(shard.source_set)
        return sorted(out)

    def shard_formats(self) -> str:
        """Comma-joined per-shard snapshot format versions, in
        shard-name order — the ``formats=`` STATS token."""
        return ",".join(str(s.version) for s in self.shards.values())

    def with_shard(self, shard: Shard) -> "FederationView":
        """A new view with ``shard`` added (or replaced, by name).

        Share or rebuild.  A replacement whose routing index equals
        the old shard's owns the same names, and has the same
        gateways, which derive from the source sets the index fixes:
        the new view shares this one's ownership map, compiled owner
        matcher and gateway table, and only ``shards`` changes.  That
        is the churn path, where revisions reprice links without
        renaming hosts.  An addition, or a replacement whose index
        changed, builds the view from scratch.
        """
        shards = {**self.shards, shard.name: shard}
        old = self.shards.get(shard.name)
        if old is None or old.routing_index() != shard.routing_index():
            return FederationView(shards.values(),
                                  dispatch=self._dispatch)
        view = copy.copy(self)
        view.shards = shards
        return view

    def without_shard(self, name: str) -> "FederationView":
        """A new view with the shard called ``name`` removed."""
        if name not in self.shards:
            raise UnknownShardError(f"no shard named {name!r}")
        return FederationView(
            [s for sname, s in self.shards.items() if sname != name],
            dispatch=self._dispatch)

    # -- the federated query ---------------------------------------------------

    async def _stitch(self, source: str, target: str, owners, resolver):
        """Dijkstra over ``(shard, entry host)`` states.

        ``resolver(shard, entry)`` is an awaitable returning ``(cost,
        template, matched)`` for the final in-shard lookup, or None on
        a miss — local shards answer in place, remote backend shards
        over their socket connection.  Returns the winning ``(cost,
        template, matched, shard name, via)`` with deterministic
        tie-breaks; raises :class:`FederationError` when no gateway
        chain reaches any owner, :class:`RouteError` when owners were
        reached but none resolved the target.

        Gateway legs are priced with the shard's exact per-state
        mapper cost (:meth:`Shard.state_cost`) rather than
        the printed route record; the numbers coincide where both
        exist, and the state table stays authoritative because it is
        keyed by node, not display name.  (Crossing a gateway still
        requires its printed template — a gateway with no exact-name
        record cannot be stitched through, priced or not.)  Equal-cost
        stitchings tie-break deterministically on
        (crossings, shard name, entry host) in the heap and
        (crossings, owner shard, crossing path, template) among final
        candidates: the same cheapest route wins on every run, on
        every host.

        The walk is serial, like the paper's mapper: each expansion
        awaits its shard's answers before the next pop, whether the
        shard is local (never suspends, so :func:`drive_local` runs it
        without an event loop) or a remote backend (one round trip,
        none once its legs are cached).
        """
        home = self.home_shard(source)
        if home is None:
            raise RouteError(f"source {source!r} is in no shard")
        owner_set = set(owners)
        candidates = []
        best_cost = None
        reached_owner = False
        # heap entries: (cost, crossings, shard, entry, template, via)
        heap = [(0, 0, home.name, source, "%s", ())]
        done = set()
        while heap:
            cost, hops, sname, entry, template, via = heappop(heap)
            if best_cost is not None and cost > best_cost:
                # Costs are non-negative, so no state past this point
                # can yield a candidate that beats — or ties — the
                # best one found; equal-cost states (cost == best)
                # still get explored, preserving the tie-breaks.
                break
            if (sname, entry) in done:
                continue
            done.add((sname, entry))
            shard = self.shards[sname]
            if sname in owner_set:
                reached_owner = True
                hit = await resolver(shard, entry)
                if hit is not None:
                    in_cost, in_template, matched = hit
                    candidates.append((
                        cost + in_cost, hops, sname, via,
                        template.replace("%s", in_template, 1),
                        matched))
                    if best_cost is None or cost + in_cost < best_cost:
                        best_cost = cost + in_cost
            # One batched gateway question per expansion: every gate
            # this entry could cross, asked of the shard in a single
            # round trip (for a remote shard, one socket exchange
            # instead of one per gate).
            wanted: dict[str, list[str]] = {}
            for other in self.shards:
                if other == sname:
                    continue
                for gate in self._gateways[(sname, other)]:
                    if (other, gate) not in done:
                        wanted.setdefault(gate, []).append(other)
            legs = await shard.route_legs(
                entry, sorted(wanted)) if wanted else {}
            for gate, others in wanted.items():
                leg = legs.get(gate)
                if leg is None:
                    continue  # gateway unreachable in this shard
                gate_cost, gate_route = leg
                for other in others:
                    heappush(heap, (
                        cost + gate_cost, hops + 1, other, gate,
                        template.replace("%s", gate_route, 1),
                        via + ((gate, other),)))
        if candidates:
            return min(candidates)
        if not reached_owner:
            raise FederationError(
                f"{target!r} is owned by shard(s) "
                f"{'/'.join(owners)}, but no gateway chain connects "
                f"them to {source!r}'s home shard {home.name!r}")
        raise RouteError(f"no route to {target!r}")

    async def aresolve_with_cost(self, source: str, target: str,
                                 user: str = "%s"
                                 ) -> FederatedResolution:
        """The federated domain-suffix lookup (async form).

        Finds the owner shard(s) of ``target`` by longest
        domain-suffix match over the merged index, stitches a route
        from ``source``'s home shard through gateway hosts, and
        instantiates it for ``user`` — ``%s`` keeps the relative
        template.  The cheapest stitched route wins; ties break toward
        fewer shard crossings, then shard and gateway names.  This is
        the one implementation; the sync :meth:`resolve_with_cost`
        drives it without a loop for local-only views.
        """
        _, owners = self.owners_of(target)
        if not owners:
            raise RouteError(f"no route to {target!r}")

        async def resolver(shard, entry):
            return await shard.entry_resolve(entry, target)

        cost, _, sname, via, template, matched = await self._stitch(
            source, target, owners, resolver)
        return FederatedResolution(
            cost=cost,
            resolution=Resolution(
                target=target, matched=matched, route=template,
                address=template.replace("%s", user, 1)),
            shard=sname, via=via)

    def resolve_with_cost(self, source: str, target: str,
                          user: str = "%s") -> FederatedResolution:
        """The federated domain-suffix lookup (sync form; see
        :meth:`aresolve_with_cost`).  Local-only views answer in
        place; a view with remote backend shards raises
        :class:`FederationError` — use the async form there."""
        return drive_local(
            self.aresolve_with_cost(source, target, user))

    def resolve(self, source: str, target: str,
                user: str = "%s") -> Resolution:
        """Federated lookup returning just the :class:`Resolution`."""
        return self.resolve_with_cost(source, target, user).resolution

    async def aexact(self, source: str,
                     target: str) -> FederatedResolution:
        """Exact-name federated lookup (no domain-suffix walk).

        The merged index is consulted for ``target`` verbatim, and the
        owner-shard lookup is the plain binary search — mirroring the
        single-snapshot daemon's ``EXACT``.
        """
        owners = self._owners.get(target, ())
        if not owners:
            raise RouteError(f"no route to {target!r}")

        async def resolver(shard, entry):
            return await shard.entry_exact(entry, target)

        cost, _, sname, via, template, matched = await self._stitch(
            source, target, owners, resolver)
        return FederatedResolution(
            cost=cost,
            resolution=Resolution(
                target=target, matched=matched, route=template,
                address=template),
            shard=sname, via=via)

    def exact(self, source: str, target: str) -> FederatedResolution:
        """Exact-name federated lookup (sync form; see
        :meth:`aexact`)."""
        return drive_local(self.aexact(source, target))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}:{shard.source_count}"
            for name, shard in self.shards.items())
        return f"FederationView({parts})"
