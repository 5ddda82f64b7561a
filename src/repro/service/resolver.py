"""One resolver contract for every lookup surface.

The serving tier grew four ways to ask "how does mail for *target*
leave *source*?": the in-process snapshot reader
(:class:`repro.service.store.SnapshotTable`), the daemon client
(:class:`repro.service.daemon.DaemonRouteDatabase`), the federation
view (:class:`repro.service.shard.FederationView`), and the mailer's
in-memory table (:class:`repro.mailer.routedb.RouteDatabase`).  Each
re-implemented the paper's domain-suffix search and the ``%s``
instantiation independently; this module collapses them onto one
contract:

* :class:`Resolver` is the *protocol* every lookup surface satisfies —
  ``resolve`` / ``resolve_with_cost`` / ``source_table`` / ``stats`` —
  so a :class:`~repro.mailer.router.MailRouter` (or any caller) can
  swap an in-memory table for a snapshot, a daemon, or a federation
  without changing a line.
* :class:`SuffixResolver` is the *shared implementation* of the
  paper's domain lookup procedure — "search ``caip.rutgers.edu``, then
  ``.rutgers.edu``, then ``.edu``" — over one abstract
  ``lookup(name) -> (cost, route)`` primitive, so the search sequence
  and the relative-address instantiation live in exactly one place.

The :class:`Resolution` record and :func:`domain_suffixes` moved here
from :mod:`repro.mailer.routedb` (which re-exports them unchanged):
the serving tier sits *below* the mailer in the layer map, and the
snapshot store must not import upward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.errors import RouteError


@dataclass(frozen=True)
class Resolution:
    """A successful lookup: which key matched and the final address."""

    target: str      # what the mail was addressed to
    matched: str     # database key that matched (host or domain)
    route: str       # the printf-style route of the match
    address: str     # fully instantiated address


def domain_suffixes(name: str) -> list[str]:
    """The search sequence: exact name, then each domain suffix.

    >>> domain_suffixes("caip.rutgers.edu")
    ['caip.rutgers.edu', '.rutgers.edu', '.edu']
    """
    out = [name]
    start = 1 if name.startswith(".") else 0
    rest = name[start:]
    while "." in rest:
        rest = rest.split(".", 1)[1]
        out.append("." + rest)
    return out


class SuffixResolver:
    """The paper's domain lookup procedure over an abstract ``lookup``.

    Subclasses provide ``lookup(name) -> (cost, route) | None`` — a
    dict probe, a binary search over snapshot bytes, whatever — and
    inherit the whole resolve surface: the suffix walk, the
    gateway-relative instantiation ("on a domain match the format
    argument is ``target!user`` — a route relative to its gateway"),
    and the bang-address form.
    """

    __slots__ = ()

    def lookup(self, name: str) -> tuple[int, str] | None:
        """``(cost, route)`` for an exact key, or None on a miss."""
        raise NotImplementedError

    def resolve_with_cost(self, target: str, user: str = "%s"
                          ) -> tuple[int, Resolution]:
        """Suffix-search ``target``; return the matched record's cost
        alongside the resolution so hot paths need no second search.

        Exact host match: the format argument is the user.  Domain
        match: the argument is ``target!user`` — "a route relative to
        its gateway".
        """
        for key in domain_suffixes(target):
            hit = self.lookup(key)
            if hit is None:
                continue
            cost, route = hit
            argument = user if key == target else f"{target}!{user}"
            return cost, Resolution(
                target=target, matched=key, route=route,
                address=route.replace("%s", argument, 1))
        raise RouteError(f"no route to {target!r}")

    def resolve(self, target: str, user: str = "%s") -> Resolution:
        """Domain-suffix search without the cost (see
        :meth:`resolve_with_cost`)."""
        return self.resolve_with_cost(target, user)[1]

    def resolve_bang(self, bang_address: str) -> Resolution:
        """Resolve ``host!rest`` forms."""
        if "!" not in bang_address:
            raise RouteError(
                f"address {bang_address!r} names no user (expected "
                f"target!user)")
        target, user = bang_address.split("!", 1)
        return self.resolve(target, user)


def resolve_with_cost_dict(surface, target: str, user: str = "%s"
                           ) -> tuple[int, Resolution]:
    """The differential oracle: the paper's suffix walk
    (:meth:`SuffixResolver.resolve_with_cost`) over ``surface``'s
    exact-name ``lookup``, whatever its own ``resolve_with_cost``
    dispatches through.  A cached surface is walked underneath its
    cache (its ``inner`` surface), so the oracle never reads a cached
    answer.  This is what serves a ``dispatch="dict"`` service."""
    surface = getattr(surface, "inner", surface)
    return SuffixResolver.resolve_with_cost(surface, target, user)


@runtime_checkable
class Resolver(Protocol):
    """What every lookup surface answers, wherever the bytes live.

    Satisfied (structurally — no inheritance required) by the
    in-process snapshot surface
    (:class:`~repro.service.store.SnapshotResolver`), the daemon
    client (:class:`~repro.service.daemon.DaemonRouteDatabase`), the
    federation surface
    (:class:`~repro.service.shard.FederationResolver` and the
    :class:`~repro.service.federation.FederatedRouteDatabase` client),
    and the mailer's in-memory
    :class:`~repro.mailer.routedb.RouteDatabase`.
    """

    def resolve(self, target: str, user: str = "%s") -> Resolution:
        """Domain-suffix lookup; raises ``RouteError`` on a miss."""
        ...  # pragma: no cover - protocol signature

    def resolve_with_cost(self, target: str, user: str = "%s"
                          ) -> tuple[int, Resolution]:
        """Like :meth:`resolve`, with the mapped cost alongside."""
        ...  # pragma: no cover - protocol signature

    def source_table(self) -> str | None:
        """The source host whose table is searched (None if unbound)."""
        ...  # pragma: no cover - protocol signature

    def stats(self) -> dict:
        """Backend counters as a string-keyed dict."""
        ...  # pragma: no cover - protocol signature
