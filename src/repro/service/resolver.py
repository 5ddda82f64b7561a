"""One resolver contract for every lookup surface.

The serving tier has four ways to ask "how does mail for *target*
leave *source*?": the in-process snapshot table
(:class:`repro.service.store.SnapshotTable`), the daemon client
(:class:`repro.service.daemon.DaemonRouteDatabase`), the federation
client (:class:`repro.service.federation.FederatedRouteDatabase`), and
the mailer's in-memory table
(:class:`repro.mailer.routedb.RouteDatabase`).  This module holds
what they share:

* :class:`Resolver` is the *protocol* every lookup surface satisfies —
  ``resolve`` / ``resolve_with_cost``, the two questions a
  :class:`~repro.mailer.router.MailRouter` asks — so a caller can swap
  an in-memory table for a snapshot, a daemon, or a federation
  without changing a line.
* :class:`SuffixResolver` is the *shared implementation* of the
  paper's domain lookup procedure — "search ``caip.rutgers.edu``, then
  ``.rutgers.edu``, then ``.edu``" — over one abstract
  ``lookup(name) -> (cost, route)`` primitive, so the search sequence
  lives in exactly one place.
* :func:`resolve_with_cost_dict` is that walk run as the differential
  oracle over any surface's exact-name ``lookup``.
* :func:`relative_resolution` is the paper's relative-address rule,
  which every surface's suffix search answers through.

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


def relative_resolution(target: str, matched: str, route: str,
                        user: str) -> Resolution:
    """The :class:`Resolution` of ``target`` through the key it
    ``matched``, whose route template is ``route``.

    The paper's relative-address rule: on an exact host match the
    format argument is the user; on a domain match it is
    ``target!user`` — "a route relative to its gateway".
    """
    argument = user if matched == target else f"{target}!{user}"
    return Resolution(target=target, matched=matched, route=route,
                      address=route.replace("%s", argument, 1))


class SuffixResolver:
    """The paper's domain lookup procedure over an abstract ``lookup``.

    Subclasses provide ``lookup(name) -> (cost, route) | None`` — a
    dict probe, a binary search over snapshot bytes, whatever — and
    inherit the whole resolve surface: the suffix walk, the
    gateway-relative instantiation (:func:`relative_resolution`), and
    the bang-address form.
    """

    __slots__ = ()

    def lookup(self, name: str) -> tuple[int, str] | None:
        """``(cost, route)`` for an exact key, or None on a miss."""
        raise NotImplementedError

    def resolve_with_cost(self, target: str, user: str = "%s"
                          ) -> tuple[int, Resolution]:
        """Suffix-search ``target``; return the matched record's cost
        alongside the resolution (:func:`relative_resolution`) so hot
        paths need no second search."""
        for key in domain_suffixes(target):
            hit = self.lookup(key)
            if hit is None:
                continue
            cost, route = hit
            return cost, relative_resolution(target, key, route, user)
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
    dispatches through.  This is what serves a ``dispatch="dict"``
    service, whose result cache is off."""
    return SuffixResolver.resolve_with_cost(surface, target, user)


@runtime_checkable
class Resolver(Protocol):
    """What every lookup surface answers, wherever the bytes live.

    Satisfied (structurally — no inheritance required) by the
    in-process :class:`~repro.service.store.SnapshotTable`, the daemon
    client (:class:`~repro.service.daemon.DaemonRouteDatabase`), the
    federation client
    (:class:`~repro.service.federation.FederatedRouteDatabase`), and
    the mailer's in-memory :class:`~repro.mailer.routedb.RouteDatabase`.
    """

    def resolve(self, target: str, user: str = "%s") -> Resolution:
        """Domain-suffix lookup; raises ``RouteError`` on a miss."""
        ...  # pragma: no cover - protocol signature

    def resolve_with_cost(self, target: str, user: str = "%s"
                          ) -> tuple[int, Resolution]:
        """Like :meth:`resolve`, with the mapped cost alongside."""
        ...  # pragma: no cover - protocol signature
