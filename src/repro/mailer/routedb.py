"""The route database and the paper's domain lookup procedure.

"Output from pathalias is a simple linear file, in the UNIX tradition.
If desired, a separate program may be used to convert this file into a
format appropriate for rapid database retrieval."

Two access paths are provided:

* :class:`RouteDatabase` — in-memory map with the *domain suffix search*
  the paper specifies: to route to ``caip.rutgers.edu!pleasant``, search
  ``caip.rutgers.edu``, then ``.rutgers.edu``, then ``.edu``; on a
  domain match the format argument is the route relative to the gateway
  (``caip.rutgers.edu!pleasant``), not just the user.
* :class:`IndexedPathsFile` — the "separate program": a sorted paths
  file searched by bisection, standing in for the dbm conversion
  (experiment E12 measures lookups against a linear scan).

The suffix-search algorithm itself (and the :class:`Resolution` record
it produces) lives in :mod:`repro.service.resolver` — one shared
implementation behind every lookup surface, re-exported here so
historical imports keep working.  :class:`RouteDatabase` satisfies the
:class:`~repro.service.resolver.Resolver` protocol, which is exactly
the surface :class:`~repro.mailer.router.MailRouter` requires of its
``db``.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.printer import RouteTable
from repro.errors import RouteError
from repro.service.fsm import SuffixAutomaton, compile_keys
from repro.service.resolver import (  # noqa: F401  (re-exports)
    Resolution,
    SuffixResolver,
    domain_suffixes,
    relative_resolution,
)


class RouteDatabase(SuffixResolver):
    """Name -> route map with the paper's domain fallback.

    ``costs`` optionally carries the mapped cost per name (kept by
    :meth:`from_table` and the snapshot reader's ``database()``), so
    the database answers ``resolve_with_cost`` like every other
    :class:`~repro.service.resolver.Resolver`; names without a
    recorded cost report 0.
    """

    def __init__(self, routes: dict[str, str],
                 costs: dict[str, int] | None = None,
                 source: str | None = None):
        self._routes = dict(routes)
        self._costs = dict(costs) if costs else {}
        self._source = source
        # compiled dispatch, built lazily on the first suffix resolve
        # (the route map is immutable after construction)
        self._auto: SuffixAutomaton | None = None

    @classmethod
    def from_table(cls, table: RouteTable) -> "RouteDatabase":
        """Lift a mapped :class:`RouteTable` (routes, costs, source)."""
        return cls({record.name: record.route for record in table},
                   costs={record.name: record.cost for record in table},
                   source=table.source)

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, name: str) -> bool:
        return name in self._routes

    def route(self, name: str) -> str | None:
        """The stored route template for an exact name, or None."""
        return self._routes.get(name)

    def lookup(self, name: str) -> tuple[int, str] | None:
        """``(cost, route)`` for an exact name (cost 0 if unrecorded)."""
        route = self._routes.get(name)
        if route is None:
            return None
        return self._costs.get(name, 0), route

    # -- the Resolver protocol surface ----------------------------------------
    # resolve / resolve_bang come from SuffixResolver; resolve_with_cost
    # is overridden onto the compiled automaton (one O(labels) match
    # instead of a dict probe per suffix), byte-identical to the walk
    # that resolver.resolve_with_cost_dict runs over lookup.

    def resolve_with_cost(self, target: str, user: str = "%s"
                          ) -> tuple[int, Resolution]:
        """Compiled domain-suffix lookup (see
        :meth:`~repro.service.resolver.SuffixResolver.resolve_with_cost`
        for the contract this matches exactly)."""
        if self._auto is None:
            keys = list(self._routes)
            self._auto = compile_keys(keys, payloads=keys)
        key = self._auto.match(target)
        if key is None:
            raise RouteError(f"no route to {target!r}")
        return self._costs.get(key, 0), relative_resolution(
            target, key, self._routes[key], user)

    def source_table(self) -> str | None:
        """The source host these routes were mapped from (if known)."""
        return self._source

    def stats(self) -> dict:
        """Backend counters: entry and recorded-cost counts."""
        return {"entries": str(len(self._routes)),
                "costs": str(len(self._costs)),
                "source": self._source or ""}


class IndexedPathsFile:
    """A sorted on-disk paths file with bisection lookup.

    Mimics the dbm post-processing step: the linear file is sorted once
    (``build``), then lookups cost O(log n) line comparisons instead of
    a linear scan.  Comparison counts are exposed for experiment E12.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._names: list[str] = []
        self._routes: list[str] = []
        self.comparisons = 0

    @classmethod
    def build(cls, table: RouteTable, path: str | Path) -> "IndexedPathsFile":
        """Write the sorted paths file and return a ready index."""
        records = sorted(table, key=lambda r: r.name)
        text = "".join(f"{r.name}\t{r.route}\n" for r in records)
        Path(path).write_text(text)
        index = cls(path)
        index.load()
        return index

    def load(self) -> None:
        self._names = []
        self._routes = []
        for line in self.path.read_text().splitlines():
            if not line.strip():
                continue
            name, _, route = line.partition("\t")
            if not route:
                raise RouteError(f"malformed paths line: {line!r}")
            self._names.append(name)
            self._routes.append(route)
        if self._names != sorted(self._names):
            raise RouteError(f"paths file {self.path} is not sorted")

    def __len__(self) -> int:
        return len(self._names)

    def lookup(self, name: str) -> str | None:
        """Bisection search, counting comparisons."""
        lo, hi = 0, len(self._names)
        while lo < hi:
            mid = (lo + hi) // 2
            self.comparisons += 1
            if self._names[mid] < name:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(self._names) and self._names[lo] == name:
            return self._routes[lo]
        return None

    def lookup_linear(self, name: str) -> str | None:
        """The unconverted linear-file scan, for comparison."""
        for stored, route in zip(self._names, self._routes):
            self.comparisons += 1
            if stored == name:
                return route
        return None

    def database(self) -> RouteDatabase:
        """Lift the file into a :class:`RouteDatabase` (suffix search)."""
        return RouteDatabase(dict(zip(self._names, self._routes)))
