"""Exception hierarchy for the pathalias reproduction.

Every error raised by the library derives from :class:`PathaliasError` so
callers can catch one type at the facade boundary.  Parse-time errors carry
source coordinates (file, line) the way the original tool reported them on
stderr.
"""

from __future__ import annotations


class PathaliasError(Exception):
    """Base class for all errors raised by this library."""


class InputError(PathaliasError):
    """A problem with the input description of the network.

    Carries the file name and line number of the offending text so that
    error messages read like the original tool's diagnostics, e.g.
    ``"uunet.map", line 12: bad cost expression``.
    """

    def __init__(self, message: str, filename: str = "<stdin>", line: int = 0):
        self.message = message
        self.filename = filename
        self.line = line
        super().__init__(self.pretty())

    def pretty(self) -> str:
        if self.line:
            return f'"{self.filename}", line {self.line}: {self.message}'
        return f'"{self.filename}": {self.message}'


class ScanError(InputError):
    """The scanner encountered a malformed token."""


class ParseError(InputError):
    """The grammar rejected a statement."""


class CostExpressionError(InputError):
    """A cost expression was malformed or used an unknown symbol."""


class GraphError(PathaliasError):
    """An inconsistency while building or using the connectivity graph."""


class MappingError(PathaliasError):
    """The shortest-path mapping phase failed (e.g. no such source host)."""


class RouteError(PathaliasError):
    """Route construction or database lookup failed."""


class FederationError(RouteError):
    """A federated lookup failed at the shard-stitching layer.

    The destination is owned by some shard, but no chain of gateway
    hosts (hosts sharing a table in two shards) connects the querying
    source's home shard to it.  Subclasses :class:`RouteError` so
    callers that treat "no route" generically keep working, while the
    daemon can report the distinct ``federation`` error code.
    """


class BackendError(FederationError):
    """A remote backend shard failed to answer a federated lookup.

    The backend was unreachable or closed, failed its one retry,
    refused a request, or broke the protocol.  This is a fault of the
    transport or the backend daemon, not a fact of the map: it may
    clear on the next request, so lookup caches never keep it, while
    the wire reply stays ``ERR federation``.
    """


class UnknownShardError(FederationError):
    """A shard-administration verb named a shard that is not attached.

    Distinct from the broader :class:`FederationError` so the
    federation daemon can answer ``ERR unknown-shard`` for a bad name
    while a backend daemon's refusal (a failed forwarded reload, an
    unreachable backend) keeps its own error code.
    """


class AddressError(PathaliasError):
    """An electronic-mail address could not be parsed."""
