"""Declaration AST produced by the grammar, consumed by the graph builder.

One value class per statement form of the input language.  Every
declaration carries its source coordinates so the builder can attribute
warnings ("duplicate link", "private redeclared") the way the original
attributed them on stderr.  Host declarations and their links are the
bulk of every map (~30k per USENET-scale compile), so they are slotted
:class:`~repro.parser.tokens.SlotValue` classes; the rarer forms stay
frozen dataclasses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from repro.parser.tokens import SlotValue


class Direction(enum.Enum):
    """Which side of the routing operator the host name appears on.

    LEFT: ``host!user`` (UUCP convention) — route text ``host!%s``.
    RIGHT: ``user@host`` (ARPANET convention) — route text ``%s@host``.
    """

    LEFT = "left"
    RIGHT = "right"


class LinkSpec(SlotValue):
    """One neighbor in a host declaration's link list.

    ``cost`` is already evaluated to an integer; ``None`` means the
    declaration named no cost and the builder applies the default.
    """

    __slots__ = ("name", "op", "direction", "cost")

    def __init__(self, name: str, op: str = "!",
                 direction: Direction = Direction.LEFT,
                 cost: int | None = None) -> None:
        self.name = name
        self.op = op
        self.direction = direction
        self.cost = cost


class HostDecl(SlotValue):
    """``host  neighbor(COST), @other(COST), ...``"""

    __slots__ = ("name", "links", "filename", "line")

    def __init__(self, name: str, links: tuple[LinkSpec, ...],
                 filename: str = "<stdin>", line: int = 0) -> None:
        self.name = name
        self.links = links
        self.filename = filename
        self.line = line


@dataclass(frozen=True)
class NetDecl:
    """``NETNAME = [op]{member, ...}[op](COST)`` — a clique, stored as a
    star around a network node (2n edges instead of ~n^2)."""

    name: str
    members: tuple[str, ...]
    op: str = "!"
    direction: Direction = Direction.LEFT
    cost: int | None = None
    filename: str = "<stdin>"
    line: int = 0


@dataclass(frozen=True)
class AliasDecl:
    """``name = alias1, alias2`` (no braces) — all names equivalent,
    connected by zero-cost ALIAS edge pairs."""

    name: str
    aliases: tuple[str, ...]
    filename: str = "<stdin>"
    line: int = 0


@dataclass(frozen=True)
class PrivateDecl:
    """``private {name, ...}`` — scope the names to this file, from the
    point of declaration to end of file."""

    names: tuple[str, ...]
    filename: str = "<stdin>"
    line: int = 0


@dataclass(frozen=True)
class DeadDecl:
    """``dead {host, from!to, ...}`` — last-resort hosts and links."""

    hosts: tuple[str, ...] = ()
    links: tuple[tuple[str, str], ...] = ()
    filename: str = "<stdin>"
    line: int = 0


@dataclass(frozen=True)
class AdjustDecl:
    """``adjust {host(expr), ...}`` — administrator nudge added to the
    cost of every link out of the host."""

    adjustments: tuple[tuple[str, int], ...]
    filename: str = "<stdin>"
    line: int = 0


@dataclass(frozen=True)
class DeleteDecl:
    """``delete {host, from!to, ...}`` — remove hosts or links."""

    hosts: tuple[str, ...] = ()
    links: tuple[tuple[str, str], ...] = ()
    filename: str = "<stdin>"
    line: int = 0


@dataclass(frozen=True)
class FileDecl:
    """``file "name"`` — behave as if a new input file began here
    (resets private scope); used when maps are concatenated."""

    name: str
    filename: str = "<stdin>"
    line: int = 0


@dataclass(frozen=True)
class GatewayedDecl:
    """``gatewayed {net, ...}`` — the named networks require explicit
    gateways; entering through a non-gateway is severely penalized.
    Domains are implicitly gatewayed and need no such declaration."""

    names: tuple[str, ...]
    filename: str = "<stdin>"
    line: int = 0


Declaration = Union[
    HostDecl, NetDecl, AliasDecl, PrivateDecl, DeadDecl,
    AdjustDecl, DeleteDecl, FileDecl, GatewayedDecl,
]
