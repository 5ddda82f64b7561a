"""Node and link structures — the paper's DATA STRUCTURES section.

"A node is represented by a structure consisting mostly of pointers and
flags.  One of the fields in a node is a pointer to a singly-linked list
of adjacent hosts.  A list element, called a link, contains a pointer to
the next link on the list, a pointer to the destination host on the edge
it represents, a non-negative cost, and some flags."

Python translation: ``Node.links`` is a list of :class:`Link`; the
"flags" are explicit attributes.  Both classes use ``__slots__`` — at
USENET scale (8,500 nodes, 28,000 links) per-object dict overhead is the
Python equivalent of the paper's memory-allocation woes.
"""

from __future__ import annotations

import enum

from repro.parser.ast import Direction


class LinkKind(enum.Enum):
    """Why an edge exists; drives both heuristics and route text.

    NORMAL: a declared host-to-host (or host-to-net gateway) link.
    ALIAS: one of the zero-cost pair connecting two names for the same
        machine; contributes no route text ("aliases are a property of
        edges, not vertices").
    MEMBER_NET: member -> network, carrying the declared cost ("you pay
        to get onto a network"); contributes no immediate route text.
    NET_MEMBER: network -> member, cost zero ("you get off for free");
        route text uses the operator with which the path *entered* the
        network.
    INFERRED: a back link invented for an otherwise unreachable host.
    """

    NORMAL = "normal"
    ALIAS = "alias"
    MEMBER_NET = "member-net"
    NET_MEMBER = "net-member"
    INFERRED = "inferred"

    # Members are singletons compared by identity, so the C-level
    # identity hash will do.  Enum's own ``__hash__`` is a Python call
    # (``hash(self._name_)``), paid twice per link by the builder's
    # dedup key and again by ``CompactGraph.compile``.
    __hash__ = object.__hash__


#: Kinds that represent a real transmission hop (penalizable); the rest
#: are structural artifacts of the representation.
REAL_KINDS = frozenset({LinkKind.NORMAL, LinkKind.MEMBER_NET,
                        LinkKind.INFERRED})


class Link:
    """A directed edge: destination, cost, routing syntax, kind."""

    __slots__ = ("to", "cost", "op", "direction", "kind", "dead")

    def __init__(self, to: "Node", cost: int, op: str = "!",
                 direction: Direction = Direction.LEFT,
                 kind: LinkKind = LinkKind.NORMAL, dead: bool = False):
        self.to = to
        self.cost = cost
        self.op = op
        self.direction = direction
        self.kind = kind
        self.dead = dead

    def __repr__(self) -> str:
        return (f"Link(->{self.to.name}, cost={self.cost}, "
                f"{self.op}{self.direction.value}, {self.kind.value})")


class Node:
    """A host or network vertex."""

    __slots__ = ("name", "links", "index", "is_net", "is_domain",
                 "private", "gatewayed", "dead", "deleted", "adjust",
                 "gateways", "origin")

    def __init__(self, name: str, index: int, private: bool = False,
                 origin: str = ""):
        self.name = name
        #: adjacency list, in declaration order (determinism matters:
        #: route output must be reproducible run to run)
        self.links: list[Link] = []
        #: dense id assigned by the builder, used as mapping-state key
        self.index = index
        #: declared with ``name = {...}`` (clique/star representation)
        self.is_net = False
        #: name begins with '.' — a domain; implicitly gatewayed
        self.is_domain = name.startswith(".")
        self.private = private
        #: requires an explicit gateway to enter (always True for domains)
        self.gatewayed = self.is_domain
        self.dead = False
        self.deleted = False
        #: administrator cost nudge applied to every outgoing link
        self.adjust = 0
        #: hosts with an explicit NORMAL link into this (gatewayed) net
        self.gateways: set["Node"] | None = None
        #: file that first mentioned the node (diagnostics)
        self.origin = origin

    def find_link(self, to: "Node", kind: LinkKind) -> Link | None:
        """Locate an existing edge to ``to`` of the given kind."""
        for link in self.links:
            if link.to is to and link.kind is kind:
                return link
        return None

    def add_link(self, link: Link) -> None:
        self.links.append(link)

    @property
    def netlike(self) -> bool:
        """Behaves as a placeholder in routes (network or domain)."""
        return self.is_net or self.is_domain

    def __repr__(self) -> str:
        tags = []
        if self.is_net:
            tags.append("net")
        if self.is_domain:
            tags.append("domain")
        if self.private:
            tags.append("private")
        suffix = f" [{','.join(tags)}]" if tags else ""
        return f"Node({self.name!r}, {len(self.links)} links{suffix})"
