"""Build the connectivity graph from parsed declarations.

Implements the semantic rules of the paper's DATA STRUCTURES and PARSING
sections:

* host names are interned in a ``dict``.  The original's double-hashing
  symbol table is :class:`repro.adt.hashtable.HashTable`, which
  experiment E5 measures on its own; here its pure-Python key fold, run
  byte by byte on every probe, was a large share of graph-build time;
* ``private`` declarations narrow a name's scope from the point of
  declaration to the end of its file, yielding distinct nodes for
  identically named hosts;
* network declarations become a star around a network node: member->net
  carries the declared cost, net->member costs zero;
* aliases become pairs of zero-cost ALIAS edges ("aliases are a property
  of edges, not vertices");
* duplicate links keep the cheaper cost (same-file duplicates warn);
* ``dead``/``adjust``/``delete`` are collected during parsing and applied
  at finalize time, after all files have been read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import DEAD, DEFAULT_LINK_COST
from repro.errors import GraphError
from repro.graph.node import Link, LinkKind, Node
from repro.parser.ast import (
    AdjustDecl,
    AliasDecl,
    DeadDecl,
    Declaration,
    DeleteDecl,
    Direction,
    FileDecl,
    GatewayedDecl,
    HostDecl,
    NetDecl,
    PrivateDecl,
)


@dataclass
class Graph:
    """The finished connectivity graph handed to the mapping phase."""

    nodes: list[Node]
    #: global (non-private) names to their nodes
    table: dict[str, Node]
    warnings: list[str] = field(default_factory=list)

    def find(self, name: str) -> Node | None:
        """Look up a (global, non-private) node by name."""
        node = self.table.get(name)
        if node is not None and node.deleted:
            return None
        return node

    def require(self, name: str) -> Node:
        node = self.find(name)
        if node is None:
            raise GraphError(f"no such host: {name!r}")
        return node

    @property
    def link_count(self) -> int:
        return sum(len(n.links) for n in self.nodes)

    @property
    def nodes_by_index(self) -> dict[int, Node]:
        """Node lookup by dense builder index (includes private nodes,
        which the name table cannot reach)."""
        cached = getattr(self, "_by_index", None)
        if cached is None:
            cached = {n.index: n for n in self.nodes}
            object.__setattr__(self, "_by_index", cached)
        return cached

    def __iter__(self):
        return iter(self.nodes)


class GraphBuilder:
    """Accumulates declarations (possibly across files) into a graph."""

    def __init__(self) -> None:
        self.table: dict[str, Node] = {}
        self.nodes: list[Node] = []
        self.warnings: list[str] = []
        self._private: dict[str, Node] = {}  # current file's private names
        self._current_file = "<stdin>"
        # Link dedup index: (from index, to index, kind) -> (Link, file).
        self._links: dict[tuple[int, int, LinkKind], tuple[Link, str]] = {}
        # Deferred mutations, applied at finalize.
        self._dead_hosts: list[str] = []
        self._dead_links: list[tuple[str, str]] = []
        self._adjustments: list[tuple[str, int]] = []
        self._delete_hosts: list[str] = []
        self._delete_links: list[tuple[str, str]] = []
        self._finalized = False

    # -- name interning -----------------------------------------------------

    def _intern(self, name: str) -> Node:
        """Resolve ``name`` in the current scope, creating if needed."""
        node = self._private.get(name)
        if node is not None:
            return node
        node = self.table.get(name)
        if node is None:
            node = Node(name, index=len(self.nodes),
                        origin=self._current_file)
            self.table[name] = node
            self.nodes.append(node)
        return node

    def _warn(self, message: str, filename: str, line: int) -> None:
        self.warnings.append(f'"{filename}", line {line}: {message}')

    # -- declarations -------------------------------------------------------

    def new_file(self, filename: str) -> None:
        """Begin a new input file: private scope ends here."""
        self._private.clear()
        self._current_file = filename

    def add(self, decl: Declaration) -> None:
        """Dispatch one declaration into the graph."""
        if self._finalized:
            raise GraphError("graph already finalized")
        if isinstance(decl, HostDecl):
            self._add_host(decl)
        elif isinstance(decl, NetDecl):
            self._add_net(decl)
        elif isinstance(decl, AliasDecl):
            self._add_alias(decl)
        elif isinstance(decl, PrivateDecl):
            self._add_private(decl)
        elif isinstance(decl, DeadDecl):
            self._dead_hosts.extend(decl.hosts)
            self._dead_links.extend(decl.links)
        elif isinstance(decl, AdjustDecl):
            self._adjustments.extend(decl.adjustments)
        elif isinstance(decl, DeleteDecl):
            self._delete_hosts.extend(decl.hosts)
            self._delete_links.extend(decl.links)
        elif isinstance(decl, FileDecl):
            self.new_file(decl.name)
        elif isinstance(decl, GatewayedDecl):
            for name in decl.names:
                self._intern(name).gatewayed = True
        else:  # pragma: no cover - exhaustive over Declaration
            raise GraphError(f"unknown declaration {decl!r}")

    def _add_host(self, decl: HostDecl) -> None:
        host = self._intern(decl.name)
        for spec in decl.links:
            target = self._intern(spec.name)
            if target is host:
                self._warn(f"{decl.name}: link to self ignored",
                           decl.filename, decl.line)
                continue
            cost = DEFAULT_LINK_COST if spec.cost is None else spec.cost
            self._add_link(host, target, cost, spec.op, spec.direction,
                           LinkKind.NORMAL, decl.filename, decl.line)

    def _add_net(self, decl: NetDecl) -> None:
        net = self._intern(decl.name)
        if net.links and not net.is_net and not net.is_domain:
            # Declared earlier as a plain host: the namespaces collide.
            self._warn(f"network name {decl.name!r} also declared as host",
                       decl.filename, decl.line)
        net.is_net = True
        if decl.cost is not None:
            cost = decl.cost
        else:
            # Domain membership is a naming fact, not a transmission hop.
            cost = 0 if net.is_domain else DEFAULT_LINK_COST
        for member_name in decl.members:
            member = self._intern(member_name)
            if member is net:
                self._warn(f"{decl.name}: network contains itself",
                           decl.filename, decl.line)
                continue
            self._add_link(member, net, cost, decl.op, decl.direction,
                           LinkKind.MEMBER_NET, decl.filename, decl.line)
            self._add_link(net, member, 0, decl.op, decl.direction,
                           LinkKind.NET_MEMBER, decl.filename, decl.line)

    def _add_alias(self, decl: AliasDecl) -> None:
        first = self._intern(decl.name)
        for alias_name in decl.aliases:
            other = self._intern(alias_name)
            if other is first:
                self._warn(f"alias of {decl.name!r} to itself ignored",
                           decl.filename, decl.line)
                continue
            self._add_link(first, other, 0, "!", Direction.LEFT,
                           LinkKind.ALIAS, decl.filename, decl.line)
            self._add_link(other, first, 0, "!", Direction.LEFT,
                           LinkKind.ALIAS, decl.filename, decl.line)

    def _add_private(self, decl: PrivateDecl) -> None:
        for name in decl.names:
            if name in self._private:
                self._warn(f"{name!r} already private in this file",
                           decl.filename, decl.line)
                continue
            node = Node(name, index=len(self.nodes), private=True,
                        origin=decl.filename)
            self.nodes.append(node)
            self._private[name] = node

    def _add_link(self, source: Node, target: Node, cost: int, op: str,
                  direction: Direction, kind: LinkKind,
                  filename: str, line: int) -> None:
        if cost < 0:
            self._warn(f"negative cost {cost} on {source.name}->"
                       f"{target.name} clamped to 0", filename, line)
            cost = 0
        key = (source.index, target.index, kind)
        existing = self._links.get(key)
        if existing is not None:
            link, origin_file = existing
            if origin_file == filename:
                self._warn(f"duplicate link {source.name} -> {target.name}"
                           f" (keeping cheaper)", filename, line)
            if cost < link.cost:
                link.cost = cost
                link.op = op
                link.direction = direction
            return
        link = Link(target, cost, op, direction, kind)
        source.add_link(link)
        self._links[key] = (link, filename)

    # -- finalize -----------------------------------------------------------

    def finalize(self) -> Graph:
        """Apply deferred mutations and return the finished graph."""
        if self._finalized:
            raise GraphError("graph already finalized")
        self._finalized = True
        self._apply_deletes()
        self._apply_dead()
        self._apply_adjustments()
        self._collect_gateways()
        return Graph(nodes=[n for n in self.nodes if not n.deleted],
                     table=self.table, warnings=self.warnings)

    def _lookup_global(self, name: str, context: str) -> Node | None:
        node = self.table.get(name)
        if node is None:
            self.warnings.append(f"{context}: unknown host {name!r}")
        return node

    def _apply_deletes(self) -> None:
        for name in self._delete_hosts:
            node = self._lookup_global(name, "delete")
            if node is not None:
                node.deleted = True
        for from_name, to_name in self._delete_links:
            source = self._lookup_global(from_name, "delete link")
            target = self._lookup_global(to_name, "delete link")
            if source is None or target is None:
                continue
            source.links = [l for l in source.links if l.to is not target]
        # Drop all edges touching deleted nodes.
        deleted = {n.index for n in self.nodes if n.deleted}
        if deleted:
            for node in self.nodes:
                if node.deleted:
                    node.links = []
                else:
                    node.links = [l for l in node.links
                                  if l.to.index not in deleted]

    def _apply_dead(self) -> None:
        for name in self._dead_hosts:
            node = self._lookup_global(name, "dead")
            if node is None or node.deleted:
                continue
            node.dead = True
        # A dead host is reached only as a last resort: every link into
        # it is surcharged to DEAD.
        dead_nodes = {n.index for n in self.nodes if n.dead}
        if dead_nodes:
            for node in self.nodes:
                for link in node.links:
                    if link.to.index in dead_nodes and not link.dead:
                        link.cost = max(link.cost, DEAD)
                        link.dead = True
        for from_name, to_name in self._dead_links:
            source = self._lookup_global(from_name, "dead link")
            target = self._lookup_global(to_name, "dead link")
            if source is None or target is None or source.deleted \
                    or target.deleted:
                continue
            found = False
            for link in source.links:
                if link.to is target:
                    link.cost = max(link.cost, DEAD)
                    link.dead = True
                    found = True
            if not found:
                # Declaring a dead link that was never declared alive
                # still records last-resort connectivity.
                link = Link(target, DEAD, "!", Direction.LEFT,
                            LinkKind.NORMAL, dead=True)
                source.add_link(link)

    def _apply_adjustments(self) -> None:
        for name, amount in self._adjustments:
            node = self._lookup_global(name, "adjust")
            if node is None or node.deleted:
                continue
            node.adjust += amount
        for node in self.nodes:
            if not node.adjust or node.deleted:
                continue
            for link in node.links:
                link.cost = max(0, link.cost + node.adjust)

    def _collect_gateways(self) -> None:
        """A host with an explicit NORMAL link into a gatewayed net is a
        declared gateway of that net."""
        for node in self.nodes:
            if node.deleted:
                continue
            for link in node.links:
                if link.kind is LinkKind.NORMAL and link.to.gatewayed:
                    if link.to.gateways is None:
                        link.to.gateways = set()
                    link.to.gateways.add(node)


def build_graph(decl_sets: list[tuple[str, list[Declaration]]]) -> Graph:
    """Build a graph from per-file declaration lists.

    Args:
        decl_sets: ``(filename, declarations)`` pairs, one per input file
            — file boundaries scope ``private`` declarations.
    """
    builder = GraphBuilder()
    for filename, decls in decl_sets:
        builder.new_file(filename)
        for decl in decls:
            builder.add(decl)
    return builder.finalize()
