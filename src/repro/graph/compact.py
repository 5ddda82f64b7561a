"""Compile a built :class:`~repro.graph.build.Graph` into flat arrays.

The reference mapper chases Python object pointers on every relaxation:
``link.to``, ``target.deleted``, ``link.kind``, ``target.gateways`` — a
handful of attribute loads and an enum identity test per edge, tens of
thousands of times per run.  All of those facts are *static* once the
graph is finalized, so this module resolves them once, at compile time,
into CSR-style parallel integer arrays:

* nodes get dense *compact ids* ``0..n-1`` (the builder's ``index`` may
  have holes where deleted nodes fell out);
* ``off[cid] .. off[cid+1]`` spans the node's links in the parallel
  link arrays, preserving declaration order (determinism: the two
  engines must relax edges in the same order to break cost ties the
  same way);
* ``link_flags`` packs everything the relaxation loop needs to know —
  whether the hop is a real transmission (penalizable), its routing
  direction, and which member->net penalty (subdomain-up or
  non-gateway entry) it would trigger.  The *penalty predicates* are
  evaluated here; the mapper only multiplies flags by its configured
  penalty amounts.

A ``CompactGraph`` deliberately holds no :class:`Node`/:class:`Link`
references in its picklable state: shipping one to a worker process
costs a few flat lists, not the whole object graph.  The compiling
process keeps a backref to the source graph so results can be
rehydrated into reference-engine structures (`node_of`, `link_obj`).
"""

from __future__ import annotations

from repro.graph.build import Graph
from repro.graph.node import Link, LinkKind, Node, REAL_KINDS
from repro.parser.ast import Direction

#: ``link_flags`` bits.
F_REAL = 1          # real transmission hop: NORMAL / MEMBER_NET / INFERRED
F_LEFT = 2          # LEFT (``!``-style) routing direction
F_SUBDOMAIN_UP = 4  # member->net edge climbing the domain tree
F_NON_GATEWAY = 8   # member->net edge entering a gatewayed net unblessed

#: ``kind`` codes (array-friendly stand-ins for :class:`LinkKind`).
K_NORMAL = 0
K_ALIAS = 1
K_MEMBER_NET = 2
K_NET_MEMBER = 3
K_INFERRED = 4

KIND_CODE = {
    LinkKind.NORMAL: K_NORMAL,
    LinkKind.ALIAS: K_ALIAS,
    LinkKind.MEMBER_NET: K_MEMBER_NET,
    LinkKind.NET_MEMBER: K_NET_MEMBER,
    LinkKind.INFERRED: K_INFERRED,
}

KIND_OF_CODE = {code: kind for kind, code in KIND_CODE.items()}

#: State-kind codes: what sort of node a mapping state stands on.
#: Persisted per state by snapshot format v2 (``STAT`` records), so
#: downstream consumers can tell a routable host's cost from a
#: structural placeholder's without the graph section in hand.
SK_HOST = 0            # an ordinary, globally visible mail host
SK_NET = 1             # a network placeholder (is_net)
SK_DOMAIN = 2          # a domain node (name starts with ".")
SK_PRIVATE = 3         # a file-scoped private node (name shadowable)

STATE_KIND_NAMES = {SK_HOST: "host", SK_NET: "net",
                    SK_DOMAIN: "domain", SK_PRIVATE: "private-shadow"}


class NameIndex:
    """A compiled graph's names, operators and state kinds in the form
    a snapshot table-section writer consumes, built once per graph by
    :meth:`CompactGraph.name_index`:

    * ``utf8[cid]`` — the node's name as UTF-8 bytes;
    * ``rank[cid]`` — its position in UTF-8 byte order, equal names
      sharing the rank of the first, so ranks compare exactly as the
      names' bytes do (public names are unique, so theirs differ);
    * ``by_rank`` — the names' bytes sorted, ``by_rank[rank[cid]] ==
      utf8[cid]``;
    * ``kinds[cid]`` — the ``SK_*`` code (:meth:`CompactGraph.state_kinds`);
    * ``ops[j]`` — link ``j``'s operator as UTF-8 bytes.
    """

    __slots__ = ("names", "utf8", "rank", "by_rank", "kinds", "ops")

    def __init__(self, cg: "CompactGraph"):
        self.names = cg.names
        self.utf8 = [name.encode("utf-8") for name in cg.names]
        utf8 = self.utf8
        order = sorted(range(cg.n), key=utf8.__getitem__)
        self.by_rank = [utf8[cid] for cid in order]
        self.rank = rank = [0] * cg.n
        previous = None
        first = 0
        for position, cid in enumerate(order):
            if utf8[cid] != previous:
                previous = utf8[cid]
                first = position
            rank[cid] = first
        self.kinds = cg.state_kinds()
        self.ops = [op.encode("utf-8") for op in cg.op]


class CompactGraph:
    """A finalized graph flattened into parallel integer arrays."""

    __slots__ = (
        # node arrays, indexed by compact id
        "n", "names", "is_domain", "is_net", "netlike", "private",
        "off",
        # link arrays, indexed by link id (CSR position)
        "to", "cost", "flags", "kind", "op",
        # name -> cid for globally visible nodes
        "cid_by_name",
        # non-picklable backrefs to the source graph (compiling process)
        "graph", "_nodes", "_links",
        "warnings",
        # derived once per process, never pickled (see name_index)
        "_name_index",
    )

    def __init__(self) -> None:
        self.n = 0
        self.names: list[str] = []
        self.is_domain: list[int] = []
        self.is_net: list[int] = []
        self.netlike: list[int] = []
        self.private: list[int] = []
        self.off: list[int] = [0]
        self.to: list[int] = []
        self.cost: list[int] = []
        self.flags: list[int] = []
        self.kind: list[int] = []
        self.op: list[str] = []
        self.cid_by_name: dict[str, int] = {}
        self.warnings: list[str] = []
        self.graph: Graph | None = None
        self._nodes: list[Node] | None = None
        self._links: list[Link] | None = None
        self._name_index: NameIndex | None = None

    # -- compilation --------------------------------------------------------

    @classmethod
    def compile(cls, graph: Graph) -> "CompactGraph":
        """Flatten ``graph`` (post-finalize) into arrays."""
        cg = cls()
        cg.graph = graph
        nodes = [n for n in graph.nodes if not n.deleted]
        cg._nodes = nodes
        cg.n = len(nodes)
        cid_of_index: dict[int, int] = {
            node.index: cid for cid, node in enumerate(nodes)}

        cg.names = [node.name for node in nodes]
        cg.is_domain = [1 if node.is_domain else 0 for node in nodes]
        cg.is_net = [1 if node.is_net else 0 for node in nodes]
        cg.netlike = [1 if node.netlike else 0 for node in nodes]
        cg.private = [1 if node.private else 0 for node in nodes]
        for node in nodes:
            if not node.private:
                # Global names are unique (privates never enter the
                # symbol table), mirroring Graph.find.
                cg.cid_by_name[node.name] = cid_of_index[node.index]

        link_objs: list[Link] = []
        for node in nodes:
            for link in node.links:
                target = link.to
                if target.deleted:
                    continue
                tcid = cid_of_index[target.index]
                flags = 0
                if link.kind in REAL_KINDS:
                    flags |= F_REAL
                if link.direction is Direction.LEFT:
                    flags |= F_LEFT
                if link.kind is LinkKind.MEMBER_NET:
                    if node.is_domain and target.is_domain:
                        flags |= F_SUBDOMAIN_UP
                    elif (target.gatewayed and not target.is_domain
                            and (target.gateways is None
                                 or node not in target.gateways)):
                        flags |= F_NON_GATEWAY
                cg.to.append(tcid)
                cg.cost.append(link.cost)
                cg.flags.append(flags)
                cg.kind.append(KIND_CODE[link.kind])
                cg.op.append(link.op)
                link_objs.append(link)
            cg.off.append(len(cg.to))
        cg._links = link_objs
        cg.warnings = list(graph.warnings)
        return cg

    # -- lookups ------------------------------------------------------------

    def find(self, name: str) -> int | None:
        """Compact id of a globally visible node, or None."""
        return self.cid_by_name.get(name)

    def same_shape(self, other: "CompactGraph") -> bool:
        """Whether ``other`` has this graph's nodes and links: every
        node and link array but ``cost`` equal (names, node shapes,
        CSR offsets and targets, link flags, kinds and operators), so
        link ids line up one to one.  Warnings are not compared."""
        return (self.n == other.n and self.names == other.names
                and self.is_domain == other.is_domain
                and self.is_net == other.is_net
                and self.netlike == other.netlike
                and self.private == other.private
                and self.off == other.off and self.to == other.to
                and self.flags == other.flags and self.kind == other.kind
                and self.op == other.op)

    def state_kind(self, cid: int) -> int:
        """The ``SK_*`` code for one node (private wins over shape:
        a private net is still name-shadowable, which is the fact a
        snapshot consumer needs first)."""
        if self.private[cid]:
            return SK_PRIVATE
        if self.is_domain[cid]:
            return SK_DOMAIN
        if self.is_net[cid]:
            return SK_NET
        return SK_HOST

    def state_kinds(self) -> list[int]:
        """The per-node ``SK_*`` table (indexed by compact id) —
        what the snapshot-v2 emitter stamps into ``STAT`` records."""
        return [self.state_kind(cid) for cid in range(self.n)]

    def name_index(self) -> NameIndex:
        """The graph's :class:`NameIndex`, built on first use and kept.

        Names, operators and node shapes are fixed once a graph is
        compiled — a revision that only reprices links (the churn
        path, which rewrites ``cost`` in place) leaves them alone — so
        every table section mapped from this graph reuses one index.
        A graph whose ``names`` list is replaced gets a fresh one.
        """
        index = self._name_index
        if index is None or index.names is not self.names:
            index = self._name_index = NameIndex(self)
        return index

    def node_of(self, cid: int) -> Node:
        """The source :class:`Node` (compiling process only)."""
        if self._nodes is None:
            raise RuntimeError(
                "CompactGraph was unpickled without its source graph")
        return self._nodes[cid]

    def link_obj(self, link_id: int) -> Link:
        """The source :class:`Link` (compiling process only)."""
        if self._links is None:
            raise RuntimeError(
                "CompactGraph was unpickled without its source graph")
        return self._links[link_id]

    @property
    def link_count(self) -> int:
        return len(self.to)

    def links_of(self, cid: int):
        """``range`` over the node's CSR link ids (tests/debugging)."""
        return range(self.off[cid], self.off[cid + 1])

    def __repr__(self) -> str:
        return (f"CompactGraph({self.n} nodes, {len(self.to)} links, "
                f"{'attached' if self.graph is not None else 'detached'})")

    # -- pickling -----------------------------------------------------------

    def __getstate__(self):
        """Serialize arrays only — never the source object graph."""
        return {
            "n": self.n, "names": self.names,
            "is_domain": self.is_domain, "is_net": self.is_net,
            "netlike": self.netlike, "private": self.private,
            "off": self.off, "to": self.to, "cost": self.cost,
            "flags": self.flags, "kind": self.kind, "op": self.op,
            "cid_by_name": self.cid_by_name,
            "warnings": self.warnings,
        }

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self.graph = None
        self._nodes = None
        self._links = None
        self._name_index = None
