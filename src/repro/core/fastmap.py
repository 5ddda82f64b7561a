"""The compiled mapping engine: Dijkstra over flat integer arrays.

:class:`~repro.core.mapper.Mapper` is the *reference* engine — a direct
transliteration of the paper's algorithm over Node/Link objects, with
``(node_index, domain_flag)`` tuples hashed into dicts on every
relaxation.  This module is the *compiled* engine: the same algorithm,
hop for hop and tie for tie, over a :class:`CompactGraph`'s CSR arrays.

Every mapping state is one integer::

    state = compact_id << 1 | domain_flag     (second-best mode)
    state = compact_id                        (tree mode)

and every label attribute lives in a flat list indexed by state — no
tuple allocation, no hashing, no attribute chasing.  The priority queue
comes from :mod:`repro.adt.intheap`: the drain loop drives the packed
lazy variant (:class:`LazyPackedHeap`), whose ordering is provably the
same as the position-indexed :class:`IntHeap` / reference
:class:`~repro.adt.heap.BinaryHeap` — a cost decrease re-pushes the
state under its original FIFO serial, and superseded entries are
skipped on extraction via the ``mapped`` flag.  Heuristic penalty
*predicates* were resolved to per-link flags at compile time; the
static surcharges are even pre-added into a per-link weight table, so
the relaxation loop adds at most two dynamic penalties.

Back-link inference never mutates the source graph (the reference
engine does, and must clean up after itself): invented links go into a
per-run *overlay* adjacency, which makes a compiled mapper safe to run
concurrently with anything else holding the graph.

Label storage is allocated once per mapper and reused across runs
(``run`` resets only the states the previous run touched), so a batch
over thousands of sources pays no per-run allocation beyond the heap's
internal list growth.  The returned :class:`CompactMapResult` is a live
view of that scratch space — it is invalidated by the next ``run`` on
the same mapper; materialize (``to_map_result`` / ``route_table``)
before rerunning.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.adt.intheap import (
    LazyPackedHeap,
    PACK_KEY_SHIFT,
    PACK_STATE_BITS,
    PACK_STATE_MASK,
)
from repro.config import DEFAULT_HEURISTICS, HeuristicConfig
from repro.core.mapper import Label, MapResult, MapStats
from repro.errors import MappingError
from repro.graph.compact import (
    CompactGraph,
    F_LEFT,
    F_NON_GATEWAY,
    F_REAL,
    F_SUBDOMAIN_UP,
    K_ALIAS,
    K_INFERRED,
    K_NET_MEMBER,
)
from repro.graph.node import Link, LinkKind
from repro.parser.ast import Direction


class CompactMapResult:
    """A finished compiled mapping: flat label arrays plus bookkeeping.

    Live view over the mapper's scratch arrays — invalidated by the
    mapper's next ``run``.
    """

    __slots__ = ("cgraph", "source", "root_state", "shift", "touched",
                 "cost", "parent", "link", "has_at", "has_bang",
                 "domain_seen", "mapped", "stats", "unit_costs",
                 "inferred", "_mapper")

    def __init__(self, mapper: "CompactMapper", source: int):
        self._mapper = mapper
        self.cgraph = mapper.cgraph
        self.source = source
        self.shift = mapper.shift
        self.root_state = mapper._root_state
        self.touched = mapper._touched
        self.cost = mapper._lab_cost
        self.parent = mapper._lab_parent
        self.link = mapper._lab_link
        self.has_at = mapper._lab_hasat
        self.has_bang = mapper._lab_hasbang
        self.domain_seen = mapper._lab_domseen
        self.mapped = mapper._lab_mapped
        self.stats = mapper.stats
        self.unit_costs = mapper.unit_costs
        #: invented back links: (owner cid, overlay link id) in order
        self.inferred = mapper._ov_invented

    # -- queries ------------------------------------------------------------

    def states_of(self, cid: int) -> list[int]:
        """Labeled states for a node, domain-free first."""
        base = cid << self.shift
        out = []
        for dflag in range(1 << self.shift):
            if self.cost[base + dflag] >= 0:
                out.append(base + dflag)
        return out

    def best_state(self, cid: int) -> int | None:
        """Cheapest labeled state (ties prefer domain-free)."""
        states = self.states_of(cid)
        if not states:
            return None
        return min(states, key=lambda s: (self.cost[s],
                                          self.domain_seen[s]))

    def cost_of(self, name_or_cid: str | int) -> int | None:
        """Cheapest mapped cost to a node, or None if unreachable."""
        cid = (self.cgraph.find(name_or_cid)
               if isinstance(name_or_cid, str) else name_or_cid)
        if cid is None:
            return None
        state = self.best_state(cid)
        return None if state is None else self.cost[state]

    def unreachable_cids(self) -> list[int]:
        """Compact ids of nodes the mapping never labeled."""
        return [cid for cid in range(self.cgraph.n)
                if not self.states_of(cid)]

    # -- materialization ----------------------------------------------------

    def _link_for(self, link_id: int,
                  overlay_links: dict[int, Link]) -> Link:
        """Real Link for CSR ids; one shared synthetic per overlay id."""
        cg = self.cgraph
        csr = cg.link_count
        if link_id < csr:
            return cg.link_obj(link_id)
        link = overlay_links.get(link_id)
        if link is None:
            mapper = self._mapper
            k = link_id - csr
            link = Link(cg.node_of(mapper._ov_to[k]),
                        mapper._ov_cost[k], mapper._ov_op[k],
                        Direction.LEFT if mapper._ov_flags[k] & F_LEFT
                        else Direction.RIGHT,
                        LinkKind.INFERRED)
            overlay_links[link_id] = link
        return link

    def to_map_result(self) -> MapResult:
        """Materialize reference-engine structures: a full MapResult
        with Label objects wired to the source graph's nodes."""
        cg = self.cgraph
        if cg.graph is None:
            raise MappingError(
                "cannot materialize a MapResult from a detached "
                "CompactGraph (unpickled in a worker)")
        shift = self.shift
        overlay_links: dict[int, Link] = {}
        by_state: dict[int, Label] = {}
        labels: dict[tuple[int, int], Label] = {}
        for state in self.touched:
            cid = state >> shift
            node = cg.node_of(cid)
            link = (None if state == self.root_state
                    else self._link_for(self.link[state], overlay_links))
            label = Label(node, bool(self.domain_seen[state]),
                          self.cost[state], None, link,
                          bool(self.has_at[state]),
                          bool(self.has_bang[state]))
            label.mapped = bool(self.mapped[state])
            by_state[state] = label
            dflag = (state & 1) if shift else 0
            labels[(node.index, dflag)] = label
        for state, label in by_state.items():
            parent_state = self.parent[state]
            if parent_state >= 0:
                label.parent = by_state[parent_state]
        result = MapResult(cg.graph, cg.node_of(self.source), labels,
                           self.stats, unit_costs=self.unit_costs)
        result.inferred = [
            (cg.node_of(owner),
             self._link_for(link_id, overlay_links))
            for owner, link_id in self.inferred]
        return result


class CompactMapper:
    """Run the mapping phase on a compiled graph.

    Differentially tested to produce route tables byte-identical to the
    reference :class:`Mapper` — same costs, same parents, same
    tie-breaks — at a fraction of the interpreter work.
    """

    def __init__(self, cgraph: CompactGraph,
                 heuristics: HeuristicConfig | None = None,
                 unit_costs: bool = False):
        self.cgraph = cgraph
        self.cfg = heuristics if heuristics is not None \
            else DEFAULT_HEURISTICS
        self.cfg.validate()
        self.unit_costs = unit_costs
        self.stats = MapStats()
        self.shift = 1 if self.cfg.second_best else 0
        n_states = cgraph.n << self.shift
        if n_states >= 1 << PACK_STATE_BITS:  # pragma: no cover
            raise MappingError(
                f"graph too large for packed heap states: {n_states}")

        # Per-link weight: base cost with the compile-time member->net
        # penalties (subdomain-up / non-gateway entry) pre-added.
        cfg = self.cfg
        self._weight = [
            ((1 if f & F_REAL else 0) if unit_costs else c)
            + (cfg.subdomain_up_penalty if f & F_SUBDOMAIN_UP else 0)
            + (cfg.gateway_penalty if f & F_NON_GATEWAY else 0)
            for f, c in zip(cgraph.flags, cgraph.cost)]

        # Label scratch, reused across runs (reset via _touched).
        self._lab_cost = [-1] * n_states
        self._lab_parent = [-1] * n_states
        self._lab_link = [-1] * n_states
        self._lab_hasat = [0] * n_states
        self._lab_hasbang = [0] * n_states
        self._lab_domseen = [0] * n_states
        self._lab_mapped = [0] * n_states
        self._lab_serial = [0] * n_states
        self._touched: list[int] = []
        self._heap = LazyPackedHeap()
        self._root_state = -1

        # Per-run overlay: back links invented for unreachable hosts.
        # Link ids >= cgraph.link_count index these arrays.
        self._ov_to: list[int] = []
        self._ov_cost: list[int] = []
        self._ov_weight: list[int] = []
        self._ov_flags: list[int] = []
        self._ov_op: list[str] = []
        self._ov_adj: list[list[int] | None] = [None] * cgraph.n
        self._ov_owners: list[int] = []
        self._ov_invented: list[tuple[int, int]] = []

    # -- public -------------------------------------------------------------

    def run(self, source: str | int,
            stop_at: str | int | None = None) -> CompactMapResult:
        """Map the whole graph from ``source``; mirrors ``Mapper.run``
        including the early-stop single-destination mode."""
        cg = self.cgraph
        if isinstance(source, str):
            cid = cg.find(source)
            if cid is None:
                raise MappingError(f"unknown source host {source!r}")
            source = cid
        if isinstance(stop_at, str):
            stop_at = cg.find(stop_at)  # None (unknown) mirrors Mapper

        self._reset()
        self.stats = MapStats()
        shift = self.shift
        src_domain = cg.is_domain[source]
        root = (source << shift) | (src_domain if shift else 0)
        self._root_state = root
        self._lab_cost[root] = 0
        self._lab_domseen[root] = src_domain
        self._lab_parent[root] = -1
        self._lab_link[root] = -1
        self._lab_hasat[root] = 0
        self._lab_hasbang[root] = 0
        self._lab_serial[root] = self._heap.next_serial()
        self._touched.append(root)
        self._heap.push(root, 0, self._lab_serial[root])
        self.stats.inserts += 1

        stopped = self._drain(stop_at)
        result = CompactMapResult(self, source)
        if stop_at is not None and (stopped or self._labeled(stop_at)):
            return result
        if self.cfg.infer_back_links:
            candidates: list[int] | None = None
            while True:
                invented, candidates = self._invent_back_links(candidates)
                if not invented:
                    break
                self.stats.back_link_rounds += 1
                for owner, link_id in invented:
                    base = owner << shift
                    for dflag in range(1 << shift):
                        state = base + dflag
                        if self._lab_cost[state] >= 0 \
                                and self._lab_mapped[state]:
                            self._relax_one(state, link_id)
                self._drain(stop_at)
        return result

    # -- internals ----------------------------------------------------------

    def _reset(self) -> None:
        lab_cost = self._lab_cost
        lab_mapped = self._lab_mapped
        for state in self._touched:
            lab_cost[state] = -1
            lab_mapped[state] = 0
        self._touched.clear()
        self._heap.clear()
        self._ov_to.clear()
        self._ov_cost.clear()
        self._ov_weight.clear()
        self._ov_flags.clear()
        self._ov_op.clear()
        for cid in self._ov_owners:
            self._ov_adj[cid] = None
        self._ov_owners.clear()
        self._ov_invented.clear()

    def _labeled(self, cid: int) -> bool:
        base = cid << self.shift
        lab_cost = self._lab_cost
        for dflag in range(1 << self.shift):
            if lab_cost[base + dflag] >= 0:
                return True
        return False

    def _drain(self, stop_at: int | None) -> bool:
        """Run the queue dry (or to ``stop_at``).  Returns True when
        the stop target was popped.  This is the hot loop: every array
        is bound to a local, every step is an integer index, and the
        queue is a C-sifted list of packed ints."""
        cg = self.cgraph
        cfg = self.cfg
        shift = self.shift
        sb = shift == 1
        off = cg.off
        to_a = cg.to
        flags_a = cg.flags
        dom_a = cg.is_domain
        weight_a = self._weight
        csr = len(to_a)
        ov_to, ov_weight, ov_flags = self._ov_to, self._ov_weight, \
            self._ov_flags
        ov_adj = self._ov_adj
        lab_cost = self._lab_cost
        lab_parent = self._lab_parent
        lab_link = self._lab_link
        lab_hasat = self._lab_hasat
        lab_hasbang = self._lab_hasbang
        lab_domseen = self._lab_domseen
        lab_mapped = self._lab_mapped
        lab_serial = self._lab_serial
        touched = self._touched
        heap = self._heap
        entries = heap.entries
        serial = heap.serial
        key_shift = PACK_KEY_SHIFT
        state_bits = PACK_STATE_BITS
        state_mask = PACK_STATE_MASK
        domain_relay = cfg.domain_relay_penalty
        mixed = cfg.mixed_penalty

        pops = relaxations = inserts = decr = 0
        mixp = gwp = domp = 0
        stopped = False

        while entries:
            entry = heappop(entries)
            u_state = entry & state_mask
            if lab_mapped[u_state]:
                continue  # superseded by an earlier, cheaper entry
            lab_mapped[u_state] = 1
            u_cost = entry >> key_shift
            pops += 1
            u = u_state >> shift
            if u == stop_at:
                stopped = True
                break
            u_hasat = lab_hasat[u_state]
            u_hasbang = lab_hasbang[u_state]
            u_domseen = lab_domseen[u_state]
            start = off[u]
            end = off[u + 1]
            extra_ids = ov_adj[u]
            for j in (range(start, end) if extra_ids is None
                      else [*range(start, end), *extra_ids]):
                relaxations += 1
                if j < csr:
                    f = flags_a[j]
                    w = weight_a[j]
                    v = to_a[j]
                else:
                    k = j - csr
                    f = ov_flags[k]
                    w = ov_weight[k]
                    v = ov_to[k]
                if f & 8:  # F_NON_GATEWAY, pre-added to the weight
                    gwp += 1
                hasat = u_hasat
                hasbang = u_hasbang
                if f & 1:  # F_REAL
                    if u_domseen:
                        w += domain_relay
                        domp += 1
                    if f & 2:  # F_LEFT
                        if hasat:
                            w += mixed
                            mixp += 1
                        hasbang = 1
                    else:
                        hasat = 1
                domseen = u_domseen | dom_a[v]
                v_state = (v << 1) | domseen if sb else v
                new_cost = u_cost + w
                c = lab_cost[v_state]
                if c < 0:
                    lab_cost[v_state] = new_cost
                    lab_parent[v_state] = u_state
                    lab_link[v_state] = j
                    lab_hasat[v_state] = hasat
                    lab_hasbang[v_state] = hasbang
                    lab_domseen[v_state] = domseen
                    lab_serial[v_state] = serial
                    touched.append(v_state)
                    heappush(entries,
                             (new_cost << key_shift)
                             | (serial << state_bits) | v_state)
                    serial += 1
                    inserts += 1
                elif lab_mapped[v_state] or c <= new_cost:
                    pass
                else:
                    lab_cost[v_state] = new_cost
                    lab_parent[v_state] = u_state
                    lab_link[v_state] = j
                    lab_hasat[v_state] = hasat
                    lab_hasbang[v_state] = hasbang
                    lab_domseen[v_state] = domseen
                    # Re-push under the original serial: identical
                    # ordering to a true decrease-key.
                    heappush(entries,
                             (new_cost << key_shift)
                             | (lab_serial[v_state] << state_bits)
                             | v_state)
                    decr += 1

        heap.serial = serial
        stats = self.stats
        stats.pops += pops
        stats.relaxations += relaxations
        stats.inserts += inserts
        stats.decrease_keys += decr
        stats.mixed_penalties += mixp
        stats.gateway_penalties += gwp
        stats.domain_penalties += domp
        return stopped

    def _relax_one(self, u_state: int, j: int) -> None:
        """Cold-path relaxation (back-link continuation); must agree
        with the inlined hot path above."""
        cg = self.cgraph
        cfg = self.cfg
        shift = self.shift
        csr = cg.link_count
        if j < csr:
            f = cg.flags[j]
            w = self._weight[j]
            v = cg.to[j]
        else:
            k = j - csr
            f = self._ov_flags[k]
            w = self._ov_weight[k]
            v = self._ov_to[k]
        self.stats.relaxations += 1
        if f & F_NON_GATEWAY:
            self.stats.gateway_penalties += 1
        u_domseen = self._lab_domseen[u_state]
        hasat = self._lab_hasat[u_state]
        hasbang = self._lab_hasbang[u_state]
        if f & F_REAL:
            if u_domseen:
                w += cfg.domain_relay_penalty
                self.stats.domain_penalties += 1
            if f & F_LEFT:
                if hasat:
                    w += cfg.mixed_penalty
                    self.stats.mixed_penalties += 1
                hasbang = 1
            else:
                hasat = 1
        domseen = u_domseen | cg.is_domain[v]
        v_state = (v << 1) | domseen if shift else v
        new_cost = self._lab_cost[u_state] + w
        c = self._lab_cost[v_state]
        if c < 0:
            self._lab_cost[v_state] = new_cost
            self._lab_parent[v_state] = u_state
            self._lab_link[v_state] = j
            self._lab_hasat[v_state] = hasat
            self._lab_hasbang[v_state] = hasbang
            self._lab_domseen[v_state] = domseen
            self._lab_serial[v_state] = self._heap.next_serial()
            self._touched.append(v_state)
            self._heap.push(v_state, new_cost, self._lab_serial[v_state])
            self.stats.inserts += 1
        elif self._lab_mapped[v_state] or c <= new_cost:
            return
        else:
            self._lab_cost[v_state] = new_cost
            self._lab_parent[v_state] = u_state
            self._lab_link[v_state] = j
            self._lab_hasat[v_state] = hasat
            self._lab_hasbang[v_state] = hasbang
            self._lab_domseen[v_state] = domseen
            self._heap.push(v_state, new_cost, self._lab_serial[v_state])
            self.stats.decrease_keys += 1

    def _invent_back_links(self, candidates: list[int] | None
                           ) -> tuple[list[tuple[int, int]], list[int]]:
        """Invent overlay links from reached neighbors back to each
        unreachable host that declared outbound links; mirrors
        ``Mapper._invent_back_links`` scan order exactly.

        ``candidates`` narrows the scan to nodes known unlabeled after
        the previous round (labels never disappear, so skipping
        already-labeled nodes cannot change the outcome); pass None on
        the first round for a full scan.  Returns the invented
        ``(owner, link id)`` pairs and the next candidate list.
        """
        cg = self.cgraph
        factor = self.cfg.back_link_factor
        csr = cg.link_count
        shift = self.shift
        lab_cost = self._lab_cost
        invented: list[tuple[int, int]] = []
        still_unlabeled: list[int] = []
        if candidates is None:
            candidates = range(cg.n)  # type: ignore[assignment]
        for cid in candidates:
            base = cid << shift
            if lab_cost[base] >= 0 or (shift and lab_cost[base + 1] >= 0):
                continue
            still_unlabeled.append(cid)
            # Unreachable nodes never receive overlay links, so their
            # outbound list is exactly their CSR slice.
            for j in range(cg.off[cid], cg.off[cid + 1]):
                neighbor = cg.to[j]
                nbase = neighbor << shift
                if lab_cost[nbase] < 0 and not (
                        shift and lab_cost[nbase + 1] >= 0):
                    continue
                if self._has_inferred_link(neighbor, cid):
                    continue
                k = len(self._ov_to)
                cost = cg.cost[j] * factor
                self._ov_to.append(cid)
                self._ov_cost.append(cost)
                self._ov_weight.append(1 if self.unit_costs else cost)
                self._ov_flags.append(
                    F_REAL | (cg.flags[j] & F_LEFT))
                self._ov_op.append(cg.op[j])
                link_id = csr + k
                adj = self._ov_adj[neighbor]
                if adj is None:
                    adj = []
                    self._ov_adj[neighbor] = adj
                    self._ov_owners.append(neighbor)
                adj.append(link_id)
                invented.append((neighbor, link_id))
                self.stats.inferred_links += 1
        self._ov_invented.extend(invented)
        return invented, still_unlabeled

    def _has_inferred_link(self, owner: int, target: int) -> bool:
        cg = self.cgraph
        for j in range(cg.off[owner], cg.off[owner + 1]):
            if cg.to[j] == target and cg.kind[j] == K_INFERRED:
                return True
        adj = self._ov_adj[owner]
        if adj:
            csr = cg.link_count
            for link_id in adj:
                if self._ov_to[link_id - csr] == target:
                    return True
        return False


# -- route construction ------------------------------------------------------


def route_labels(result: CompactMapResult, names, ops, overlay_ops,
                 template) -> tuple[list, list]:
    """Route labeling on arrays: the compiled counterpart of
    ``compute_routes``.

    Returns ``(route, display)``, two lists indexed by state (None
    where a state is unlabeled).  ``names`` and ``ops`` are the graph's
    node names and link operators and ``overlay_ops`` the run's
    invented links' operators, all ``str`` for the printer or all
    UTF-8 ``bytes`` for the snapshot writer, with ``template`` the
    root's route (``"%s"`` or ``b"%s"``).  Every text is built from
    them by concatenation and first-``%s`` substitution, which commute
    with UTF-8 encoding, so the bytes form is the str form encoded.  A
    display that is a node's own name is that very ``names`` object.
    """
    cg = result.cgraph
    shift = result.shift
    dom = cg.is_domain
    netlike = cg.netlike
    kind_a = cg.kind
    flags_a = cg.flags
    csr = cg.link_count
    ov_flags = result._mapper._ov_flags
    parent = result.parent
    link = result.link

    size = cg.n << shift
    route: list = [None] * size
    display: list = [None] * size
    entry: list = [None] * size
    root = result.root_state
    if root < 0 or result.cost[root] < 0:
        return route, display
    route[root] = template
    display[root] = names[root >> shift]

    # A state's label derives from its tree parent's, so label each
    # one after its parent: climb to the nearest labeled ancestor,
    # then label back down that chain.
    for state in result.touched:
        if route[state] is not None:
            continue
        chain = [state]
        p = parent[state]
        while route[p] is None:
            chain.append(p)
            p = parent[p]
        while chain:
            child = chain.pop()
            p = parent[child]
            j = link[child]
            if j < csr:
                k = kind_a[j]
                op = ops[j]
                left = flags_a[j] & F_LEFT
            else:
                k = K_INFERRED
                op = overlay_ops[j - csr]
                left = ov_flags[j - csr] & F_LEFT
            v = child >> shift
            if k == K_ALIAS:
                # Zero-cost synonym: same machine, same route.
                display[child] = names[v]
                route[child] = route[p]
                entry[child] = entry[p]
                continue
            u = p >> shift
            if netlike[v]:
                display[child] = (names[v] + display[p]
                                  if dom[v] and dom[u] else names[v])
                route[child] = route[p]
                p_entry = entry[p]
                entry[child] = (p_entry
                                if k == K_NET_MEMBER and p_entry
                                is not None else (op, left))
                continue
            if netlike[u]:
                eop, eleft = entry[p] or (op, left)
                text = names[v] + display[p] if dom[u] else names[v]
            else:
                eop, eleft = op, left
                text = names[v]
            display[child] = text
            route[child] = (route[p].replace(template, text + eop
                                             + template, 1)
                            if eleft else
                            route[p].replace(template, template + eop
                                             + text, 1))
    return route, display


def record_states(result: CompactMapResult
                  ) -> tuple[list[int], list[int], list[int]]:
    """What the route table prints, as ``(best, cids, unreached)``.

    ``best[cid]`` is the node's cheapest labeled state, or -1: strict
    ``<`` on ``(cost, domain_seen)``, so creation order breaks ties
    exactly like the reference printer's dict scan.  ``cids`` are the
    nodes that get a record, in the order their first label was made
    (privates, nets and subdomains, whose route is their parent
    domain's, get none).  ``unreached`` are the unlabeled nodes that
    are neither nets nor domains, in cid order.
    """
    cg = result.cgraph
    shift = result.shift
    cost = result.cost
    domseen = result.domain_seen
    parent = result.parent
    dom = cg.is_domain
    is_net = cg.is_net
    private = cg.private
    best = [-1] * cg.n
    firsts = []
    for state in result.touched:
        cid = state >> shift
        current = best[cid]
        if current < 0:
            best[cid] = state
            firsts.append(cid)
        elif cost[state] < cost[current] or (
                cost[state] == cost[current]
                and domseen[state] < domseen[current]):
            best[cid] = state
    cids = []
    for cid in firsts:
        if private[cid]:
            continue
        if dom[cid]:
            p = parent[best[cid]]
            if p >= 0 and dom[p >> shift]:
                continue  # subdomain: same route as its parent domain
        elif is_net[cid]:
            continue
        cids.append(cid)
    unreached = [cid for cid in range(cg.n)
                 if best[cid] < 0 and not is_net[cid] and not dom[cid]]
    return best, cids, unreached


def _route_records(result: CompactMapResult):
    """The compiled counterpart of ``compute_routes`` +
    ``print_routes`` record selection.

    Returns ``(records, unreachable)`` with records as
    ``(cost, display, route, cid)`` sorted like the reference printer.
    """
    cg = result.cgraph
    route, display = route_labels(result, cg.names, cg.op,
                                  result._mapper._ov_op, "%s")
    best, cids, unreached = record_states(result)
    cost = result.cost
    records = []
    for cid in cids:
        state = best[cid]
        records.append((cost[state], display[state], route[state], cid))
    records.sort(key=lambda r: (r[0], r[1]))
    names = cg.names
    return records, sorted(names[cid] for cid in unreached)


#: Bit layout of the flags byte in a per-state record (and in the
#: snapshot-v2 ``STAT`` entry that persists it).
STATE_F_DOMAIN_CLASS = 1   # second-best domain class (state & 1)
STATE_F_DOMAIN_SEEN = 2    # the label's path traversed a domain
STATE_F_HAS_AT = 4         # ... contains an @-style (RIGHT) real hop
STATE_F_HAS_BANG = 8       # ... contains a !-style (LEFT) real hop


def build_portable_table(result: CompactMapResult):
    """A picklable route table: plain tuples, no graph objects.

    ``(source_name, records, unreachable, warnings)`` — what a worker
    process ships back to the batch coordinator.
    """
    cg = result.cgraph
    records, unreachable = _route_records(result)
    return (cg.names[result.source], records, unreachable,
            list(cg.warnings))


def table_from_portable(cgraph: CompactGraph, portable):
    """Rehydrate a portable table into a :class:`RouteTable` over the
    compiling process's graph objects."""
    from repro.core.printer import RouteTable
    from repro.core.route import RouteRecord

    source, records, unreachable, warnings = portable
    return RouteTable(
        source=source,
        records=[RouteRecord(cost, name, route, cgraph.node_of(cid))
                 for cost, name, route, cid in records],
        unreachable=unreachable,
        warnings=warnings)


def compact_route_table(result: CompactMapResult):
    """Build a reference-equivalent :class:`RouteTable` in-process."""
    return table_from_portable(result.cgraph,
                               build_portable_table(result))


def map_routes(cgraph: CompactGraph, source: str | int,
               heuristics: HeuristicConfig | None = None):
    """One-shot: compile-side mapping + table (the common library call)."""
    mapper = CompactMapper(cgraph, heuristics)
    return compact_route_table(mapper.run(source))
