"""The binary route-snapshot store.

A *snapshot* is one file holding everything the serving tier needs: the
compiled connectivity graph (:class:`~repro.graph.compact.CompactGraph`
flattened section-by-section, not pickled) and one precomputed route
table per eligible source, each in its own contiguous section.  A
reader opens the file and answers lookups by binary search — no parse,
no mapping, no per-line scan:

::

    +--------+---------------+------+----------------------+---------+
    | header | graph section | meta | table sections ...   | index   |
    +--------+---------------+------+----------------------+---------+

* the fixed **header** carries a magic, a format version, a CRC of the
  payload, and (offset, length) pointers to every region;
* the **graph section** is the compact graph's parallel arrays plus a
  deduplicated string pool (names, operators, warnings);
* **meta** records the heuristic configuration the tables were mapped
  with, so an incremental update can reproduce them exactly;
* each **table section** is self-contained: a directory of tagged
  blocks — route records (``RECS``), unreachable hosts (``UNRC``),
  tree links (``TREE``), the mapper's full per-state cost/kind
  records (``STAT``), the section-local string blob (``BLOB``), and
  the compiled suffix-dispatch automaton (``DFSM``, see
  :mod:`repro.service.fsm`), every one required.  The ``STAT`` block
  holds the exact final cost (and state kind, flags, and tree-parent
  link id) for *every* labeled state — nets, domains, and private
  shadows included — which is what lets
  :mod:`repro.service.incremental` run its triangle test on exact
  numbers and federation read exact gateway costs;
* the **source index** maps source names (sorted, binary-searchable)
  to their table sections.

The reader speaks exactly one format, :data:`VERSION`; a file of any
other version is refused, and is rebuilt from its map.

Every encoder here is deterministic — no timestamps, no hash-order
dependence — so rebuilding a snapshot from the same map bytes yields
the same file bytes, and an incremental update can splice *unchanged*
table sections from the old file verbatim while staying byte-identical
to a from-scratch rebuild.
"""

from __future__ import annotations

import copy
import os
import struct
import sys
import zlib
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

try:  # pragma: no cover - exercised by the fallback-path tests
    import mmap as _mmap
except ImportError:  # some minimal builds ship without mmap
    _mmap = None  # type: ignore[assignment]

from repro.config import DEFAULT_HEURISTICS, HeuristicConfig
from repro.core.batch import map_sources
from repro.core.fastmap import (
    STATE_F_DOMAIN_CLASS,
    STATE_F_DOMAIN_SEEN,
    STATE_F_HAS_AT,
    STATE_F_HAS_BANG,
    CompactMapResult,
    record_states,
    route_labels,
)
from repro.errors import PathaliasError, RouteError
from repro.graph.build import Graph
from repro.graph.compact import K_ALIAS, K_NORMAL, CompactGraph
from repro.service.fsm import (
    NAME_F_DOMAIN,
    AutomatonError,
    FlatSuffixAutomaton,
    SuffixAutomaton,
    encode_keys,
)
from repro.service.resolver import (Resolution, SuffixResolver,
                                    relative_resolution)

MAGIC = b"PATHSNP1"

#: The one snapshot format this store writes and reads.
VERSION = 2

#: The tagged blocks a table section is made of, in emission order;
#: the reader requires every one.  ``docs/snapshot-format.md`` must
#: document exactly these tags — ``tools/check_docs.py`` enforces it.
TABLE_SECTION_TAGS = ("RECS", "UNRC", "TREE", "STAT", "BLOB", "DFSM")

#: header flag bits
FLAG_SECOND_BEST = 1
FLAG_CASE_FOLD = 2

#: magic, version, flags, source_count, crc32, then (offset, length)
#: for the graph, meta, index and tables regions.
_HEADER = struct.Struct("<8sIIII8Q")

#: (offset, length) reference into a section-local string blob.
_REF = struct.Struct("<II")

#: one route record: cost, name ref, route ref.
_RECORD = struct.Struct("<qIIII")

#: a route record's leading cost alone.
_COST = struct.Struct("<q")

#: a route record's name ref alone (cost and route ref skipped).
_RECORD_NAME = struct.Struct("<8xII8x")

#: the byte offsets of a route record's name ref.
_RECORD_NAME_BYTES = range(8, 16)

#: one tree-link pair: from ref, to ref.
_PAIR = struct.Struct("<IIII")

#: one per-state record: cid, cost, tree-parent link id, flags
#: (``STATE_F_*``), state kind (``SK_*``).
_STATE = struct.Struct("<IqiBB")

#: a per-state record's leading cid alone (the point queries' key).
_STATE_CID = struct.Struct("<I")

#: the byte offsets of a per-state record's fields but its cost: cid,
#: tree-parent link id, flags and kind.
_STATE_UNPRICED = (*range(0, 4), *range(12, 18))

#: one tag-directory entry: 4-byte ASCII tag, block length.
_TAG = struct.Struct("<4sI")

#: one source-index entry: name ref (index blob), absolute table
#: offset, table length.
_INDEX_ENTRY = struct.Struct("<IIQI")

#: graph section prefix: node count, link count, warning count.
_GRAPH_HEADER = struct.Struct("<III")

#: meta section: the HeuristicConfig fields the mapping ran with.
_META = struct.Struct("<qqqqqBB")

#: The costs a route record, a state record or a graph link can store:
#: their cost fields are signed 64-bit.
_COST_RANGE = range(-(1 << 63), 1 << 63)

#: Lookups per ``DFSM`` state at which inflating a table's block into
#: the in-memory trie pays for itself.  A table answers lookups by
#: walking the stored block in place, and promotes on lookup number
#: ``ceil(state count x BREAK_EVEN_PER_STATE)``: it inflates the block,
#: which costs time linear in the states and saves the few
#: microseconds an in-place match costs over a trie match, and decodes
#: its ``STAT`` block into a map, so a hot table prices a gateway with
#: one dict get instead of a point lookup.  ``benchmarks/bench_service.py
#: --only dispatch`` measures the break-even at each size
#: (``break_even.per_state``: 0.15-0.27 from 1k to 100k keys on a
#: 2-vCPU x86-64 host).
BREAK_EVEN_PER_STATE = 0.2


class SnapshotError(PathaliasError):
    """A snapshot file is missing, malformed, corrupt, or truncated."""


class UnknownSourceError(SnapshotError):
    """The snapshot (or federation) holds no table for a source."""


def _too_wide(what: str, cost: int) -> SnapshotError:
    """The error for a cost outside :data:`_COST_RANGE`."""
    return SnapshotError(f"{what} costs {cost}, which does not fit a "
                         f"snapshot's signed 64-bit cost field")


class _StringPool:
    """Deduplicating string blob; add() returns a stable (off, len)."""

    def __init__(self) -> None:
        self._blob = bytearray()
        self._seen: dict[str, tuple[int, int]] = {}

    def add(self, text: str) -> tuple[int, int]:
        """Intern ``text``; returns its stable ``(offset, length)``."""
        ref = self._seen.get(text)
        if ref is None:
            raw = text.encode("utf-8")
            ref = (len(self._blob), len(raw))
            self._blob += raw
            self._seen[text] = ref
        return ref

    def getvalue(self) -> bytes:
        """The accumulated blob bytes."""
        return bytes(self._blob)


# -- section encoders ---------------------------------------------------------


def encode_graph_section(
        cg: CompactGraph,
        previous: tuple[bytes, CompactGraph] | None = None) -> bytes:
    """Flatten a compact graph's arrays into one deterministic blob.

    ``previous`` is an old graph section and the graph decoded from
    it.  When ``cg`` differs from that graph in link costs alone
    (:meth:`~repro.graph.compact.CompactGraph.same_shape`, and equal
    warnings), the old bytes are kept and only the cost array is
    packed into them, at its offset; otherwise the section is encoded
    whole.  Both give the same bytes."""
    n, m = cg.n, cg.link_count
    if previous is not None:
        section, old = previous
        if old.same_shape(cg) and old.warnings == cg.warnings:
            # the cost array follows the header, the four node flag
            # arrays, the CSR offsets and the link targets
            start = _GRAPH_HEADER.size + 4 * n + 4 * (n + 1) + 4 * m
            return b"".join((section[:start],
                             struct.pack(f"<{m}q", *cg.cost),
                             section[start + 8 * m:]))
    pool = _StringPool()
    name_refs = [pool.add(name) for name in cg.names]
    op_refs = [pool.add(op) for op in cg.op]
    warning_refs = [pool.add(w) for w in cg.warnings]
    blob = pool.getvalue()
    parts = [
        _GRAPH_HEADER.pack(n, m, len(cg.warnings)),
        bytes(cg.is_domain), bytes(cg.is_net),
        bytes(cg.netlike), bytes(cg.private),
        struct.pack(f"<{n + 1}I", *cg.off),
        struct.pack(f"<{m}I", *cg.to),
        struct.pack(f"<{m}q", *cg.cost),
        bytes(cg.flags), bytes(cg.kind),
        b"".join(_REF.pack(*ref) for ref in name_refs),
        b"".join(_REF.pack(*ref) for ref in op_refs),
        b"".join(_REF.pack(*ref) for ref in warning_refs),
        struct.pack("<I", len(blob)),
        blob,
    ]
    return b"".join(parts)


def decode_graph_section(data: bytes) -> CompactGraph:
    """Rebuild a (detached) :class:`CompactGraph` from its section."""
    try:
        n, m, wc = _GRAPH_HEADER.unpack_from(data, 0)
        pos = _GRAPH_HEADER.size
        cg = CompactGraph()
        cg.n = n
        for attr in ("is_domain", "is_net", "netlike", "private"):
            setattr(cg, attr, list(data[pos:pos + n]))
            pos += n
        cg.off = list(struct.unpack_from(f"<{n + 1}I", data, pos))
        pos += 4 * (n + 1)
        cg.to = list(struct.unpack_from(f"<{m}I", data, pos))
        pos += 4 * m
        cg.cost = list(struct.unpack_from(f"<{m}q", data, pos))
        pos += 8 * m
        cg.flags = list(data[pos:pos + m])
        pos += m
        cg.kind = list(data[pos:pos + m])
        pos += m
        if len(cg.kind) != m or len(cg.private) != n:
            raise SnapshotError("graph section arrays truncated")
        refs = list(struct.iter_unpack(
            "<II", data[pos:pos + _REF.size * (n + m + wc)]))
        pos += _REF.size * (n + m + wc)
        (blob_len,) = struct.unpack_from("<I", data, pos)
        pos += 4
        blob = data[pos:pos + blob_len]
        if len(blob) != blob_len:
            raise SnapshotError("graph section string blob truncated")

        def text(ref: tuple[int, int]) -> str:
            off, length = ref
            return blob[off:off + length].decode("utf-8")

        cg.names = [text(r) for r in refs[:n]]
        cg.op = [text(r) for r in refs[n:n + m]]
        cg.warnings = [text(r) for r in refs[n + m:]]
        for cid, name in enumerate(cg.names):
            if not cg.private[cid]:
                cg.cid_by_name[name] = cid
        return cg
    except struct.error as exc:
        raise SnapshotError(f"graph section malformed: {exc}") from None


def encode_meta_section(cfg: HeuristicConfig) -> bytes:
    """Pack the heuristic configuration the tables were mapped with."""
    return _META.pack(cfg.mixed_penalty, cfg.gateway_penalty,
                      cfg.domain_relay_penalty,
                      cfg.subdomain_up_penalty, cfg.back_link_factor,
                      1 if cfg.infer_back_links else 0,
                      1 if cfg.second_best else 0)


def decode_meta_section(data: bytes) -> HeuristicConfig:
    """Unpack a meta section back into a :class:`HeuristicConfig`."""
    try:
        (mixed, gateway, relay, subup, factor,
         infer, second) = _META.unpack_from(data, 0)
    except struct.error as exc:
        raise SnapshotError(f"meta section malformed: {exc}") from None
    return HeuristicConfig(
        mixed_penalty=mixed, gateway_penalty=gateway,
        domain_relay_penalty=relay, subdomain_up_penalty=subup,
        back_link_factor=factor, infer_back_links=bool(infer),
        second_best=bool(second))


def _record_names(recs, blob: bytes) -> list[bytes]:
    """The names of a ``RECS`` block's records as UTF-8 bytes, in
    record order; ``blob`` is the section's ``BLOB`` block."""
    return [blob[noff:noff + nlen]
            for noff, nlen in _RECORD_NAME.iter_unpack(recs)]


def table_blocks(result: CompactMapResult,
                 previous: SnapshotTable | None = None
                 ) -> tuple[bytes, bytes, bytes, bytes, bytes]:
    """One source's ``RECS``, ``UNRC``, ``TREE``, ``STAT`` and ``BLOB``
    blocks, written straight from a finished mapping's arrays.

    * ``RECS``: one record per route the printer would print, in UTF-8
      byte order of its name (equal names: the cheaper first, then the
      one the mapping labeled first);
    * ``UNRC``: the unreached hosts' names, in byte order;
    * ``TREE``: the distinct ``(from, to)`` name pairs of every NORMAL
      link this mapping leaned on — the shortest-path-tree edges, plus
      the forward links that seeded invented back links (their cost
      scales the invented link, so a change to either can change this
      source's routes) — in byte order;
    * ``STAT``: every labeled state's record, in ``(cid, domain
      class)`` order (see :meth:`SnapshotTable.state_records`);
    * ``BLOB``: every string above, interned in first-use order:
      record name, record route, unreachable names, tree-pair names.

    Names, ranks and state kinds come from the graph's
    :meth:`~repro.graph.compact.CompactGraph.name_index`, built once
    per graph, so the block orders are integer sorts; routes are built
    as bytes.  A cost the signed 64-bit fields cannot hold raises
    :class:`SnapshotError` naming the source, the name and the cost.

    ``previous`` is this source's table in a snapshot of a graph that
    differs from this one in link costs alone (what the incremental
    updater remaps from).  When the mapping's tree did not move, its
    blocks are that table's re-priced (:func:`_repriced_blocks`), and
    byte for byte what the writer would write.
    """
    states = sorted(result.touched)
    try:
        stat = _stat_block(result, states)
    except struct.error:
        stat = None  # a state costs too much: the writer names it
    if previous is not None and stat is not None and not result.shift:
        blocks = _repriced_blocks(result, previous, states, stat)
        if blocks is not None:
            return blocks
    cg = result.cgraph
    index = cg.name_index()
    utf8 = index.utf8
    rank = index.rank
    shift = result.shift
    cost = result.cost
    link = result.link
    mapper = result._mapper
    route, display = route_labels(
        result, utf8, index.ops,
        [op.encode("utf-8") for op in mapper._ov_op], b"%s")
    best, cids, unreached = record_states(result)
    for cid in cids:
        if display[best[cid]] is not utf8[cid]:
            # a domain-qualified display is no graph name, so no rank
            cids.sort(key=lambda c: (display[best[c]], cost[best[c]]))
            break
    else:
        # public names are unique, so their ranks are too
        cids.sort(key=rank.__getitem__)
    printed = [best[cid] for cid in cids]  # RECS order
    unreached.sort(key=rank.__getitem__)

    # a (from, to) pair as one integer, rank(from) * n + rank(to)
    n = cg.n
    csr = cg.link_count
    kind = cg.kind
    parent = result.parent
    pairs = {rank[parent[state] >> shift] * n + rank[state >> shift]
             for state in result.touched
             if 0 <= link[state] < csr and kind[link[state]] == K_NORMAL}
    for owner, link_id in result.inferred:
        # The invented link owner->target was derived from the CSR
        # link target->owner; record that *forward* pair.
        pairs.add(rank[mapper._ov_to[link_id - csr]] * n + rank[owner])

    # Every string the blocks refer to, in first-use order.
    texts = []
    for state in printed:
        texts += (display[state], route[state])
    texts += [utf8[cid] for cid in unreached]
    by_rank = index.by_rank
    for key in sorted(pairs):
        a, b = divmod(key, n)
        texts += (by_rank[a], by_rank[b])
    seen: dict[bytes, bytes] = {}  # string -> its packed _REF
    blob = []
    size = 0
    refs = []
    pack_ref = _REF.pack
    for text in texts:
        ref = seen.get(text)
        if ref is None:
            ref = seen[text] = pack_ref(size, len(text))
            size += len(text)
            blob.append(text)
        refs.append(ref)
    names_end = 2 * len(printed)
    unreached_end = names_end + len(unreached)
    # one iterator zipped twice: each record's name ref, then route ref
    record_refs = iter(refs[:names_end])
    try:
        recs = b"".join(chain.from_iterable(zip(
            map(_COST.pack, map(cost.__getitem__, printed)),
            record_refs, record_refs)))
        if stat is None:
            stat = _stat_block(result, states)
    except struct.error:
        # name the route the printer lists first: least (cost, name)
        source = cg.names[result.source]
        wide = min(((cost[state], display[state]) for state in printed
                    if cost[state] not in _COST_RANGE), default=None)
        if wide is not None:
            raise _too_wide(f"source {source!r}: route to "
                            f"{wide[1].decode('utf-8')!r}",
                            wide[0]) from None
        for state in states:
            if cost[state] not in _COST_RANGE:
                raise _too_wide(f"source {source!r}: "
                                f"{cg.names[state >> shift]!r}",
                                cost[state]) from None
        raise
    return (recs, b"".join(refs[names_end:unreached_end]),
            b"".join(refs[unreached_end:]), stat, b"".join(blob))


def _stat_block(result: CompactMapResult, states: list[int]) -> bytes:
    """The ``STAT`` block of a mapping whose touched states, sorted,
    are ``states``; :class:`struct.error` for a cost too wide."""
    shift = result.shift
    cids_of = [state >> shift for state in states] if shift else states
    domseen = result.domain_seen
    has_at = result.has_at
    has_bang = result.has_bang
    dmask = (1 << shift) - 1
    # the label flags are 0 or 1, so each multiplies in its bit
    flags = [(state & dmask)
             | domseen[state] * STATE_F_DOMAIN_SEEN
             | has_at[state] * STATE_F_HAS_AT
             | has_bang[state] * STATE_F_HAS_BANG for state in states]
    return b"".join(map(_STATE.pack, cids_of,
                        map(result.cost.__getitem__, states),
                        map(result.link.__getitem__, states), flags,
                        map(result.cgraph.name_index().kinds.__getitem__,
                            cids_of)))


def _repriced_blocks(result: CompactMapResult, previous: SnapshotTable,
                     states: list[int], stat: bytes):
    """``previous``'s blocks with this tree-mode mapping's costs, or
    None when they might not be what the writer would write.

    They are when the new ``STAT`` records equal the old ones in every
    field but cost (same states, tree-parent link ids, flags and
    kinds) and no printed host is reached from a domain over a
    non-alias link.  On a graph that differs from the old one in link
    costs alone, reachability and the invented back links (owner,
    target, operator and overlay id) do not depend on cost, so a link
    id fixes a state's tree parent, and equal link ids mean equal
    routes, displays, printed and unreached sets and tree pairs.  With
    every printed display its node's own name, ``RECS`` is in rank
    order, so the strings are interned in the same order: ``UNRC``,
    ``TREE`` and ``BLOB`` are the old blocks, and ``RECS`` is the old
    name and route refs with the new costs.
    """
    recs, unrc, tree, old_stat, blob = previous.blocks()
    if len(old_stat) != len(stat) or any(
            stat[byte::_STATE.size] != old_stat[byte::_STATE.size]
            for byte in _STATE_UNPRICED):
        return None
    cg = result.cgraph
    dom = cg.is_domain
    is_net = cg.is_net
    private = cg.private
    kind = cg.kind
    csr = cg.link_count
    parent = result.parent
    link = result.link
    printed = []  # record_states' choice: in tree mode a state is a cid
    for cid in states:
        if private[cid]:
            continue
        p = parent[cid]
        if dom[cid]:
            if p >= 0 and dom[p]:
                continue  # subdomain: same route as its parent domain
        elif is_net[cid]:
            continue
        elif p >= 0 and dom[p] and not (link[cid] < csr
                                        and kind[link[cid]] == K_ALIAS):
            return None  # displayed under a domain-qualified name
        printed.append(cid)
    size = _RECORD.size
    if len(recs) != len(printed) * size:
        return None
    printed.sort(key=cg.name_index().rank.__getitem__)
    # the costs fit: STAT holds every one of them
    costs = struct.pack(f"<{len(printed)}q",
                        *map(result.cost.__getitem__, printed))
    recs = bytearray(recs)
    for byte in range(_COST.size):  # each record's leading cost field
        recs[byte::size] = costs[byte::_COST.size]
    return bytes(recs), unrc, tree, stat, blob


def _same_name_refs(recs, old_recs) -> bool:
    """Whether two ``RECS`` blocks hold the same name refs, record by
    record (costs and route refs aside)."""
    size = _RECORD.size
    return len(recs) == len(old_recs) and all(
        recs[byte::size] == old_recs[byte::size]
        for byte in _RECORD_NAME_BYTES)


def encode_table_section(blocks,
                         previous: SnapshotTable | None = None) -> bytes:
    """Complete one source's table section from its
    :func:`table_blocks`: the tag directory, those five blocks, and
    the ``DFSM`` block.

    ``DFSM`` is the record names compiled into a serialized suffix
    automaton (:mod:`repro.service.fsm`), built here once so every
    later open maps it zero-copy.  This is where the choice to copy it
    is made: ``previous`` is the source's old table when the
    incremental updater remaps it, and when that table's record names
    are byte-equal to this section's its ``DFSM`` block is copied
    verbatim — the encoding is a pure function of the sorted name
    sequence, so a copied block is byte-identical to a rebuilt one
    (and asserted so in the tests).  The names are compared as bytes
    first: an equal ``BLOB`` and equal ``RECS`` name refs (every
    re-priced section) mean equal names, and only otherwise are the
    two name lists built and compared.  When they differ,
    :func:`~repro.service.fsm.encode_keys` builds the block.
    """
    recs, _, _, _, blob = blocks
    dfsm = None
    if previous is not None:
        old_recs, _, _, _, old_blob = previous.blocks()
        if blob == old_blob and _same_name_refs(recs, old_recs):
            dfsm = previous.dfsm_bytes()
    if dfsm is None:
        names = _record_names(recs, blob)
        if previous is not None and previous.record_names() == names:
            dfsm = previous.dfsm_bytes()
        else:
            dfsm = encode_keys([name.decode("utf-8") for name in names])
    blocks = (*blocks, dfsm)
    parts = [struct.pack("<I", len(TABLE_SECTION_TAGS))]
    parts += [_TAG.pack(tag.encode("ascii"), len(block))
              for tag, block in zip(TABLE_SECTION_TAGS, blocks)]
    parts += blocks
    return b"".join(parts)


class SnapshotTable(SuffixResolver):
    """One source's route table, answered straight off section bytes.

    ``data`` may be plain ``bytes`` *or* a :class:`memoryview` slicing
    a mapped snapshot (:class:`SnapshotReader` hands out the latter):
    every access below is ``unpack_from``/slice-based, so a mapped
    table is searched **in place** — no section copy, no up-front
    decode — and only the few bytes of an accessed record's name and
    route are ever materialized.  A table holding a mapped view keeps
    the underlying map alive on its own (the view carries a buffer
    export), so it stays valid even after its reader is closed or
    swap-replaced.

    Destination lookup is a binary search over the fixed-width record
    entries, comparing UTF-8 name bytes in the section's string blob —
    the "format appropriate for rapid database retrieval" the paper
    leaves as an exercise.  The suffix-search surface
    (:meth:`resolve_with_cost` and the inherited ``resolve`` /
    ``resolve_bang``) dispatches through the section's compiled suffix
    automaton (the ``DFSM`` block): a table answers its first lookups
    by walking the stored block in place, and *promotes* only on the
    lookup that makes it pay (see :data:`BREAK_EVEN_PER_STATE`):
    it inflates the block into the in-memory trie and decodes its
    ``STAT`` block into one ``{cid: cost}`` map.  Both forms are
    byte-identical to the dict walk in
    :class:`~repro.service.resolver.SuffixResolver`, which
    :func:`~repro.service.resolver.resolve_with_cost_dict` runs over
    the inherited :meth:`lookup` as the differential oracle.

    The mapper's per-state records are exposed through
    :meth:`state_records` and :meth:`node_costs`, and per node through
    :meth:`state_cost_of` (a point lookup until the table promotes,
    then a map get) and :meth:`state_cost_at` (:meth:`state_cost_map`
    is the tests' reference); the tree links through the point query
    :meth:`has_tree_link`.
    """

    __slots__ = ("source", "_data",
                 "_rc", "_uc", "_tc", "_sc",
                 "_records_off", "_unreach_off", "_pairs_off",
                 "_states_off", "_blob_off", "_blob_len", "_file_off",
                 "_dfsm_off", "_dfsm_len", "_flat", "_auto", "_walks",
                 "_costs")

    def __init__(self, source: str, data,
                 file_offset: int | None = None):
        """Parse the section's tag directory; every block in
        :data:`TABLE_SECTION_TAGS` must be present.  ``file_offset``
        (when known) is the section's absolute offset in the snapshot
        file, so malformed-section errors can name where in the file
        the damage sits."""
        self.source = source
        self._data = data
        self._file_off = file_offset
        self._flat: FlatSuffixAutomaton | None = None
        self._auto: SuffixAutomaton | None = None
        self._walks = 0  # lookups answered in place
        self._costs: dict[int, int] | None = None  # built on promotion
        try:
            (tag_count,) = struct.unpack_from("<I", data, 0)
            if tag_count > len(data):  # absurd count == corruption
                raise SnapshotError(
                    f"table section for {source!r}{self._where()} "
                    f"malformed: {tag_count} tagged blocks")
            pos = 4
            directory = []
            for _ in range(tag_count):
                tag, length = _TAG.unpack_from(data, pos)
                pos += _TAG.size
                directory.append((bytes(tag), length))
        except struct.error as exc:
            raise SnapshotError(
                f"table section for {source!r}{self._where()} "
                f"malformed: {exc}") from None
        blocks = {}
        for tag, length in directory:
            blocks[tag] = (pos, length)
            pos += length
        if pos > len(data):
            raise SnapshotError(
                f"table section for {source!r}{self._where()} "
                f"truncated (blocks end at {pos}, section is "
                f"{len(data)} bytes)")
        for tag, size in ((b"RECS", _RECORD.size), (b"UNRC", _REF.size),
                          (b"TREE", _PAIR.size), (b"STAT", _STATE.size),
                          (b"BLOB", 1), (b"DFSM", 1)):
            if tag not in blocks:
                raise SnapshotError(
                    f"table section for {source!r} lacks the "
                    f"{tag.decode()} block")
            off, length = blocks[tag]
            if size > 1 and length % size:
                raise SnapshotError(
                    f"table section for {source!r}: {tag.decode()} "
                    f"block length {length} is not a whole number of "
                    f"records")
        self._records_off, length = blocks[b"RECS"]
        self._rc = length // _RECORD.size
        self._unreach_off, length = blocks[b"UNRC"]
        self._uc = length // _REF.size
        self._pairs_off, length = blocks[b"TREE"]
        self._tc = length // _PAIR.size
        self._states_off, length = blocks[b"STAT"]
        self._sc = length // _STATE.size
        self._blob_off, self._blob_len = blocks[b"BLOB"]
        self._dfsm_off, self._dfsm_len = blocks[b"DFSM"]

    def _where(self) -> str:
        """``" at file offset N"`` when the section offset is known."""
        if self._file_off is None:
            return ""
        return f" at file offset {self._file_off}"

    def block_map(self) -> list[tuple[str, int, int]]:
        """The section's tagged blocks as ``(tag, offset, length)`` in
        directory order, offsets relative to the section start.  What
        ``pathalias inspect`` prints and the packaging CI job asserts
        over."""
        data = self._data
        (tag_count,) = struct.unpack_from("<I", data, 0)
        pos = 4
        directory = []
        for _ in range(tag_count):
            tag, length = _TAG.unpack_from(data, pos)
            pos += _TAG.size
            directory.append((bytes(tag).decode("ascii"), length))
        out = []
        for tag, length in directory:
            out.append((tag, pos, length))
            pos += length
        return out

    def __len__(self) -> int:
        return self._rc

    def _text(self, off: int, length: int) -> str:
        base = self._blob_off + off
        # str(buf, "utf-8") decodes bytes and memoryview alike
        try:
            return str(self._data[base:base + length], "utf-8")
        except UnicodeDecodeError:
            raise self._corrupt(
                f"BLOB text at offset {off} is not UTF-8") from None

    def _record(self, i: int):
        return _RECORD.unpack_from(self._data,
                                   self._records_off + i * _RECORD.size)

    def lookup(self, name: str) -> tuple[int, str] | None:
        """``(cost, route)`` for an exact destination name, or None.

        A binary search whose probes read each record's name ref alone;
        the one matching record is unpacked whole at the end."""
        key = name.encode("utf-8")
        data = self._data
        blob_off = self._blob_off
        recs = self._records_off
        size = _RECORD.size
        unpack = _RECORD_NAME.unpack_from
        lo, hi = 0, self._rc
        while lo < hi:
            mid = (lo + hi) // 2
            noff, nlen = unpack(data, recs + mid * size)
            base = blob_off + noff
            # memoryview has no ordering compare; bytes() copies only
            # the one name being compared, not the section
            if bytes(data[base:base + nlen]) < key:
                lo = mid + 1
            else:
                hi = mid
        if lo < self._rc:
            noff, nlen = unpack(data, recs + lo * size)
            base = blob_off + noff
            if data[base:base + nlen] == key:
                cost, _, _, roff, rlen = self._record(lo)
                return cost, self._text(roff, rlen)
        return None

    def route(self, name: str) -> str | None:
        """The route template for an exact name, or None."""
        hit = self.lookup(name)
        return None if hit is None else hit[1]

    def cost(self, name: str) -> int | None:
        """The mapped cost for an exact name, or None."""
        hit = self.lookup(name)
        return None if hit is None else hit[0]

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None

    def records(self):
        """Iterate ``(cost, name, route)`` in name order."""
        for i in range(self._rc):
            cost, noff, nlen, roff, rlen = self._record(i)
            yield cost, self._text(noff, nlen), self._text(roff, rlen)

    def record_names(self) -> list[bytes]:
        """The record names alone, as UTF-8 bytes in (sorted) record
        order — the key sequence the section's ``DFSM`` block is
        compiled from, and what :func:`encode_table_section` compares
        to decide whether a stored block can be copied verbatim when
        the new section's ``BLOB`` or name refs differ from this
        one's."""
        data = self._data
        start = self._records_off
        blob_off = self._blob_off
        return _record_names(
            data[start:start + self._rc * _RECORD.size],
            bytes(data[blob_off:blob_off + self._blob_len]))

    def blocks(self) -> tuple[bytes, bytes, bytes, bytes, bytes]:
        """The ``RECS``, ``UNRC``, ``TREE``, ``STAT`` and ``BLOB``
        blocks as ``bytes``, in :func:`table_blocks` order: what a
        re-priced section keeps, and what :func:`encode_table_section`
        compares names by."""
        data = self._data
        return tuple(bytes(data[off:off + length]) for off, length in (
            (self._records_off, self._rc * _RECORD.size),
            (self._unreach_off, self._uc * _REF.size),
            (self._pairs_off, self._tc * _PAIR.size),
            (self._states_off, self._sc * _STATE.size),
            (self._blob_off, self._blob_len)))

    # -- compiled suffix dispatch ---------------------------------------------

    def dfsm_bytes(self) -> bytes:
        """The raw stored ``DFSM`` block as real ``bytes`` (splice
        export, like :meth:`SnapshotReader.table_bytes`)."""
        return bytes(self._data[self._dfsm_off:
                                self._dfsm_off + self._dfsm_len])

    def flat_automaton(self) -> FlatSuffixAutomaton:
        """The in-place matcher over the stored ``DFSM`` block
        (cached): what a table answers its first lookups with, and
        what :meth:`automaton` inflates."""
        if self._flat is None:
            try:
                self._flat = FlatSuffixAutomaton(
                    self._data[self._dfsm_off:
                               self._dfsm_off + self._dfsm_len])
            except AutomatonError as exc:
                raise self._corrupt(exc) from None
        return self._flat

    def _corrupt(self, detail) -> SnapshotError:
        """The section's error for a malformed block, naming the
        source and where the section sits in the file."""
        return SnapshotError(
            f"table section for {self.source!r}{self._where()}: "
            f"{detail}")

    def automaton(self) -> SuffixAutomaton:
        """The section's inflated suffix-dispatch matcher (cached),
        decoded and linked from the mapped ``DFSM`` block in one pass
        — no trie rebuild.  Payloads are record indexes into this
        section's sorted ``RECS`` array.
        """
        if self._auto is None:
            flat = self.flat_automaton()
            try:
                self._auto = flat.inflate()
            except AutomatonError as exc:
                raise self._corrupt(exc) from None
        return self._auto

    def _cold_match(self, target: str):
        """Match ``target`` on a table not yet promoted: in place off
        the stored block, or, on the lookup that reaches the block's
        break-even count, through the trie this inflates (and from then
        on the table prices nodes from :meth:`node_costs`, decoded
        once here)."""
        flat = self.flat_automaton()
        if self._walks + 1 >= flat.state_count * BREAK_EVEN_PER_STATE:
            auto = self.automaton()
            self._costs = self.node_costs()
            return auto.match(target)
        self._walks += 1
        try:
            return flat.match(target)
        except AutomatonError as exc:
            raise self._corrupt(exc) from None

    def resolve_with_cost(self, target: str, user: str = "%s"
                          ) -> tuple[int, Resolution]:
        """Domain-suffix search through the compiled automaton.

        One O(labels) match replaces the dict walk's per-suffix string
        building and probing; the matched record, the cost, the
        gateway-relative argument rule, and the miss error are all
        byte-identical to the dict walk
        (:func:`~repro.service.resolver.resolve_with_cost_dict`,
        continuously asserted by the differential fuzz tests).
        """
        auto = self._auto
        if auto is None:
            idx = self._cold_match(target)
        else:
            idx = auto.match(target)
        if idx is None:
            raise RouteError(f"no route to {target!r}")
        if idx >= self._rc:
            raise self._corrupt(
                f"automaton payload {idx} is past the section's "
                f"{self._rc} records")
        cost, noff, nlen, roff, rlen = self._record(idx)
        return cost, relative_resolution(
            target, self._text(noff, nlen), self._text(roff, rlen), user)

    def unreachable(self) -> list[str]:
        """Host names this source could not reach."""
        out = []
        for i in range(self._uc):
            off, length = _REF.unpack_from(
                self._data, self._unreach_off + i * _REF.size)
            out.append(self._text(off, length))
        return out

    def _tree_pair(self, i: int) -> tuple[bytes, bytes]:
        """The i-th ``TREE`` pair as its two names' UTF-8 bytes."""
        aoff, alen, boff, blen = _PAIR.unpack_from(
            self._data, self._pairs_off + i * _PAIR.size)
        a = self._blob_off + aoff
        b = self._blob_off + boff
        return bytes(self._data[a:a + alen]), bytes(self._data[b:b + blen])

    def has_tree_link(self, from_name: str, to_name: str) -> bool:
        """Whether this source's mapping leaned on the NORMAL link
        ``from_name -> to_name``.

        A binary search over the ``TREE`` pairs, which the writer sorts
        by ``(from, to)``: code-point order on names is UTF-8 byte
        order, so the search compares blob bytes and decodes nothing.
        """
        key = (from_name.encode("utf-8"), to_name.encode("utf-8"))
        lo, hi = 0, self._tc
        while lo < hi:
            mid = (lo + hi) // 2
            if self._tree_pair(mid) < key:
                lo = mid + 1
            else:
                hi = mid
        return lo < self._tc and self._tree_pair(lo) == key

    # -- per-state costs ------------------------------------------------------

    @property
    def state_count(self) -> int:
        """Number of stored per-state records."""
        return self._sc

    def state_records(self):
        """Iterate the stored per-state records in ``(cid, domain
        class)`` order: ``(cid, flags, kind, cost, parent_link)``.

        * ``flags`` packs the ``STATE_F_*`` bits of
          :mod:`repro.core.fastmap`: the second-best domain class that
          identifies the state (always 0 in tree mode) plus the
          label's ``domain_seen`` / ``has_at`` / ``has_bang``;
        * ``kind`` is the node's ``SK_*`` code
          (:meth:`~repro.graph.compact.CompactGraph.state_kinds`);
        * ``cost`` is the final mapped cost;
        * ``parent_link`` is the tree-parent link id: the CSR link the
          label arrived over, ``-1`` for the root, or a run-local
          overlay id (``>= link_count``) for an invented back link.
        """
        for i in range(self._sc):
            cid, cost, parent, flags, kind = _STATE.unpack_from(
                self._data, self._states_off + i * _STATE.size)
            yield cid, flags, kind, cost, parent

    def _state_block(self):
        """The ``STAT`` block as a buffer slice."""
        start = self._states_off
        return self._data[start:start + self._sc * _STATE.size]

    def state_cost_map(self) -> dict[tuple[int, int], int]:
        """``{(cid, domain class): final cost}`` for every stored
        state, decoded whole: the reference the point queries are
        tested against.  The domain class is the second-best state
        identity bit — always 0 in tree-mode snapshots — so the
        incremental updater's triangle test can address states exactly
        as the mapper's relaxation does."""
        return {(cid, flags & STATE_F_DOMAIN_CLASS): cost
                for cid, cost, _, flags, _
                in _STATE.iter_unpack(self._state_block())}

    def node_costs(self) -> dict[int, int]:
        """``{cid: cheapest stored state cost}`` for every reached
        node, in one pass over the ``STAT`` block (what ``COSTS``
        without names answers from)."""
        costs: dict[int, int] = {}
        for cid, cost, _, _, _ in _STATE.iter_unpack(self._state_block()):
            if cid not in costs or cost < costs[cid]:
                costs[cid] = cost
        return costs

    def _states_from(self, cid: int):
        """Iterate ``(cid, domain class, cost)`` over the ``STAT``
        records of ``cid`` and on, from the first one whose cid is not
        below ``cid``: a binary search over the block (sorted by
        ``(cid, domain class)``) that reads one field per probe and
        decodes nothing else."""
        data = self._data
        base = self._states_off
        size = _STATE.size
        unpack = _STATE_CID.unpack_from
        lo, hi = 0, self._sc
        while lo < hi:
            mid = (lo + hi) // 2
            if unpack(data, base + mid * size)[0] < cid:
                lo = mid + 1
            else:
                hi = mid
        for i in range(lo, self._sc):
            found, cost, _, flags, _ = _STATE.unpack_from(
                data, base + i * size)
            yield found, flags & STATE_F_DOMAIN_CLASS, cost

    def state_cost_at(self, cid: int, dclass: int) -> int | None:
        """The stored final cost of state ``(cid, domain class)``, or
        None when the source never reached that state — the same
        answer as ``state_cost_map().get((cid, dclass))``, found by
        point lookup (:meth:`_states_from`)."""
        for found, found_class, cost in self._states_from(cid):
            if found != cid or found_class > dclass:
                return None
            if found_class == dclass:
                return cost
        return None

    def state_cost_of(self, cid: int) -> int | None:
        """The cheapest stored state cost for a node (compact id), or
        None when the node is unreached: the least of its entries in
        ``state_cost_map()``.  A promoted table answers from the map
        it decoded on promotion; a cold one by point lookup
        (:meth:`_states_from`), which reads that node's records and
        stops.  Keyed by cid, not display name, so a gateway that the
        route records display under a domain-qualified name still
        answers exactly."""
        if self._costs is not None:
            return self._costs.get(cid)
        best = None
        for found, _, cost in self._states_from(cid):
            if found != cid:
                break
            if best is None or cost < best:
                best = cost
        return best

    def database(self):
        """Lift into an in-memory :class:`RouteDatabase` (for callers
        that want the dict-backed interface); costs and the source
        name ride along."""
        from repro.mailer.routedb import RouteDatabase

        routes = {}
        costs = {}
        for cost, name, route in self.records():
            routes[name] = route
            costs[name] = cost
        return RouteDatabase(routes, costs=costs, source=self.source)


@dataclass
class SnapshotInfo:
    """What :func:`build_snapshot` / an update wrote."""

    path: Path
    sources: list[str]
    size: int
    engine: str


class SnapshotReader:
    """An open snapshot: header + source index parsed up front, tables
    searched lazily **in place** and cached.

    By default :meth:`open` ``mmap``-s the file read-only and every
    access below — header decode, source-index binary search, table
    binary search, CRC validation — runs over :class:`memoryview`
    slices of the map with zero copies; N reader processes of one file
    share a single page-cache copy.  On platforms without :mod:`mmap`
    (or for an empty/unmappable file, or with ``use_mmap=False``) the
    reader falls back to plain ``read()`` bytes and serves them
    through the exact same code paths.

    A reader is immutable and self-contained — the daemon hot-swaps
    readers by plain attribute assignment while in-flight lookups keep
    using the old one.  :meth:`close` releases the reader's own buffer
    references; tables handed out earlier each hold their own view of
    the map, so the old mapping stays valid until the last such
    reference drains (the swap is safe mid-request).  ``version``
    reports the stored format, always :data:`VERSION` (a file of any
    other version is refused at open).  ``mapped`` tells whether this
    reader is mmap-backed.
    """

    def __init__(self, path: str | Path, data, mapping=None):
        """Validate ``data`` (bytes or a memoryview over ``mapping``,
        the open :class:`mmap.mmap` this reader owns and will close)."""
        self.path = Path(path)
        self._mmap = mapping
        self.mapped = mapping is not None
        self._data = data
        self._size = len(data)
        self._closed = False
        try:
            self._validate(data)
            self._sources: list[str] = []
            self._entries: list[tuple[int, int]] = []
            self._parse_index()
        except BaseException:
            self._release()
            raise
        self._tables: dict[str, SnapshotTable] = {}
        self._graph: CompactGraph | None = None
        self._domains: list[str] | None = None
        self._index_fsm: bytes | None = None

    def _validate(self, data) -> None:
        """Header, section-bounds, and payload-CRC checks — every
        failure is a :class:`SnapshotError` naming the file and the
        offending offset, never a bare ``struct.error``."""
        if len(data) < _HEADER.size:
            raise SnapshotError(
                f"{self.path}: truncated snapshot "
                f"({len(data)} bytes; header is {_HEADER.size})")
        try:
            (magic, version, self.flags, self.source_count, crc,
             self._graph_off, self._graph_len,
             self._meta_off, self._meta_len,
             self._index_off, self._index_len,
             self._tables_off, self._tables_len) = _HEADER.unpack_from(
                 data, 0)
        except struct.error as exc:  # pragma: no cover - len gate above
            raise SnapshotError(
                f"{self.path}: truncated snapshot header at offset 0: "
                f"{exc}") from None
        if magic != MAGIC:
            raise SnapshotError(
                f"{self.path}: not a route snapshot (bad magic)")
        if version != VERSION:
            raise SnapshotError(
                f"{self.path}: unsupported snapshot version {version} "
                f"(this reader speaks {VERSION}); rebuild it from its "
                f"map with 'pathalias snapshot'")
        self.version = version
        for off, length in ((self._graph_off, self._graph_len),
                            (self._meta_off, self._meta_len),
                            (self._index_off, self._index_len),
                            (self._tables_off, self._tables_len)):
            if off < _HEADER.size or off + length > len(data):
                raise SnapshotError(
                    f"{self.path}: truncated snapshot (section "
                    f"[{off}, {off + length}) outside the "
                    f"{len(data)}-byte file)")
        # a memoryview slice feeds crc32 straight off the map
        if zlib.crc32(data[_HEADER.size:]) & 0xFFFFFFFF != crc:
            raise SnapshotError(
                f"{self.path}: corrupt snapshot (payload CRC mismatch)")

    @classmethod
    def open(cls, path: str | Path,
             use_mmap: bool = True) -> "SnapshotReader":
        """Open and validate the snapshot file at ``path``.

        By default the file is mapped read-only (zero-copy access;
        shared page cache across processes).  ``use_mmap=False``, a
        platform without :mod:`mmap`, or an empty/unmappable file
        falls back to reading the bytes — same data, same code paths.
        """
        mapping = None
        try:
            with open(path, "rb") as handle:
                if use_mmap and _mmap is not None:
                    try:
                        mapping = _mmap.mmap(handle.fileno(), 0,
                                             access=_mmap.ACCESS_READ)
                    except (ValueError, OSError):
                        mapping = None  # empty or unmappable file
                if mapping is None:
                    data = handle.read()
        except OSError as exc:
            raise SnapshotError(
                f"cannot open snapshot: {exc}") from None
        if mapping is None:
            return cls(path, data)
        return cls(path, memoryview(mapping), mapping=mapping)

    def _parse_index(self) -> None:
        data = self._data
        entries_len = self.source_count * _INDEX_ENTRY.size
        if entries_len > self._index_len:
            raise SnapshotError(
                f"{self.path}: corrupt snapshot (index shorter than "
                f"its {self.source_count} entries)")
        blob_off = self._index_off + entries_len
        blob_len = self._index_len - entries_len
        for i in range(self.source_count):
            entry_off = self._index_off + i * _INDEX_ENTRY.size
            try:
                noff, nlen, toff, tlen = _INDEX_ENTRY.unpack_from(
                    data, entry_off)
            except struct.error as exc:  # pragma: no cover - len gate
                raise SnapshotError(
                    f"{self.path}: corrupt snapshot (index entry at "
                    f"offset {entry_off}: {exc})") from None
            if noff + nlen > blob_len:
                raise SnapshotError(
                    f"{self.path}: corrupt snapshot (index name "
                    f"outside its blob)")
            if (toff < self._tables_off
                    or toff + tlen > self._tables_off + self._tables_len):
                raise SnapshotError(
                    f"{self.path}: corrupt snapshot (table section "
                    f"outside the tables region)")
            try:
                name = str(
                    data[blob_off + noff:blob_off + noff + nlen],
                    "utf-8")
            except UnicodeDecodeError as exc:
                raise SnapshotError(
                    f"{self.path}: corrupt snapshot (index name at "
                    f"offset {blob_off + noff}: {exc})") from None
            self._sources.append(name)
            self._entries.append((toff, tlen))

    # -- lifecycle ------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def _live(self):
        """The backing buffer, or a :class:`SnapshotError` if closed."""
        if self._closed:
            raise SnapshotError(
                f"{self.path}: snapshot reader is closed")
        return self._data

    def _release(self) -> None:
        """Drop this reader's buffer references and try to unmap."""
        self._data = b""
        mapping, self._mmap = self._mmap, None
        if mapping is not None:
            try:
                mapping.close()
            except BufferError:
                # A handed-out table (or an in-flight request) still
                # holds a view into the map; each view carries its own
                # buffer export, so the mapping is torn down by the
                # interpreter when the last of them drains.
                pass

    def close(self) -> None:
        """Release the reader's buffers.  Idempotent.

        Tables obtained earlier stay valid — each holds its own view
        of the (mapped) data — so a daemon can close the old reader
        right after a hot swap while in-flight lookups finish on it.
        Accessors on the closed reader itself raise
        :class:`SnapshotError`.
        """
        if self._closed:
            return
        self._closed = True
        self._tables = {}
        self._release()

    def __enter__(self) -> "SnapshotReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- queries --------------------------------------------------------------

    @property
    def size(self) -> int:
        """Total snapshot size in bytes (valid even after close)."""
        return self._size

    @property
    def second_best(self) -> bool:
        """Tables were mapped with second-best (domain-free) paths."""
        return bool(self.flags & FLAG_SECOND_BEST)

    @property
    def case_fold(self) -> bool:
        """Host names were folded to lower case at build time (the
        ``-i`` option); updates must parse revisions the same way."""
        return bool(self.flags & FLAG_CASE_FOLD)

    def sources(self) -> list[str]:
        """Source names, in index (sorted) order."""
        return list(self._sources)

    def has_source(self, source: str) -> bool:
        """Whether a table section exists for ``source``."""
        return self._find(source) is not None

    def _find(self, source: str) -> int | None:
        """Binary search the sorted source index."""
        key = source.encode("utf-8")
        sources = self._sources
        lo, hi = 0, len(sources)
        while lo < hi:
            mid = (lo + hi) // 2
            if sources[mid].encode("utf-8") < key:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(sources) and sources[lo] == source:
            return lo
        return None

    def table_bytes(self, source: str) -> bytes:
        """The raw encoded table section as real ``bytes`` — this is
        the one reader surface that *does* copy, because incremental
        updates splice these sections into new snapshot files verbatim
        and must not pin the old mapping."""
        data = self._live()
        i = self._find(source)
        if i is None:
            raise UnknownSourceError(
                f"{self.path}: no table for source {source!r}")
        off, length = self._entries[i]
        return bytes(data[off:off + length])

    def table(self, source: str) -> SnapshotTable:
        """The (cached) table for ``source``, searched in place.

        A mapped reader hands the table a zero-copy view of its
        section; the view keeps the mapping alive on its own, so the
        table outlives :meth:`close` / a hot swap.
        """
        cached = self._tables.get(source)
        if cached is None:
            data = self._live()
            i = self._find(source)
            if i is None:
                raise UnknownSourceError(
                    f"{self.path}: no table for source {source!r}")
            off, length = self._entries[i]
            cached = SnapshotTable(source, data[off:off + length],
                                   file_offset=off)
            self._tables[source] = cached
        return cached

    def resolve(self, source: str, target: str,
                user: str = "%s") -> Resolution:
        """Domain-suffix lookup from ``source``'s table."""
        return self.table(source).resolve(target, user)

    def heuristics(self) -> HeuristicConfig:
        """The heuristic configuration the tables were mapped with."""
        data = self._live()
        return decode_meta_section(
            data[self._meta_off:self._meta_off + self._meta_len])

    def graph_section(self) -> bytes:
        """The raw encoded graph section as real ``bytes`` (updates
        splice it into new files verbatim; the copy also means the
        decoded graph never pins a swapped-out mapping)."""
        data = self._live()
        return bytes(data[self._graph_off:
                          self._graph_off + self._graph_len])

    def decode_graph(self) -> CompactGraph:
        """The stored compact graph (detached: arrays only)."""
        if self._graph is None:
            self._graph = decode_graph_section(self.graph_section())
        return self._graph

    def domain_names(self) -> list[str]:
        """Sorted public domain names (``.edu``, ...) in the stored map.

        Domains never get their own table sections (they are not mail
        origins), but a federation front end needs them to decide which
        shard owns a ``caip.rutgers.edu``-style query, so the reader
        derives them from the graph section on first use and caches
        the list.
        """
        if self._domains is None:
            cg = self.decode_graph()
            self._domains = sorted(
                cg.names[cid] for cid in range(cg.n)
                if cg.is_domain[cid] and not cg.private[cid])
        return list(self._domains)

    def state_cost(self, source: str, target: str) -> int | None:
        """The mapper's exact final cost ``source -> target`` from the
        stored per-state records, or None when the target is
        unreached.

        Keyed through the stored graph's name index (compact id), so
        nodes the printed route records omit — nets, domains, hosts
        displayed under a domain-qualified name — still answer
        exactly.  This is the primitive behind
        :meth:`repro.service.shard.Shard.state_cost` and the daemon's
        ``COSTS`` bulk verb.
        """
        table = self.table(source)
        cid = self.decode_graph().find(target)
        if cid is None:
            return None
        return table.state_cost_of(cid)

    def routing_index(self) -> list[tuple[str, bool]]:
        """The sorted source/domain index: ``(name, is_domain)`` pairs.

        Every name this snapshot can *own* in a federation — the hosts
        it has table sections for plus the domains its map declares —
        sorted by name.  :class:`repro.service.shard.FederationView`
        merges these per-shard indexes into the ownership map that
        routes each query to a shard by longest domain-suffix match.
        """
        merged = [(name, False) for name in self._sources]
        merged += [(name, True) for name in self.domain_names()]
        merged.sort()
        return merged

    def index_fsm_bytes(self) -> bytes:
        """The ownership index as a self-contained serialized ``DFSM``
        block (cached): the routing-index names compiled into a suffix
        automaton whose payloads are rows in that index, with the
        names embedded as the payload table, domains flagged
        ``NAME_F_DOMAIN``.  This is what ``TABLE --fsm`` ships,
        letting a federation front end inflate a remote shard's index
        in one linear pass instead of re-deriving dicts from text
        lines.  Only the bytes are kept, not the compiled matcher."""
        if self._index_fsm is None:
            index = self.routing_index()
            self._index_fsm = encode_keys(
                [name for name, _ in index],
                names=[(name, NAME_F_DOMAIN if is_domain else 0)
                       for name, is_domain in index])
        return self._index_fsm

    def __repr__(self) -> str:
        return (f"SnapshotReader({str(self.path)!r}, v{self.version}, "
                f"{self.source_count} sources, {self.size} bytes)")


# -- building -----------------------------------------------------------------


def eligible_sources(cg: CompactGraph) -> list[str]:
    """Sorted mail origins: hosts that are neither nets, domains, nor
    private (mirrors ``BatchMapper.sources``, in index order)."""
    return sorted(cg.names[cid] for cid in range(cg.n)
                  if not cg.netlike[cid] and not cg.private[cid])


def snapshot_payload(mapper, source: str):
    """Per-source worker payload: the source's finished table blocks
    (:func:`table_blocks`), five ``bytes`` objects that a ``--jobs``
    worker ships back whole for :func:`encode_table_section`."""
    return table_blocks(mapper.run(source))


def revision_payload(mapper, job: tuple[str, bytes]):
    """The incremental updater's per-source worker payload: ``job`` is
    a source and its old table section, and the blocks are
    :func:`table_blocks` given that table, so a ``--jobs`` worker
    re-prices an unmoved tree as an in-process update does."""
    source, section = job
    return table_blocks(mapper.run(source),
                        previous=SnapshotTable(source, section))


def check_link_costs(cg: CompactGraph) -> None:
    """Raise :class:`SnapshotError` naming the first link of ``cg``
    whose cost the graph section cannot store (its cost fields are
    signed 64-bit).  The builders call this only once packing the
    graph section has failed, so a build that fits pays nothing for
    it; a route's or a state's cost is checked by
    :func:`table_blocks` the same way."""
    for u in range(cg.n):
        for j in range(cg.off[u], cg.off[u + 1]):
            if cg.cost[j] not in _COST_RANGE:
                raise _too_wide(f"source {cg.names[u]!r}: link to "
                                f"{cg.names[cg.to[j]]!r}", cg.cost[j])


def write_snapshot(path: str | Path, graph_section: bytes,
                   meta_section: bytes,
                   table_sections: list[tuple[str, bytes]],
                   flags: int = 0) -> int:
    """Assemble and atomically write a snapshot file.

    ``table_sections`` must be sorted by source name and already
    encoded; the file appears at ``path`` via write-to-temp + rename
    so a daemon never observes a half-written snapshot.  The temp file
    is uniquely named in ``path``'s directory, so concurrent writers
    of one path never share it, and is removed if the write fails.
    The temp file is synced before the rename and the directory after
    it, so a power loss cannot leave a renamed but empty snapshot.
    Returns the byte size.
    """
    pool = _StringPool()
    header_size = _HEADER.size
    graph_off = header_size
    meta_off = graph_off + len(graph_section)
    tables_off = meta_off + len(meta_section)
    entries = []
    offset = tables_off
    for source, section in table_sections:
        entries.append((pool.add(source), offset, len(section)))
        offset += len(section)
    tables_len = offset - tables_off
    index_off = offset
    index_blob = pool.getvalue()
    index = b"".join(
        _INDEX_ENTRY.pack(nref[0], nref[1], toff, tlen)
        for nref, toff, tlen in entries) + index_blob
    payload = b"".join([graph_section, meta_section,
                        *(section for _, section in table_sections),
                        index])
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    header = _HEADER.pack(
        MAGIC, VERSION, flags, len(table_sections), crc,
        graph_off, len(graph_section), meta_off, len(meta_section),
        index_off, len(index), tables_off, tables_len)
    path = Path(path)
    while True:
        tmp = path.with_name(f"{path.name}.{os.urandom(4).hex()}.tmp")
        try:
            # 0o666 under the umask: the mode a plain write would give
            # (mkstemp's 0o600 would hide snapshots from other users)
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL
                         | getattr(os, "O_BINARY", 0), 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(header)
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_directory(path.parent)
    return header_size + len(payload)


def _fsync_directory(directory: Path) -> None:
    """Make a rename in ``directory`` durable; skipped where
    directories cannot be opened (no ``os.O_DIRECTORY``)."""
    flag = getattr(os, "O_DIRECTORY", None)
    if flag is None:
        return
    fd = os.open(directory, os.O_RDONLY | flag)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def build_snapshot(graph: Graph | CompactGraph, path: str | Path,
                   heuristics: HeuristicConfig | None = None,
                   jobs: int | None = None,
                   case_fold: bool = False) -> SnapshotInfo:
    """Map every eligible source and write the snapshot to ``path``.

    With ``jobs > 1`` the per-source mapping fans out over the batch
    pool (:func:`repro.core.batch.map_sources`); output bytes are
    identical at any worker count.  ``case_fold`` records (in the
    header flags) that the map was parsed with host names folded, so
    an update can parse the revision identically.
    """
    cg = graph if isinstance(graph, CompactGraph) \
        else CompactGraph.compile(graph)
    negatives = sum(1 for c in cg.cost if c < 0)
    if negatives:
        # The graph model requires non-negative weights — the map
        # parser/builder clamps and warns (graph/build.py) — but an
        # array-level revision (netsim, incremental benchmarks) can
        # smuggle a negative past that gate, and Dijkstra's
        # invariants do not survive it.  Enforce the same model rule
        # here, as loudly as the builder does, so every snapshot
        # build — fresh or the incremental updater's full-rebuild
        # fallback — agrees byte-for-byte on the clamped graph.
        print(f"pathalias: snapshot: {negatives} negative link "
              f"cost(s) clamped to 0 (the graph model requires "
              f"non-negative weights)", file=sys.stderr)
        # a shallow copy suffices: only the cost-list binding changes,
        # every other array stays shared and unmutated
        cg = copy.copy(cg)
        cg.cost = [c if c >= 0 else 0 for c in cg.cost]
    cfg = heuristics if heuristics is not None else DEFAULT_HEURISTICS
    sources = eligible_sources(cg)
    payloads, engine = map_sources(cg, sources, snapshot_payload,
                                   heuristics, jobs)
    table_sections = [(source, encode_table_section(blocks))
                      for source, blocks in zip(sources, payloads)]
    try:
        graph_section = encode_graph_section(cg)
    except struct.error:
        check_link_costs(cg)
        raise
    flags = (FLAG_SECOND_BEST if cfg.second_best else 0) \
        | (FLAG_CASE_FOLD if case_fold else 0)
    size = write_snapshot(
        path, graph_section, encode_meta_section(cfg),
        table_sections, flags=flags)
    return SnapshotInfo(path=Path(path), sources=sources, size=size,
                        engine=engine)

