"""The compiled suffix automaton behind every domain-suffix dispatch.

The paper's domain lookup procedure — "search ``caip.rutgers.edu``,
then ``.rutgers.edu``, then ``.edu``" — is the hottest per-lookup
operation in the serving tier.  The dict walk
(:class:`~repro.service.resolver.SuffixResolver`) pays for it per
probe: each suffix is a fresh string slice (O(name-length²) character
copies over the walk) plus a full-string hash, and the federation's
ownership dispatch repeats the same walk over its merged index.

This module compiles a key set into a **suffix automaton**: a trie
over the keys' dot-separated labels, consumed right-to-left (TLD
first), with per-state payload slots.  One matcher serves both uses:

* the **route table** dispatch — keys are a table's record names,
  payloads their record indexes (:class:`SnapshotTable
  <repro.service.store.SnapshotTable>` resolves through it);
* the **federation ownership** dispatch — keys are the merged
  source/domain index, payloads rows in an owner table
  (:meth:`FederationView.owners_of
  <repro.service.shard.FederationView.owners_of>` resolves through
  it, and :class:`~repro.service.backend.BackendShard` ships the
  serialized form over the bulk ``TABLE`` machinery).

A match costs one ``split('.')`` plus one small-dict probe per label —
O(labels), independent of key-set size — and is **byte-identical** to
the dict walk: the same key wins, including every degenerate form the
walk accepts (single-label hosts, leading/trailing dots, consecutive
dots — empty labels are real labels here).

The automaton has one writer, one in-memory form and one stored form
(the snapshot ``DFSM`` block, see ``docs/snapshot-format.md``):

* :func:`encode_keys` is the only writer of the stored form.  It
  writes the trie builder's per-state arrays straight into the block
  and never builds nodes.
* :class:`SuffixAutomaton` is the only in-memory form: a linked node
  trie, each node one ``(children, exact, domain)`` tuple whose
  children map a label straight to the child node.  One linker builds
  it, from keys (:func:`compile_keys`) or from a stored block
  (:meth:`FlatSuffixAutomaton.inflate`).
* :class:`FlatSuffixAutomaton` is a zero-copy view over a stored
  block: it matches in place (binary-searched labels and edges) and
  reads the block's embedded name table, decoding nothing up front.

Encoding is a pure function of the key sequence: the same sorted keys
always produce the same bytes, at any worker count — which is what
lets the incremental updater splice a stored block verbatim whenever
a section's name set is unchanged.  In memory an empty slot and a
miss are ``None``; the stored form writes ``-1``.
"""

from __future__ import annotations

import struct

from repro.errors import PathaliasError

#: Serialized-block magic (also the snapshot section tag).
FSM_MAGIC = b"DFSM"

#: Serialized-block format number (bumped on layout changes).
FSM_FORMAT = 1

#: Payload-table flag: the named key is a domain (leading-dot) entry.
NAME_F_DOMAIN = 1

#: Block header: magic, format, flags, state count, edge count,
#: interned-label count, payload-name count.
_FSM_HEADER = struct.Struct("<4sHHIIII")

#: One state: first edge index, edge count, exact payload, domain
#: payload (payloads are -1 when the slot is empty).
_FSM_STATE = struct.Struct("<IIii")

#: One transition: interned label id, target state.
_FSM_EDGE = struct.Struct("<II")

#: One interned label: (offset, length) into the trailing blob.
_FSM_LABEL = struct.Struct("<II")

#: One payload-table name: (offset, length, flags) into the blob.
_FSM_NAME = struct.Struct("<III")


class AutomatonError(PathaliasError):
    """A serialized suffix-automaton block is malformed or truncated."""


def _utf8(text: str) -> bytes:
    """The sort key every name/label ordering in this module uses."""
    return text.encode("utf-8")


def _decode(blob: bytes, refs, count: int, what: str) -> list:
    """The ``count`` UTF-8 strings that ``(offset, length)`` refs name
    in ``blob``.  A ref past the blob, or bytes that are not UTF-8,
    raise :class:`AutomatonError` naming ``what`` the refs are."""
    size = len(blob)
    try:
        texts = [blob[off:off + length].decode("utf-8")
                 for off, length in refs if off + length <= size]
    except UnicodeDecodeError as exc:
        raise AutomatonError(
            f"automaton block malformed: {what} {exc}") from None
    if len(texts) != count:
        raise AutomatonError(
            f"automaton block malformed: a {what} runs past the blob")
    return texts


def _trie(keys) -> tuple[list, list, list]:
    """The trie over unique ``keys`` (payload = position) as per-state
    arrays ``(trans, exact, domain)``: ``trans[s]`` maps a label to a
    state number, and an empty payload slot holds -1.

    Each key contributes its full label path as an *exact* entry; a
    leading-dot key additionally contributes its dotless suffix path
    as a *domain* entry — which is exactly the two ways the dict walk
    can hit it.  State 0 is the root and numbering follows insertion
    order.
    """
    trans: list = [{}]
    exact = [-1]
    domain = [-1]

    def walk(labels) -> int:
        state = 0
        for lab in reversed(labels):
            nxt = trans[state].get(lab)
            if nxt is None:
                nxt = len(trans)
                trans[state][lab] = nxt
                trans.append({})
                exact.append(-1)
                domain.append(-1)
            state = nxt
        return state

    for idx, key in enumerate(keys):
        exact[walk(key.split("."))] = idx
        if key.startswith("."):
            domain[walk(key[1:].split("."))] = idx
    return trans, exact, domain


def _link(nodes: list) -> tuple:
    """Link the node trie in place and return its root (state 0).

    ``nodes[s]`` is state s's ``(children, exact, domain)`` node,
    whose children still map labels to target state numbers: each
    number is swapped for the target node.  A target past the state
    count raises ``IndexError``.
    """
    for children, _, _ in nodes:
        if children:
            for label, target in children.items():
                children[label] = nodes[target]
    return nodes[0]


class SuffixAutomaton:
    """The in-memory matcher: a linked node trie.

    Build one with :func:`compile_keys` (from keys) or
    :meth:`FlatSuffixAutomaton.inflate` (from a stored block).  Each
    node is one ``(children, exact, domain)`` tuple: ``children`` maps
    a label straight to the child node, ``exact`` is the payload of
    the key whose full label path ends here and ``domain`` that of the
    leading-dot key whose dotless suffix path ends here (``None`` when
    empty).  Transitions consume the target's labels right to left, so
    a lookup touches only the nodes on its own path and a deep target
    dies at the first label the key set lacks: cost O(labels the key
    set knows), not O(labels given).
    """

    __slots__ = ("_root",)

    def __init__(self, root):
        self._root = root

    def match(self, target: str):
        """The payload of the key the dict walk would match, or None.

        Replicates :func:`~repro.service.resolver.domain_suffixes`
        semantics exactly: the literal target wins first (the walk's
        first probe hits *any* key equal to the target, leading-dot
        keys included), then the longest proper domain suffix.  A
        leading-dot target never matches itself as its own suffix, and
        empty labels (``a..b``, ``a.``) traverse like any other label.
        """
        node = self._root
        best = None
        rest = target
        while True:
            head, sep, label = rest.rpartition(".")
            node = node[0].get(label)
            if node is None:
                return best
            if not sep:
                # consumed the leading label: the exact slot is the
                # walk's literal first probe
                p = node[1]
                return best if p is None else p
            if head:
                # a proper suffix remains to the left, so this state's
                # domain key (if any) is probed; when head is empty the
                # rest is the leading-dot target's own tail, which the
                # walk never probes as a domain
                p = node[2]
                if p is not None:
                    best = p
            rest = head


def encode_keys(keys, names=None) -> bytes:
    """Compile unique keys (payload = position) into the serialized
    ``DFSM`` block — the only writer of the stored form.

    ``names`` optionally embeds a payload table — ``(name, flags)``
    pairs in payload order — making the block self-contained (the
    wire-shipped ownership form); omitted for snapshot table blocks,
    whose payloads index the section's own ``RECS`` records.  The
    bytes are a pure function of the key sequence (state numbering
    follows it), so pass keys sorted by UTF-8 bytes.
    """
    trans, exact, domain = _trie(keys)
    label_set = set()
    for t in trans:
        label_set.update(t)
    labels = sorted(label_set, key=_utf8)
    label_id = {lab: i for i, lab in enumerate(labels)}
    blob = bytearray()
    label_refs = []
    for lab in labels:
        raw = _utf8(lab)
        label_refs.append((len(blob), len(raw)))
        blob += raw
    states = []
    edges = []
    for s, t in enumerate(trans):
        items = sorted((label_id[lab], tgt) for lab, tgt in t.items())
        states.append((len(edges), len(items), exact[s], domain[s]))
        edges.extend(items)
    name_refs = []
    for name, flags in (names or ()):
        raw = _utf8(name)
        name_refs.append((len(blob), len(raw), flags))
        blob += raw
    parts = [_FSM_HEADER.pack(FSM_MAGIC, FSM_FORMAT, 0,
                              len(states), len(edges), len(labels),
                              len(name_refs))]
    parts += [_FSM_STATE.pack(*st) for st in states]
    parts += [_FSM_EDGE.pack(*e) for e in edges]
    parts += [_FSM_LABEL.pack(*ref) for ref in label_refs]
    parts += [_FSM_NAME.pack(*ref) for ref in name_refs]
    parts.append(bytes(blob))
    return b"".join(parts)


def compile_keys(keys, payloads=None) -> SuffixAutomaton:
    """Compile unique keys into the in-memory matcher.

    A hit answers the matched key's position in ``keys`` — or, when
    ``payloads`` is given, ``payloads[position]``: the owner dispatch
    stores its ``(key, shard names)`` pairs straight in the nodes, so
    a hit is the answer with no post-lookup indexing.
    """
    if payloads is None:
        payloads = range(len(keys))
    trans, exact, domain = _trie(keys)
    return SuffixAutomaton(_link([
        (t, None if e < 0 else payloads[e], None if d < 0 else payloads[d])
        for t, e, d in zip(trans, exact, domain)]))


class FlatSuffixAutomaton:
    """A zero-copy matcher over a serialized ``DFSM`` block.

    Holds only a buffer (bytes or a :class:`memoryview` into a mapped
    snapshot) plus the section offsets from the header — nothing is
    decoded up front.  :meth:`match` binary-searches the interned
    label table and each state's edge range in place; :meth:`inflate`
    decodes the block and links it into the in-memory
    :class:`SuffixAutomaton` in one pass.
    """

    __slots__ = ("_data", "state_count", "edge_count", "label_count",
                 "name_count", "_states_off", "_edges_off",
                 "_labels_off", "_names_off", "_blob_off")

    def __init__(self, data):
        """Parse and bounds-check the block header over ``data``."""
        try:
            (magic, fmt, _flags, self.state_count, self.edge_count,
             self.label_count,
             self.name_count) = _FSM_HEADER.unpack_from(data, 0)
        except struct.error as exc:
            raise AutomatonError(
                f"automaton block malformed: {exc}") from None
        if magic != FSM_MAGIC:
            raise AutomatonError(
                "automaton block malformed: bad magic")
        if fmt != FSM_FORMAT:
            raise AutomatonError(
                f"automaton block format {fmt} unsupported "
                f"(this reader speaks {FSM_FORMAT})")
        self._data = data
        self._states_off = _FSM_HEADER.size
        self._edges_off = (self._states_off
                           + self.state_count * _FSM_STATE.size)
        self._labels_off = (self._edges_off
                            + self.edge_count * _FSM_EDGE.size)
        self._names_off = (self._labels_off
                           + self.label_count * _FSM_LABEL.size)
        self._blob_off = (self._names_off
                          + self.name_count * _FSM_NAME.size)
        if self._blob_off > len(data) or self.state_count == 0:
            raise AutomatonError(
                f"automaton block truncated (tables end at "
                f"{self._blob_off}, block is {len(data)} bytes)")

    def _label_bytes(self, i: int):
        """The i-th interned label's raw bytes (a buffer slice)."""
        off, length = _FSM_LABEL.unpack_from(
            self._data, self._labels_off + i * _FSM_LABEL.size)
        base = self._blob_off + off
        return self._data[base:base + length]

    def _label_id(self, label: str) -> int:
        """Binary-search the sorted label table; -1 when absent."""
        key = _utf8(label)
        lo, hi = 0, self.label_count
        while lo < hi:
            mid = (lo + hi) // 2
            if bytes(self._label_bytes(mid)) < key:
                lo = mid + 1
            else:
                hi = mid
        if lo < self.label_count and self._label_bytes(lo) == key:
            return lo
        return -1

    def _state(self, s: int):
        """The i-th state tuple (edge_start, edge_count, exact, domain)."""
        return _FSM_STATE.unpack_from(
            self._data, self._states_off + s * _FSM_STATE.size)

    def _step(self, state: int, label_id: int) -> int:
        """Follow ``state``'s transition on ``label_id``, or -1."""
        start, count, _, _ = self._state(state)
        lo, hi = start, start + count
        while lo < hi:
            mid = (lo + hi) // 2
            lid, target = _FSM_EDGE.unpack_from(
                self._data, self._edges_off + mid * _FSM_EDGE.size)
            if lid < label_id:
                lo = mid + 1
            elif lid > label_id:
                hi = mid
            else:
                return target
        return -1

    def match(self, target: str):
        """The matched key's payload, or None — same contract (and same
        answers, differentially tested) as
        :meth:`SuffixAutomaton.match`, straight off the stored bytes."""
        labels = target.split(".")
        n = len(labels)
        dmax = n - 2 if labels[0] == "" else n - 1
        state = 0
        best = None
        d = 0
        for i in range(n - 1, -1, -1):
            lid = self._label_id(labels[i])
            if lid < 0:
                state = -1
                break
            state = self._step(state, lid)
            if state < 0:
                break
            d += 1
            if d <= dmax:
                payload = self._state(state)[3]
                if payload >= 0:
                    best = payload
        if state >= 0 and d == n:
            payload = self._state(state)[2]
            if payload >= 0:
                return payload
        return best

    def names(self) -> list:
        """The embedded payload table as ``(name, flags)`` pairs in
        payload order (empty for table blocks, which index their
        section's own records instead).  A name ref past the blob or
        a name that is not UTF-8 raises :class:`AutomatonError`."""
        data = self._data
        refs = list(_FSM_NAME.iter_unpack(
            data[self._names_off:self._blob_off]))
        names = _decode(bytes(data[self._blob_off:]),
                        (ref[:2] for ref in refs), len(refs), "name")
        return [(name, ref[2]) for name, ref in zip(names, refs)]

    def inflate(self) -> SuffixAutomaton:
        """Decode the stored arrays and link them into the in-memory
        matcher, in one pass.

        The interned labels are decoded once; each state's edge slice
        becomes its node's children dict, whose target numbers the
        linker swaps for nodes.  No trie construction and no sorting,
        which is what makes opening a precompiled snapshot much cheaper
        than recompiling its key set.  Every edge range, label id,
        target state and blob ref is checked: a bad one, or a label
        that is not UTF-8, raises :class:`AutomatonError`.
        """
        data = self._data
        labels = _decode(bytes(data[self._blob_off:]),
                         _FSM_LABEL.iter_unpack(
                             data[self._labels_off:self._names_off]),
                         self.label_count, "label")
        n = self.edge_count
        try:
            edges = [(labels[lid], target)
                     for lid, target in _FSM_EDGE.iter_unpack(
                         data[self._edges_off:self._labels_off])]
            nodes = [(dict(edges[start:start + count]) if count else {},
                      None if ex < 0 else ex, None if dom < 0 else dom)
                     for start, count, ex, dom in _FSM_STATE.iter_unpack(
                         data[self._states_off:self._edges_off])
                     if start + count <= n]
            if len(nodes) == self.state_count:
                return SuffixAutomaton(_link(nodes))
        except IndexError:
            pass
        raise AutomatonError(
            "automaton block malformed: an edge range, label id or "
            "target state is out of range")
