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

Two matcher tiers share one serialized format (the snapshot ``DFSM``
block, see ``docs/snapshot-format.md``):

* :class:`SuffixAutomaton` — the inflated, dict-transition form; the
  serving hot path.
* :class:`FlatSuffixAutomaton` — a zero-copy view over the serialized
  bytes (binary-searched labels and edges); what a mapped snapshot
  hands out without decoding anything, and what :meth:`inflate`
  expands in one linear pass (no trie rebuild, no re-sort).

Serialization is a pure function of the key sequence: the same sorted
keys always produce the same bytes, at any worker count — which is
what lets the incremental updater splice a stored block verbatim
whenever a section's name set is unchanged.
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


class SuffixAutomaton:
    """The inflated (dict-transition) matcher — the serving hot path.

    Build one with :func:`compile_keys` (from a key list) or
    :meth:`FlatSuffixAutomaton.inflate` (from stored bytes).  State 0
    is the root; transitions consume the target's labels right to
    left; each state carries an *exact* payload (set when a key's full
    label path ends here) and a *domain* payload (set when a
    leading-dot key's suffix path ends here).
    """

    __slots__ = ("_trans", "_exact", "_domain", "_match_fn")

    def __init__(self, trans, exact, domain):
        self._trans = trans
        self._exact = exact
        self._domain = domain
        # the default compiled matcher closure, built lazily on the
        # first match (see :meth:`matcher`)
        self._match_fn = None

    @property
    def state_count(self) -> int:
        """Number of trie states (root included)."""
        return len(self._trans)

    @property
    def edge_count(self) -> int:
        """Number of label transitions."""
        return sum(len(t) for t in self._trans)

    def match(self, target: str) -> int:
        """The payload of the key the dict walk would match, or -1.

        Replicates :func:`~repro.service.resolver.domain_suffixes`
        semantics exactly: the literal target wins first (the walk's
        first probe hits *any* key equal to the target, leading-dot
        keys included), then the longest proper domain suffix.  A
        leading-dot target never matches itself as its own suffix, and
        empty labels (``a..b``, ``a.``) traverse like any other label.
        """
        fn = self._match_fn
        if fn is None:
            fn = self.matcher()
        return fn(target)

    def matcher(self, payloads=None, default=-1):
        """A compiled matcher closure — what per-call hot paths (the
        federation's owner dispatch, the snapshot resolver) cache and
        call.

        The trie is rebuilt as a linked node graph — each state one
        ``(children, exact, domain)`` tuple, children mapping a label
        straight to the child tuple — so a lookup touches only the
        nodes on its own path: no per-step state-array indexing, and
        deep targets still die at the first label the key set lacks
        (cost O(labels the key set knows), not O(labels given)).

        ``payloads`` optionally maps payload indices to caller
        objects: the closure then answers ``payloads[i]`` instead of
        ``i``, and ``default`` instead of -1 on a miss — the owner
        dispatch stores its ``(key, shard names)`` pairs directly in
        the nodes, so a hit returns the answer with zero post-lookup
        indexing.  The default int form is cached; mapped forms are
        the caller's to cache.
        """
        if payloads is None and default == -1 and \
                self._match_fn is not None:
            return self._match_fn
        trans = self._trans
        exact = self._exact
        domain = self._domain
        n = len(trans)

        def payload(i):
            if i < 0:
                return None
            return i if payloads is None else payloads[i]

        dicts: list = [{} for _ in range(n)]
        nodes = [(dicts[i], payload(exact[i]), payload(domain[i]))
                 for i in range(n)]
        for i, t in enumerate(trans):
            d = dicts[i]
            for label, j in t.items():
                d[label] = nodes[j]
        root = nodes[0]

        def match(target: str):
            node = root
            best = default
            rest = target
            while True:
                head, sep, label = rest.rpartition(".")
                nxt = node[0].get(label)
                if nxt is None:
                    return best
                node = nxt
                if not sep:
                    # consumed the leading label: the exact slot is
                    # the walk's literal first probe
                    p = node[1]
                    return best if p is None else p
                if head:
                    # a proper suffix remains to the left, so this
                    # state's domain key (if any) is probed; when head
                    # is empty the rest is the leading-dot target's
                    # own tail, which the walk never probes as a
                    # domain
                    p = node[2]
                    if p is not None:
                        best = p
                rest = head

        if payloads is None and default == -1:
            self._match_fn = match
        return match

    def to_bytes(self, names=None) -> bytes:
        """Serialize into the flat ``DFSM`` block layout.

        ``names`` optionally embeds a payload table — ``(name, flags)``
        pairs in payload order — making the block self-contained (the
        wire-shipped ownership form); omitted for snapshot table
        blocks, whose payloads index the section's own ``RECS``
        records.  Output is a pure function of the compiled key
        sequence: deterministic, byte-for-byte.
        """
        label_set = set()
        for t in self._trans:
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
        for s, t in enumerate(self._trans):
            items = sorted((label_id[lab], tgt) for lab, tgt in t.items())
            states.append((len(edges), len(items),
                           self._exact[s], self._domain[s]))
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


def compile_keys(keys) -> SuffixAutomaton:
    """Compile unique keys (payload = position) into a matcher.

    Each key contributes its full label path as an *exact* entry; a
    leading-dot key additionally contributes its dotless suffix path
    as a *domain* entry — which is exactly the two ways the dict walk
    can hit it.  Pass keys sorted by UTF-8 bytes when the serialized
    form must be deterministic (state numbering follows insertion
    order).
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
    return SuffixAutomaton(trans, exact, domain)


class FlatSuffixAutomaton:
    """A zero-copy matcher over a serialized ``DFSM`` block.

    Holds only a buffer (bytes or a :class:`memoryview` into a mapped
    snapshot) plus the section offsets from the header — nothing is
    decoded up front.  :meth:`match` binary-searches the interned
    label table and each state's edge range in place; :meth:`inflate`
    expands the block into the dict-transition hot-path form with one
    linear pass.
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

    def match(self, target: str) -> int:
        """The matched key's payload, or -1 — same contract (and same
        answers, differentially tested) as
        :meth:`SuffixAutomaton.match`, straight off the stored bytes."""
        labels = target.split(".")
        n = len(labels)
        dmax = n - 2 if labels[0] == "" else n - 1
        state = 0
        best = -1
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
        section's own records instead)."""
        data = self._data
        out = []
        for i in range(self.name_count):
            off, length, flags = _FSM_NAME.unpack_from(
                data, self._names_off + i * _FSM_NAME.size)
            base = self._blob_off + off
            out.append((str(data[base:base + length], "utf-8"), flags))
        return out

    def inflate(self) -> SuffixAutomaton:
        """Expand into the dict-transition hot-path matcher.

        One linear pass over the stored arrays — decode the interned
        labels once, then wire each state's edges into a dict — with
        no trie construction and no sorting, which is what makes
        opening a precompiled snapshot much cheaper than recompiling
        its key set.  Each table is unpacked by one
        ``Struct.iter_unpack`` over its slice of the block.
        """
        data = self._data
        blob = bytes(data[self._blob_off:])
        labels = [blob[off:off + length].decode("utf-8")
                  for off, length in _FSM_LABEL.iter_unpack(
                      data[self._labels_off:self._names_off])]
        edges = [(labels[lid], target)
                 for lid, target in _FSM_EDGE.iter_unpack(
                     data[self._edges_off:self._labels_off])]
        trans = []
        exact = []
        domain = []
        for start, count, ex, dom in _FSM_STATE.iter_unpack(
                data[self._states_off:self._edges_off]):
            trans.append(dict(edges[start:start + count]))
            exact.append(ex)
            domain.append(dom)
        return SuffixAutomaton(trans, exact, domain)


def load(data) -> FlatSuffixAutomaton:
    """Open serialized block bytes as a zero-copy flat matcher."""
    return FlatSuffixAutomaton(data)
