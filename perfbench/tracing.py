"""Span tracing for the benchmark's traced runs.

A :class:`Tracer` wraps the public functions of the program's layers
from the outside (nothing under ``src/`` changes): each call becomes a
span holding its name, start, end and parent span.  Spans stay in
memory, in one flat ``array('q')`` per process, and are written out
once when the run ends.  The spawned daemons run the same tracer from
``perfbench/serve.py``.

:func:`analyse` merges the spans of every process of a run.  Inside a
process the parent of a span is the span that was open when it began
(a context variable, so asyncio tasks and ``to_thread`` calls keep
their caller as parent).  A server's outermost spans have no parent in
their own process; they are attached to the innermost client-side span
that encloses them in time (``perf_counter_ns`` is the system-wide
monotonic clock on Linux, so timestamps compare across processes).  The
request id of a span is the id of its root.  A layer's self time is
its span's duration minus the part of that interval its children
cover.
"""

from __future__ import annotations

import bisect
import contextvars
import importlib
import inspect
import json
import os
import time
from array import array

_now = time.perf_counter_ns
_FIELDS = 4  # parent, name id, start ns, end ns

#: What each traced process wraps: ``(module, attribute path, span
#: name)``.  The span name is the layer's module plus a short label;
#: per-layer metric names are built from it.  Module-level functions
#: are patched in every namespace that imported them by name.
PATCHES = (
    # compile path
    ("repro.parser.scanner", "Scanner.tokens", "parser.scan"),
    ("repro.parser.grammar", "Parser.parse", "parser.parse"),
    ("repro.graph.build", "GraphBuilder.new_file", "graph.build"),
    ("repro.graph.build", "GraphBuilder.add", "graph.build"),
    ("repro.graph.build", "GraphBuilder.finalize", "graph.build"),
    ("repro.graph.compact", "CompactGraph.compile", "graph.compile"),
    ("repro.core.fastmap", "CompactMapper.run", "core.map"),
    ("repro.core.fastmap", "CompactMapResult.to_map_result", "core.map"),
    ("repro.core.pathalias", "print_routes", "core.print"),
    ("repro.core.printer", "RouteTable.format_tab", "core.print"),
    # one daemon's read path (client side and server side)
    ("repro.service.daemon", "DaemonRouteDatabase.resolve_with_cost",
     "daemon.wire"),
    ("repro.service.daemon", "RouteService.handle_line", "daemon.server"),
    ("repro.service.cache", "ResultCache.get", "cache.probe"),
    ("repro.service.cache", "ResultCache.put", "cache.probe"),
    ("repro.service.cache", "ResultCache.put_negative", "cache.probe"),
    ("repro.service.daemon", "instantiate", "cache.probe"),
    ("repro.service.federation", "instantiate", "cache.probe"),
    ("repro.service.cache", "ResultCache.bump", "cache.invalidate"),
    ("repro.service.store", "SnapshotReader.table", "store.resolve"),
    ("repro.service.store", "SnapshotTable.resolve_with_cost",
     "store.resolve"),
    ("repro.service.store", "SnapshotTable.lookup", "store.resolve"),
    ("repro.service.fsm", "SuffixAutomaton.match", "fsm.match"),
    # fan-out path
    ("repro.service.federation", "FederationService.handle_line",
     "federation.server"),
    ("repro.service.shard", "FederationView.aresolve_with_cost",
     "shard.stitch"),
    ("repro.service.backend", "BackendShard.route_legs", "backend.wait"),
    ("repro.service.backend", "BackendShard.entry_resolve",
     "backend.wait"),
    ("repro.service.backend", "BackendShard.connect", "backend.connect"),
    # write path
    ("repro.service.incremental", "update_snapshot", "incremental.update"),
    ("repro.service.incremental", "affected_sources_exact",
     "incremental.affected"),
    ("repro.service.incremental", "map_sources", "core.map"),
    ("repro.service.incremental", "encode_table_section", "store.encode"),
    ("repro.service.incremental", "encode_graph_section", "store.encode"),
    ("repro.service.incremental", "write_snapshot", "store.write"),
    ("repro.service.store", "SnapshotReader.open", "store.open"),
    ("repro.service.store", "SnapshotReader.decode_graph", "store.decode"),
    ("repro.service.store", "build_snapshot", "store.build"),
    ("repro.service.federation", "FederationService.reload_shard",
     "federation.reload"),
    ("repro.service.shard", "FederationView.with_shard", "shard.swap"),
    ("repro.netsim.churn", "ChurnScenario.apply", "netsim.apply"),
)

#: Span names the benchmark itself opens around each timed op.
ROOT_NAMES = ("op", "read")

#: Client-side spans a server process's outermost spans attach to.
CALL_OUT = {"front": ("daemon.wire",),
            "backend": ("backend.wait", "backend.connect")}


class Tracer:
    """Records spans for one process."""

    def __init__(self, role: str = "client"):
        self.role = role
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        self.current = contextvars.ContextVar("span", default=-1)
        self._saved: list = []

    def name_id(self, name: str) -> int:
        """The interned id of a span name."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> tuple[int, object]:
        """Start a span by hand; close it with :meth:`close`."""
        spans = self.spans
        idx = len(spans) // _FIELDS
        spans.extend((self.current.get(), self.name_id(name), _now(), 0))
        return idx, self.current.set(idx)

    def close(self, handle: tuple[int, object]) -> int:
        """End a span opened with :meth:`open`; returns its length."""
        idx, token = handle
        end = _now()
        self.current.reset(token)
        self.spans[idx * _FIELDS + 3] = end
        return end - self.spans[idx * _FIELDS + 2]

    def wrap(self, fn, name: str):
        """A traced stand-in for ``fn`` (sync or async)."""
        nid = self.name_id(name)
        spans = self.spans
        current = self.current

        if inspect.iscoroutinefunction(fn):
            async def traced(*args, **kwargs):
                idx = len(spans) // _FIELDS
                spans.extend((current.get(), nid, _now(), 0))
                token = current.set(idx)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    spans[idx * _FIELDS + 3] = _now()
                    current.reset(token)
        else:
            def traced(*args, **kwargs):
                idx = len(spans) // _FIELDS
                spans.extend((current.get(), nid, _now(), 0))
                token = current.set(idx)
                try:
                    return fn(*args, **kwargs)
                finally:
                    spans[idx * _FIELDS + 3] = _now()
                    current.reset(token)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function in ``PATCHES`` (undo with
        :meth:`uninstall`)."""
        for module_name, path, name in PATCHES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner).get(attr) if isinstance(owner, type) \
                else getattr(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, name))
            else:
                new = self.wrap(raw, name)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Restore every function :meth:`install` wrapped."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def dump(self, path: str) -> None:
        """Write this process's spans: a JSON header line, then the
        raw span array."""
        with open(path, "wb") as handle:
            header = {"role": self.role, "pid": os.getpid(),
                      "names": self.names}
            handle.write(json.dumps(header).encode() + b"\n")
            self.spans.tofile(handle)


def load(path: str) -> tuple[str, list[str], array]:
    """Read a file written by :meth:`Tracer.dump`."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        spans = array("q")
        spans.frombytes(handle.read())
    return header["role"], header["names"], spans


class Span:
    """One span of a merged trace."""

    __slots__ = ("sid", "parent", "name", "start", "end", "role",
                 "children", "root")

    def __init__(self, sid, parent, name, start, end, role):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.role = role
        self.children: list[Span] = []
        self.root = -1


def merge(processes) -> list[Span]:
    """Merge ``(role, names, array)`` per process into one span list,
    with cross-process parents attached by time containment."""
    spans: list[Span] = []
    tops: dict[str, list[Span]] = {}
    for role, names, arr in processes:
        base = len(spans)
        for i in range(len(arr) // _FIELDS):
            parent, nid, start, end = arr[i * _FIELDS:(i + 1) * _FIELDS]
            span = Span(base + i, base + parent if parent >= 0 else -1,
                        names[nid], start, end or start, role)
            spans.append(span)
            if parent < 0:
                tops.setdefault(role, []).append(span)
    for role, orphans in tops.items():
        wanted = CALL_OUT.get(role)
        if not wanted:
            continue
        hosts = sorted((s for s in spans if s.name in wanted
                        and s.role != role), key=lambda s: s.start)
        starts = [s.start for s in hosts]
        for span in orphans:
            # the innermost enclosing host starts last; concurrent
            # hosts are few, so a short backward scan finds it
            i = bisect.bisect_right(starts, span.start) - 1
            for host in hosts[max(0, i - 63):i + 1][::-1]:
                if host.end >= span.end:
                    span.parent = host.sid
                    break
    for span in spans:
        if span.parent >= 0:
            spans[span.parent].children.append(span)
    for span in spans:
        if span.parent < 0:
            _mark_root(span, span.sid)
    return spans


def _mark_root(top: Span, root: int) -> None:
    stack = [top]
    while stack:
        span = stack.pop()
        span.root = root
        stack.extend(span.children)


def self_ns(span: Span) -> int:
    """The span's duration minus the union of its children's
    intervals (clipped to the span)."""
    if not span.children:
        return span.end - span.start
    covered = 0
    edge = span.start
    for child in sorted(span.children, key=lambda c: c.start):
        lo = max(child.start, edge)
        hi = min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            edge = hi
    return span.end - span.start - covered


def analyse(spans: list[Span]) -> dict:
    """Per-layer self time under the benchmark's op roots, setup-phase
    call times, and the check that layer self times add up to op time.

    Returns ``{"roots": n, "root_ns": total, "layer_ns": {name: ns},
    "other_ns": {name: ns}, "unattached": n, "calls": {name: [ns]}}``:
    self time under op roots, self time outside them (set-up), and
    every call's inclusive time whatever its phase.
    """
    roots = {s.sid for s in spans if s.name in ROOT_NAMES
             and s.parent < 0}
    first = min((spans[r].start for r in roots), default=0)
    last = max((spans[r].end for r in roots), default=0)
    layer_ns: dict[str, int] = {}
    other_ns: dict[str, int] = {}
    calls: dict[str, list[int]] = {}
    unattached = 0
    for span in spans:
        calls.setdefault(span.name, []).append(span.end - span.start)
        if span.sid in roots:
            continue
        into = layer_ns if span.root in roots else other_ns
        into[span.name] = into.get(span.name, 0) + self_ns(span)
        if span.root in roots:
            continue
        if span.parent < 0 and span.role != "client" \
                and first <= span.start <= last:
            # a server span inside the timed phase that no client
            # call encloses: the trace lost its caller
            unattached += 1
    root_ns = sum(spans[r].end - spans[r].start for r in roots)
    return {"roots": len(roots), "root_ns": root_ns,
            "layer_ns": layer_ns, "other_ns": other_ns,
            "unattached": unattached, "calls": calls}


def write_tsv(spans: list[Span], path: str) -> None:
    """The merged trace, one span a line: id, parent, request id,
    process role, name, start ns, end ns."""
    with open(path, "w") as handle:
        handle.write("span\tparent\trequest\trole\tname\tstart_ns\t"
                     "end_ns\n")
        for s in spans:
            handle.write(f"{s.sid}\t{s.parent}\t{s.root}\t{s.role}\t"
                         f"{s.name}\t{s.start}\t{s.end}\n")
