"""Batch route computation: precompute tables for many sources.

"Although it would be convenient to compute the path to a destination
as needed, the cost of the calculation is prohibitively expensive.
Consequently, pathalias precomputes paths to all destinations" — per
*source*.  A site ran pathalias once for itself; the mapping project
(and experiment E13) runs it for every source.

This module makes that cheap in two layers:

* the graph is **compiled once** into a :class:`CompactGraph` and every
  source is mapped by the compiled engine
  (:class:`~repro.core.fastmap.CompactMapper`), which reuses its label
  scratch between runs and never mutates the shared graph — no
  back-link cleanup, no cross-run interference;
* with ``jobs > 1`` the sources **fan out across a process pool**: the
  pickled ``CompactGraph`` (flat arrays, no object graph) ships to each
  worker once, each worker keeps one scratch-reusing mapper for its
  lifetime, and the workers return portable route tables (plain
  tuples) that the coordinator rehydrates and merges in deterministic
  source order.  Any failure to stand up the pool degrades to the
  serial path.

The reference engine remains available (``engine="reference"``) as the
differential baseline, and :func:`run_for_source` still exposes the
historical leave-no-residue single run on the object graph.
"""

from __future__ import annotations

import os
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.config import HeuristicConfig
from repro.core.fastmap import (
    CompactMapper,
    build_portable_table,
    table_from_portable,
)
from repro.core.mapper import Mapper, MapResult
from repro.core.printer import RouteTable, print_routes
from repro.graph.build import Graph
from repro.graph.compact import CompactGraph
from repro.graph.node import Node


def run_for_source(graph: Graph, source: str | Node,
                   heuristics: HeuristicConfig | None = None,
                   retain_back_links: bool = False) -> MapResult:
    """One reference-engine run that, by default, leaves the graph as
    it found it (invented back links are recorded, then removed)."""
    result = Mapper(graph, heuristics).run(source)
    if not retain_back_links:
        for owner, link in result.inferred:
            owner.links.remove(link)
    return result


@dataclass
class BatchResult:
    """Route tables per source, plus aggregate counters."""

    tables: dict[str, RouteTable] = field(default_factory=dict)
    total_pops: int = 0
    total_relaxations: int = 0
    #: how the tables were produced: "reference", "compact", or
    #: "compact/N" for an N-worker pool
    engine: str = "compact"

    def __len__(self) -> int:
        return len(self.tables)

    def __getitem__(self, source: str) -> RouteTable:
        return self.tables[source]

    def __iter__(self) -> Iterator[str]:
        return iter(self.tables)


# -- worker-process plumbing --------------------------------------------------

#: Lazily resolved (and test-injectable) pool class: importing
#: concurrent.futures.process drags in all of multiprocessing, a cost
#: every plain ``import repro`` should not pay.
ProcessPoolExecutor = None


def _pool_class():
    global ProcessPoolExecutor
    if ProcessPoolExecutor is None:
        from concurrent.futures import (
            ProcessPoolExecutor as pool_cls,
        )
        ProcessPoolExecutor = pool_cls
    return ProcessPoolExecutor


#: One compiled mapper per worker process, created by the initializer
#: and reused (scratch arrays included) for every chunk it serves.
_WORKER_MAPPER: CompactMapper | None = None

#: The per-source payload callable the pool was stood up with.
_WORKER_PAYLOAD = None


def _worker_init(cgraph: CompactGraph,
                 heuristics: HeuristicConfig | None,
                 payload_fn=None) -> None:
    global _WORKER_MAPPER, _WORKER_PAYLOAD
    _WORKER_MAPPER = CompactMapper(cgraph, heuristics)
    _WORKER_PAYLOAD = payload_fn


def _worker_apply(sources: list):
    """Apply the configured payload to a chunk of sources."""
    mapper = _WORKER_MAPPER
    return [_WORKER_PAYLOAD(mapper, source) for source in sources]


def _portable_payload(mapper: CompactMapper, source: str):
    """The batch mapper's payload: a portable table plus run stats."""
    result = mapper.run(source)
    return (build_portable_table(result),
            mapper.stats.pops, mapper.stats.relaxations)


def map_sources(cgraph: CompactGraph, sources: Iterable,
                payload_fn, heuristics: HeuristicConfig | None = None,
                jobs: int | None = None):
    """Run ``payload_fn(mapper, source)`` for every source.

    The generic fan-out primitive behind :class:`BatchMapper` and the
    snapshot store: ``payload_fn`` must be a picklable module-level
    callable taking a scratch-reusing :class:`CompactMapper` and one
    item of ``sources`` (a source name, or a picklable job the payload
    reads its source from), returning a picklable payload.  With
    ``jobs > 1`` the sources spread over a process pool (the compiled
    graph ships to each worker once); any failure to stand the pool up
    degrades to the always-available serial path.  A payload that
    raises fails the call with the exception of the first failing
    source in ``sources`` order, at any worker count.

    Returns ``(payloads, engine_tag)`` with payloads in ``sources``
    order and the tag describing what actually ran (``"compact"``,
    ``"compact/N"``, or the serial-fallback note).
    """
    wanted = list(sources)
    jobs = jobs or 0
    if jobs > 1 and len(wanted) > 1:
        try:
            return _map_sources_pool(cgraph, wanted, payload_fn,
                                     heuristics, jobs)
        except (OSError, ImportError, BrokenExecutor) as exc:
            # No pool (restricted sandbox, missing sem support, workers
            # killed mid-run...): fall back to in-process mapping.
            payloads = _map_sources_serial(cgraph, wanted, payload_fn,
                                           heuristics)
            return payloads, f"compact (serial fallback: {exc})"
    return (_map_sources_serial(cgraph, wanted, payload_fn, heuristics),
            "compact")


def _map_sources_serial(cgraph: CompactGraph, wanted: list,
                        payload_fn,
                        heuristics: HeuristicConfig | None):
    mapper = CompactMapper(cgraph, heuristics)
    return [payload_fn(mapper, source) for source in wanted]


def _map_sources_pool(cgraph: CompactGraph, wanted: list,
                      payload_fn, heuristics: HeuristicConfig | None,
                      jobs: int):
    jobs = min(jobs, len(wanted))
    # A few chunks per worker keeps the pool busy even when some
    # sources (deep back-link rounds) run long.  Each chunk is a run of
    # consecutive sources: map() raises the first failing chunk's
    # error, which is then the first failing source's, as serially.
    size = -(-len(wanted) // (jobs * 4))
    chunks = [wanted[i:i + size] for i in range(0, len(wanted), size)]
    payloads = []
    with _pool_class()(
            max_workers=jobs, initializer=_worker_init,
            initargs=(cgraph, heuristics, payload_fn)) as pool:
        # map() yields in chunk order, not completion order: the merge
        # is deterministic
        for chunk_result in pool.map(_worker_apply, chunks):
            payloads += chunk_result
    return payloads, f"compact/{jobs}"


class BatchMapper:
    """Precompute route tables for many (or all) sources on one graph.

    Args:
        graph: the finalized connectivity graph.
        heuristics: mapping-phase cost heuristics (default: the
            paper's).
        jobs: worker processes for ``run``/``write_paths_files``.
            ``None``, 0 or 1 map serially in-process; ``n > 1`` fans
            out over a process pool (falling back to serial if a pool
            cannot be created).
        engine: "compact" (default) or "reference" — the differential
            baseline, always serial.
    """

    def __init__(self, graph: Graph,
                 heuristics: HeuristicConfig | None = None,
                 jobs: int | None = None,
                 engine: str = "compact"):
        if engine not in ("compact", "reference"):
            raise ValueError(f"unknown engine {engine!r}")
        self.graph = graph
        self.heuristics = heuristics
        self.jobs = jobs
        self.engine = engine
        self._compiled: CompactGraph | None = None

    @property
    def compiled(self) -> CompactGraph:
        """The compiled graph (compiled on first use, then cached)."""
        if self._compiled is None:
            self._compiled = CompactGraph.compile(self.graph)
        return self._compiled

    def sources(self) -> list[str]:
        """Every host that could serve as a source (no nets, domains,
        or private nodes — they are not mail origins)."""
        return [node.name for node in self.graph.nodes
                if not node.deleted and not node.netlike
                and not node.private]

    def run(self, sources: Iterable[str] | None = None) -> BatchResult:
        """Map from each source; graph state is preserved between runs."""
        wanted = list(self.sources() if sources is None else sources)
        if self.engine == "reference":
            return self._run_reference(wanted)
        return self._run_compact(wanted)

    # -- engines ------------------------------------------------------------

    def _run_reference(self, wanted: list[str]) -> BatchResult:
        batch = BatchResult(engine="reference")
        for source in wanted:
            result = run_for_source(self.graph, source, self.heuristics)
            batch.tables[source] = print_routes(result)
            batch.total_pops += result.stats.pops
            batch.total_relaxations += result.stats.relaxations
        return batch

    def _run_compact(self, wanted: list[str]) -> BatchResult:
        """The compact engine through :func:`map_sources`: serial
        in-process, or over a pool with ``jobs > 1``."""
        payloads, engine = map_sources(self.compiled, wanted,
                                       _portable_payload,
                                       self.heuristics, self.jobs)
        batch = BatchResult(engine=engine)
        for source, (portable, pops, relax) in zip(wanted, payloads):
            batch.tables[source] = table_from_portable(self.compiled,
                                                       portable)
            batch.total_pops += pops
            batch.total_relaxations += relax
        return batch

    def write_paths_files(self, directory: str | Path,
                          sources: Iterable[str] | None = None,
                          batch: BatchResult | None = None) -> int:
        """Emit one sorted ``paths.<host>`` file per source — the
        artifact sites actually installed.  Returns the file count.
        Pass an already-computed ``batch`` to just write it out."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        count = 0
        if batch is None:
            batch = self.run(sources)
        for source, table in batch.tables.items():
            (directory / f"paths.{source}").write_text(
                table.format_tab() + "\n")
            count += 1
        return count


def default_jobs() -> int:
    """Worker count for ``--jobs 0`` / "use what the machine has"."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def query_single_destination(graph: Graph, source: str,
                             destination: str,
                             heuristics: HeuristicConfig | None = None
                             ) -> int | None:
    """The strawman the paper rejects: compute one route on demand.

    Runs Dijkstra but stops as soon as the destination is mapped.
    Used by experiment E14 to quantify "prohibitively expensive":
    on-demand querying repeats most of the work per query, so
    precomputation wins even at modest query volumes.
    """
    target = graph.find(destination)
    if target is None:
        return None
    mapper = Mapper(graph, heuristics)
    result = mapper.run(source, stop_at=target)
    for owner, link in result.inferred:
        owner.links.remove(link)
    label = result.best(target)
    return None if label is None else label.cost
