"""The three-phase facade: parse the input, map, print the routes.

This is the library's front door, equivalent to running the original
tool::

    table = Pathalias().run_text(map_text, localhost="unc")
    print(table.format_paper())

Each phase is timed (:class:`PhaseTimes`) because the paper's
engineering narrative is largely about where the time goes — the scanner
rewrite, the allocator, the heap — and experiment E8 reports the split
at published scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.config import HeuristicConfig
from repro.core.mapper import Mapper, MapResult
from repro.core.printer import RouteTable, print_routes
from repro.errors import MappingError
from repro.graph.build import Graph, GraphBuilder
from repro.parser.grammar import Parser
from repro.parser.scanner import Scanner


@dataclass
class PhaseTimes:
    """Wall-clock seconds per phase.

    ``scan`` is the whole-text tokenizing a non-hand scanner does before
    parsing (``--lex``, experiment E3's baseline).  With the hand
    :class:`Scanner`, the parser recognises common host statements
    whole and scans only the rest itself, so the whole front end counts
    as ``parse`` and ``scan`` reads 0.0.
    """

    scan: float = 0.0
    parse: float = 0.0
    build: float = 0.0
    map: float = 0.0
    print: float = 0.0

    @property
    def total(self) -> float:
        return self.scan + self.parse + self.build + self.map + self.print


@dataclass
class RunResult:
    """A route table plus everything measured along the way."""

    table: RouteTable
    graph: Graph
    mapping: MapResult
    times: PhaseTimes = field(default_factory=PhaseTimes)


class Pathalias:
    """Configurable pathalias runs.

    Args:
        heuristics: mapping-phase cost heuristics (default: the paper's).
        case_fold: fold host names to lower case (the ``-i`` option).
        scanner_class: the hand scanner by default; pass
            :class:`repro.parser.lexgen.LexScanner` to run the lex-style
            baseline end to end.
        engine: "reference" (the paper-shaped object-graph mapper, the
            default) or "compact" (the compiled flat-array engine,
            differentially tested to identical output).
    """

    def __init__(self, heuristics: HeuristicConfig | None = None,
                 case_fold: bool = False,
                 scanner_class: type[Scanner] = Scanner,
                 engine: str = "reference"):
        if engine not in ("reference", "compact"):
            raise MappingError(f"unknown engine {engine!r}")
        self.heuristics = heuristics
        self.case_fold = case_fold
        self.scanner_class = scanner_class
        self.engine = engine

    # -- entry points ---------------------------------------------------------

    def run_text(self, text: str, localhost: str,
                 filename: str = "<stdin>") -> RouteTable:
        """Parse one input text and return its route table."""
        return self.run_detailed([(filename, text)], localhost).table

    def run_texts(self, named_texts: list[tuple[str, str]],
                  localhost: str) -> RouteTable:
        """Parse several (filename, text) inputs; file boundaries scope
        ``private`` declarations."""
        return self.run_detailed(named_texts, localhost).table

    def run_files(self, paths: list[str | Path],
                  localhost: str) -> RouteTable:
        """Read and parse input files, as the original took on argv."""
        named = [(str(p), Path(p).read_text()) for p in paths]
        return self.run_detailed(named, localhost).table

    def build(self, named_texts: list[tuple[str, str]],
              times: PhaseTimes | None = None) -> Graph:
        """Scan, parse and build the graph only — the shared front half
        of the pipeline, reusable by batch precomputation."""
        times = times if times is not None else PhaseTimes()
        builder = GraphBuilder()
        for filename, text in named_texts:
            t0 = time.perf_counter()
            parser = Parser.from_text(text, filename, self.case_fold,
                                      self.scanner_class)
            t1 = time.perf_counter()
            decls = parser.parse()
            t2 = time.perf_counter()
            builder.new_file(filename)
            for decl in decls:
                builder.add(decl)
            t3 = time.perf_counter()
            times.scan += t1 - t0
            times.parse += t2 - t1
            times.build += t3 - t2

        t0 = time.perf_counter()
        graph = builder.finalize()
        t1 = time.perf_counter()
        times.build += t1 - t0
        return graph

    def run_detailed(self, named_texts: list[tuple[str, str]],
                     localhost: str) -> RunResult:
        """Full pipeline, returning graph/mapping/timing detail."""
        times = PhaseTimes()
        graph = self.build(named_texts, times)

        source = localhost.lower() if self.case_fold else localhost
        if graph.find(source) is None:
            raise MappingError(f"local host {source!r} not in input")
        t0 = time.perf_counter()
        if self.engine == "compact":
            from repro.core.fastmap import CompactMapper
            from repro.graph.compact import CompactGraph

            compact = CompactMapper(CompactGraph.compile(graph),
                                    self.heuristics).run(source)
            mapping = compact.to_map_result()
        else:
            mapping = Mapper(graph, self.heuristics).run(source)
        t1 = time.perf_counter()
        table = print_routes(mapping)
        t2 = time.perf_counter()
        times.map = t1 - t0
        times.print = t2 - t1
        return RunResult(table=table, graph=graph, mapping=mapping,
                         times=times)
