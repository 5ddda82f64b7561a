"""E8 — the full published workload.

Paper numbers: "USENET maps contain over 5,700 nodes and 20,000 links,
while ARPANET, CSNET, and BITNET add another 2,800 nodes and 8,000
links."  The synthetic generator reproduces that scale; this bench runs
the complete three-phase pipeline on it and reports the phase split the
paper's engineering sections are about.
"""

from repro import Pathalias
from repro.graph.stats import compute_stats

from benchmarks.conftest import report


def test_full_scale_pipeline(benchmark, usenet_generated):
    generated = usenet_generated

    def pipeline():
        return Pathalias().run_detailed(generated.files,
                                        generated.localhost)

    result = benchmark.pedantic(pipeline, rounds=3, iterations=1,
                                warmup_rounds=1)
    stats = compute_stats(result.graph)
    times = result.times

    report("E8 full-scale run (paper: 5,700+2,800 nodes, 28,000 links)", [
        ("measure", "value"),
        ("nodes", stats.nodes),
        ("hosts", stats.hosts),
        ("links", stats.links),
        ("e/v", f"{stats.sparsity:.2f}"),
        ("routes printed", len(result.table)),
        ("unreachable", len(result.table.unreachable)),
        # the hand scanner runs inside the parser's fast path, so the
        # whole front end reads as parse (PhaseTimes)
        ("scan (s; 0 with the hand scanner)", f"{times.scan:.3f}"),
        ("parse (s; scan + parse)", f"{times.parse:.3f}"),
        ("build (s)", f"{times.build:.3f}"),
        ("map (s)", f"{times.map:.3f}"),
        ("print (s)", f"{times.print:.3f}"),
    ])

    # Scale matches the paper's inventory (within generator tolerance).
    assert 7_500 <= stats.nodes <= 11_000
    assert 24_000 <= stats.links <= 36_000
    assert stats.is_sparse(factor=10)
    # Everything routes.
    assert result.table.unreachable == []
    assert len(result.table) >= 8_000

    benchmark.extra_info.update({
        "nodes": stats.nodes,
        "links": stats.links,
        "routes": len(result.table),
        "map_seconds": round(times.map, 3),
    })


def test_mapping_phase_only_full_scale(benchmark, usenet_generated):
    """Isolate the paper's core phase at published scale."""
    from repro.core.mapper import Mapper
    from repro.graph.build import build_graph
    from repro.parser.grammar import parse_text

    generated = usenet_generated
    graph = build_graph([(n, parse_text(t, n))
                         for n, t in generated.files])

    result = benchmark(
        lambda: Mapper(graph).run(generated.localhost))
    assert result.stats.pops >= 8_000
    benchmark.extra_info["pops"] = result.stats.pops
    benchmark.extra_info["relaxations"] = result.stats.relaxations
