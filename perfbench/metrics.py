"""Every metric the benchmark reports, with its unit.

``END_TO_END`` is what an untraced run prints in its result line and
``PER_LAYER`` what a traced run prints; ``BENCHMARK.json`` lists the
same names (``smoke.py`` checks that it does).  ``EXTRA`` are further
end-to-end figures a run prints on its report lines: they belong to
one op type that only some workloads have, so they cannot be a metric
every workload reports.  ``MOVES`` records, per layer metric, which
end-to-end metric a change in it should move and on which workload.
"""

from __future__ import annotations

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_us": ("us", "lower"),
    "rss_mb": ("MB", "lower"),
}

#: workload -> [(name, unit)] printed beside END_TO_END
EXTRA = {
    "compile_usenet": [("fail_ratio", "1")],
    "lookup_fanout": [("op_p99_us", "us"), ("fail_ratio", "1")],
    "churn_reload": [("read_p50_us", "us"), ("read_p99_us", "us"),
                     ("fail_ratio", "1")],
}

#: name -> (unit, better).  ``_ms``/``_us`` times are the layer's self
#: time per op (span minus children, summed over the run's traced ops
#: and divided by their count) unless the name says set-up.
PER_LAYER = {
    "parser.scan_ms": ("ms", "lower"),
    "parser.parse_ms": ("ms", "lower"),
    "parser.tokens": ("count", "lower"),
    "graph.build_ms": ("ms", "lower"),
    "graph.compile_ms": ("ms", "lower"),
    "graph.links": ("count", "lower"),
    "core.map_ms": ("ms", "lower"),
    "core.print_ms": ("ms", "lower"),
    "core.routes": ("count", "higher"),
    "daemon.server_us": ("us", "lower"),
    "daemon.wire_us": ("us", "lower"),
    "cache.probe_us": ("us", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.invalidations": ("count", "lower"),
    "store.resolve_us": ("us", "lower"),
    "store.build_s": ("s", "lower"),
    "store.open_ms": ("ms", "lower"),
    "store.snapshot_mb": ("MB", "lower"),
    "store.decode_ms": ("ms", "lower"),
    "store.encode_ms": ("ms", "lower"),
    "store.write_ms": ("ms", "lower"),
    "store.bytes_written": ("bytes", "lower"),
    "fsm.match_us": ("us", "lower"),
    "fsm.hits": ("count", "higher"),
    "fsm.misses": ("count", "lower"),
    "federation.server_us": ("us", "lower"),
    "federation.reload_ms": ("ms", "lower"),
    "shard.stitch_us": ("us", "lower"),
    "shard.swap_ms": ("ms", "lower"),
    "shard.federated_ratio": ("ratio", "lower"),
    "backend.wait_us": ("us", "lower"),
    "backend.calls_per_op": ("count", "lower"),
    "backend.requests": ("count", "lower"),
    "backend.connect_ms": ("ms", "lower"),
    "incremental.update_ms": ("ms", "lower"),
    "incremental.affected_ms": ("ms", "lower"),
    "incremental.remapped_ratio": ("ratio", "lower"),
    "incremental.remapped": ("count", "lower"),
    "incremental.reused": ("count", "higher"),
    "incremental.fallbacks": ("count", "lower"),
    "netsim.apply_ms": ("ms", "lower"),
    "trace.layer_share": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

#: span name -> the self-time metric it feeds
SPAN_METRIC = {
    "parser.scan": "parser.scan_ms",
    "parser.parse": "parser.parse_ms",
    "graph.build": "graph.build_ms",
    "graph.compile": "graph.compile_ms",
    "core.map": "core.map_ms",
    "core.print": "core.print_ms",
    "daemon.server": "daemon.server_us",
    "daemon.wire": "daemon.wire_us",
    "cache.probe": "cache.probe_us",
    "store.resolve": "store.resolve_us",
    "store.decode": "store.decode_ms",
    "store.encode": "store.encode_ms",
    "store.write": "store.write_ms",
    "fsm.match": "fsm.match_us",
    "federation.server": "federation.server_us",
    "federation.reload": "federation.reload_ms",
    "shard.stitch": "shard.stitch_us",
    "shard.swap": "shard.swap_ms",
    "backend.wait": "backend.wait_us",
    "incremental.update": "incremental.update_ms",
    "incremental.affected": "incremental.affected_ms",
}

#: per-layer metrics -> (end-to-end metrics they should move, workloads)
MOVES = [
    (("parser.scan_ms", "parser.parse_ms", "parser.tokens",
      "graph.build_ms", "graph.compile_ms", "graph.links"),
     ("op_p50_us", "ops_per_s"), ("compile_usenet",)),
    (("core.map_ms", "core.print_ms", "core.routes"),
     ("op_p50_us", "ops_per_s"), ("churn_reload", "compile_usenet")),
    (("core.map_ms",), ("setup_s",), ("lookup_fanout",)),
    (("daemon.server_us", "daemon.wire_us", "cache.probe_us"),
     ("op_p50_us", "ops_per_s"), ("lookup_fanout",)),
    (("cache.hit_ratio", "cache.probe_us"), ("read_p50_us",),
     ("churn_reload",)),
    (("store.resolve_us", "fsm.match_us", "fsm.hits", "fsm.misses"),
     ("read_p99_us",), ("churn_reload",)),
    (("store.build_s", "store.open_ms", "backend.connect_ms"),
     ("setup_s",), ("lookup_fanout",)),
    (("store.snapshot_mb",), ("rss_mb",), ("lookup_fanout",)),
    (("federation.server_us", "shard.stitch_us", "shard.federated_ratio"),
     ("op_p50_us", "ops_per_s"), ("lookup_fanout",)),
    (("backend.wait_us", "backend.calls_per_op", "backend.requests"),
     ("op_p99_us", "op_p50_us"), ("lookup_fanout",)),
    (("incremental.update_ms", "incremental.affected_ms",
      "incremental.remapped_ratio", "incremental.remapped",
      "incremental.reused", "incremental.fallbacks", "store.decode_ms",
      "store.encode_ms", "store.write_ms", "store.bytes_written"),
     ("op_p50_us", "ops_per_s"), ("churn_reload",)),
    (("federation.reload_ms", "shard.swap_ms", "cache.invalidations"),
     ("op_p50_us", "read_p50_us", "read_p99_us"), ("churn_reload",)),
    (("netsim.apply_ms",), (), ("churn_reload",)),
]
