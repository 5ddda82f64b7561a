#!/usr/bin/env python
"""Measure the serving tier and record it in BENCH_routing.json.

Six numbers the ROADMAP cares about:

* snapshot build time (the offline cost of the store);
* incremental update vs full rebuild after a single link-cost change
  (the paper's monthly-revision scenario) — with the byte-identity
  guarantee asserted while we are at it;
* daemon lookup throughput over real sockets, with hot-swap reloads
  happening mid-traffic;
* federated throughput over sharded regional maps — cross-shard
  stitched lookups under load — plus the cost of refreshing ONE
  region (incremental update + single-shard RELOAD) against
  rebuilding every region from scratch;
* **fan-out throughput**: the same stitched-lookup workload answered
  by the in-process federation front end vs the remote-backend front
  end (one spawned shard-daemon *process* per region, whole lookups
  pushed down over sockets on the pipelined wire — tagged frames,
  concurrent clients sharing each connection), with its round trips
  per lookup.  On a single-core runner the socket hop is pure
  overhead; the ratio is the price paid for sharding the CPU, and on
  multicore hosts the per-shard daemons buy it back.
* **multi-worker serving**: lookup throughput against the same
  snapshot at 1, 2, and 4 ``SO_REUSEPORT`` workers (one process per
  worker, the kernel balancing connections), plus the cold-open cost
  of the mmap reader vs the read-everything reader — together the
  case for ``serve --workers N`` on a multicore host.
* **compiled dispatch**: the suffix-automaton matcher vs the
  per-suffix dict walk, at 10k/100k/1M synthetic domain entries —
  raw suffix lookups and ``FederationView`` ownership dispatch,
  plus what the automaton costs to build/serialize/load/inflate and
  how its per-lookup cost scales with the entry count (the O(labels)
  claim).

The maps are deterministic rings-with-chords (explicit numeric costs,
no symbol table) so a one-link revision is easy to synthesize and its
affected-source set is a stable fraction of the whole; the federated
regions are rings chained through shared gateway hosts.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py
    PYTHONPATH=src python benchmarks/bench_service.py \
        --hosts 200 --clients 8 --requests 500 --regions 4
    PYTHONPATH=src python benchmarks/bench_service.py \
        --only fanout --out fanout.json --min-fanout-ratio 0.9
    PYTHONPATH=src python benchmarks/bench_service.py \
        --only workers --out workers.json
    PYTHONPATH=src python benchmarks/bench_service.py \
        --only dispatch --min-dispatch-speedup 3.0
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.pathalias import Pathalias  # noqa: E402
from repro.service.daemon import RouteService, serve  # noqa: E402
from repro.service.incremental import update_snapshot  # noqa: E402
from repro.service.store import (  # noqa: E402
    SnapshotReader,
    build_snapshot,
)


def ring_map(hosts: int, changed_cost: int | None = None) -> str:
    """A ring with +7 chords; optionally reprice one ring link."""
    lines = []
    for i in range(hosts):
        right = (i + 1) % hosts
        left = (i - 1) % hosts
        chord = (i + 7) % hosts
        cost = 100
        if changed_cost is not None and i == 10:
            cost = changed_cost
        lines.append(f"h{i:03d}\th{right:03d}({cost}), "
                     f"h{left:03d}(100), h{chord:03d}(300)")
    return "\n".join(lines) + "\n"


def build(text: str):
    return Pathalias().build([("d.ring", text)])


def bench_store(tmp: Path, hosts: int) -> dict:
    graph = build(ring_map(hosts))
    base = tmp / "base.snap"
    t0 = time.perf_counter()
    info = build_snapshot(graph, base)
    build_s = time.perf_counter() - t0

    revised = build(ring_map(hosts, changed_cost=140))
    t0 = time.perf_counter()
    report = update_snapshot(base, revised, tmp / "inc.snap")
    incremental_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    build_snapshot(revised, tmp / "full.snap",
                   heuristics=report.heuristics)
    full_s = time.perf_counter() - t0
    identical = (tmp / "inc.snap").read_bytes() == \
        (tmp / "full.snap").read_bytes()
    assert identical, "incremental update diverged from full rebuild!"
    assert report.mode == "incremental", report.reason
    return {
        "hosts": hosts,
        "sources": len(info.sources),
        "snapshot_bytes": info.size,
        "build_sec": round(build_s, 3),
        "incremental": {
            "mode": report.mode,
            "remapped_sources": len(report.remapped),
            "reused_sources": report.reused,
            "update_sec": round(incremental_s, 3),
            "full_rebuild_sec": round(full_s, 3),
            "speedup_vs_full": round(full_s / incremental_s, 2)
            if incremental_s > 0 else None,
            "byte_identical_to_full": identical,
        },
    }


async def server_us(service, lines: list, rounds: int = 20) -> float:
    """Server time per request without sockets: ``lines`` through
    ``service.handle_line`` in process, best of ``rounds`` passes.
    The best pass answers from tables the earlier ones left hot, so
    this is the figure a table's promotion to the inflated trie and
    its decoded cost map moves, where the socket round trip in
    ``lookups_per_sec`` hides it."""
    state = service.initial_state()
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for line in lines:
            reply = await service.handle_line(line, state)
            assert reply.startswith("OK "), reply
        best = min(best, time.perf_counter() - t0)
    return round(best / len(lines) * 1e6, 2)


def bench_daemon(tmp: Path, clients: int, requests: int,
                 reloads: int) -> dict:
    base, alt = str(tmp / "base.snap"), str(tmp / "inc.snap")

    async def scenario() -> dict:
        service = RouteService(base, cache_size=0)
        server = await serve(service)
        port = server.sockets[0].getsockname()[1]
        reader = SnapshotReader.open(base)
        destinations = [name for _, name, _ in
                        reader.table(reader.sources()[0]).records()]

        async def client(i: int) -> int:
            r, w = await asyncio.open_connection("127.0.0.1", port)
            count = 0
            for k in range(requests):
                dest = destinations[(i + k * 13) % len(destinations)]
                w.write(f"ROUTE {dest} u{k}\n".encode())
                await w.drain()
                reply = await r.readline()
                assert reply.startswith(b"OK "), reply
                count += 1
            w.write(b"QUIT\n")
            await w.drain()
            w.close()
            return count

        async def reloader() -> None:
            r, w = await asyncio.open_connection("127.0.0.1", port)
            for k in range(reloads):
                target = alt if k % 2 == 0 else base
                w.write(f"RELOAD {target}\n".encode())
                await w.drain()
                reply = await r.readline()
                assert reply.startswith(b"OK reloaded"), reply
                await asyncio.sleep(0.01)
            w.close()

        t0 = time.perf_counter()
        answered = await asyncio.gather(
            *(client(i) for i in range(clients)), reloader())
        elapsed = time.perf_counter() - t0
        lines = [f"ROUTE {destinations[(k * 13) % len(destinations)]}"
                 f" u{k}" for k in range(requests)]
        per_request_us = await server_us(service, lines)
        server.close()
        await server.wait_closed()
        total = sum(a for a in answered if a is not None)
        return {
            "clients": clients,
            "requests": total,
            "reloads_mid_traffic": reloads,
            "seconds": round(elapsed, 3),
            "lookups_per_sec": round(total / elapsed, 1),
            "server_us": per_request_us,
            "dropped": 0,  # every request asserted OK above
        }

    return asyncio.run(scenario())


def regional_map(region: int, hosts: int,
                 changed_cost: int | None = None) -> str:
    """Ring region ``r<region>``, chained to its neighbors through
    shared gateway hosts ``gw<region-1>`` / ``gw<region>``."""
    def host(i: int) -> str:
        return f"r{region}h{i:03d}"

    lines = []
    for i in range(hosts):
        cost = 100
        if changed_cost is not None and i == 3:
            cost = changed_cost
        lines.append(f"{host(i)}\t{host((i + 1) % hosts)}({cost}), "
                     f"{host((i - 1) % hosts)}(100), "
                     f"{host((i + 7) % hosts)}(300)")
    # The inbound gateway (shared with region-1) hangs off host 0,
    # the outbound gateway (shared with region+1) off the last host;
    # both hosts appear in this map AND the neighbor's, which is what
    # makes them federation gateways.
    lines.append(f"gw{region - 1}\t{host(0)}(50)")
    lines.append(f"{host(0)}\tgw{region - 1}(50)")
    lines.append(f"gw{region}\t{host(hosts - 1)}(50)")
    lines.append(f"{host(hosts - 1)}\tgw{region}(50)")
    return "\n".join(lines) + "\n"


def bench_federation(tmp: Path, regions: int, hosts: int,
                     clients: int, requests: int,
                     reloads: int) -> dict:
    """Federated throughput + the single-shard-reload advantage."""
    from repro.service.federation import FederationService
    from repro.service.incremental import update_snapshot
    from repro.service.shard import FederationView, Shard

    paths = {}
    graphs = {}
    t0 = time.perf_counter()
    for r in range(regions):
        name = f"region{r}"
        graphs[name] = build(regional_map(r, hosts))
        paths[name] = str(tmp / f"{name}.snap")
        build_snapshot(graphs[name], paths[name])
    all_build_s = time.perf_counter() - t0

    view = FederationView(
        [Shard.open(name, path) for name, path in paths.items()])
    gateway_pairs = sum(
        1 for i, a in enumerate(view.shard_names())
        for b in view.shard_names()[i + 1:] if view.gateways(a, b))

    # One region's monthly revision: incremental update + the bytes a
    # RELOAD would swap, vs rebuilding every region.
    revised = build(regional_map(1, hosts, changed_cost=140))
    t0 = time.perf_counter()
    report = update_snapshot(paths["region1"], revised,
                             tmp / "region1.rev.snap")
    single_shard_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for r in range(regions):
        name = f"region{r}"
        graph = revised if r == 1 else graphs[name]
        build_snapshot(graph, tmp / f"{name}.rebuild.snap",
                       heuristics=report.heuristics)
    all_rebuild_s = time.perf_counter() - t0

    # Cross-region traffic: sources in region 0, destinations spread
    # over every region (the far ones stitch through every shard).
    far_dests = [f"r{r}h{(7 * k) % hosts:03d}"
                 for k in range(requests)
                 for r in (k % regions,)]

    async def scenario() -> dict:
        service = FederationService(paths,
                                    default_source="r0h000",
                                    cache_size=0)
        server = await serve(service)
        port = server.sockets[0].getsockname()[1]

        async def client(i: int) -> int:
            r, w = await asyncio.open_connection("127.0.0.1", port)
            count = 0
            for k in range(requests):
                dest = far_dests[(i + k) % len(far_dests)]
                w.write(f"ROUTE {dest} u{k}\n".encode())
                await w.drain()
                reply = await r.readline()
                assert reply.startswith(b"OK "), reply
                count += 1
            w.write(b"QUIT\n")
            await w.drain()
            w.close()
            return count

        async def reloader() -> None:
            r, w = await asyncio.open_connection("127.0.0.1", port)
            alt = str(tmp / "region1.rev.snap")
            for k in range(reloads):
                target = alt if k % 2 == 0 else paths["region1"]
                w.write(f"RELOAD region1 {target}\n".encode())
                await w.drain()
                reply = await r.readline()
                assert reply.startswith(b"OK reloaded"), reply
                await asyncio.sleep(0.01)
            w.close()

        t0 = time.perf_counter()
        answered = await asyncio.gather(
            *(client(i) for i in range(clients)), reloader())
        elapsed = time.perf_counter() - t0
        stats = service.stats_line()
        per_request_us = await server_us(
            service, [f"ROUTE {dest} u{k}"
                      for k, dest in enumerate(far_dests)])
        server.close()
        await server.wait_closed()
        total = sum(a for a in answered if a is not None)
        federated = int(stats.split("federated=")[1].split()[0])
        return {
            "regions": regions,
            "hosts_per_region": hosts,
            "gateway_pairs": gateway_pairs,
            "clients": clients,
            "requests": total,
            "federated_answers": federated,
            "shard_reloads_mid_traffic": reloads,
            "seconds": round(elapsed, 3),
            "lookups_per_sec": round(total / elapsed, 1),
            "server_us": per_request_us,
            "build_all_shards_sec": round(all_build_s, 3),
            "single_shard_refresh": {
                "update_sec": round(single_shard_s, 3),
                "all_shards_rebuild_sec": round(all_rebuild_s, 3),
                "speedup_vs_rebuild_all": round(
                    all_rebuild_s / single_shard_s, 2)
                if single_shard_s > 0 else None,
                "update_mode": report.mode,
            },
        }

    return asyncio.run(scenario())


def _spawn_shard_daemon(snapshot_path: str,
                        extra_args: tuple = ()):
    """One `pathalias serve` subprocess on an ephemeral port; returns
    ``(proc, "host:port")`` parsed from its startup line.

    Spawned daemons serve with ``--no-cache`` so the bench legs keep
    measuring the raw dispatch path; the cache has its own leg.
    """
    import os
    import subprocess

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", snapshot_path,
         "--port", "0", "--no-cache", *extra_args],
        stderr=subprocess.PIPE, text=True, env=env)
    # scan for the listening line (warnings may precede it); EOF
    # means the child died and is the only startup failure
    chatter = []
    while True:
        line = proc.stderr.readline()
        if not line:
            _stop_daemons([proc])
            raise RuntimeError(
                "shard daemon failed to start: "
                + (" / ".join(c.strip() for c in chatter)
                   or "no output"))
        if "listening on" in line:
            return proc, line.rsplit("listening on", 1)[1].strip()
        chatter.append(line)


def _stop_daemons(procs) -> None:
    """Stop daemons started by :func:`_spawn_shard_daemon` and close
    their stderr pipes."""
    import subprocess

    for proc in procs:
        proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stderr.close()


#: Timed passes per side of the fan-out comparison; each side runs
#: one untimed warm-up pass before them.
FANOUT_PASSES = 5


def median_iqr(values: list[float]) -> tuple[float, float]:
    """The median of ``values`` and their interquartile range."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def bench_fanout(tmp: Path, regions: int, hosts: int,
                 clients: int, requests: int) -> dict:
    """Stitched-lookup throughput: in-process front end vs socket
    fan-out to per-shard daemon processes, same workload.

    The fan-out pass runs on the pipelined wire (tagged frames, one
    serial stitch per client request) and records *round trips per
    lookup* (total backend requests / lookups answered), so the
    mechanism of any speedup — fewer awaited socket hops — is in the
    numbers, not just the rate.

    Each side runs one untimed warm-up pass, then
    :data:`FANOUT_PASSES` timed passes, every pass against a fresh
    front end (the backend daemons stay up, so the fan-out passes
    meet warmed daemon processes).  The headline rates are the
    medians of the timed passes, with their interquartile ranges
    beside them: one pass of about 0.2 s is too short to gate on.
    """
    from repro.service.federation import FederationService

    paths = {}
    for r in range(regions):
        name = f"region{r}"
        paths[name] = str(tmp / f"fan-{name}.snap")
        build_snapshot(build(regional_map(r, hosts)), paths[name])

    far_dests = [f"r{r}h{(7 * k) % hosts:03d}"
                 for k in range(requests)
                 for r in (k % regions,)]

    async def hammer(service) -> tuple[int, float]:
        """The shared workload: `clients` connections, `requests`
        cross-region ROUTEs each, against an already-built service."""
        server = await serve(service)
        port = server.sockets[0].getsockname()[1]

        async def client(i: int) -> int:
            r, w = await asyncio.open_connection("127.0.0.1", port)
            count = 0
            for k in range(requests):
                dest = far_dests[(i + k) % len(far_dests)]
                w.write(f"ROUTE {dest} u{k}\n".encode())
                await w.drain()
                reply = await r.readline()
                assert reply.startswith(b"OK "), reply
                count += 1
            w.write(b"QUIT\n")
            await w.drain()
            w.close()
            return count

        t0 = time.perf_counter()
        answered = await asyncio.gather(
            *(client(i) for i in range(clients)))
        elapsed = time.perf_counter() - t0
        server.close()
        await server.wait_closed()
        return sum(answered), elapsed

    def rate(total: int, elapsed: float) -> float:
        return total / elapsed if elapsed > 0 else 0.0

    async def run_inprocess():
        return await hammer(
            FederationService(paths, default_source="r0h000",
                              cache_size=0))

    in_warm, _ = asyncio.run(run_inprocess())
    in_passes = [asyncio.run(run_inprocess())
                 for _ in range(FANOUT_PASSES)]
    in_rate, in_iqr = median_iqr([rate(*p) for p in in_passes])

    procs = []
    try:
        backends = {}
        for name, snap in paths.items():
            proc, addr = _spawn_shard_daemon(snap)
            procs.append(proc)
            backends[name] = addr

        async def run_fanout():
            service = await FederationService.create(
                backends=backends, default_source="r0h000",
                cache_size=0)
            total, elapsed = await hammer(service)
            shards = service.view.shards.values()
            result = (total, elapsed,
                      sum(s.backend.requests for s in shards),
                      [s.backend.health() for s in shards])
            await service.aclose()
            return result

        fan_warm = asyncio.run(run_fanout())[0]
        fan_passes = [asyncio.run(run_fanout())
                      for _ in range(FANOUT_PASSES)]
    finally:
        _stop_daemons(procs)

    fan_rate, fan_iqr = median_iqr([rate(*p[:2]) for p in fan_passes])
    fan_total = sum(p[0] for p in fan_passes)
    pipelined = {
        "lookups_per_sec": round(fan_rate, 1),
        "lookups_per_sec_iqr": round(fan_iqr, 1),
        "vs_inprocess": round(fan_rate / in_rate, 3)
        if in_rate > 0 else None,
        "roundtrips_per_lookup": round(
            sum(p[2] for p in fan_passes) / fan_total, 2)
        if fan_total else None,
        "backend_health": fan_passes[-1][3],
    }
    totals = {in_warm, fan_warm, *(p[0] for p in in_passes),
              *(p[0] for p in fan_passes)}
    return {
        "regions": regions,
        "hosts_per_region": hosts,
        "clients": clients,
        "requests": in_passes[0][0],
        "backend_daemons": len(procs),
        "passes": FANOUT_PASSES,
        "inprocess_lookups_per_sec": round(in_rate, 1),
        "inprocess_lookups_per_sec_iqr": round(in_iqr, 1),
        "pipelined": pipelined,
        # the headline pair tracked across PRs: the pipelined wire
        "fanout_lookups_per_sec": pipelined["lookups_per_sec"],
        "fanout_lookups_per_sec_iqr": pipelined["lookups_per_sec_iqr"],
        "fanout_vs_inprocess": pipelined["vs_inprocess"],
        "all_answered": len(totals) == 1,
    }


def bench_workers(tmp: Path, hosts: int, clients: int,
                  requests: int) -> dict:
    """Multicore serving: the same snapshot behind 1, 2, and 4
    ``SO_REUSEPORT`` worker processes, plus the cold-open cost of the
    mmap reader vs the read-everything reader.

    The client side is plain blocking sockets on threads — mostly
    parked in recv, so the GIL does not serialize the *daemon* side,
    which is where the worker processes earn their scaling.  On a
    platform without ``SO_REUSEPORT`` only the single-worker tier
    runs.
    """
    import socket as socketlib
    import threading

    snap = str(tmp / "workers.snap")
    build_snapshot(build(ring_map(hosts)), snap)

    def best_open_ms(use_mmap: bool, rounds: int = 30) -> float:
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            SnapshotReader.open(snap, use_mmap=use_mmap).close()
            best = min(best, time.perf_counter() - t0)
        return round(best * 1000, 3)

    mmap_ms = best_open_ms(True)
    read_ms = best_open_ms(False)

    reader = SnapshotReader.open(snap)
    destinations = [name for _, name, _ in
                    reader.table(reader.sources()[0]).records()]
    reader.close()

    def hammer(addr, idx: int, counts: dict) -> None:
        with socketlib.create_connection(addr) as conn:
            stream = conn.makefile("rwb")
            done = 0
            for k in range(requests):
                dest = destinations[(idx + k * 13) % len(destinations)]
                stream.write(f"ROUTE {dest} u{k}\n".encode())
                stream.flush()
                reply = stream.readline()
                assert reply.startswith(b"OK "), reply
                done += 1
            stream.write(b"QUIT\n")
            stream.flush()
        counts[idx] = done

    tiers = [1]
    if hasattr(socketlib, "SO_REUSEPORT"):
        tiers += [2, 4]
    throughput = {}
    for workers in tiers:
        extra = ("--workers", str(workers)) if workers > 1 else ()
        proc, addr_str = _spawn_shard_daemon(snap, extra)
        host, _, port = addr_str.rpartition(":")
        addr = (host, int(port))
        try:
            counts: dict = {}
            threads = [threading.Thread(target=hammer,
                                        args=(addr, i, counts))
                       for i in range(clients)]
            t0 = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - t0
            total = sum(counts.values())
            throughput[str(workers)] = {
                "requests": total,
                "seconds": round(elapsed, 3),
                "lookups_per_sec": round(total / elapsed, 1)
                if elapsed > 0 else None,
            }
        finally:
            _stop_daemons([proc])

    base = throughput["1"]["lookups_per_sec"] or 0.0
    for tier in throughput.values():
        rate = tier["lookups_per_sec"] or 0.0
        tier["vs_one_worker"] = round(rate / base, 2) if base else None
    return {
        "hosts": hosts,
        "clients": clients,
        "requests_per_client": requests,
        "reuseport_available": hasattr(socketlib, "SO_REUSEPORT"),
        "cold_open": {
            "snapshot_bytes": Path(snap).stat().st_size,
            "mmap_ms": mmap_ms,
            "read_ms": read_ms,
            "read_vs_mmap": round(read_ms / mmap_ms, 2)
            if mmap_ms > 0 else None,
        },
        "throughput": throughput,
    }


class _IndexShard:
    """A synthetic federation shard: a name and an ownership index —
    the only surface :class:`FederationView`'s owner dispatch consumes.
    Lets the dispatch bench scale to 10^6 entries without building
    10^6-record snapshots."""

    def __init__(self, name: str, index: list):
        self.name = name
        self._index = index
        self.source_set = frozenset(
            n for n, is_domain in index if not is_domain)

    def routing_index(self) -> list:
        return list(self._index)


def _dispatch_keys(entries: int) -> list:
    """A synthetic internet-scale name inventory: one leading-dot
    domain key per ~50 hosts, hosts spread under them — sorted the way
    every compile site sorts (UTF-8 bytes)."""
    tlds = ("edu", "com", "org", "net")
    doms = max(1, entries // 50)
    keys = {f".dept{d}.univ{d % 97}.{tlds[d % 4]}"
            for d in range(doms)}
    i = 0
    while len(keys) < entries:
        d = i % doms
        keys.add(f"host{i}.dept{d}.univ{d % 97}.{tlds[d % 4]}")
        i += 1
    return sorted(keys, key=lambda k: k.encode("utf-8"))


def _dispatch_probes(keys: list, count: int) -> list:
    """The churn-motivated probe mix: exact hosts, deep ephemeral
    aliases under known domains (the walk must probe every suffix;
    the automaton stops at the first unknown label), and misses.

    Host draws are power-law skewed the way mail traffic actually
    concentrates — a few popular domains take most of the lookups
    while the long tail still gets probed — so per-lookup timings
    reflect routing traffic, not a uniform sweep of the keyspace.
    """
    import random as _random

    rng = _random.Random(7)
    hosts = [k for k in keys if not k.startswith(".")]
    nhosts = len(hosts)
    out = []
    for _ in range(count):
        r = rng.random()
        host = hosts[int(nhosts * rng.random() ** 3)]
        if r < 0.2:
            out.append(host)
        elif r < 0.85:
            depth = rng.randint(4, 16)
            alias = ".".join(f"alias{rng.randrange(1000)}"
                             for _ in range(depth))
            out.append(alias + host[host.index("."):])
        else:
            out.append(".".join(
                f"x{j}" for j in range(rng.randint(4, 16)))
                + ".nowhere.xyz")
    return out


def bench_dispatch(sizes: list, probes: int) -> dict:
    """Compiled suffix-automaton dispatch vs the per-suffix dict walk.

    Two legs per entry count: the raw suffix-lookup primitive
    (automaton ``match`` vs the :func:`domain_suffixes` probe walk
    over a dict) and the real ownership surface
    (``FederationView.owners_of`` in fsm vs dict mode, over synthetic
    shards).  Also records what the automaton costs to build,
    serialize, load, and inflate — the price paid once per
    snapshot/update or table open — and the per-lookup scaling across
    sizes (the O(labels) claim: cost must not grow with the entry
    count).  ``build_sec`` times ``compile_keys`` (trie plus linking
    into the in-memory matcher), ``serialize_sec`` ``encode_keys``
    (trie plus the stored block, no linking), and ``inflate_sec``
    (best of 3) decoding the stored block plus linking it.

    ``inplace`` times what a freshly loaded snapshot table answers
    with instead: the walk over the stored block (``ns_per_lookup``,
    on the same warm probes as the trie's ``fsm_ns_per_lookup``) and
    its first touch (``first_touch_us``: opening the block plus one
    match).  ``break_even`` is the lookup count at which inflating
    pays for itself, ``inflate_sec`` over the walk's extra cost per
    lookup, and that count per automaton state: the figure
    ``store.BREAK_EVEN_PER_STATE`` is set from.
    """
    from repro.service.fsm import (FlatSuffixAutomaton, compile_keys,
                                   encode_keys)
    from repro.service.resolver import domain_suffixes
    from repro.service.shard import FederationView

    def best_of(fn, rounds: int = 3) -> float:
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    out: dict = {"probes": probes, "sizes": {}}
    fsm_ns: dict = {}
    for entries in sizes:
        keys = _dispatch_keys(entries)
        targets = _dispatch_probes(keys, probes)

        t0 = time.perf_counter()
        compile_keys(keys)
        build_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        blob = encode_keys(keys)
        serialize_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        flat = FlatSuffixAutomaton(blob)
        load_s = time.perf_counter() - t0
        inflate_s = best_of(flat.inflate)
        auto = flat.inflate()

        table = {k: i for i, k in enumerate(keys)}

        def walk_lookup(target, _get=table.get,
                        _suffixes=domain_suffixes):
            for key in _suffixes(target):
                hit = _get(key)
                if hit is not None:
                    return hit
            return -1

        match = auto.match
        fsm_s = best_of(lambda: [match(t) for t in targets])
        dict_s = best_of(lambda: [walk_lookup(t) for t in targets])

        # the ownership surface: one view per mode over 3 synthetic
        # shards splitting the same index
        index = [(k, k.startswith(".")) for k in keys]

        def shards_of() -> list:
            return [_IndexShard(f"s{i}", index[i::3])
                    for i in range(3)]

        fsm_view = FederationView(shards_of())
        dict_view = FederationView(shards_of(), dispatch="dict")
        fsm_view.owners_of("warm.up")  # build the cached automaton
        fsm_owner = fsm_view.owners_of
        dict_owner = dict_view.owners_of
        own_fsm_s = best_of(lambda: [fsm_owner(t) for t in targets])
        own_dict_s = best_of(lambda: [dict_owner(t) for t in targets])

        # the O(labels) scaling leg: a small probe set repeated until
        # warm, so the number isolates the automaton's per-label walk
        # from how much of a uniform 20k-probe sweep happens to fit in
        # cache at each entry count (a DRAM-residency question, not an
        # algorithmic one — the throughput legs above keep the full
        # mixed workload)
        warm = _dispatch_probes(keys, 512)
        warm_s = best_of(lambda: [match(t) for t in warm], rounds=15)
        fsm_ns[entries] = warm_s / len(warm) * 1e9

        # the in-place walk a reloaded table answers with until its
        # break-even lookup, on the same probes
        walk = flat.match
        walk_s = best_of(lambda: [walk(t) for t in warm], rounds=15)
        walk_ns = walk_s / len(warm) * 1e9
        first_s = best_of(
            lambda: FlatSuffixAutomaton(blob).match(warm[0]), rounds=15)
        extra_ns = walk_ns - fsm_ns[entries]
        break_even = (round(inflate_s / extra_ns * 1e9)
                      if extra_ns > 0 else None)
        out["sizes"][str(entries)] = {
            "entries": entries,
            "automaton": {
                "states": flat.state_count,
                "edges": flat.edge_count,
                "blob_bytes": len(blob),
                "build_sec": round(build_s, 3),
                "serialize_sec": round(serialize_s, 3),
                "load_sec": round(load_s, 6),
                "inflate_sec": round(inflate_s, 3),
            },
            "inplace": {
                "ns_per_lookup": round(walk_ns, 1),
                "first_touch_us": round(first_s * 1e6, 1),
            },
            "break_even": {
                "lookups": break_even,
                "per_state": round(break_even / flat.state_count, 3)
                if break_even is not None else None,
            },
            "suffix_lookup": {
                "fsm_per_sec": round(probes / fsm_s, 1),
                "dict_per_sec": round(probes / dict_s, 1),
                "speedup": round(dict_s / fsm_s, 2),
            },
            "ownership": {
                "fsm_per_sec": round(probes / own_fsm_s, 1),
                "dict_per_sec": round(probes / own_dict_s, 1),
                "speedup": round(own_dict_s / own_fsm_s, 2),
            },
        }
    lo, hi = min(fsm_ns), max(fsm_ns)
    out["scaling"] = {
        "fsm_ns_per_lookup": {str(n): round(v, 1)
                              for n, v in fsm_ns.items()},
        # the O(labels) claim: per-lookup cost at the largest entry
        # count over the smallest (acceptance bar: <= 1.5)
        "largest_vs_smallest": round(fsm_ns[hi] / fsm_ns[lo], 3)
        if fsm_ns[lo] > 0 else None,
    }
    return out


def bench_cache(tmp: Path, nodes: int, probes: int) -> dict:
    """The generation-stamped result cache: hot-pair speedup, hit
    ratio under power-law skew, and invalidation cost.

    One churn-shaped federation (the soak generator's topology, so
    destinations include cross-shard stitches and domain-suffix
    matches) serves the same traffic twice — uncached
    (``cache_size=0``, the differential-oracle configuration) and
    through the default bounded cache:

    * **hot pair** — one (source, dest) hammered through
      ``handle_line``; the cached-over-uncached speedup is the CI
      gate (``--min-cache-speedup``), reproducing the paper-era
      observation that query traffic concentrates while tables
      change rarely.
    * **skew** — ``probes`` power-law-skewed draws over the whole
      destination inventory (the shape mail traffic actually has):
      served hit ratio and per-lookup time with the default-sized
      cache, versus the same draws uncached.
    * **invalidation** — the O(1) generation bump timed over a cache
      filled to capacity (no key scanning: the time must not scale
      with the entry count), plus the first post-bump (refill)
      lookup.
    """
    import random as _random

    from repro.netsim.churn import ChurnParams, ChurnScenario
    from repro.service.federation import FederationService

    scenario = ChurnScenario(ChurnParams(nodes=nodes, events=1,
                                         seed=11))
    graphs = scenario.build_graphs()
    paths: dict[str, str] = {}
    t0 = time.perf_counter()
    for name in scenario.shard_names:
        paths[name] = str(tmp / f"cache-{name}.snap")
        build_snapshot(graphs[name], paths[name])
    build_s = time.perf_counter() - t0

    async def measure() -> dict:
        uncached = FederationService(dict(paths), cache_size=0)
        cached = FederationService(dict(paths))
        rng = _random.Random(5)
        src, dst = next(iter(scenario.sample_pairs(rng, 1)))

        async def hammer(svc, lines, warm: int = 10) -> float:
            state = svc.initial_state()
            await svc.handle_line(f"SOURCE {src}", state)
            for line in lines[:warm]:
                reply = await svc.handle_line(line, state)
                assert reply.startswith("OK"), reply
            t0 = time.perf_counter()
            for line in lines:
                await svc.handle_line(line, state)
            return time.perf_counter() - t0

        # -- hot pair ----------------------------------------------
        hot = [f"ROUTE {dst} u"] * probes
        unc_s = await hammer(uncached, hot)
        hit_s = await hammer(cached, hot)

        # -- power-law skew over the whole inventory ---------------
        dests = scenario.destinations
        draws = [f"ROUTE {dests[int(len(dests) * rng.random() ** 3)]}"
                 for _ in range(probes)]
        skew_unc_s = await hammer(uncached, draws, warm=0)
        cache = cached.cache
        h0, m0 = cache.hits, cache.misses
        skew_hit_s = await hammer(cached, draws, warm=0)
        dh, dm = cache.hits - h0, cache.misses - m0

        # -- invalidation ------------------------------------------
        # fill to capacity, then time the bump: an O(1) counter
        # increment, never a scan of the 4096 live entries
        state = cached.initial_state()
        await cached.handle_line(f"SOURCE {src}", state)
        for name in dests[:cache.size]:
            await cached.handle_line(f"ROUTE {name}", state)
        rounds = 1000
        t0 = time.perf_counter()
        for _ in range(rounds):
            cache.bump()
        bump_s = (time.perf_counter() - t0) / rounds
        t0 = time.perf_counter()
        await cached.handle_line(f"ROUTE {dst} u", state)
        refill_s = time.perf_counter() - t0

        return {
            "nodes": nodes,
            "shards": scenario.regions,
            "probes": probes,
            "cache_entries": cache.size,
            "build_gen0_sec": round(build_s, 3),
            "hot_pair": {
                "uncached_us": round(unc_s / probes * 1e6, 2),
                "cached_us": round(hit_s / probes * 1e6, 2),
                "uncached_per_sec": round(probes / unc_s, 1),
                "cached_per_sec": round(probes / hit_s, 1),
                "speedup": round(unc_s / hit_s, 2)
                if hit_s > 0 else None,
            },
            "skew": {
                "hit_ratio": round(dh / (dh + dm), 4)
                if dh + dm else None,
                "uncached_us": round(skew_unc_s / probes * 1e6, 2),
                "cached_us": round(skew_hit_s / probes * 1e6, 2),
                "speedup": round(skew_unc_s / skew_hit_s, 2)
                if skew_hit_s > 0 else None,
            },
            "invalidation": {
                "bump_us": round(bump_s * 1e6, 3),
                "refill_lookup_us": round(refill_s * 1e6, 2),
            },
        }

    return asyncio.run(measure())


def bench_churn(tmp: Path, nodes: int, events: int) -> dict:
    """Churn replay: revision events/s applied end to end, and lookup
    latency measured *during* the replay.

    The scenario is :class:`repro.netsim.churn.ChurnScenario` — the
    soak harness's generator — replayed through the real pipeline:
    apply → ``update_snapshot`` (``full_threshold=1.0``; a full
    fallback is counted and would fail the soak) → per-shard RELOAD
    into a live federation front end.  Between events, sampled
    SOURCE+ROUTE/EXACT probes time the service's answer path, so the
    p99 includes lookups that landed next to a snapshot swap.
    """
    import random as _random

    from repro.netsim.churn import ChurnParams, ChurnScenario
    from repro.service.federation import FederationService

    scenario = ChurnScenario(ChurnParams(nodes=nodes, events=events,
                                         seed=42))
    graphs = scenario.build_graphs()
    paths: dict[str, str] = {}
    t0 = time.perf_counter()
    for name in scenario.shard_names:
        paths[name] = str(tmp / f"churn-{name}.g0.snap")
        build_snapshot(graphs[name], paths[name])
    build_s = time.perf_counter() - t0

    async def replay():
        service = FederationService(dict(paths), cache_size=0)
        rng = _random.Random(99)
        latencies: list[float] = []
        fallbacks = 0
        reloads = 0
        t0 = time.perf_counter()
        for event in scenario.stream:
            for name in scenario.apply(event):
                new_path = str(
                    tmp / f"churn-{name}.g{event.gen + 1}.snap")
                report = update_snapshot(paths[name], graphs[name],
                                         new_path,
                                         full_threshold=1.0)
                if report.mode != "incremental":
                    fallbacks += 1
                await service.reload_shard(name, new_path)
                old = paths[name]
                paths[name] = new_path
                reloads += 1
                if not old.endswith(".g0.snap"):
                    Path(old).unlink()
            state = service.initial_state()
            for n, (src, dst) in enumerate(
                    scenario.sample_pairs(rng, 4)):
                verb = "ROUTE" if n % 2 else "EXACT"
                t = time.perf_counter()
                await service.handle_line(f"SOURCE {src}", state)
                reply = await service.handle_line(f"{verb} {dst}",
                                                  state)
                latencies.append(time.perf_counter() - t)
                assert reply.startswith("OK"), reply
        return (time.perf_counter() - t0, latencies, fallbacks,
                reloads)

    elapsed, latencies, fallbacks, reloads = asyncio.run(replay())
    latencies.sort()
    return {
        "nodes": nodes,
        "shards": scenario.regions,
        "events": events,
        "reloads": reloads,
        "full_fallbacks": fallbacks,
        "build_gen0_sec": round(build_s, 3),
        "replay_sec": round(elapsed, 3),
        "events_per_sec": round(events / elapsed, 2),
        "p50_lookup_ms": round(
            latencies[len(latencies) // 2] * 1000, 3),
        "p99_lookup_ms": round(
            latencies[int(len(latencies) * 0.99)] * 1000, 3),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="benchmark the route service tier")
    parser.add_argument("--hosts", type=int, default=120)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--requests", type=int, default=400,
                        help="lookups per client")
    parser.add_argument("--reloads", type=int, default=20)
    parser.add_argument("--regions", type=int, default=3,
                        help="federation shards (chained rings)")
    parser.add_argument("--region-hosts", type=int, default=40,
                        help="hosts per federated region")
    parser.add_argument("--out", default=str(
        Path(__file__).resolve().parent.parent / "BENCH_routing.json"))
    parser.add_argument("--only", choices=("fanout", "workers",
                                           "churn", "dispatch",
                                           "cache"),
                        default=None,
                        help="run a single section (the CI cluster "
                             "job measures just the fan-out tier; "
                             "the multicore leg just the workers; "
                             "the soak job just the churn replay; "
                             "the dispatch leg just the compiled "
                             "suffix automaton vs the dict walk; "
                             "the cache leg just the generation-"
                             "stamped result cache)")
    parser.add_argument("--dispatch-entries",
                        default="10000,100000,1000000",
                        metavar="N,N,...",
                        help="entry counts for the dispatch section "
                             "(default 10000,100000,1000000)")
    parser.add_argument("--dispatch-probes", type=int, default=20000,
                        help="lookups per dispatch measurement")
    parser.add_argument("--min-dispatch-speedup", type=float,
                        default=None, metavar="X",
                        help="exit nonzero unless fsm ownership "
                             "dispatch beats the dict walk by X at "
                             "100000 entries (the CI dispatch gate)")
    parser.add_argument("--churn-nodes", type=int, default=20000,
                        help="churn scenario size (nodes)")
    parser.add_argument("--churn-events", type=int, default=100,
                        help="churn revision events to replay")
    parser.add_argument("--cache-nodes", type=int, default=20000,
                        help="cache-section scenario size (nodes; "
                             "the CI gate runs 100000)")
    parser.add_argument("--cache-probes", type=int, default=20000,
                        help="lookups per cache measurement")
    parser.add_argument("--min-cache-speedup", type=float,
                        default=None, metavar="X",
                        help="exit nonzero unless the cached hot-pair "
                             "lookup beats the uncached daemon path "
                             "by X (the CI cache gate)")
    parser.add_argument("--min-fanout-ratio", type=float, default=None,
                        metavar="X",
                        help="exit nonzero unless pipelined fan-out "
                             "throughput reaches X times the "
                             "in-process front end (the CI cluster "
                             "job's throughput gate)")
    args = parser.parse_args(argv)

    import tempfile

    section: dict = {}
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        if args.only is None:
            print("benchmarking snapshot store + incremental "
                  "update...", file=sys.stderr)
            section["store"] = bench_store(tmp, args.hosts)
            print("benchmarking daemon throughput under reload...",
                  file=sys.stderr)
            section["daemon"] = bench_daemon(
                tmp, args.clients, args.requests, args.reloads)
            print("benchmarking federated throughput + single-shard "
                  "reload...", file=sys.stderr)
            section["federation"] = bench_federation(
                tmp, args.regions, args.region_hosts, args.clients,
                args.requests, args.reloads)
        if args.only in (None, "fanout"):
            print("benchmarking fan-out (per-shard daemon processes) "
                  "vs in-process front end...", file=sys.stderr)
            section["fanout"] = bench_fanout(
                tmp, args.regions, args.region_hosts, args.clients,
                args.requests)
        if args.only in (None, "workers"):
            print("benchmarking multi-worker serving + cold-open "
                  "mmap vs read...", file=sys.stderr)
            section["workers"] = bench_workers(
                tmp, args.hosts, args.clients, args.requests)
        if args.only in (None, "churn"):
            print("benchmarking churn replay (revision stream -> "
                  "incremental update -> RELOAD)...", file=sys.stderr)
            section["churn"] = bench_churn(
                tmp, args.churn_nodes, args.churn_events)
        if args.only in (None, "dispatch"):
            print("benchmarking compiled suffix-automaton dispatch "
                  "vs dict walk...", file=sys.stderr)
            sizes = [int(s) for s in
                     args.dispatch_entries.split(",") if s]
            section["dispatch"] = bench_dispatch(
                sizes, args.dispatch_probes)
        if args.only in (None, "cache"):
            print("benchmarking generation-stamped result cache vs "
                  "uncached lookups...", file=sys.stderr)
            section["cache"] = bench_cache(
                tmp, args.cache_nodes, args.cache_probes)

    out = Path(args.out)
    document = json.loads(out.read_text()) if out.exists() else {
        "benchmark": "BENCH_routing"}
    document.setdefault("service", {}).update(section)
    out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote service section -> {out}", file=sys.stderr)
    print(json.dumps(section, indent=2))
    if args.min_fanout_ratio is not None and "fanout" in section:
        ratio = section["fanout"]["fanout_vs_inprocess"]
        if ratio is None or ratio < args.min_fanout_ratio:
            print(f"FAIL: pipelined fan-out at {ratio}x in-process "
                  f"is below the {args.min_fanout_ratio}x floor",
                  file=sys.stderr)
            return 1
    if args.min_cache_speedup is not None and "cache" in section:
        speedup = section["cache"]["hot_pair"]["speedup"]
        if speedup is None or speedup < args.min_cache_speedup:
            print(f"FAIL: cached hot-pair lookup at {speedup}x the "
                  f"uncached daemon path is below the "
                  f"{args.min_cache_speedup}x floor",
                  file=sys.stderr)
            return 1
    if args.min_dispatch_speedup is not None and \
            "dispatch" in section:
        sizes = section["dispatch"]["sizes"]
        gate_at = "100000" if "100000" in sizes else max(
            sizes, key=int)
        speedup = sizes[gate_at]["ownership"]["speedup"]
        if speedup < args.min_dispatch_speedup:
            print(f"FAIL: fsm ownership dispatch at {speedup}x dict "
                  f"({gate_at} entries) is below the "
                  f"{args.min_dispatch_speedup}x floor",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
