#!/usr/bin/env python3
"""Churn soak harness: replay a live revision stream against a
serving cluster while clients hammer it, and prove the answers.

The generator half lives in :mod:`repro.netsim.churn`: a seeded
synthetic federation (100k..1M nodes) plus a typed revision stream —
cost change, link add/drop, host retire, domain move — every event a
pure repricing over a structurally constant map, so the incremental
updater (:func:`repro.service.incremental.update_snapshot`) never
falls back to a full rebuild.  This driver is the serving half:

1. build the generation-0 snapshots and start a cluster — an
   in-process :class:`~repro.service.federation.FederationService` on
   a real TCP port, or (``--backend``) one spawned ``pathalias
   serve`` daemon per shard behind the same front end;
2. keep a configurable client mix (ROUTE/EXACT, pipelined tagged
   batches and lockstep, long-lived connections) hammering the
   cluster for the whole run — any ``ERR`` reply or dropped
   connection is an invariant violation;
3. replay the stream: apply each event to the live graphs,
   incrementally update the touched shards' snapshots
   (``full_threshold=1.0`` — a single full fallback fails the run),
   and push the swap through RELOAD.  In ``--backend`` mode the
   RELOAD goes *directly to the shard daemon*, and the front end must
   observe it through the NOTIFY push channel within
   ``--staleness-sec`` — the front end's own RELOAD verb is asserted
   unused;
4. after every generation, a **differential invariant checker**
   replays sampled SOURCE/ROUTE/EXACT probes over the wire and
   byte-compares each reply against an independent in-process oracle
   federation holding the same generation's snapshots — the oracle is
   pinned to ``dispatch="dict"`` (the paper's per-suffix walk), so
   when the cluster under test runs the default compiled automaton
   every probe also differentially proves the FSM against the dict
   walk; every
   ``--oracle-every`` generations the touched shard's snapshot is
   additionally rebuilt from scratch and byte-compared against the
   incrementally-updated file.  With ``--cache`` the cluster under
   test serves through the generation-stamped result cache while the
   oracle stays uncached (``dict`` dispatch forces its cache off), so
   the same byte-comparison proves no stale cached answer ever
   survives a RELOAD/NOTIFY invalidation;
5. STATS counters are polled each generation and asserted monotone.

Exit status is non-zero on any violation: a differential mismatch, a
stale or structural (full-fallback) update, a client error or dropped
connection, a non-monotone counter, or an unobserved backend reload.

Quick start (also the CI ``soak`` job, scaled down)::

    PYTHONPATH=src python tools/soak.py --nodes 2000 --events 60

Acceptance scale::

    PYTHONPATH=src python tools/soak.py --nodes 100000 --events 5000
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.netsim.churn import (  # noqa: E402
    ChurnParams,
    ChurnScenario,
    read_log,
    write_log,
)
from repro.service.federation import FederationService  # noqa: E402
from repro.service.daemon import serve  # noqa: E402
from repro.service.incremental import update_snapshot  # noqa: E402
from repro.service.store import build_snapshot  # noqa: E402

#: STATS counters that may only ever grow (the monotonicity invariant).
MONOTONE_KEYS = ("lookups", "hits", "misses", "reloads", "resyncs",
                 "connections", "n_route", "n_exact", "n_reload",
                 "n_cache_hits", "n_cache_misses",
                 "n_cache_invalidations")

#: How often the staleness poll re-reads SHARDS, seconds.
POLL_INTERVAL = 0.02


class Violations:
    """The run's sins, bucketed; any entry anywhere fails the run."""

    def __init__(self) -> None:
        self.differential: list[str] = []
        self.fallbacks: list[str] = []
        self.client_errors: list[str] = []
        self.dropped: list[str] = []
        self.stats: list[str] = []
        self.staleness: list[str] = []

    def total(self) -> int:
        """Violation count across every bucket."""
        return (len(self.differential) + len(self.fallbacks)
                + len(self.client_errors) + len(self.dropped)
                + len(self.stats) + len(self.staleness))

    def report(self) -> list[str]:
        """Human-readable lines, one per non-empty bucket."""
        out = []
        for label, bucket in (
                ("differential mismatches", self.differential),
                ("full-rebuild fallbacks", self.fallbacks),
                ("client errors", self.client_errors),
                ("dropped connections", self.dropped),
                ("stats regressions", self.stats),
                ("staleness violations", self.staleness)):
            if bucket:
                out.append(f"  {label}: {len(bucket)}")
                out.extend(f"    {line}" for line in bucket[:5])
                if len(bucket) > 5:
                    out.append(f"    ... and {len(bucket) - 5} more")
        return out


class Conn:
    """One line-protocol connection with lockstep helpers."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Conn":
        """Dial the daemon at ``host:port``."""
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(self, line: str) -> str:
        """One request out, one reply line back (lockstep)."""
        self.writer.write(line.encode("utf-8") + b"\n")
        await self.writer.drain()
        raw = await self.reader.readline()
        if not raw:
            raise ConnectionError("daemon closed the connection")
        return raw.decode("utf-8").rstrip("\n")

    def close(self) -> None:
        """Tear the connection down (best effort)."""
        try:
            self.writer.close()
        except Exception:
            pass


def _spawn_shard_daemon(snapshot_path: str, dispatch: str = "fsm",
                        cache: bool = False):
    """One ``pathalias serve`` subprocess on an ephemeral port;
    returns ``(proc, (host, port))`` parsed from its startup line."""
    import os
    import subprocess

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", snapshot_path,
         "--port", "0", "--dispatch", dispatch]
        + ([] if cache else ["--no-cache"]),
        stderr=subprocess.PIPE, text=True, env=env)
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
            host, _, port = line.rsplit("listening on", 1)[1] \
                .strip().rpartition(":")
            return proc, (host, int(port))
        chatter.append(line)


def _stop_daemons(procs) -> None:
    """Stop daemons started by :func:`_spawn_shard_daemon` and close
    their stderr pipes."""
    for proc in procs:
        proc.terminate()
    for proc in procs:
        proc.wait(timeout=10)
        proc.stderr.close()


async def _client(idx: int, addr: tuple, scenario: ChurnScenario,
                  seed: int, pipelined: bool, stop: asyncio.Event,
                  latencies: list, violations: Violations) -> int:
    """One hammering client; returns its request count.

    Lockstep clients alternate ROUTE and EXACT one at a time;
    pipelined clients send tagged batches of eight and match replies
    by tag (replies may interleave with NOTIFY-era reload traffic and
    return out of order — the tag is the correlation).  Every reply
    must be ``OK``; anything else, or a torn connection, is a
    violation.  Each client re-homes (SOURCE) every 64 requests.
    """
    rng = random.Random((seed << 8) ^ idx)
    sources = scenario.sources
    dests = scenario.destinations
    count = 0
    try:
        conn = await Conn.open(*addr)
        reply = await conn.request(f"SOURCE {rng.choice(sources)}")
        if not reply.startswith("OK"):
            violations.client_errors.append(f"client{idx}: {reply}")
        while not stop.is_set():
            if count and count % 64 == 0:
                reply = await conn.request(
                    f"SOURCE {rng.choice(sources)}")
                if not reply.startswith("OK"):
                    violations.client_errors.append(
                        f"client{idx}: {reply}")
            if pipelined:
                tags = {}
                out = []
                for k in range(8):
                    verb = "ROUTE" if (count + k) % 2 else "EXACT"
                    tag = f"c{idx}x{count + k}"
                    tags[tag] = verb
                    out.append(f"@{tag} {verb} {rng.choice(dests)}")
                t0 = time.perf_counter()
                conn.writer.write(("\n".join(out) + "\n")
                                  .encode("utf-8"))
                await conn.writer.drain()
                for _ in range(len(tags)):
                    raw = await conn.reader.readline()
                    if not raw:
                        raise ConnectionError("EOF mid-batch")
                    reply = raw.decode("utf-8").rstrip("\n")
                    tag, _, rest = reply.partition(" ")
                    if not tag.startswith("@") or \
                            tags.pop(tag[1:], None) is None:
                        violations.client_errors.append(
                            f"client{idx}: unmatched frame {reply!r}")
                    elif not rest.startswith("OK"):
                        violations.client_errors.append(
                            f"client{idx}: {rest}")
                elapsed = time.perf_counter() - t0
                latencies.extend([elapsed / 8] * 8)
                count += 8
            else:
                verb = "ROUTE" if count % 2 else "EXACT"
                t0 = time.perf_counter()
                reply = await conn.request(
                    f"{verb} {rng.choice(dests)}")
                latencies.append(time.perf_counter() - t0)
                if not reply.startswith("OK"):
                    violations.client_errors.append(
                        f"client{idx}: {reply}")
                count += 1
        conn.close()
    except (ConnectionError, OSError) as exc:
        violations.dropped.append(f"client{idx}: {exc}")
    return count


def _parse_stats(reply: str) -> dict[str, int]:
    """Integer ``key=value`` tokens out of a STATS reply line."""
    out: dict[str, int] = {}
    for token in reply.split():
        key, eq, value = token.partition("=")
        if eq and value.lstrip("-").isdigit():
            out[key] = int(value)
    return out


async def _wait_resync(admin: Conn, target: int,
                       deadline: float) -> float | None:
    """Poll front-end STATS until its ``resyncs`` counter reaches
    ``target``; returns the observed latency, or None on timeout.

    The counter increments only after the NOTIFY-driven view swap
    completes under the swap lock, so seeing it reach the target
    means the front end is already serving the new generation.
    """
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < deadline:
        stats = _parse_stats(await admin.request("STATS"))
        if stats.get("resyncs", 0) >= target:
            return time.perf_counter() - t0
        await asyncio.sleep(POLL_INTERVAL)
    return None


async def _differential_check(admin: Conn, oracle: FederationService,
                              scenario: ChurnScenario, gen: int,
                              samples: int, seed: int,
                              violations: Violations) -> None:
    """Byte-compare sampled wire replies against the oracle.

    Each probe runs SOURCE + ROUTE (or EXACT) over the checker
    connection and through ``oracle.handle_line`` directly; the served
    cluster and the oracle hold the same snapshot generation, so every
    reply line must match byte for byte.
    """
    crng = random.Random((seed << 20) ^ gen)
    for n, (src, dst) in enumerate(
            scenario.sample_pairs(crng, samples)):
        verb = "ROUTE" if n % 2 else "EXACT"
        state = oracle.initial_state()
        for line in (f"SOURCE {src}", f"{verb} {dst}"):
            served = await admin.request(line)
            expected = await oracle.handle_line(line, state)
            if served != expected:
                violations.differential.append(
                    f"gen {gen} {line!r}: served {served!r} "
                    f"!= oracle {expected!r}")


async def _soak(args: argparse.Namespace, workdir: Path) -> dict:
    """The whole soak run; returns the result/metrics dict."""
    params = ChurnParams(nodes=args.nodes, events=args.events,
                         seed=args.seed, regions=args.regions,
                         hubs_per_region=args.hubs)
    scenario = ChurnScenario(params)
    graphs = scenario.build_graphs()
    violations = Violations()

    # The event log round-trips before anything is served: a log that
    # cannot reproduce its own stream would poison every replay.
    log_path = workdir / "churn.log"
    write_log(scenario, log_path)
    logged_params, logged_events = read_log(log_path)
    if logged_events != scenario.stream or \
            ChurnScenario(logged_params).stream != scenario.stream:
        violations.differential.append(
            "event log failed to round-trip its own stream")

    print(f"soak: {args.nodes} nodes, {scenario.regions} shards, "
          f"{len(scenario.stream)} events, seed {args.seed}, "
          f"dispatch={args.dispatch} (oracle: dict)"
          + (", result cache ON (oracle: uncached)" if args.cache
             else "")
          + (", backend daemons" if args.backend else ", local"),
          flush=True)

    paths: dict[str, str] = {}
    prev: dict[str, list[str]] = {name: []
                                  for name in scenario.shard_names}
    t0 = time.perf_counter()
    for name in scenario.shard_names:
        paths[name] = str(workdir / f"{name}.g0.snap")
        await asyncio.to_thread(build_snapshot, graphs[name],
                                paths[name])
    print(f"soak: built {len(paths)} generation-0 snapshots in "
          f"{time.perf_counter() - t0:.1f}s", flush=True)

    procs: list = []
    backend_admin: dict[str, Conn] = {}
    front = None
    try:
        # -- the cluster under test -----------------------------------
        # --cache turns the generation-stamped result cache on for
        # the whole cluster under test (front end and any spawned
        # shard daemons); otherwise everything serves uncached, so
        # the legacy legs keep measuring the raw lookup path.  The
        # oracle below is always uncached (dict dispatch forces its
        # cache off), so a --cache run byte-compares cached replies
        # against an uncached oracle on every churn generation —
        # any stale answer surviving an invalidation is a mismatch.
        cache_size = None if args.cache else 0
        if args.backend:
            specs = {}
            for name in scenario.shard_names:
                proc, addr = await asyncio.to_thread(
                    _spawn_shard_daemon, paths[name], args.dispatch,
                    args.cache)
                procs.append(proc)
                specs[name] = f"{addr[0]}:{addr[1]}"
            front = await FederationService.create(
                backends=specs, dispatch=args.dispatch,
                cache_size=cache_size)
        else:
            front = FederationService(dict(paths),
                                      dispatch=args.dispatch,
                                      cache_size=cache_size)
        server = await serve(front, "127.0.0.1", 0)
        addr = server.sockets[0].getsockname()[:2]
        if args.backend:
            for name, spec in specs.items():
                host, _, port = spec.rpartition(":")
                backend_admin[name] = await Conn.open(host, int(port))

        # -- the independent oracle -----------------------------------
        # pinned to the dict walk: with the cluster under test on the
        # default compiled automaton, every differential probe also
        # proves the FSM against the paper's per-suffix dispatch
        oracle = FederationService(dict(paths), dispatch="dict")

        # -- clients --------------------------------------------------
        stop = asyncio.Event()
        latencies: list[float] = []
        clients = [asyncio.create_task(_client(
            i, addr, scenario, args.seed,
            pipelined=(i % 2 == 0),
            stop=stop, latencies=latencies, violations=violations))
            for i in range(args.clients)]
        admin = await Conn.open(*addr)
        last_stats = _parse_stats(await admin.request("STATS"))

        # -- the replay loop ------------------------------------------
        replay_t0 = time.perf_counter()
        reloads = 0
        scratch_checks = 0
        expected_resyncs = 0
        max_staleness = 0.0
        for event in scenario.stream:
            gen = event.gen
            for name in scenario.apply(event):
                new_path = str(workdir / f"{name}.g{gen + 1}.snap")
                report = await asyncio.to_thread(
                    update_snapshot, paths[name], graphs[name],
                    new_path, full_threshold=1.0)
                if report.mode != "incremental":
                    violations.fallbacks.append(
                        f"gen {gen} {name}: mode={report.mode} "
                        f"({report.reason})")
                if args.oracle_every and \
                        gen % args.oracle_every == 0:
                    scratch = str(workdir / f"{name}.scratch.snap")
                    await asyncio.to_thread(
                        build_snapshot, graphs[name], scratch)
                    scratch_checks += 1
                    if Path(scratch).read_bytes() != \
                            Path(new_path).read_bytes():
                        violations.differential.append(
                            f"gen {gen} {name}: incremental snapshot "
                            f"!= from-scratch build")
                if args.backend:
                    reply = await backend_admin[name].request(
                        f"RELOAD {new_path}")
                    if not reply.startswith("OK reloaded"):
                        violations.staleness.append(
                            f"gen {gen} {name}: backend refused "
                            f"reload: {reply}")
                    expected_resyncs += 1
                    seen = await _wait_resync(
                        admin, expected_resyncs, args.staleness_sec)
                    if seen is None:
                        violations.staleness.append(
                            f"gen {gen} {name}: front end did not "
                            f"observe {new_path} within "
                            f"{args.staleness_sec}s")
                    else:
                        max_staleness = max(max_staleness, seen)
                else:
                    reply = await admin.request(
                        f"RELOAD {name} {new_path}")
                    if not reply.startswith("OK reloaded"):
                        violations.staleness.append(
                            f"gen {gen} {name}: reload refused: "
                            f"{reply}")
                await oracle.reload_shard(name, new_path)
                reloads += 1
                prev[name].append(paths[name])
                paths[name] = new_path
                if len(prev[name]) > 2:  # keep disk usage bounded
                    Path(prev[name].pop(0)).unlink(missing_ok=True)

            await _differential_check(admin, oracle, scenario, gen,
                                      args.samples, args.seed,
                                      violations)
            stats = _parse_stats(await admin.request("STATS"))
            for key in MONOTONE_KEYS:
                if stats.get(key, 0) < last_stats.get(key, 0):
                    violations.stats.append(
                        f"gen {gen}: {key} went backwards "
                        f"({last_stats.get(key)} -> "
                        f"{stats.get(key)})")
            last_stats = stats
            if not args.quiet and (gen + 1) % 100 == 0:
                rate = (gen + 1) / (time.perf_counter() - replay_t0)
                print(f"soak: gen {gen + 1}/"
                      f"{len(scenario.stream)} "
                      f"({rate:.1f} events/s)", flush=True)
        replay_s = time.perf_counter() - replay_t0

        # A --cache run in which the cache never answered anything
        # proved nothing; the differential probes alone re-ask the
        # same hot pairs every generation, so zero hits means the
        # cache layer is not actually in the serving path.
        if args.cache and front.cache is not None \
                and front.cache.hits == 0:
            violations.stats.append(
                "--cache run finished with zero cache hits — the "
                "cache layer never served a reply")

        # In backend mode the front end must have tracked every swap
        # through NOTIFY pushes alone: its own RELOAD verb unused.
        if args.backend:
            if front.verb_counts.get("RELOAD", 0) or front.reloads:
                violations.staleness.append(
                    f"front end used RELOAD "
                    f"({front.verb_counts.get('RELOAD', 0)} verb, "
                    f"{front.reloads} reloads) — pushes should have "
                    f"carried every swap")
            if reloads and front.resyncs < 1:
                violations.staleness.append(
                    "no NOTIFY-driven resyncs observed")

        stop.set()
        requests = sum(await asyncio.gather(*clients))
        admin.close()
        for conn in backend_admin.values():
            conn.close()
        server.close()
        await server.wait_closed()
    finally:
        if front is not None:
            await front.aclose()
        _stop_daemons(procs)

    latencies.sort()
    p99 = latencies[int(len(latencies) * 0.99)] if latencies else 0.0
    result = {
        "nodes": args.nodes,
        "shards": scenario.regions,
        "events": len(scenario.stream),
        "seed": args.seed,
        "backend": args.backend,
        "dispatch": args.dispatch,
        "cache": bool(args.cache),
        "cache_hits": front.cache.hits if front.cache else 0,
        "cache_misses": front.cache.misses if front.cache else 0,
        "cache_invalidations": (front.cache.invalidations
                                if front.cache else 0),
        "reloads": reloads,
        "resyncs": front.resyncs,
        "scratch_oracle_checks": scratch_checks,
        "client_requests": requests,
        "replay_sec": round(replay_s, 3),
        "events_per_sec": round(len(scenario.stream) / replay_s, 2)
        if replay_s else 0.0,
        "p99_lookup_ms": round(p99 * 1000, 3),
        "max_notify_staleness_ms": round(max_staleness * 1000, 3),
        "violations": violations.total(),
    }
    result["_violations"] = violations
    return result


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        description="churn soak: replay a revision stream against a "
                    "live cluster and verify every served answer")
    parser.add_argument("--nodes", type=int, default=2000)
    parser.add_argument("--events", type=int, default=200)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--regions", type=int, default=None,
                        help="shard count (default: auto-scale)")
    parser.add_argument("--hubs", type=int, default=8,
                        help="table-owning hubs per shard")
    parser.add_argument("--backend", action="store_true",
                        help="spawn one shard daemon per region and "
                             "reload them directly (NOTIFY path)")
    parser.add_argument("--dispatch", choices=("fsm", "dict"),
                        default="fsm",
                        help="suffix-dispatch engine for the cluster "
                             "under test (the oracle always walks "
                             "dicts, so the default differentially "
                             "proves the compiled automaton)")
    parser.add_argument("--cache", action="store_true",
                        help="turn the generation-stamped result "
                             "cache on across the cluster under test "
                             "and byte-compare its replies against "
                             "the always-uncached oracle — the proof "
                             "that no stale answer survives any "
                             "RELOAD/NOTIFY invalidation")
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--samples", type=int, default=6,
                        help="differential probes per generation")
    parser.add_argument("--oracle-every", type=int, default=50,
                        help="from-scratch snapshot byte-compare "
                             "cadence in generations (0 disables)")
    parser.add_argument("--staleness-sec", type=float, default=10.0,
                        help="backend-reload visibility bound")
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--json", dest="json_out", default=None,
                        help="write the metrics dict to this file")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    if args.workdir:
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        result = asyncio.run(_soak(args, workdir))
    else:
        with tempfile.TemporaryDirectory(prefix="soak-") as tmp:
            result = asyncio.run(_soak(args, Path(tmp)))

    violations: Violations = result.pop("_violations")
    print(f"soak: {result['events']} events replayed in "
          f"{result['replay_sec']}s "
          f"({result['events_per_sec']} events/s), "
          f"{result['reloads']} reloads, "
          f"{result['client_requests']} client requests, "
          f"p99 {result['p99_lookup_ms']}ms", flush=True)
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(result, indent=2) + "\n", encoding="utf-8")
    if violations.total():
        print(f"soak: FAILED with {violations.total()} violation(s)")
        for line in violations.report():
            print(line)
        return 1
    print("soak: OK — zero violations, zero drops, zero fallbacks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
