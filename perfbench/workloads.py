"""The three workloads.

Each workload builds its inputs from the seed and its fixed scenario
alone (``netsim`` only generates inputs and never runs inside a timed
op), sets up the program, computes reference answers outside every timed window, and
runs a closed loop: one caller, one request in flight.

``run.py`` calls, in order: :meth:`Workload.setup` (timed, repeated
for ``setup_s``), :meth:`Workload.prepare` (oracle work, untimed),
:meth:`Workload.measure` (the timed loop, once or once per trace
phase), :meth:`Workload.rss_mb`, :meth:`Workload.finish` (final
checks) and :meth:`Workload.teardown`.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import subprocess
import sys
from array import array
from itertools import accumulate
from pathlib import Path

from harness import HERE, Daemon, child_env, host_factor, now, vm_hwm_mb

#: The user every lookup asks for, as a mailer would.
USER = "postmaster"


def mail_name(name: str) -> str:
    """How a mailer asks for a destination: a host under a domain
    rather than the bare ``.domain`` key."""
    return "mail" + name if name.startswith(".") else name


def zipf_weights(n: int, s: float) -> list[float]:
    """Cumulative Zipf weights over ranks ``1..n``, for
    ``random.choices(..., cum_weights=...)``."""
    return list(accumulate(1.0 / k ** s for k in range(1, n + 1)))


class Phase:
    """What one timed loop measured, slice by slice.

    The loop runs in slices of ``Workload.slice_ops`` ops with a host
    probe (``harness.host_probe_ns``) between slices; each slice keeps
    the slower of the probes around it.  The loop runs ``calm_cap``
    times its quota (the run's ``--seconds`` of op time and the
    workload's ``min_ops``), and the run's figures come from the
    calmest slices that hold the quota (:meth:`calmest`)."""

    def __init__(self):
        self.ops = 0              # timed ops
        self.warm = 0             # warm-up ops (checked, not timed)
        self.failed = 0
        self.lat = array("q")     # one latency per timed op, ns
        self.spent = array("q")   # each op's time toward ops_per_s, ns
        self.reads = array("q")   # read latencies (churn only), ns
        #: (first op, end op, first read, end read, op ns, host probe ns)
        self.slices: list[tuple] = []
        self.errors: list[str] = []

    def fail(self, why: str) -> None:
        """Count one failed op and keep the first few reasons."""
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)

    def timed(self, latency: int, spent: int | None = None) -> None:
        """Record one timed op: its latency and, when it differs (a
        revision plus its reads), the time it adds to the throughput
        clock."""
        self.ops += 1
        self.lat.append(latency)
        self.spent.append(latency if spent is None else spent)

    def close_slice(self, first_op: int, first_read: int, host: int) -> None:
        self.slices.append((first_op, self.ops, first_read, len(self.reads),
                            sum(self.spent[first_op:self.ops]), host))

    def calmest(self, quota_ns: int, quota_ops: int) -> list[int]:
        """The calmest slices (by host probe) that together hold
        ``quota_ns`` of op time and ``quota_ops`` ops, in run order."""
        order = sorted(range(len(self.slices)),
                       key=lambda i: self.slices[i][5])
        chosen, ops, ns = [], 0, 0
        for i in order:
            if ops >= quota_ops and ns >= quota_ns:
                break
            first, end, _, _, took, _ = self.slices[i]
            chosen.append(i)
            ops += end - first
            ns += took
        return sorted(chosen)

    def holds(self, quota_ns: float, quota_ops: float) -> bool:
        """Whether the slices so far hold ``quota_ns`` of op time and
        ``quota_ops`` ops."""
        return self.ops >= quota_ops and \
            sum(s[4] for s in self.slices) >= quota_ns


class Sample:
    """The ops of the chosen slices of a :class:`Phase`: what the
    run's end-to-end figures are computed from."""

    def __init__(self, phase: Phase, chosen: list[int]):
        self.lat = array("q")
        self.reads = array("q")
        self.ops = 0
        self.elapsed_ns = 0
        for i in chosen:
            first, end, r0, r1, took, _ = phase.slices[i]
            self.lat.extend(phase.lat[first:end])
            self.reads.extend(phase.reads[r0:r1])
            self.ops += end - first
            self.elapsed_ns += took
        self.host_ns = max((phase.slices[i][5] for i in chosen), default=0)
        self.host_factor = host_factor(phase.slices[i][5] for i in chosen)
        self.share = self.ops / max(1, phase.ops)


class Workload:
    """Common shape; subclasses fill in the program-specific parts."""

    name = ""
    default_seed = 42
    #: ops run (and checked) before timing starts
    warmup = 1
    #: the calm slices a run reports must hold at least this many ops
    min_ops = 20
    #: ops per slice of the timed phase
    slice_ops = 1
    #: the timed phase runs this many times its quota
    calm_cap = 1.25
    #: exact counts are read after this many timed ops
    window = 10
    #: loop type and connection count, for the record
    loop = "closed loop, 1 caller"
    #: attribute overrides for the toy scale the smoke test runs
    toy: dict = {}

    def __init__(self, seed: int, work: Path, toy: bool = False):
        self.seed = seed
        self.work = work
        self.tracer = None
        for attr, value in (self.toy if toy else {}).items():
            setattr(self, attr, value)
        self.counts: dict = {}
        self.shares: dict = {}
        self.scale: dict = {}
        self.trace_files: list[tuple[str, str]] = []

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Oracle work; runs untimed, after the last setup."""

    def op(self, phase: Phase, timed: bool) -> None:
        """One op, checked; recorded in ``phase`` when ``timed``."""
        raise NotImplementedError

    def measure(self, seconds: float, min_ops: int, gate,
                slices: int | None = None) -> Phase:
        """The timed phase: warm-up ops, then slices of ``slice_ops``
        ops with a ``gate`` probe between slices, until they hold
        ``calm_cap`` times the quota, or for exactly ``slices``
        slices."""
        phase = Phase()
        for _ in range(self.warmup):
            self.op(phase, timed=False)
            phase.warm += 1
        quota_ns = int(seconds * 1e9)
        before = gate.probe()
        while True:
            first_op, first_read = phase.ops, len(phase.reads)
            for _ in range(self.slice_ops):
                self.op(phase, timed=True)
            after = gate.probe()
            phase.close_slice(first_op, first_read, max(before, after))
            before = after
            if slices is not None:
                if len(phase.slices) >= slices:
                    break
            elif phase.holds(self.calm_cap * quota_ns,
                             self.calm_cap * min_ops):
                break
        self.shares.update(self.phase_shares())
        return phase

    def phase_shares(self) -> dict:
        """Mode shares read after a timed phase."""
        return {}

    def rewind(self) -> None:
        """Return to the state the first timed phase started from, so
        the traced phase replays the same ops (``churn_reload``)."""

    def retrace(self) -> None:
        """Swap in traced daemons before the traced phase."""

    def rss_mb(self) -> float:
        return vm_hwm_mb()

    def teardown(self) -> None:
        """Release what :meth:`setup` made."""

    def finish(self) -> list[str]:
        """Checks that need the whole run; returns failures."""
        return []


# -- compile_usenet ---------------------------------------------------------


class CompileUsenet(Workload):
    """The paper's own job: ``pathalias -l <localhost>`` on the
    USENET-scale map, compact engine, every phase in each op."""

    name = "compile_usenet"
    default_seed = 1986
    #: the ``MapParams`` preset the map is generated from
    preset = "usenet_1986"
    warmup = 1
    min_ops = 20
    #: a compile is long enough for the probes around it to tell its
    #: host's speed (their correlation with its time was 0.76), so its
    #: phase runs 40 compiles for the calmest 20
    calm_cap = 2.0
    window = 1
    loop = "closed loop, 1 in-process caller"
    toy = {"preset": "small", "min_ops": 3}

    def setup(self) -> None:
        from repro.core.pathalias import Pathalias
        from repro.netsim.mapgen import MapParams, generate_map

        generated = generate_map(getattr(MapParams, self.preset)(self.seed))
        self.files = generated.files
        self.localhost = generated.localhost
        self.tool = Pathalias(engine="compact")

    def prepare(self) -> None:
        out = subprocess.run(
            [sys.executable, str(HERE / "oracle.py"), "compile",
             "--seed", str(self.seed), "--preset", self.preset],
            capture_output=True, text=True, env=child_env(), check=True)
        self.expected = json.loads(out.stdout.strip().splitlines()[-1])
        self.scale = {"nodes": self.expected["nodes"],
                      "links": self.expected["links"],
                      "localhost": self.localhost}
        self.counts = {"parser.tokens": self.expected["tokens"],
                       "graph.links": self.expected["links"],
                       "core.routes": self.expected["routes"]}

    def op(self, phase: Phase, timed: bool) -> None:
        tracer = self.tracer if timed else None
        handle = tracer.open("op") if tracer else None
        t0 = now()
        try:
            text = self.tool.run_detailed(
                self.files, self.localhost).table.format_tab()
        except Exception as exc:  # a crash is one failed op
            text = None
            error = repr(exc)
        t1 = now()
        if handle:
            tracer.close(handle)
        if timed:
            phase.timed(t1 - t0)
        if text is None:
            phase.fail(f"compile raised {error}")
        elif hashlib.sha256(text.encode()).hexdigest() != \
                self.expected["digest"]:
            phase.fail("route table differs from the reference Mapper")


# -- lookup_fanout ----------------------------------------------------------


def serve_shares(final: dict) -> dict:
    """Mode shares from a service's STATS counters: the result cache's
    hit ratio and, for a federation, the stitched share of answers."""
    hits, misses = final["n_cache_hits"], final["n_cache_misses"]
    out = {"cache_hit_ratio": hits / max(1, hits + misses)}
    if "federated" in final:
        out["stitched_share"] = final["federated"] / max(1, final["hits"])
    return out


def stats_counts(reply: dict) -> dict:
    """The exact counters a run records from a daemon's STATS."""
    keep = ("lookups", "hits", "misses", "federated", "n_cache_hits",
            "n_cache_misses", "n_cache_invalidations", "n_fsm_hits",
            "n_fsm_misses")
    out = {key: int(reply[key]) for key in keep if key in reply}
    requests = [int(value.split(":")[1]) for key, value in reply.items()
                if key.startswith("backend_")]
    if requests:
        out["backend_requests"] = sum(requests)
    return out


class LookupFanout(Workload):
    """The federation tier ``federate --spawn`` starts: one spawned
    backend daemon per region behind a spawned front end, all on the
    benchmark's CPU.  Each op is the mailer's ``ROUTE host user`` over
    one ``DaemonRouteDatabase`` connection to the front end, cycling
    through ``self.targets`` and checked against ``self.expected``.

    An expected ``None`` means ``ERR noroute``; any other ``ERR``, a
    ``FederationError`` included, or an exception never matches, so it
    is one failed op.  ``STATS`` is read once, after ``window`` timed
    ops, outside the clock.  Lookups are cheap, so the timed phase runs
    three times its quota and reports its calmest third.

    The regions and the asking source are one fixed scenario (seed
    42); the seed draws the order of the destinations.  The source
    decides how many backend legs a stitch takes (1.44 to 1.64 per
    lookup over five seeds' sources), so a source drawn from the seed
    would move the figures by more than the program does.  With the
    backends on the second CPU, every leg waited for a cross-CPU
    wakeup: two runs in five then had 5-7 ms p99 tails and a third
    less throughput; on one CPU five runs held p50 within 631-719 us
    and p99 within 1.2-1.4 ms.
    """

    name = "lookup_fanout"
    scenario_seed = 42
    nodes = 7500
    regions = 3
    min_ops = 2000
    slice_ops = 50
    calm_cap = 3.0
    window = 2000
    cursor = 0
    loop = "closed loop, 1 client connection"
    toy = {"nodes": 600, "min_ops": 1000, "slice_ops": 50, "window": 300}

    def setup(self) -> None:
        from repro.netsim.churn import ChurnParams, ChurnScenario
        from repro.service import store

        scenario = ChurnScenario(ChurnParams(
            nodes=self.nodes, events=1, seed=self.scenario_seed,
            regions=self.regions))
        graphs = scenario.build_graphs()
        self.paths = {}
        for name in scenario.shard_names:
            self.paths[name] = self.work / f"{name}.snap"
            store.build_snapshot(graphs[name], self.paths[name])
        rng = random.Random(self.seed)
        self.targets = [mail_name(n) for n in scenario.destinations]
        rng.shuffle(self.targets)
        # one whole cycle untimed: every backend's cache (default size,
        # larger than its region) then holds its names, so the timed
        # ops all take one path, front-end miss and backend hit, however
        # many ops a run reaches
        self.warmup = len(self.targets)
        self.source = min(s for s in scenario.sources
                          if s.startswith("h0x"))
        self.scale = {"nodes": self.nodes, "regions": self.regions,
                      "names": len(self.targets)}
        self._start_cluster(traced=False)

    def _start_cluster(self, traced: bool) -> None:
        from repro.service.daemon import DaemonRouteDatabase

        def spans(role: str) -> str | None:
            if not traced:
                return None
            path = str(self.work / f"spans-{role}.bin")
            self.trace_files.append(("backend" if role.startswith(
                "region") else "front", path))
            return path

        self.backends = {
            name: Daemon([str(path), "--port", "0"],
                         trace_out=spans(name), role="backend")
            for name, path in sorted(self.paths.items())}
        specs = []
        for name, daemon in self.backends.items():
            specs += ["--backend", f"{name}={daemon.spec}"]
        self.front = Daemon([*specs, "--port", "0"],
                            trace_out=spans("front"), role="front")
        self.db = DaemonRouteDatabase(self.front.address,
                                      source=self.source)
        self.db.stats()  # connect and bind the source

    def _stop_cluster(self) -> None:
        if getattr(self, "db", None) is not None:
            self.db.close()
        if getattr(self, "front", None) is not None:
            self.front.stop()
        for daemon in getattr(self, "backends", {}).values():
            daemon.stop()

    def prepare(self) -> None:
        from repro.service.federation import FederationService
        from repro.service.resolver import Resolution

        async def answers() -> dict:
            oracle = FederationService(
                {k: str(v) for k, v in self.paths.items()},
                dispatch="dict")
            state = oracle.initial_state()
            await oracle.handle_line(f"SOURCE {self.source}", state)
            out = {}
            for target in self.targets:
                reply = await oracle.handle_line(
                    f"ROUTE {target} {USER}", state)
                parts = reply.split()
                if reply.startswith("ERR noroute"):
                    out[target] = None
                elif parts[0] != "OK" or len(parts) != 5:
                    # no answer the client returns equals a reply line,
                    # so an ERR other than noroute fails the op
                    out[target] = reply
                else:
                    _, cost, matched, route, address = parts
                    out[target] = (int(cost), Resolution(
                        target=target, matched=matched, route=route,
                        address=address))
            return out

        self.expected = asyncio.run(answers())

    def op(self, phase: Phase, timed: bool) -> None:
        from repro.errors import RouteError

        target = self.targets[self.cursor % len(self.targets)]
        self.cursor += 1
        tracer = self.tracer if timed else None
        handle = tracer.open("op") if tracer else None
        t0 = now()
        try:
            got = self.db.resolve_with_cost(target, USER)
        except RouteError as exc:
            got = None if str(exc).startswith("no route") else exc
        except Exception as exc:  # a crash is one failed op
            got = exc
        t1 = now()
        if handle:
            tracer.close(handle)
        if timed:
            phase.timed(t1 - t0)
            if phase.ops == self.window and "window" not in self.counts:
                self.counts = dict(stats_counts(self.db.stats()),
                                   window=self.window)
        if got != self.expected[target]:
            phase.fail(f"{target}: {got!r} != {self.expected[target]!r}")

    def phase_shares(self) -> dict:
        final = stats_counts(self.db.stats())
        return dict(serve_shares(final), backend_calls_per_op=final.get(
            "backend_requests", 0) / max(1, final["lookups"]))

    def retrace(self) -> None:
        self._stop_cluster()
        self._start_cluster(traced=True)

    def rss_mb(self) -> float:
        return self.front.vm_hwm_mb() + sum(
            d.vm_hwm_mb() for d in self.backends.values())

    def teardown(self) -> None:
        self._stop_cluster()
        paths = [p for p in getattr(self, "paths", {}).values()
                 if p.exists()]
        self.snapshot_bytes = sum(p.stat().st_size for p in paths)
        for path in paths:
            path.unlink()


# -- churn_reload -----------------------------------------------------------


class ChurnReload(Workload):
    """Revision events applied beside reads, in process: per touched
    shard ``update_snapshot`` then ``reload_shard``, then a fixed batch
    of ``ROUTE`` reads through ``handle_line``.

    The map and its revision stream are one fixed scenario, replayed
    from generation 0 on every run: the churn scenario of
    ``benchmarks/bench_service.py`` (seed 42).  A revision's cost
    follows how many sources it remaps, which varies about fourfold
    between events, so a run's few dozen revisions would measure the
    drawn event mix more than the program if the stream changed with
    the seed.  The seed draws the reads.
    """

    name = "churn_reload"
    scenario_seed = 42
    nodes = 20000
    events = 400
    pairs = 1000
    batch = 50
    #: about three reads in four repeat a pair already read since the
    #: last reload, so read_p50 sits among cache hits, clear of the
    #: misses that set read_p99
    zipf_s = 1.8
    warmup = 1
    #: the stream's revision costs sit 8-15% apart around the median
    #: of its first 20 events and within 3% around that of its first
    #: 40, so 40 keep op_p50 off the gap between two events' costs;
    #: every run reports those 40, so the same revisions every time
    #: (chosen by the probes, 40 of 50 spread by 0.15-0.20 across ten
    #: runs, the first 40 by 0.06-0.09)
    min_ops = 40
    calm_cap = 1.0
    window = 8
    loop = "closed loop, 1 in-process caller"
    toy = {"nodes": 3000, "events": 60, "pairs": 200, "min_ops": 20,
           "window": 3}

    def setup(self) -> None:
        from repro.netsim.churn import ChurnParams, ChurnScenario
        from repro.service import store
        from repro.service.federation import FederationService

        scenario = ChurnScenario(ChurnParams(
            nodes=self.nodes, events=self.events, seed=self.scenario_seed))
        self.graphs = scenario.build_graphs()
        self.scenario = scenario
        self.paths = {}
        for name in scenario.shard_names:
            self.paths[name] = str(self.work / f"{name}.g0.snap")
            store.build_snapshot(self.graphs[name], self.paths[name])
        self.service = FederationService(dict(self.paths))
        rng = random.Random(self.seed)
        pairs = [(src, mail_name(dst))
                 for src, dst in scenario.sample_pairs(rng, self.pairs)]
        weights = zipf_weights(len(pairs), self.zipf_s)
        self.read_batches = []
        for _ in range(64):
            batch = rng.choices(pairs, cum_weights=weights, k=self.batch)
            self.read_batches.append(
                [(src, f"ROUTE {dst} {USER}") for src, dst in batch])
        self.scale = {"nodes": self.nodes, "shards": scenario.regions,
                      "reads_per_op": self.batch}
        self.gen = 0
        self.aloop = asyncio.new_event_loop()

    def prepare(self) -> None:
        self.oracle = subprocess.Popen(
            [sys.executable, str(HERE / "oracle.py"), "churn",
             "--seed", str(self.scenario_seed), "--nodes", str(self.nodes),
             "--events", str(self.events)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env())
        self.states = {}
        self.remapped = self.reused = self.fallbacks = 0
        self.bytes_written = 0

    def _ask(self, request: dict) -> dict:
        self.oracle.stdin.write(json.dumps(request) + "\n")
        self.oracle.stdin.flush()
        return json.loads(self.oracle.stdout.readline())

    def op(self, phase: Phase, timed: bool) -> None:
        self.aloop.run_until_complete(self._op(phase, timed))

    async def _op(self, phase: Phase, timed: bool) -> None:
        from repro.service import incremental

        if self.gen >= len(self.scenario.stream):
            raise RuntimeError("the revision stream ran out")
        event = self.scenario.stream[self.gen]
        tracer = self.tracer if timed else None
        touched = self.scenario.apply(event)
        handle = tracer.open("op") if tracer else None
        reports = []
        retired = []
        t0 = now()
        try:
            for name in touched:
                new_path = str(self.work / f"{name}.g{self.gen + 1}.snap")
                reports.append(incremental.update_snapshot(
                    self.paths[name], self.graphs[name], new_path,
                    full_threshold=1.0))
                await self.service.reload_shard(name, new_path)
                retired.append(self.paths[name])
                self.paths[name] = new_path
            crashed = None
        except Exception as exc:  # a crash is one failed op
            crashed = repr(exc)
        t1 = now()
        if handle:
            tracer.close(handle)
        self.gen += 1
        replies = []
        spent = t1 - t0
        if crashed is None:
            for source, line in self.read_batches[self.gen % 64]:
                state = self.states.get(source)
                if state is None:
                    state = self.states[source] = \
                        self.service.initial_state()
                    await self.service.handle_line(f"SOURCE {source}",
                                                   state)
                handle = tracer.open("read") if tracer else None
                r0 = now()
                reply = await self.service.handle_line(line, state)
                r1 = now()
                if handle:
                    tracer.close(handle)
                replies.append(reply)
                spent += r1 - r0
                if timed:
                    phase.reads.append(r1 - r0)
        if timed:
            phase.timed(t1 - t0, spent)
            if phase.ops <= self.window:
                for report in reports:
                    self.remapped += len(report.remapped)
                    self.reused += report.reused
                    self.bytes_written += Path(report.out_path).stat().st_size
        # -- checks, untimed --
        if crashed is not None:
            phase.fail(f"revision {event.gen} raised {crashed}")
            return
        fallbacks = [r for r in reports if r.mode != "incremental"]
        if timed and phase.ops <= self.window:
            self.fallbacks += len(fallbacks)
        batch = self.read_batches[self.gen % 64]
        # an answer depends only on the request and the files, so the
        # oracle answers each distinct read once
        distinct = sorted(set(batch))
        want = dict(zip(distinct, self._ask({
            "op": "read", "paths": self.paths,
            "reads": distinct})["replies"]))
        wrong = [(line, got, want[source, line]) for (source, line), got
                 in zip(batch, replies)
                 if got != want[source, line] or not got.startswith("OK")]
        if fallbacks:
            phase.fail(f"revision {event.gen}: full fallback "
                       f"({fallbacks[0].reason})")
        elif wrong:
            phase.fail(f"revision {event.gen}: {len(wrong)} wrong reads, "
                       f"first {wrong[0]!r}")
        for path in retired:
            if not path.endswith(".g0.snap"):
                Path(path).unlink()
        if timed and phase.ops == self.window and not self.counts:
            self.counts = dict(
                self._stats(), window=self.window,
                remapped=self.remapped, reused=self.reused,
                fallbacks=self.fallbacks, bytes_written=self.bytes_written)

    def _stats(self) -> dict:
        return stats_counts(dict(token.partition("=")[::2] for token
                                 in self.service.stats_line().split()))

    def phase_shares(self) -> dict:
        done = self.remapped + self.reused
        return dict(serve_shares(self._stats()),
                    remapped_share=self.remapped / max(1, done))

    def rewind(self) -> None:
        self.teardown()
        self.setup()
        self.prepare()

    def finish(self) -> list[str]:
        self.snapshot_bytes = sum(Path(p).stat().st_size
                                  for p in self.paths.values())
        mismatched = self._ask({"op": "final", "gen": self.gen,
                                "paths": self.paths,
                                "scratch": str(self.work)})["mismatched"]
        if mismatched:
            return ["final shard files differ from a full "
                    "build_snapshot: " + ", ".join(mismatched)]
        return []

    def teardown(self) -> None:
        self.service = None
        if getattr(self, "aloop", None) is not None:
            self.aloop.close()
            self.aloop = None
        for path in getattr(self, "paths", {}).values():
            Path(path).unlink(missing_ok=True)
        oracle = getattr(self, "oracle", None)
        if oracle is not None:
            oracle.stdin.close()
            oracle.wait(timeout=60)
            oracle.stdout.close()
            self.oracle = None


WORKLOADS = {cls.name: cls for cls in
             (CompileUsenet, LookupFanout, ChurnReload)}
