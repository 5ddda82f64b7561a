"""Churn at tier-1 scale: replay, invariants, and the NOTIFY push.

The scaled-down version of ``tools/soak.py``'s acceptance bars, small
enough for the regular suite:

* a 2k-node, 200-event scenario replays through the incremental
  updater with **zero full-rebuild fallbacks**, and the served
  answers stay **byte-identical** to an independent oracle federation
  at every generation (with periodic from-scratch snapshot builds
  proving the incrementally-updated files themselves are
  byte-identical to clean builds);
* the event log round-trips — ``write_log`` → ``read_log`` →
  regenerated scenario — and rejects corrupted logs loudly;
* every churn event kind maps onto a diff shape the incremental
  updater accepts (``MapDiff.cost_only``), classified semantically by
  ``MapDiff.churn_kinds``; a genuinely structural revision still
  forces (and reports) the full path;
* a backend daemon's **own** reload becomes visible to the federation
  front end through the NOTIFY push channel alone — the front end's
  RELOAD verb stays unused, its cached ownership index and leg cache
  are refreshed, and the regression is locked by counters
  (``resyncs``/``notify_pushes``) as well as by answer bytes.
"""

from __future__ import annotations

import asyncio
import random
from pathlib import Path

import pytest

from repro.graph.compact import K_NORMAL
from repro.netsim.churn import (
    DEAD_COST,
    ChurnEvent,
    ChurnParams,
    ChurnScenario,
    LinkChange,
    read_log,
    write_log,
)
from repro.netsim.mapdiff import diff_link_maps, diff_map_texts
from repro.service.daemon import RouteService, serve
from repro.service.federation import FederationService
from repro.service.incremental import update_snapshot
from repro.service.store import build_snapshot

#: The tier-1 soak scenario: small enough for the suite, big enough
#: that every event kind occurs and all eight shards keep churning
#: (many small shards keep per-event table remaps cheap — the same
#: geometry lever the auto-scaled region count pulls at full scale).
SOAK = ChurnParams(nodes=2000, events=200, seed=1186, regions=8,
                   hubs_per_region=4)

#: A tiny two-shard scenario for the NOTIFY/wire tests.
TINY = ChurnParams(nodes=80, events=40, seed=7, regions=2,
                   hubs_per_region=4)


def _link_costs(cg) -> dict[tuple[str, str], int]:
    """NORMAL link costs of a compact graph, cheapest per (src, dst)."""
    out: dict[tuple[str, str], int] = {}
    for cid in range(cg.n):
        for j in range(cg.off[cid], cg.off[cid + 1]):
            if cg.kind[j] != K_NORMAL:
                continue
            key = (cg.names[cid], cg.names[cg.to[j]])
            if key not in out or cg.cost[j] < out[key]:
                out[key] = cg.cost[j]
    return out


class TestScenarioGeneration:
    def test_deterministic_for_equal_params(self):
        a = ChurnScenario(SOAK)
        b = ChurnScenario(SOAK)
        assert a.stream == b.stream
        assert a.map_files() == b.map_files()

    def test_population_is_exactly_nodes(self):
        scenario = ChurnScenario(SOAK)
        names: set[str] = set()
        for (_, src, dst) in scenario._decls:
            names.add(src)
            names.add(dst)
        assert len(names) == SOAK.nodes

    def test_every_event_kind_occurs(self):
        kinds = {event.kind for event in ChurnScenario(SOAK).stream}
        assert kinds == {"cost", "add", "drop", "retire", "move"}

    def test_region_autoscale(self):
        assert ChurnParams(nodes=2000).region_count() == 2
        assert ChurnParams(nodes=100_000).region_count() == 40
        assert ChurnParams(nodes=1_000_000).region_count() == 64
        assert ChurnParams(nodes=9000, regions=3).region_count() == 3

    def test_rejects_degenerate_params(self):
        with pytest.raises(ValueError, match="at least 4"):
            ChurnScenario(ChurnParams(hubs_per_region=3))
        with pytest.raises(ValueError, match="need at least"):
            ChurnScenario(ChurnParams(nodes=10, regions=2))

    def test_apply_rejects_unknown_link(self):
        scenario = ChurnScenario(TINY)
        scenario.build_graphs()
        bogus = ChurnEvent(0, "cost", (LinkChange(
            scenario.shard_names[0], "nosuch", "nowhere", 99),))
        with pytest.raises(ValueError, match="no link"):
            scenario.apply(bogus)

    def test_fast_forward_matches_manual_replay(self):
        manual = ChurnScenario(TINY)
        manual.build_graphs()
        for event in manual.stream[:25]:
            manual.apply(event)
        jumped = ChurnScenario(TINY)
        jumped.build_graphs()
        jumped.fast_forward(25)
        for name in manual.shard_names:
            assert list(manual.graphs[name].cost) == \
                list(jumped.graphs[name].cost)


class TestEventLog:
    def test_round_trip_and_regeneration(self, tmp_path):
        scenario = ChurnScenario(TINY)
        path = tmp_path / "churn.log"
        assert write_log(scenario, path) == len(scenario.stream)
        params, events = read_log(path)
        assert events == scenario.stream
        assert ChurnScenario(params).stream == scenario.stream

    def test_round_trip_fuzz_across_seeds(self, tmp_path):
        for seed in range(5):
            params = ChurnParams(nodes=80, events=30, seed=seed,
                                 regions=2, hubs_per_region=4)
            scenario = ChurnScenario(params)
            path = tmp_path / f"fuzz{seed}.log"
            write_log(scenario, path)
            _, events = read_log(path)
            assert events == scenario.stream

    def test_corrupted_logs_are_rejected(self, tmp_path):
        scenario = ChurnScenario(TINY)
        path = tmp_path / "churn.log"
        write_log(scenario, path)
        good = path.read_text(encoding="utf-8").splitlines()

        def expect_rejected(lines, match):
            bad = tmp_path / "bad.log"
            bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
            with pytest.raises(ValueError, match=match):
                read_log(bad)

        expect_rejected(["not a log"] + good[1:], "not a churn log")
        expect_rejected([good[0], good[2], good[1]] + good[3:],
                        "reordered or truncated")
        expect_rejected(good[:-1], "promises")
        garbled = good[:]
        garbled[1] = garbled[1].replace(garbled[1].split()[1],
                                        "frobnicate", 1)
        expect_rejected(garbled, "unknown event kind")
        header = good[0].replace("seed=", "sneed=")
        expect_rejected([header] + good[1:], "misses seed=")

    def test_decode_validates_change_arity(self):
        with pytest.raises(ValueError, match="needs two changes"):
            ChurnEvent.decode("0 move region0:a:b:5")
        with pytest.raises(ValueError, match="needs one change"):
            ChurnEvent.decode("0 cost region0:a:b:5 region0:c:d:6")
        with pytest.raises(ValueError, match="malformed"):
            LinkChange.decode("region0:a:b")

    def test_resume_from_log_generation(self, tmp_path):
        """A log reader can resume mid-stream: rebuild the scenario
        from the header params, fast-forward, replay the tail."""
        scenario = ChurnScenario(TINY)
        path = tmp_path / "churn.log"
        write_log(scenario, path)
        params, events = read_log(path)
        resumed = ChurnScenario(params)
        resumed.build_graphs()
        resumed.fast_forward(18)
        for event in events[18:]:
            resumed.apply(event)
        full = ChurnScenario(TINY)
        full.build_graphs()
        for event in full.stream:
            full.apply(event)
        for name in full.shard_names:
            assert list(resumed.graphs[name].cost) == \
                list(full.graphs[name].cost)


class TestMapdiffChurn:
    """Every event kind must produce a diff the updater accepts."""

    EXPECTED = {"cost": {"reprice": 1},
                "add": {"link-up": 1},
                "drop": {"link-down": 1},
                "retire": {"link-down": 1},
                "move": {"link-down": 1, "link-up": 1}}

    def test_every_kind_is_cost_only(self):
        scenario = ChurnScenario(SOAK)
        scenario.build_graphs()
        seen: set[str] = set()
        hosts = {name: set(cg.names[:cg.n])
                 for name, cg in scenario.graphs.items()}
        for event in scenario.stream:
            if event.kind in seen:
                scenario.apply(event)
                continue
            seen.add(event.kind)
            old = {name: _link_costs(scenario.graphs[name])
                   for name in event.shards}
            scenario.apply(event)
            kinds = {"reprice": 0, "link-up": 0, "link-down": 0,
                     "structural": 0}
            for name in event.shards:
                diff = diff_link_maps(
                    hosts[name], hosts[name], old[name],
                    _link_costs(scenario.graphs[name]))
                assert diff.cost_only, \
                    f"{event.kind} produced a structural diff"
                for key, n in diff.churn_kinds().items():
                    kinds[key] += n
            expected = dict.fromkeys(kinds, 0) | \
                self.EXPECTED[event.kind]
            assert kinds == expected, \
                f"{event.kind}: classified as {kinds}"
            if len(seen) == 5:
                return
        raise AssertionError(f"stream only produced kinds {seen}")

    def test_dead_band_classification(self):
        diff = diff_link_maps(
            {"a", "b"}, {"a", "b"},
            {("a", "b"): 100, ("b", "a"): DEAD_COST},
            {("a", "b"): DEAD_COST, ("b", "a"): 200})
        assert diff.cost_only
        assert diff.churn_kinds() == {
            "reprice": 0, "link-up": 1, "link-down": 1,
            "structural": 0}

    def test_structural_revision_forces_full_path(self, tmp_path):
        old_text = "a\tb(10)\nb\tc(20)\nc\ta(30)\n"
        new_text = "a\tb(10)\nb\ta(30)\n"
        diff = diff_map_texts([("d.old", old_text)],
                              [("d.new", new_text)])
        assert not diff.cost_only
        assert diff.churn_kinds()["structural"] > 0
        from repro.core.pathalias import Pathalias
        snap = tmp_path / "old.snap"
        build_snapshot(Pathalias().build([("d.old", old_text)]), snap)
        report = update_snapshot(
            snap, Pathalias().build([("d.new", new_text)]),
            tmp_path / "new.snap", full_threshold=1.0)
        assert report.mode == "full"


class TestChurnSoak:
    """The tier-1 replay: every generation byte-checked, no fallbacks."""

    def test_replay_is_incremental_and_byte_identical(self, tmp_path):
        scenario = ChurnScenario(SOAK)
        graphs = scenario.build_graphs()
        paths: dict[str, str] = {}
        for name in scenario.shard_names:
            paths[name] = str(tmp_path / f"{name}.g0.snap")
            build_snapshot(graphs[name], paths[name])
        service = FederationService(dict(paths))
        rng = random.Random(17)
        fallbacks: list[tuple] = []
        reloads = 0

        async def replay():
            nonlocal reloads
            for event in scenario.stream:
                for name in scenario.apply(event):
                    new_path = str(
                        tmp_path / f"{name}.g{event.gen + 1}.snap")
                    report = update_snapshot(
                        paths[name], graphs[name], new_path,
                        full_threshold=1.0)
                    if report.mode != "incremental":
                        fallbacks.append(
                            (event.gen, name, report.reason))
                    await service.reload_shard(name, new_path)
                    old = paths[name]
                    paths[name] = new_path
                    if not old.endswith(".g0.snap"):
                        Path(old).unlink()
                    reloads += 1
                # Differential: the long-lived service (incremental
                # reloads, surviving caches) against a fresh oracle
                # federation over the same generation's files.
                oracle = FederationService(dict(paths))
                for n, (src, dst) in enumerate(
                        scenario.sample_pairs(rng, 3)):
                    verb = "ROUTE" if n % 2 else "EXACT"
                    ss = service.initial_state()
                    os_ = oracle.initial_state()
                    for line in (f"SOURCE {src}", f"{verb} {dst}"):
                        served = await service.handle_line(line, ss)
                        expected = await oracle.handle_line(line, os_)
                        assert served == expected, \
                            f"gen {event.gen}: {line!r}"
                        assert served.startswith("OK"), \
                            f"gen {event.gen}: {line!r} -> {served}"
                # Periodically prove the incrementally-updated file
                # is byte-identical to a from-scratch build — which
                # makes the oracle above a from-scratch oracle too.
                if event.gen % 40 == 0:
                    for name in event.shards:
                        scratch = tmp_path / "scratch.snap"
                        build_snapshot(graphs[name], scratch)
                        assert scratch.read_bytes() == \
                            Path(paths[name]).read_bytes(), \
                            f"gen {event.gen} {name}: drifted"

        asyncio.run(replay())
        assert fallbacks == []
        assert service.reloads == reloads
        assert reloads >= len(scenario.stream)


class _Cluster:
    """In-loop per-shard daemons plus their backend specs."""

    def __init__(self) -> None:
        self.services: dict[str, RouteService] = {}
        self.servers: list = []
        self.specs: dict[str, str] = {}

    async def start(self, name: str, path: str) -> None:
        service = RouteService(path)
        server = await serve(service)
        port = server.sockets[0].getsockname()[1]
        self.services[name] = service
        self.servers.append(server)
        self.specs[name] = f"127.0.0.1:{port}"

    async def close(self) -> None:
        for server in self.servers:
            server.close()
            await server.wait_closed()


def _tiny_snapshots(tmp_path):
    scenario = ChurnScenario(TINY)
    graphs = scenario.build_graphs()
    paths = {}
    for name in scenario.shard_names:
        paths[name] = str(tmp_path / f"{name}.g0.snap")
        build_snapshot(graphs[name], paths[name])
    return scenario, graphs, paths


async def _wire_request(host: str, port: int, line: str) -> str:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(line.encode("utf-8") + b"\n")
    await writer.drain()
    reply = (await reader.readline()).decode("utf-8").rstrip("\n")
    writer.close()
    return reply


class TestNotifyResync:
    """A backend's own reload must reach the front end by push alone."""

    def test_backend_reload_visible_without_front_end_reload(
            self, tmp_path):
        scenario, graphs, paths = _tiny_snapshots(tmp_path)

        async def scenario_run():
            cluster = _Cluster()
            for name, path in paths.items():
                await cluster.start(name, path)
            front = await FederationService.create(
                backends=cluster.specs)

            # A cross-shard probe primes the stitched leg cache.
            src = scenario._hubs[0][0]
            far = scenario._hubs[1][2]
            state = front.initial_state()
            assert (await front.handle_line(f"SOURCE {src}", state)
                    ).startswith("OK")
            before_far = await front.handle_line(f"EXACT {far}", state)
            assert before_far.startswith("OK")

            # Replay events until some local answer provably changes.
            probe = None
            for event in scenario.stream:
                touched = scenario.apply(event)
                change = event.changes[0]
                candidate = (change.shard, change.src, change.dst)
                old_reply = None
                if change.shard == scenario.shard_names[0] and \
                        not change.src.startswith("gw"):
                    old_reply = await front.handle_line(
                        f"EXACT {candidate[2]}", state)
                for name in touched:
                    new_path = str(
                        tmp_path / f"{name}.g{event.gen + 1}.snap")
                    update_snapshot(paths[name], graphs[name],
                                    new_path, full_threshold=1.0)
                    paths[name] = new_path
                if old_reply is not None:
                    oracle = FederationService(dict(paths))
                    ostate = oracle.initial_state()
                    await oracle.handle_line(f"SOURCE {src}", ostate)
                    new_reply = await oracle.handle_line(
                        f"EXACT {candidate[2]}", ostate)
                    if new_reply != old_reply:
                        probe = (candidate[2], old_reply, new_reply)
                        break
            assert probe is not None, \
                "stream never changed a shard-0 answer"

            # Reload every daemon DIRECTLY (never through the front
            # end) and wait for the pushes to re-sync the view.
            for name, spec in cluster.specs.items():
                host, _, port = spec.rpartition(":")
                reply = await _wire_request(
                    host, int(port), f"RELOAD {paths[name]}")
                assert reply.startswith("OK reloaded")
            for _ in range(500):
                if front.resyncs >= len(paths):
                    break
                await asyncio.sleep(0.01)
            assert front.resyncs == len(paths)
            assert front.verb_counts["RELOAD"] == 0
            assert front.reloads == 0
            for service in cluster.services.values():
                assert service.notify_pushes >= 1

            # The front end now serves the new generation: the local
            # probe flipped to the post-churn answer, and a stitched
            # cross-shard lookup matches a fresh oracle byte for byte
            # (the old leg cache was dropped in the re-sync).
            dest, old_reply, new_reply = probe
            assert await front.handle_line(
                f"EXACT {dest}", state) == new_reply
            oracle = FederationService(dict(paths))
            ostate = oracle.initial_state()
            await oracle.handle_line(f"SOURCE {src}", ostate)
            for line in (f"EXACT {far}", f"ROUTE {far}"):
                assert await front.handle_line(line, state) == \
                    await oracle.handle_line(line, ostate)

            await front.aclose()
            await cluster.close()

        asyncio.run(scenario_run())

    def test_resync_coalesces_with_forwarded_reload(self, tmp_path):
        """A RELOAD forwarded *through* the front end re-syncs inside
        the same swap; the daemon's push for it must not double-swap
        (the path comparison coalesces it)."""
        scenario, graphs, paths = _tiny_snapshots(tmp_path)

        async def scenario_run():
            cluster = _Cluster()
            name = scenario.shard_names[0]
            await cluster.start(name, paths[name])
            front = await FederationService.create(
                backends=cluster.specs)
            event = scenario.stream[0]
            scenario.apply(event)
            target = event.changes[0].shard
            new_path = str(tmp_path / "next.snap")
            update_snapshot(paths[target], graphs[target], new_path,
                            full_threshold=1.0)
            if target == name:
                await front.reload_shard(name, new_path)
                assert front.reloads == 1
            # give any (coalesced) push time to land
            await asyncio.sleep(0.2)
            assert front.resyncs == 0
            await front.aclose()
            await cluster.close()

        asyncio.run(scenario_run())


class TestNotifyWire:
    """The NOTIFY verb itself, over a real connection."""

    def test_subscribe_then_reload_pushes_a_frame(self, tmp_path):
        _, _, paths = _tiny_snapshots(tmp_path)
        path = next(iter(paths.values()))

        async def scenario_run():
            service = RouteService(path)
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            sub_r, sub_w = await asyncio.open_connection(
                "127.0.0.1", port)
            sub_w.write(b"NOTIFY\n")
            await sub_w.drain()
            assert (await sub_r.readline()) == b"OK notify 1\n"
            reply = await _wire_request("127.0.0.1", port,
                                        f"RELOAD {path}")
            assert reply.startswith("OK reloaded")
            frame = (await asyncio.wait_for(
                sub_r.readline(), 5)).decode("utf-8").split()
            assert frame[:2] == ["NOTIFY", "reloaded"]
            assert frame[3] == str(path)
            assert service.notify_pushes == 1
            sub_w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario_run())

    def test_reload_pushes_without_starting_a_task(self, tmp_path):
        """The reload writes each push frame itself: it is counted
        when ``reload`` returns, no task is left to write it, and a
        subscriber whose transport is closing is dropped unwritten."""
        _, _, paths = _tiny_snapshots(tmp_path)
        path = next(iter(paths.values()))

        class ClosingWriter:
            def is_closing(self):
                return True

            def write(self, data):
                raise AssertionError("pushed to a closing transport")

        async def scenario_run():
            service = RouteService(path)
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            sub_r, sub_w = await asyncio.open_connection(
                "127.0.0.1", port)
            sub_w.write(b"NOTIFY\n")
            await sub_w.drain()
            assert (await sub_r.readline()) == b"OK notify 1\n"
            closing = ClosingWriter()
            service.notify_subscribers.add(closing)
            before = asyncio.all_tasks()
            await service.reload(path)
            assert service.notify_pushes == 1
            assert asyncio.all_tasks() - before == set()
            assert closing not in service.notify_subscribers
            assert len(service.notify_subscribers) == 1
            frame = (await asyncio.wait_for(
                sub_r.readline(), 5)).decode("utf-8").split()
            assert frame[:2] == ["NOTIFY", "reloaded"]
            assert frame[3] == str(path)
            sub_w.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario_run())

    def test_dead_subscriber_is_dropped(self, tmp_path):
        _, _, paths = _tiny_snapshots(tmp_path)
        path = next(iter(paths.values()))

        async def scenario_run():
            service = RouteService(path)
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            sub_r, sub_w = await asyncio.open_connection(
                "127.0.0.1", port)
            sub_w.write(b"NOTIFY\n")
            await sub_w.drain()
            await sub_r.readline()
            assert len(service.notify_subscribers) == 1
            sub_w.close()
            await sub_w.wait_closed()
            for _ in range(200):
                if not service.notify_subscribers:
                    break
                await asyncio.sleep(0.01)
            assert not service.notify_subscribers
            server.close()
            await server.wait_closed()

        asyncio.run(scenario_run())

    def test_notify_usage_and_transport_errors(self, tmp_path):
        _, _, paths = _tiny_snapshots(tmp_path)
        path = next(iter(paths.values()))

        async def scenario_run():
            service = RouteService(path)
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            assert (await _wire_request(
                "127.0.0.1", port, "NOTIFY extra")) \
                == "ERR usage NOTIFY"
            # In-process dispatch has no push-capable transport.
            reply = await service.handle_line("NOTIFY", {})
            assert reply.startswith("ERR notify")
            server.close()
            await server.wait_closed()

        asyncio.run(scenario_run())
