"""Multi-worker serving: the control mesh, aggregated STATS, and
pool-wide RELOAD — in-process and through real SO_REUSEPORT workers."""

from __future__ import annotations

import asyncio
import socket
import subprocess
import sys
import threading

import pytest

from repro.core.pathalias import Pathalias
from repro.service.daemon import DaemonRouteDatabase, RouteService
from repro.service.store import build_snapshot

MAP_V1 = """\
a\tb(10), c(100)
b\ta(10), c(10)
c\tb(10), a(100), d(10)
d\tc(10)
"""

#: same topology, pricier bridge: a's route to c and d changes.
MAP_V2 = MAP_V1.replace("b\ta(10), c(10)", "b\ta(10), c(500)")

needs_reuseport = pytest.mark.skipif(
    not hasattr(socket, "SO_REUSEPORT"),
    reason="SO_REUSEPORT unavailable on this platform")


def make_snapshot(text, path):
    build_snapshot(Pathalias().build([("d.map", text)]), path)
    return str(path)


@pytest.fixture()
def snapshots(tmp_path):
    return (make_snapshot(MAP_V1, tmp_path / "v1.snap"),
            make_snapshot(MAP_V2, tmp_path / "v2.snap"))


async def request(reader, writer, line: str) -> str:
    writer.write(line.encode() + b"\n")
    await writer.drain()
    return (await reader.readline()).decode().rstrip("\n")


def parse_stats(reply: str) -> dict:
    return dict(token.split("=", 1) for token in reply[3:].split())


class TestControlMesh:
    """Two RouteService instances wired into a worker mesh in one
    event loop — the coordination logic without process spawning."""

    def test_stats_aggregate_and_pool_reload(self, snapshots):
        snap1, snap2 = snapshots

        async def scenario():
            svc = [RouteService(snap1, default_source="a")
                   for _ in range(2)]
            controls = []
            for wid, service in enumerate(svc):
                service.worker_id = wid
                controls.append(await asyncio.start_server(
                    service.handle_connection, "127.0.0.1", 0))
            peers = {wid: c.sockets[0].getsockname()[1]
                     for wid, c in enumerate(controls)}
            for service in svc:
                service.worker_peers = peers

            # traffic lands on worker 1 only
            r1, w1 = await asyncio.open_connection(
                "127.0.0.1", peers[1])
            assert (await request(r1, w1, "ROUTE d")) == \
                "OK 30 d b!c!d!%s b!c!d!%s"

            # STATS asked of worker 0 aggregates the whole pool
            r0, w0 = await asyncio.open_connection(
                "127.0.0.1", peers[0])
            stats = parse_stats(await request(r0, w0, "STATS"))
            assert stats["workers"] == "2"
            assert stats["lookups"] == "1"
            assert stats["worker_0"] == "ok:0"
            assert stats["worker_1"] == "ok:1"
            assert stats["n_route"] == "1"

            # WSTATS stays raw and names the answering worker
            wstats = await request(r0, w0, "WSTATS")
            assert wstats.startswith("OK worker=0 ")
            assert parse_stats(wstats)["lookups"] == "0"

            # RELOAD through worker 0 swaps worker 1 too
            reply = await request(r0, w0, f"RELOAD {snap2}")
            assert reply.startswith("OK reloaded")
            assert svc[0].reloads == 1 and svc[1].reloads == 1
            assert (await request(r1, w1, "ROUTE d")) == \
                "OK 110 d c!d!%s c!d!%s"
            stats = parse_stats(await request(r0, w0, "STATS"))
            assert stats["reloads"] == "2"

            # a dead sibling degrades its health token, nothing else
            controls[1].close()
            await controls[1].wait_closed()
            stats = parse_stats(await request(r0, w0, "STATS"))
            assert stats["worker_1"] == "down"
            assert stats["workers"] == "2"
            # ... and fails a pool RELOAD loudly instead of silently
            # leaving the pool half-swapped
            reply = await request(r0, w0, f"RELOAD {snap1}")
            assert reply.startswith("ERR reload worker 1")
            w0.close()
            w1.close()
            controls[0].close()
            await controls[0].wait_closed()

        asyncio.run(scenario())

    def test_single_worker_mode_is_unchanged(self, snapshots):
        """No peers configured: STATS has no workers= token and
        RELOAD broadcasts to nobody — the pre-worker wire behavior."""
        snap1, _ = snapshots

        async def scenario():
            service = RouteService(snap1, default_source="a")
            reply = await service.handle_line("STATS", {"source": "a"})
            assert "workers=" not in reply
            wreply = await service.handle_line("WSTATS",
                                               {"source": "a"})
            assert wreply.startswith("OK worker=0 ")

        asyncio.run(scenario())


@needs_reuseport
class TestWorkerPool:
    """A real ``serve --workers 2`` subprocess pool."""

    def spawn(self, snap, workers=2):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", snap,
             "--port", "0", "--workers", str(workers)],
            stderr=subprocess.PIPE, text=True)
        for line in proc.stderr:
            if "listening on" in line:
                host, _, port = line.rsplit(
                    "listening on", 1)[1].strip().rpartition(":")
                return proc, (host, int(port))
        raise AssertionError("worker pool never reported listening")

    def test_pool_serves_aggregates_and_reloads(self, snapshots):
        snap1, snap2 = snapshots
        proc, addr = self.spawn(snap1)
        try:
            # spread connections over the pool: the kernel balances,
            # so with 12 connections both workers see traffic almost
            # surely — but only the total is asserted (deterministic)
            for _ in range(12):
                with DaemonRouteDatabase(addr, source="a") as db:
                    assert db.resolve("d").address == "b!c!d!%s"
            with DaemonRouteDatabase(addr, source="a") as db:
                stats = db.stats()
                assert stats["workers"] == "2"
                assert stats["lookups"] == "12"
                assert stats["worker_0"].startswith("ok:")
                assert stats["worker_1"].startswith("ok:")

                # reload under load: lookups keep answering while the
                # pool swaps; afterwards every worker serves v2
                stop = threading.Event()
                failures: list = []

                def hammer():
                    with DaemonRouteDatabase(addr, source="a") as h:
                        while not stop.is_set():
                            try:
                                if h.resolve("d").address not in (
                                        "b!c!d!%s", "c!d!%s"):
                                    failures.append("bad answer")
                            except Exception as exc:  # noqa: BLE001
                                failures.append(repr(exc))

                thread = threading.Thread(target=hammer)
                thread.start()
                try:
                    assert db.reload(snap2) == 4
                finally:
                    stop.set()
                    thread.join(timeout=10)
                assert failures == []
                assert db.stats()["reloads"] == "2"
            for _ in range(8):
                with DaemonRouteDatabase(addr, source="a") as db:
                    assert db.resolve("d").address == "c!d!%s"
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stderr.close()

    def test_workers_rejected_with_federation_flags(self, snapshots):
        snap1, _ = snapshots
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve",
             "--shard", f"one={snap1}", "--workers", "2"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert "--workers" in proc.stderr
