"""Zero-copy reader: mmap lifetime, ragged files, and the bytes
fallback staying byte-identical."""

from __future__ import annotations

import copy
import random
import re
import signal
import struct
import subprocess
import sys
import time
import zlib
from pathlib import Path
from unittest import mock

import pytest

from repro.core.pathalias import Pathalias
from repro.graph.compact import CompactGraph
from repro.service import store
from repro.service.store import (
    SnapshotError,
    SnapshotReader,
    build_snapshot,
)

from tests.conftest import PAPER_1981_MAP

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def snap_path(tmp_path_factory):
    """One snapshot on disk, shared read-only by this module."""
    path = DATA / "d.backbone"
    graph = Pathalias().build([(path.name, path.read_text())])
    out = tmp_path_factory.mktemp("store") / "backbone.snap"
    build_snapshot(graph, out)
    return out


def other_snapshot(tmp_path) -> Path:
    """A second, different snapshot (for swap scenarios)."""
    graph = Pathalias().build([("d.map", PAPER_1981_MAP)])
    out = tmp_path / "other.snap"
    build_snapshot(graph, out)
    return out


class TestMappedReader:
    def test_open_maps_by_default(self, snap_path):
        reader = SnapshotReader.open(snap_path)
        assert reader.mapped
        assert not reader.closed
        reader.close()

    def test_fallback_reader_is_byte_identical(self, snap_path):
        """use_mmap=False serves the same bytes through the same
        surface: every section export and every answer matches the
        mapped reader exactly."""
        mapped = SnapshotReader.open(snap_path)
        plain = SnapshotReader.open(snap_path, use_mmap=False)
        assert not plain.mapped
        assert plain.version == mapped.version
        assert plain.sources() == mapped.sources()
        assert plain.graph_section() == mapped.graph_section()
        assert plain.heuristics() == mapped.heuristics()
        cg = mapped.decode_graph()
        # every link of the map: tree links and links no tree used
        pairs = [(cg.names[u], cg.names[cg.to[j]]) for u in range(cg.n)
                 for j in range(cg.off[u], cg.off[u + 1])]
        for source in mapped.sources():
            assert plain.table_bytes(source) \
                == mapped.table_bytes(source)
            mt, pt = mapped.table(source), plain.table(source)
            assert list(pt.records()) == list(mt.records())
            assert pt.unreachable() == mt.unreachable()
            assert pt.record_names() == mt.record_names()
            for a, b in pairs:
                assert pt.has_tree_link(a, b) == mt.has_tree_link(a, b)
            assert pt.state_cost_map() == mt.state_cost_map()
        mapped.close()
        plain.close()

    def test_no_mmap_module_falls_back(self, snap_path, monkeypatch):
        """A platform without mmap still opens snapshots (bytes path)."""
        monkeypatch.setattr(store, "_mmap", None)
        reader = SnapshotReader.open(snap_path)
        assert not reader.mapped
        source = reader.sources()[0]
        assert len(reader.table(source)) > 0
        reader.close()

    def test_lookup_answers_off_the_map(self, snap_path):
        reader = SnapshotReader.open(snap_path)
        table = reader.table("ihnp4")
        hit = table.lookup("mcvax")
        assert hit is not None and "mcvax" in hit[1]
        assert table.lookup("no-such-host") is None
        reader.close()

    def test_table_bytes_are_real_bytes(self, snap_path):
        """Incremental updates splice table_bytes into new files; a
        memoryview there would pin the old map and break writes."""
        reader = SnapshotReader.open(snap_path)
        source = reader.sources()[0]
        assert type(reader.table_bytes(source)) is bytes
        assert type(reader.graph_section()) is bytes
        reader.close()

    def test_context_manager_closes(self, snap_path):
        with SnapshotReader.open(snap_path) as reader:
            assert not reader.closed
        assert reader.closed


class TestMmapLifetime:
    def test_table_survives_reader_close(self, snap_path):
        """A pinned table keeps the map alive after close: the swap
        scenario's in-flight request, with no BufferError anywhere."""
        reader = SnapshotReader.open(snap_path)
        table = reader.table("ihnp4")
        before = list(table.records())
        reader.close()  # must not raise BufferError
        assert list(table.records()) == before
        assert table.lookup("mcvax") is not None

    def test_close_is_idempotent(self, snap_path):
        reader = SnapshotReader.open(snap_path)
        reader.close()
        reader.close()
        assert reader.closed

    def test_closed_reader_accessors_raise(self, snap_path):
        reader = SnapshotReader.open(snap_path)
        source = reader.sources()[0]
        reader.close()
        with pytest.raises(SnapshotError, match="closed"):
            reader.table(source)
        with pytest.raises(SnapshotError, match="closed"):
            reader.table_bytes(source)
        with pytest.raises(SnapshotError, match="closed"):
            reader.graph_section()
        with pytest.raises(SnapshotError, match="closed"):
            reader.heuristics()
        # metadata parsed at open time stays answerable
        assert reader.size > 0
        assert reader.sources() == [source] + reader.sources()[1:]

    def test_hot_swap_drains_old_map(self, snap_path, tmp_path):
        """The daemon's RELOAD shape: open new, close old while a
        request still holds the old table; both keep answering."""
        old = SnapshotReader.open(snap_path)
        pinned = old.table("ihnp4")
        hit = pinned.lookup("mcvax")
        new = SnapshotReader.open(other_snapshot(tmp_path))
        old.close()
        assert pinned.lookup("mcvax") == hit  # old map still valid
        assert new.table(new.sources()[0]) is not None
        new.close()
        # the drained table still answers even after both closes
        assert pinned.lookup("mcvax") == hit

    def test_open_failure_releases_the_map(self, snap_path, tmp_path):
        """A validation failure inside open() must not leak the
        mapping (the error path closes it before raising)."""
        bad = tmp_path / "bad.snap"
        raw = bytearray(snap_path.read_bytes())
        raw[-1] ^= 0xFF  # break the payload CRC
        bad.write_bytes(bytes(raw))
        for _ in range(64):  # would exhaust fds/maps if leaked
            with pytest.raises(SnapshotError, match="CRC"):
                SnapshotReader.open(bad)


class TestRaggedFiles:
    """Truncated and mid-write files always fail as SnapshotError
    naming the file — never a bare struct.error or IndexError."""

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.snap"
        empty.write_bytes(b"")
        with pytest.raises(SnapshotError, match="truncated"):
            SnapshotReader.open(empty)

    def test_truncation_at_every_coarse_offset(self, snap_path,
                                               tmp_path):
        """Cut the file at offsets across header, sections, and index;
        every ragged prefix must raise SnapshotError (with the path),
        through both the mapped and the bytes reader."""
        raw = snap_path.read_bytes()
        ragged = tmp_path / "ragged.snap"
        offsets = set(range(0, len(raw), max(1, len(raw) // 64)))
        offsets |= {1, store._HEADER.size - 1, store._HEADER.size,
                    store._HEADER.size + 1, len(raw) - 1}
        for cut in sorted(offsets):
            ragged.write_bytes(raw[:cut])
            for use_mmap in (True, False):
                with pytest.raises(SnapshotError) as err:
                    SnapshotReader.open(ragged, use_mmap=use_mmap)
                assert "ragged.snap" in str(err.value)

    def test_midwrite_header_with_short_payload(self, snap_path,
                                                tmp_path):
        """A mid-write file can carry a complete, self-consistent
        header before the payload has landed; the reader must report
        the out-of-bounds section, not index past the buffer."""
        raw = snap_path.read_bytes()
        partial = tmp_path / "partial.snap"
        partial.write_bytes(raw[:store._HEADER.size + 16])
        with pytest.raises(SnapshotError) as err:
            SnapshotReader.open(partial)
        message = str(err.value)
        assert "partial.snap" in message
        assert "outside" in message or "truncated" in message

    def test_oversized_source_count_names_the_index(self, snap_path,
                                                    tmp_path):
        """Corrupt the header's source count (CRC re-stamped so only
        the index check can catch it): the error names the index
        instead of surfacing a struct.error from entry decoding."""
        raw = bytearray(snap_path.read_bytes())
        # header layout: magic 8s, version I, flags I, source_count I,
        # crc I, then the section pointers
        struct.pack_into("<I", raw, 16, 1_000_000)
        with pytest.raises(SnapshotError, match="index"):
            self._open_restamped(raw, tmp_path)

    @staticmethod
    def _open_restamped(raw: bytearray, tmp_path) -> SnapshotReader:
        """Re-stamp the payload CRC and open the doctored file."""
        crc = zlib.crc32(bytes(raw[store._HEADER.size:])) & 0xFFFFFFFF
        struct.pack_into("<I", raw, 20, crc)
        doctored = tmp_path / "doctored.snap"
        doctored.write_bytes(bytes(raw))
        return SnapshotReader.open(doctored)

    def test_flipped_payload_byte_fails_crc(self, snap_path, tmp_path):
        raw = bytearray(snap_path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        bad = tmp_path / "flip.snap"
        bad.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="CRC"):
            SnapshotReader.open(bad)

    def test_malformed_table_section_names_offset(self, snap_path,
                                                  tmp_path):
        """Damage inside a table section (CRC re-stamped): the error
        names the source and the section's file offset."""
        reader = SnapshotReader.open(snap_path)
        source = reader.sources()[0]
        off = reader._entries[reader._find(source)][0]
        reader.close()
        raw = bytearray(snap_path.read_bytes())
        struct.pack_into("<I", raw, off, 0xFFFFFFF0)  # absurd tag count
        with pytest.raises(SnapshotError) as err:
            self._open_restamped(raw, tmp_path).table(source)
        message = str(err.value)
        assert source in message
        assert f"at file offset {off}" in message


class TestAtomicWrite:
    """``write_snapshot``'s temp file: private to each writer, removed
    on failure, and created with the mode a plain write gives."""

    @staticmethod
    def graphs():
        backbone = DATA / "d.backbone"
        return (Pathalias().build([(backbone.name,
                                    backbone.read_text())]),
                Pathalias().build([("d.map", PAPER_1981_MAP)]))

    def test_concurrent_writers_of_one_path(self, tmp_path,
                                            monkeypatch):
        """A second build of the same path lands between the first
        writer's write and its rename; both renames must succeed."""
        first, second = self.graphs()
        out = tmp_path / "x.snap"
        real_replace = store.os.replace
        renamed = []

        def interleaved(src, dst):
            renamed.append(str(src))
            if len(renamed) == 1:
                build_snapshot(second, out)  # the racing writer
            real_replace(src, dst)

        monkeypatch.setattr(store.os, "replace", interleaved)
        build_snapshot(first, out)
        monkeypatch.undo()
        assert len(set(renamed)) == 2
        # the first writer renamed last, so its bytes are the file's
        ref = tmp_path / "ref.snap"
        build_snapshot(first, ref)
        assert out.read_bytes() == ref.read_bytes()
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_write_leaves_no_temp_file(self, tmp_path,
                                              monkeypatch):
        first, second = self.graphs()
        out = tmp_path / "x.snap"
        build_snapshot(first, out)
        before = out.read_bytes()

        def failing(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(store.os, "replace", failing)
        with pytest.raises(OSError, match="no space"):
            build_snapshot(second, out)
        assert out.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_mode_matches_a_plain_write(self, tmp_path):
        import os

        first, _ = self.graphs()
        old = os.umask(0o022)
        try:
            build_snapshot(first, tmp_path / "x.snap")
            (tmp_path / "plain").write_bytes(b"")
        finally:
            os.umask(old)
        assert (tmp_path / "x.snap").stat().st_mode == \
            (tmp_path / "plain").stat().st_mode

    @pytest.mark.parametrize("o_directory", [True, False])
    def test_file_synced_before_rename_and_directory_after(
            self, tmp_path, monkeypatch, o_directory):
        """A power loss must not leave a renamed but empty snapshot:
        the temp file is synced before the rename, and the directory
        after it wherever directories can be opened."""
        import os
        import stat

        first, _ = self.graphs()
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            calls.append(f"fsync {kind}")
            real_fsync(fd)

        def replace(src, dst):
            calls.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(store.os, "fsync", fsync)
        monkeypatch.setattr(store.os, "replace", replace)
        if not o_directory:
            monkeypatch.delattr(store.os, "O_DIRECTORY", raising=False)
        build_snapshot(first, tmp_path / "x.snap")
        want = ["fsync file", "replace", "fsync dir"]
        assert calls == (want if o_directory else want[:2])

    #: A writer process: builds snapshot A at the path, says ``ready``,
    #: then rewrites the path with B, A, B, ... until it is killed.
    WRITER = """
import sys
from pathlib import Path
from repro.core.pathalias import Pathalias
from repro.service.store import build_snapshot

out, *maps = sys.argv[1:]
graphs = [Pathalias().build([(Path(m).name, Path(m).read_text())])
          for m in maps]
build_snapshot(graphs[0], out)
print("ready", flush=True)
while True:
    build_snapshot(graphs[1], out)
    build_snapshot(graphs[0], out)
"""

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"),
                        reason="needs SIGKILL")
    def test_writer_killed_mid_write_leaves_a_whole_file(self,
                                                        tmp_path):
        """A writer killed outright at a seeded moment leaves one of
        its two whole snapshots at the path, never part of one; all
        it may leave besides are its ``<name>.<8 hex>.tmp`` files.
        This checks a process crash only: a power loss, which the
        ``fsync`` calls guard against, is not simulated."""
        maps = [DATA / "d.backbone", tmp_path / "d.map"]
        maps[1].write_text(PAPER_1981_MAP)
        want = []
        for i, graph in enumerate(self.graphs()):
            build_snapshot(graph, tmp_path / f"ref{i}.snap")
            want.append((tmp_path / f"ref{i}.snap").read_bytes())
        work = tmp_path / "work"
        work.mkdir()
        out = work / "x.snap"
        temp_name = re.compile(r"x\.snap\.[0-9a-f]{8}\.tmp")
        rng = random.Random(1986)
        for _ in range(10):
            proc = subprocess.Popen(
                [sys.executable, "-c", self.WRITER, str(out),
                 *map(str, maps)],
                stdout=subprocess.PIPE, text=True)
            try:
                assert proc.stdout.readline() == "ready\n"
                time.sleep(rng.uniform(0.001, 0.050))
            finally:
                proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=10)
                proc.stdout.close()
            assert out.read_bytes() in want
            SnapshotReader.open(out).close()
            others = [p.name for p in work.iterdir() if p != out]
            assert all(temp_name.fullmatch(name) for name in others), \
                others
        # the next writer of the path removes what the dead ones left
        build_snapshot(self.graphs()[1], out)
        assert [p.name for p in work.iterdir()] == ["x.snap"]
        assert out.read_bytes() == want[1]

    #: Holds an exclusive lock on the file named by its argument, as a
    #: live writer holds its temp file, until its stdin closes.
    HOLDER = """
import fcntl, os, sys
fd = os.open(sys.argv[1], os.O_RDWR)
fcntl.flock(fd, fcntl.LOCK_EX)
print("locked", flush=True)
sys.stdin.read()
"""

    @pytest.mark.skipif(store.fcntl is None, reason="needs flock")
    def test_live_writers_temp_file_survives_the_sweep(self, tmp_path):
        """A sibling temp file whose lock a live process holds is left
        alone; once that process is gone, the next write removes it.
        Names that only look like temp files are never touched."""
        first, second = self.graphs()
        out = tmp_path / "x.snap"
        live = tmp_path / "x.snap.0123abcd.tmp"
        live.write_bytes(b"half a snapshot")
        bystanders = [tmp_path / name for name in (
            "x.snap.0123ABCD.tmp", "x.snap.0123abc.tmp", "y.snap.0123abcd.tmp",
            "x.snap.0123abcd.tmp.bak")]
        for path in bystanders:
            path.write_bytes(b"not a temp file of x.snap")
        holder = subprocess.Popen(
            [sys.executable, "-c", self.HOLDER, str(live)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            assert holder.stdout.readline() == "locked\n"
            build_snapshot(first, out)
            assert live.read_bytes() == b"half a snapshot"
        finally:
            holder.stdin.close()
            holder.wait(timeout=10)
            holder.stdout.close()
        build_snapshot(second, out)
        assert not live.exists()
        assert all(path.exists() for path in bystanders)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["x.snap", *(path.name for path in bystanders)])

    @pytest.mark.skipif(store.fcntl is None, reason="needs flock")
    def test_writer_whose_temp_file_is_swept_starts_over(
            self, tmp_path, monkeypatch):
        """A sweeper can unlink a new temp file before its writer locks
        it; the writer sees its file has no links left and writes under
        a new name."""
        first, _ = self.graphs()
        out = tmp_path / "x.snap"
        real_flock = store.fcntl.flock
        created = []

        def flock(fd, op):
            if op == store.fcntl.LOCK_EX and not created:
                # a sweeper got there between the create and the lock
                created.extend(tmp_path.glob("x.snap.*.tmp"))
                created[0].unlink()
            return real_flock(fd, op)

        monkeypatch.setattr(store.fcntl, "flock", flock)
        build_snapshot(first, out)
        monkeypatch.undo()
        assert len(created) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["x.snap"]
        ref = tmp_path / "ref.snap"
        build_snapshot(first, ref)
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.skipif(store.fcntl is None, reason="needs flock")
    def test_file_system_without_flock_still_writes(self, tmp_path,
                                                    monkeypatch):
        """Where the file system refuses ``flock`` (``ENOSYS`` on some
        network mounts) the writer writes unlocked, as where
        :mod:`fcntl` is missing, and sweeps nothing: a leftover temp
        file cannot be told from a live writer's."""
        import errno

        first, _ = self.graphs()
        out = tmp_path / "x.snap"
        leftover = tmp_path / "x.snap.0123abcd.tmp"
        leftover.write_bytes(b"half a snapshot")

        def flock(fd, op):
            raise OSError(errno.ENOSYS, "Function not implemented")

        monkeypatch.setattr(store.fcntl, "flock", flock)
        build_snapshot(first, out)
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "x.snap", leftover.name]
        ref = tmp_path / "ref.snap"
        build_snapshot(first, ref)
        assert out.read_bytes() == ref.read_bytes()


class TestCostRange:
    """A cost the signed 64-bit cost fields cannot hold is a
    :class:`SnapshotError` naming the source, the name and the cost,
    from both builders, and nothing is written."""

    TOO_WIDE = 1 << 63

    def build(self, text):
        return Pathalias().build([("d.map", text)])

    def test_route_cost(self, tmp_path):
        graph = self.build("a\tb(99999999999999999999999)\nb\ta(1)\n")
        out = tmp_path / "x.snap"
        with pytest.raises(SnapshotError) as err:
            build_snapshot(graph, out)
        assert str(err.value).startswith(
            "source 'a': route to 'b' costs 99999999999999999999999,")
        assert not out.exists()

    def test_route_cost_as_a_sum_of_links_that_fit(self, tmp_path):
        half = self.TOO_WIDE // 2
        graph = self.build(f"a\tb({half})\nb\tc({half})\nc\tb(1)\n"
                           f"b\ta(1)\n")
        with pytest.raises(SnapshotError,
                           match=f"'a': route to 'c' costs "
                                 f"{self.TOO_WIDE},"):
            build_snapshot(graph, tmp_path / "x.snap")

    def test_link_cost_off_every_route(self, tmp_path):
        graph = self.build(f"a\tb({self.TOO_WIDE}), c(1)\nb\ta(1)\n"
                           f"c\tb(1)\n")
        with pytest.raises(SnapshotError,
                           match=f"source 'a': link to 'b' costs "
                                 f"{self.TOO_WIDE},"):
            build_snapshot(graph, tmp_path / "x.snap")

    def test_largest_cost_still_fits(self, tmp_path):
        graph = self.build(f"a\tb({self.TOO_WIDE - 1}), c(1)\nb\ta(1)\n"
                           f"c\tb(1)\n")
        build_snapshot(graph, tmp_path / "x.snap")
        assert SnapshotReader.open(tmp_path / "x.snap").sources() == \
            ["a", "b", "c"]

    def test_update_snapshot(self, tmp_path):
        from repro.service.incremental import update_snapshot

        old = tmp_path / "old.snap"
        build_snapshot(self.build("a\tb(1), c(1)\nb\ta(1)\nc\tb(1)\n"),
                       old)
        # a link no route takes any more: the incremental path remaps
        # a, whose routes all fit, and fails on the graph section
        revised = self.build(f"a\tb({self.TOO_WIDE}), c(1)\nb\ta(1)\n"
                             f"c\tb(1)\n")
        out = tmp_path / "new.snap"
        with pytest.raises(SnapshotError, match="link to 'b' costs"):
            update_snapshot(old, revised, out)
        assert not out.exists()
        # every route to b overflows: the full rebuild fails on a table
        revised = self.build(f"a\tb({self.TOO_WIDE})\nb\ta(1)\n"
                             f"c\tb(1)\n")
        with pytest.raises(SnapshotError, match="route to 'b' costs"):
            update_snapshot(old, revised, out)
        assert not out.exists()


class TestGraphSectionSplice:
    """``encode_graph_section(cg, previous=(section, decoded))`` packs
    a cost-only revision's costs into the old section's bytes, and
    encodes every other revision whole; both equal a fresh encode."""

    @staticmethod
    def graph(name: str) -> CompactGraph:
        path = DATA / name
        return CompactGraph.compile(
            Pathalias().build([(path.name, path.read_text())]))

    @staticmethod
    def revised(cg, **changes):
        """A shallow copy of ``cg`` with some arrays replaced."""
        out = copy.copy(cg)
        for attr, value in changes.items():
            setattr(out, attr, value)
        return out

    @pytest.mark.parametrize("name", ["d.arpa", "d.backbone",
                                      "d.universities"])
    def test_cost_only_revision_is_spliced(self, name):
        cg = self.graph(name)
        section = store.encode_graph_section(cg)
        previous = (section, store.decode_graph_section(section))
        costs = [cost * 3 + 1 for cost in cg.cost]
        revision = self.revised(cg, cost=costs)
        want = store.encode_graph_section(revision)
        assert want != section
        with mock.patch.object(store, "_StringPool",
                               side_effect=AssertionError):
            assert store.encode_graph_section(
                revision, previous=previous) == want
            assert store.encode_graph_section(
                cg, previous=previous) == section

    @pytest.mark.parametrize("change", ["warnings", "flags", "names"])
    def test_other_revisions_are_encoded(self, change):
        cg = self.graph("d.backbone")
        section = store.encode_graph_section(cg)
        previous = (section, store.decode_graph_section(section))
        revision = self.revised(cg, **{
            "warnings": {"warnings": cg.warnings + ["one more"]},
            "flags": {"flags": [f ^ 2 for f in cg.flags]},
            "names": {"names": [n + "x" for n in cg.names]},
        }[change])
        want = store.encode_graph_section(revision)
        pools = []
        real = store._StringPool

        def counting_pool():
            pools.append(1)
            return real()

        with mock.patch.object(store, "_StringPool", counting_pool):
            assert store.encode_graph_section(
                revision, previous=previous) == want
        assert pools == [1]

    def test_too_wide_link_cost_still_fails(self):
        """The splice packs costs as the encoder does, so a link cost
        past 64 bits fails it, and ``check_link_costs`` names it."""
        cg = self.graph("d.backbone")
        section = store.encode_graph_section(cg)
        previous = (section, store.decode_graph_section(section))
        costs = list(cg.cost)
        costs[0] = 1 << 63
        revision = self.revised(cg, cost=costs)
        with pytest.raises(struct.error):
            store.encode_graph_section(revision, previous=previous)
        with pytest.raises(SnapshotError,
                           match=f"link to .* costs {1 << 63},"):
            store.check_link_costs(revision)
