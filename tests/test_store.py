"""Zero-copy reader: mmap lifetime, ragged files, and the bytes
fallback staying byte-identical."""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import pytest

from repro.core.pathalias import Pathalias
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
