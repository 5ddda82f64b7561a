"""Snapshot store: round-trips, binary search, and damage handling."""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.cli import main
from repro.config import HeuristicConfig
from repro.core.batch import BatchMapper
from repro.core.pathalias import Pathalias
from repro.errors import RouteError
from repro.mailer.routedb import RouteDatabase
from repro.service.store import (
    SnapshotError,
    SnapshotReader,
    SnapshotTable,
    build_snapshot,
    decode_graph_section,
)

from tests.conftest import DOMAIN_TREE_MAP, PAPER_1981_MAP

DATA = Path(__file__).parent / "data"
DATA_MAPS = sorted(DATA.glob("d.*"))

#: SHA-256 of ``pathalias snapshot [-s | -i] -o OUT MAPS`` for each
#: fixture map and the three-file map, as (default, -s, -i).
GOLDEN_DIGESTS = {
    "d.arpa": (
        "df6a1011d0222ba8ec0c93e5455173c1a87ba8fc702f2436bfac36825814f343",
        "e9e8c2fafd3131882d13a34d275f762a101563ce8cae4587f3471f5fb843860a",
        "ae04bf7e2d3889182f78a480e297a9755dc6be0d3143e8b93941cfffc81666c6"),
    "d.backbone": (
        "e6145647d425958cf19ddaf72447970095f7f2abd4424cf06f198d9f0e242529",
        "f0c9cf3e0d663edd308ef253825ec468799a867066f215ad99cbc4b3d6ce48dd",
        "18ddca65f9f3fcf6baa58d1c6f1f66d6c87253a5f7a33b79eec3e4c8d030dee9"),
    "d.universities": (
        "6108f505f92c092aa8f33c544dbb9513079921c371b179db1910911b59815eb0",
        "632b535db0ebdb389fb985ca994980f804d85e72f2f7b2e12a564ae2ff0abece",
        "340852f4cca2bd14ca2dd131ddb3107ce3efb840d6d7007c87d28ec917126797"),
    "d.backbone d.universities d.arpa": (
        "03a8e6a60bf7189a732bc636fdfc5a2ac35d43abb0f963f94872e947df0be52b",
        "2aa52ec3e5a1ded31df024c993b05dc5a898a168421b62c55ec5ae19f5518b4d",
        "37e97a0870e9cc45bfd4e91a9c1bfb2c8ecd07bd8183a114c93c74aec75512d7"),
}


def build(named):
    return Pathalias().build(named)


def named_file(path: Path):
    return [(path.name, path.read_text())]


@pytest.fixture(scope="module", params=[p.name for p in DATA_MAPS])
def snapped(request, tmp_path_factory):
    """(graph, reader) for one tests/data map, snapshot on disk."""
    path = DATA / request.param
    graph = build(named_file(path))
    out = tmp_path_factory.mktemp("snap") / f"{path.name}.snap"
    build_snapshot(graph, out)
    return graph, SnapshotReader.open(out)


class TestRoundTrip:
    def test_every_destination_matches_print_routes(self, snapped):
        """For every source, every looked-up route is byte-identical
        to what print_routes produces — and nothing extra exists."""
        graph, reader = snapped
        sources = reader.sources()
        assert sources == sorted(BatchMapper(graph).sources())
        batch = BatchMapper(graph, engine="reference").run(sources)
        for source in sources:
            table = reader.table(source)
            reference = batch[source]
            assert len(table) == len(reference.records)
            for record in reference:
                assert table.lookup(record.name) == (record.cost,
                                                     record.route)
                assert table.route(record.name) == record.route
                assert record.name in table
            assert table.unreachable() == reference.unreachable

    def test_misses_return_none(self, snapped):
        _, reader = snapped
        table = reader.table(reader.sources()[0])
        assert table.lookup("no-such-host-anywhere") is None
        assert table.route("") is None
        assert "no-such-host-anywhere" not in table

    def test_records_iterate_in_name_order(self, snapped):
        _, reader = snapped
        table = reader.table(reader.sources()[0])
        names = [name for _, name, _ in table.records()]
        assert names == sorted(names)

    def test_graph_section_round_trips(self, snapped):
        graph, reader = snapped
        from repro.graph.compact import CompactGraph

        original = CompactGraph.compile(graph)
        decoded = reader.decode_graph()
        assert decoded.names == original.names
        assert decoded.off == original.off
        assert decoded.to == original.to
        assert decoded.cost == original.cost
        assert decoded.flags == original.flags
        assert decoded.kind == original.kind
        assert decoded.op == original.op
        assert decoded.cid_by_name == original.cid_by_name
        assert decoded.warnings == original.warnings


class TestDeterminism:
    def test_rebuild_is_byte_identical(self, tmp_path):
        graph = build(named_file(DATA_MAPS[0]))
        a, b = tmp_path / "a.snap", tmp_path / "b.snap"
        build_snapshot(graph, a)
        build_snapshot(build(named_file(DATA_MAPS[0])), b)
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        graph = build(named_file(DATA_MAPS[0]))
        serial, pooled = tmp_path / "s.snap", tmp_path / "p.snap"
        build_snapshot(graph, serial, jobs=1)
        build_snapshot(graph, pooled, jobs=2)
        assert serial.read_bytes() == pooled.read_bytes()

    @pytest.mark.parametrize("maps, option, digest", [
        pytest.param(maps, option, digest,
                     id=maps.replace(" ", "+") + (option or "-default"))
        for maps, digests in GOLDEN_DIGESTS.items()
        for option, digest in zip(("", "-s", "-i"), digests)])
    def test_snapshot_bytes_match_golden_digest(self, tmp_path, maps,
                                                option, digest):
        """``pathalias snapshot`` writes exactly the bytes pinned
        here, so an encoder change that alters every output alike —
        which rebuild-vs-rebuild comparisons cannot see — fails."""
        out = tmp_path / "golden.snap"
        args = ["snapshot", *([option] if option else []), "-o", str(out),
                *(str(DATA / name) for name in maps.split())]
        assert main(args) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestSuffixSearch:
    def test_matches_route_database(self, tmp_path):
        graph = build([("d.domains", DOMAIN_TREE_MAP)])
        out = tmp_path / "d.snap"
        build_snapshot(graph, out)
        reader = SnapshotReader.open(out)
        table = reader.table("local")
        reference = RouteDatabase(
            {name: route for _, name, route in table.records()})
        for target in ("caip.rutgers.edu", "x.rutgers.edu", "blue",
                       "seismo"):
            got = table.resolve(target, "pleasant")
            want = reference.resolve(target, "pleasant")
            assert got == want

    def test_miss_raises_route_error(self, tmp_path):
        graph = build([("d.map", PAPER_1981_MAP)])
        out = tmp_path / "p.snap"
        build_snapshot(graph, out)
        table = SnapshotReader.open(out).table("unc")
        with pytest.raises(RouteError):
            table.resolve("nowhere.example", "user")

    def test_reader_resolve_shortcut(self, tmp_path):
        graph = build([("d.map", PAPER_1981_MAP)])
        out = tmp_path / "p.snap"
        build_snapshot(graph, out)
        reader = SnapshotReader.open(out)
        res = reader.resolve("unc", "phs", "honey")
        assert res.address == "duke!phs!honey"


class TestHeuristicsMeta:
    def test_config_round_trips(self, tmp_path):
        cfg = HeuristicConfig(mixed_penalty=123, gateway_penalty=456,
                              back_link_factor=3,
                              infer_back_links=False)
        graph = build([("d.map", PAPER_1981_MAP)])
        out = tmp_path / "h.snap"
        build_snapshot(graph, out, heuristics=cfg)
        assert SnapshotReader.open(out).heuristics() == cfg

    def test_second_best_flag(self, tmp_path):
        graph = build([("d.map", PAPER_1981_MAP)])
        out = tmp_path / "sb.snap"
        build_snapshot(graph, out,
                       heuristics=HeuristicConfig(second_best=True))
        reader = SnapshotReader.open(out)
        assert reader.second_best
        assert reader.heuristics().second_best


class TestFormatV2:
    """The per-state cost records the v2 layout introduced."""

    def test_default_build_is_v3(self, snapped):
        _, reader = snapped
        assert reader.version == 3
        for source in reader.sources():
            assert reader.table(source).state_count > 0

    def test_state_records_match_a_fresh_mapping(self, snapped):
        """The stored STAT block is exactly what the mapper computed:
        same states, same costs, same flags/kinds/parents."""
        from repro.core.fastmap import CompactMapper
        from repro.graph.compact import CompactGraph

        from tests.test_table_reads import reference_state_costs

        graph, reader = snapped
        cg = CompactGraph.compile(graph)
        mapper = CompactMapper(cg)
        for source in reader.sources():
            stored = list(reader.table(source).state_records())
            fresh = reference_state_costs(mapper.run(source))
            assert stored == fresh

    def test_state_costs_cover_every_node_kind(self, tmp_path):
        """Nets, domains, and private nodes — absent from the route
        records — all have exact stored costs, which is what the
        incremental triangle test stands on."""
        from repro.graph.compact import (
            SK_DOMAIN,
            SK_HOST,
            SK_NET,
            SK_PRIVATE,
        )

        text = (DATA / "d.universities").read_text()
        graph = build([("d.universities", text)])
        out = tmp_path / "u.snap"
        build_snapshot(graph, out)
        reader = SnapshotReader.open(out)
        cg = reader.decode_graph()
        table = reader.table("princeton")
        kinds = {kind for _, _, kind, _, _ in table.state_records()}
        assert kinds == {SK_HOST, SK_NET, SK_PRIVATE}
        # the NJ-net placeholder has a cost even though no route
        # record ever mentions it
        net_cid = cg.find("NJ-net")
        assert cg.is_net[net_cid]
        assert table.state_cost_of(net_cid) is not None
        assert table.route("NJ-net") is None
        # and the arpa shard adds domains to the mix
        text = (DATA / "d.arpa").read_text()
        build_snapshot(build([("d.arpa", text)]), out)
        reader = SnapshotReader.open(out)
        table = reader.table("seismo")
        kinds = {kind for _, _, kind, _, _ in table.state_records()}
        assert SK_DOMAIN in kinds and SK_NET in kinds
        edu = reader.decode_graph().find(".edu")
        assert table.state_cost_of(edu) == 95  # seismo .edu(DEDICATED)

    def test_root_state_costs_zero_with_no_parent(self, snapped):
        graph, reader = snapped
        from repro.graph.compact import CompactGraph

        cg = CompactGraph.compile(graph)
        for source in reader.sources():
            table = reader.table(source)
            root = cg.find(source)
            assert table.state_cost_of(root) == 0
            parents = {cid: parent for cid, _, _, _, parent
                       in table.state_records()}
            assert parents[root] == -1


class TestDamage:
    @pytest.fixture()
    def snap_bytes(self, tmp_path):
        graph = build(named_file(DATA_MAPS[0]))
        out = tmp_path / "ok.snap"
        build_snapshot(graph, out)
        return out.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot open"):
            SnapshotReader.open(tmp_path / "nope.snap")

    def test_bad_magic(self, tmp_path, snap_bytes):
        bad = tmp_path / "bad.snap"
        bad.write_bytes(b"NOTASNAP" + snap_bytes[8:])
        with pytest.raises(SnapshotError, match="bad magic"):
            SnapshotReader.open(bad)

    def test_unsupported_version(self, tmp_path, snap_bytes):
        bad = tmp_path / "bad.snap"
        bad.write_bytes(snap_bytes[:8] + b"\x63\x00\x00\x00"
                        + snap_bytes[12:])
        with pytest.raises(SnapshotError, match="version 99"):
            SnapshotReader.open(bad)
        # the retired v1 and v2 formats are refused the same way, with
        # the cure
        for version in (1, 2):
            bad.write_bytes(snap_bytes[:8] + version.to_bytes(4, "little")
                            + snap_bytes[12:])
            with pytest.raises(SnapshotError,
                               match=f"version {version}.*rebuild it "
                                     f"from its map"):
                SnapshotReader.open(bad)

    @pytest.mark.parametrize("keep", [0, 4, 40, 87, 200])
    def test_truncation_detected_at_any_length(self, tmp_path,
                                               snap_bytes, keep):
        bad = tmp_path / "cut.snap"
        bad.write_bytes(snap_bytes[:keep])
        with pytest.raises(SnapshotError):
            SnapshotReader.open(bad)

    def test_truncation_one_byte_short(self, tmp_path, snap_bytes):
        bad = tmp_path / "cut.snap"
        bad.write_bytes(snap_bytes[:-1])
        with pytest.raises(SnapshotError):
            SnapshotReader.open(bad)

    def test_payload_corruption_fails_crc(self, tmp_path, snap_bytes):
        flipped = bytearray(snap_bytes)
        flipped[len(flipped) // 2] ^= 0xFF
        bad = tmp_path / "flip.snap"
        bad.write_bytes(bytes(flipped))
        with pytest.raises(SnapshotError, match="CRC"):
            SnapshotReader.open(bad)

    def test_garbage_file(self, tmp_path):
        bad = tmp_path / "garbage.snap"
        bad.write_bytes(b"\x00" * 300)
        with pytest.raises(SnapshotError):
            SnapshotReader.open(bad)

    def test_malformed_graph_section(self):
        with pytest.raises(SnapshotError):
            decode_graph_section(b"\x01\x00")

    def test_v2_section_with_missing_block_rejected(self):
        """A v2 tag directory lacking a required block is a clear
        SnapshotError, not an index error at lookup time."""
        import struct

        from repro.service.store import _TAG

        directory = struct.pack("<I", 1) + _TAG.pack(b"RECS", 0)
        with pytest.raises(SnapshotError, match="BLOB|UNRC"):
            SnapshotTable("x", directory)

    def test_section_without_dref_rejected(self):
        """The compiled-dispatch reference is required like the other
        blocks: a section carrying every block but DREF names the
        missing one."""
        import struct

        from repro.service.store import _TAG

        directory = struct.pack("<I", 5) + b"".join(
            _TAG.pack(tag, 0)
            for tag in (b"RECS", b"UNRC", b"TREE", b"STAT", b"BLOB"))
        with pytest.raises(SnapshotError, match="lacks the DREF block"):
            SnapshotTable("x", directory)

    def test_v2_section_with_truncated_blocks_rejected(self):
        import struct

        from repro.service.store import _TAG

        directory = struct.pack("<I", 2) \
            + _TAG.pack(b"RECS", 24) + _TAG.pack(b"BLOB", 1000)
        with pytest.raises(SnapshotError, match="truncated"):
            SnapshotTable("x", directory + b"\x00" * 24)

    def test_v2_section_with_ragged_block_rejected(self):
        import struct

        from repro.service.store import _TAG

        directory = struct.pack("<I", 5) + b"".join(
            _TAG.pack(tag, 7 if tag == b"STAT" else 0)
            for tag in (b"RECS", b"UNRC", b"TREE", b"STAT", b"BLOB"))
        with pytest.raises(SnapshotError, match="whole number"):
            SnapshotTable("x", directory + b"\x00" * 7)

    def test_v2_truncated_tag_directory_rejected(self):
        with pytest.raises(SnapshotError, match="malformed"):
            SnapshotTable("x", b"\x05\x00\x00\x00RE")


def restamped(raw: bytearray, out: Path) -> Path:
    """Write ``raw`` to ``out`` with its payload CRC re-stamped, so only
    the reader's structural checks can refuse it."""
    import struct
    import zlib

    from repro.service import store

    crc = zlib.crc32(bytes(raw[store._HEADER.size:])) & 0xFFFFFFFF
    struct.pack_into("<I", raw, 20, crc)
    out.write_bytes(bytes(raw))
    return out


class TestDfsmPool:
    """Each distinct ``DFSM`` block is stored once, in the pool region,
    in first-use order, and every table section names its block by
    index."""

    THREE = [DATA / name for name in ("d.backbone", "d.universities",
                                      "d.arpa")]

    @pytest.fixture()
    def three(self, tmp_path):
        graph = build([(p.name, p.read_text()) for p in self.THREE])
        out = tmp_path / "three.snap"
        build_snapshot(graph, out)
        return out

    def test_one_encode_per_distinct_name_list(self, tmp_path,
                                               monkeypatch):
        """The three-map build compiles 4 automata for its 32 tables."""
        from repro.service import store

        lists = []
        real = store.encode_keys

        def spy(keys, *args, **kwargs):
            lists.append(tuple(keys))
            return real(keys, *args, **kwargs)

        monkeypatch.setattr(store, "encode_keys", spy)
        graph = build([(p.name, p.read_text()) for p in self.THREE])
        build_snapshot(graph, tmp_path / "three.snap")
        assert len(lists) == len(set(lists)) == 4
        with SnapshotReader.open(tmp_path / "three.snap") as reader:
            assert reader.source_count == 32
            assert len(reader.pool_entries()) == 4

    def test_pool_holds_each_named_block_once_in_first_use_order(
            self, snapped):
        from repro.service.fsm import encode_keys

        _, reader = snapped
        drefs = [reader.table(source).dref for source in reader.sources()]
        first_use = list(dict.fromkeys(drefs))
        assert first_use == list(range(len(reader.pool_entries())))
        blocks = []
        for source in reader.sources():
            table = reader.table(source)
            names = [name.decode() for name in table.record_names()]
            assert table.dfsm_bytes() == encode_keys(names)
            blocks.append(table.dfsm_bytes())
        assert len(set(blocks)) == len(first_use)
        assert [[t.source for t in tables]
                for tables in reader.pool_tables()] == [
            [s for s, d in zip(reader.sources(), drefs) if d == i]
            for i in first_use]

    def test_dref_past_the_pool_names_the_section(self, three, tmp_path):
        with SnapshotReader.open(three) as reader:
            source = reader.sources()[-1]
            off, length = reader._entries[reader._find(source)]
            blocks = len(reader.pool_entries())
        raw = bytearray(three.read_bytes())
        raw[off + length - 4:off + length] = blocks.to_bytes(4, "little")
        with SnapshotReader.open(restamped(raw, tmp_path / "bad.snap")) \
                as reader:
            reader.table(reader.sources()[0])  # other tables still open
            with pytest.raises(SnapshotError) as err:
                reader.table(source)
        assert str(err.value) == (
            f"table section for {source!r} at file offset {off}: DREF "
            f"names pool block {blocks}, past the pool's {blocks} blocks")

    @pytest.mark.parametrize("field", ["offset", "length"])
    def test_pool_entry_outside_its_region(self, three, tmp_path, field):
        import struct

        from repro.service import store

        raw = bytearray(three.read_bytes())
        header = store._HEADER.unpack_from(raw, 0)
        pool_off, pool_len = header[-2:]
        entry = pool_off + 4 + store._POOL_ENTRY.size  # block 1
        off, length = store._POOL_ENTRY.unpack_from(raw, entry)
        if field == "offset":
            off = pool_off  # over the directory
        else:
            length = pool_off + pool_len - off + 1  # one byte past
        struct.pack_into("<QI", raw, entry, off, length)
        bad = restamped(raw, tmp_path / "bad.snap")
        with pytest.raises(SnapshotError) as err:
            SnapshotReader.open(bad)
        assert str(err.value).startswith(
            f"{bad}: corrupt snapshot (pool entry at offset {entry}: ")
