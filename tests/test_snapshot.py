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
        "ecd3f9d621f965207d8d05b948066089bcf1c6526fa791344b28eacba8ff1f52",
        "cff0cc06e26f99b116a476c943062cbcab27a71c8eb1bf900597fd200720af0a",
        "ffb967e50369f09e50a1fa3e28f663259a65fe80729a2a0aa31e2a6d84cefd7d"),
    "d.backbone": (
        "3695f713cc876422a1cc4b601346d1c551ea15af1c3c522c26b0fa2756831d71",
        "82eba0fc70a958b066996b52dabe6bc8395e64237be0bb180fd4c67e63e1d317",
        "ecb89f4397b643b1f4915226366ff0484c215567b462faf4d00aff3093bb4160"),
    "d.universities": (
        "b1873b2f4f7820170351365879333e90b5281a71ca073dc9ff09e72cc8f68627",
        "dcb53be1b40d47d2f0124f8dd7e8bf05348ef95f5050b5c9fa96345e0421f9f1",
        "92d315511fda5d593291922b290557d007494ee28a00d3809e2c65594d46286b"),
    "d.backbone d.universities d.arpa": (
        "09411bb711b0f1bff1c1120f9821fa8907fd14b82f4c6fa3e1c1b351afe8987a",
        "9beb15bbee93a69d9dbab2789db93256ad80cf78f9d732ca1efa7c8365a81fdb",
        "7c83b6fa2a7dcd532af85d6b5e24dc6f4307c685b8322be67185045a731fbda0"),
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
    """The v2 layout's per-state cost records."""

    def test_default_build_is_v2(self, snapped):
        _, reader = snapped
        assert reader.version == 2
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
        # the retired v1 format is refused the same way, with the cure
        bad.write_bytes(snap_bytes[:8] + b"\x01\x00\x00\x00"
                        + snap_bytes[12:])
        with pytest.raises(SnapshotError,
                           match="version 1.*rebuild it from its map"):
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

    def test_v2_section_without_dfsm_rejected(self):
        """The compiled-dispatch block is required like the others: a
        section carrying every block but DFSM names the missing one."""
        import struct

        from repro.service.store import _TAG

        directory = struct.pack("<I", 5) + b"".join(
            _TAG.pack(tag, 0)
            for tag in (b"RECS", b"UNRC", b"TREE", b"STAT", b"BLOB"))
        with pytest.raises(SnapshotError, match="lacks the DFSM block"):
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
