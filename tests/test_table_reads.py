"""Table-section point queries and the one-pass section encoder,
checked against whole-block references.

* ``SnapshotTable.has_tree_link`` / ``state_cost_at`` answer exactly
  what decoding the whole ``TREE`` / ``STAT`` block answers, on every
  ``d.*`` fixture, in tree and second-best mode, on mapped and bytes
  readers;
* ``encode_table_section`` writes the same bytes as the per-record
  encoder it replaced (kept here as the reference), on fixture
  payloads and on generated payloads whose strings are shared
  between records, unreachable names and tree pairs;
* the writer's code-point sort and the reader's UTF-8 byte
  comparison agree on non-ASCII names.
"""

from __future__ import annotations

import struct
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import HeuristicConfig
from repro.core.batch import map_sources
from repro.core.pathalias import Pathalias
from repro.graph.compact import CompactGraph
from repro.service import store
from repro.service.fsm import encode_keys
from repro.service.store import (
    SnapshotReader,
    SnapshotTable,
    build_snapshot,
    encode_table_section,
    snapshot_payload,
)

from tests.conftest import stored_tree_links

DATA = Path(__file__).parent / "data"
DATA_MAPS = sorted(DATA.glob("d.*"))


def reference_encode_table_section(records, unreachable, tree_links,
                                   states=()) -> bytes:
    """The per-record section encoder: one ``_StringPool.add`` per
    string and one ``pack`` per record, joined — the bytes the
    one-pass encoder must reproduce."""
    pool = store._StringPool()
    by_name = sorted(records, key=lambda r: r[1].encode("utf-8"))
    record_refs = [(cost, pool.add(name), pool.add(route))
                   for cost, name, route in by_name]
    unreachable_refs = [pool.add(name) for name in sorted(unreachable)]
    pair_refs = [(pool.add(a), pool.add(b))
                 for a, b in sorted(tree_links)]
    recs = b"".join(
        store._RECORD.pack(cost, nref[0], nref[1], rref[0], rref[1])
        for cost, nref, rref in record_refs)
    unrc = b"".join(store._REF.pack(*ref) for ref in unreachable_refs)
    tree = b"".join(store._PAIR.pack(aref[0], aref[1], bref[0], bref[1])
                    for aref, bref in pair_refs)
    blob = pool.getvalue()
    stat = b"".join(
        store._STATE.pack(cid, cost, parent, flags, kind)
        for cid, flags, kind, cost, parent in states)
    dfsm = encode_keys([name for _, name, _ in by_name])
    blocks = dict(RECS=recs, UNRC=unrc, TREE=tree, STAT=stat,
                  BLOB=blob, DFSM=dfsm)
    parts = [struct.pack("<I", len(store.TABLE_SECTION_TAGS))]
    parts += [store._TAG.pack(tag.encode("ascii"), len(blocks[tag]))
              for tag in store.TABLE_SECTION_TAGS]
    parts += [blocks[tag] for tag in store.TABLE_SECTION_TAGS]
    return b"".join(parts)


@pytest.fixture(scope="module",
                params=[(p.name, second) for p in DATA_MAPS
                        for second in (False, True)],
                ids=lambda p: f"{p[0]}-{'second-best' if p[1] else 'tree'}")
def fixture_snapshot(request, tmp_path_factory):
    """``(compact graph, heuristics, snapshot path)`` for one fixture
    map in one mapping mode."""
    name, second = request.param
    cfg = HeuristicConfig(second_best=second)
    graph = Pathalias(heuristics=cfg).build(
        [(name, (DATA / name).read_text())])
    cg = CompactGraph.compile(graph)
    out = tmp_path_factory.mktemp("reads") / f"{name}.snap"
    build_snapshot(cg, out, heuristics=cfg)
    return cg, cfg, out


def near_misses(a: str, b: str) -> list:
    """Pairs close to ``(a, b)``: reversed, one side a proper prefix or
    extension of the stored name, and unknown names."""
    out = [(b, a), (a + "a", b), (a, b + "a"), ("no-such-host", b),
           (a, "no-such-host"), ("", "")]
    if len(a) > 1:
        out.append((a[:-1], b))
    if len(b) > 1:
        out.append((a, b[:-1]))
    return out


class TestPointQueries:
    @pytest.mark.parametrize("use_mmap", [True, False],
                             ids=["mmap", "bytes"])
    def test_tree_link_point_query(self, fixture_snapshot, use_mmap):
        _, _, path = fixture_snapshot
        with SnapshotReader.open(path, use_mmap=use_mmap) as reader:
            assert reader.mapped == use_mmap
            found = 0
            for source in reader.sources():
                table = reader.table(source)
                stored = stored_tree_links(reader, source)
                for a, b in stored:
                    assert table.has_tree_link(a, b)
                    found += 1
                    for x, y in near_misses(a, b):
                        assert table.has_tree_link(x, y) \
                            == ((x, y) in stored)
            assert found > 0

    @pytest.mark.parametrize("use_mmap", [True, False],
                             ids=["mmap", "bytes"])
    def test_state_point_query(self, fixture_snapshot, use_mmap):
        cg, _, path = fixture_snapshot
        with SnapshotReader.open(path, use_mmap=use_mmap) as reader:
            for source in reader.sources():
                table = reader.table(source)
                states = table.state_cost_map()
                assert states
                for cid in range(cg.n + 2):
                    for dclass in (0, 1):
                        assert table.state_cost_at(cid, dclass) \
                            == states.get((cid, dclass))


class TestEncoderMatchesReference:
    def test_fixture_payloads(self, fixture_snapshot):
        cg, cfg, _ = fixture_snapshot
        sources = store.eligible_sources(cg)
        payloads, _ = map_sources(cg, sources, snapshot_payload, cfg,
                                  None)
        for records, unreachable, pairs, states in payloads:
            assert encode_table_section(
                records, unreachable, pairs, states) \
                == reference_encode_table_section(
                    records, unreachable, pairs, states)

    def test_previous_block_spliced_only_for_equal_names(
            self, fixture_snapshot):
        """``previous`` splices the old ``DFSM`` block when the record
        names are byte-equal, and recompiles otherwise — both give
        the bytes of a from-scratch encode."""
        cg, cfg, path = fixture_snapshot
        sources = store.eligible_sources(cg)
        payloads, _ = map_sources(cg, sources, snapshot_payload, cfg,
                                  None)
        with SnapshotReader.open(path) as reader:
            for source, payload in zip(sources, payloads):
                fresh = encode_table_section(*payload)
                same = reader.table(source)
                assert encode_table_section(*payload, previous=same) \
                    == fresh
                records = payload[0]
                fewer = (records[1:],) + tuple(payload[1:])
                assert encode_table_section(*fewer, previous=same) \
                    == encode_table_section(*fewer)


#: Names drawn from a small pool, so records, routes, unreachable
#: names and tree pairs share strings; the pool mixes ASCII with
#: two-, three- and four-byte UTF-8 (``é`` sorts after ``z``).
NAMES = st.text(alphabet="abz.é中\U0001f600", min_size=1,
                max_size=4)


@st.composite
def section_payloads(draw):
    """``(records, unreachable, pairs, states)`` with shared strings:
    a route may equal a record name, and a name may recur across
    records, unreachable names and pairs."""
    pool = draw(st.lists(NAMES, min_size=1, max_size=12, unique=True))
    names = draw(st.lists(st.sampled_from(pool), unique=True,
                          max_size=len(pool)))
    routes = st.one_of(st.sampled_from(pool),
                       NAMES.map(lambda s: s + "!%s"))
    records = [(draw(st.integers(0, 2**40)), name, draw(routes))
               for name in names]
    unreachable = draw(st.lists(st.sampled_from(pool), unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool),
                                    st.sampled_from(pool)),
                          unique=True))
    cids = draw(st.lists(st.integers(0, 50), unique=True))
    states = []
    for cid in sorted(cids):
        for dclass in draw(st.sampled_from([(0,), (1,), (0, 1)])):
            states.append((cid, dclass | draw(st.integers(0, 7)) * 2,
                           draw(st.integers(0, 3)),
                           draw(st.integers(0, 2**40)),
                           draw(st.integers(-1, 1000))))
    return records, unreachable, pairs, states


class TestGeneratedSections:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(section_payloads())
    def test_encoder_matches_reference(self, payload):
        assert encode_table_section(*payload) \
            == reference_encode_table_section(*payload)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(section_payloads(), st.lists(st.tuples(NAMES, NAMES),
                                        max_size=8))
    def test_writer_sort_and_reader_search_agree(self, payload, probes):
        """Every stored pair, record and state is found by the
        reader's byte-comparing binary searches, and nothing else is,
        whatever the mix of one- to four-byte UTF-8 names."""
        records, unreachable, pairs, states = payload
        table = SnapshotTable("src", encode_table_section(*payload))
        stored = set(pairs)
        for a, b in pairs + probes:
            assert table.has_tree_link(a, b) == ((a, b) in stored)
        for cost, name, route in records:
            assert table.lookup(name) == (cost, route)
        assert table.record_names() == sorted(
            name.encode("utf-8") for _, name, _ in records)
        assert table.unreachable() == sorted(
            unreachable, key=lambda name: name.encode("utf-8"))
        costs = {(cid, flags & 1): cost
                 for cid, flags, _, cost, _ in states}
        assert table.state_cost_map() == costs
        for cid in range(52):
            for dclass in (0, 1):
                assert table.state_cost_at(cid, dclass) \
                    == costs.get((cid, dclass))
