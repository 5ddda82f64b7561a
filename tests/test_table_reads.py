"""Table-section point queries and the section writer, checked
against whole-block references.

* ``SnapshotTable.has_tree_link`` / ``state_cost_at`` /
  ``state_cost_of`` answer exactly what decoding the whole ``TREE`` /
  ``STAT`` block answers, on every ``d.*`` fixture, in tree and
  second-best mode, on mapped and bytes readers, before and after
  the table promotes, and so does ``node_costs``; ``lookup`` answers
  what a linear scan of ``records()`` answers;
* the section writer (``snapshot_payload`` + ``encode_table_section``,
  straight from the mapper's arrays) writes the bytes of the
  per-record encoder over the printer's tuple payload (both kept here
  as the reference), on fixture maps, churn revisions, multi-byte
  UTF-8 names, generated maps and over-wide costs;
* a re-priced section (``table_blocks`` given the old table, when the
  tree did not move) is the full writer's bytes on churn revisions,
  in process and over workers, and keeps its pool block on a bytes
  check; second-best tables, domain-qualified records, moved trees,
  another source's table and over-wide costs take the full writer;
* a cost-only revision that renames a record moves the table to the
  block of its new name list, compiled once and stored once, and the
  update still equals a fresh build;
* the writer's sort and the reader's UTF-8 byte comparison agree on
  non-ASCII names.
"""

from __future__ import annotations

import copy
import pickle
import struct
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import HeuristicConfig
from repro.core.fastmap import (
    STATE_F_DOMAIN_CLASS,
    STATE_F_DOMAIN_SEEN,
    STATE_F_HAS_AT,
    STATE_F_HAS_BANG,
    CompactMapper,
    build_portable_table,
)
from repro.core.pathalias import Pathalias
from repro.errors import RouteError
from repro.graph.compact import CompactGraph, K_NORMAL
from repro.service import store
from repro.service.fsm import encode_keys
from repro.service.store import (
    DfsmBlock,
    DfsmPool,
    SnapshotError,
    SnapshotReader,
    SnapshotTable,
    build_snapshot,
    encode_table_section,
    snapshot_payload,
    table_blocks,
)
from repro.service.incremental import update_snapshot

from tests.conftest import DOMAIN_TREE_MAP, MOTOWN_MAP, stored_tree_links
from tests.test_properties_routes import featureful_maps

DATA = Path(__file__).parent / "data"
DATA_MAPS = sorted(DATA.glob("d.*"))


def cheapest(states: dict, cid: int) -> int | None:
    """The least of ``cid``'s entries in a ``state_cost_map()`` (either
    domain class), or None when it has none."""
    return min((states[cid, dclass] for dclass in (0, 1)
                if (cid, dclass) in states), default=None)


def assert_state_queries(table, states: dict, cids) -> None:
    """Every point query over ``cids`` and the one-pass
    ``node_costs`` agree with ``states``, the whole-block reference;
    so does ``state_cost_of`` once the table has promoted and prices
    from the map it decoded then."""
    for cid in cids:
        for dclass in (0, 1):
            assert table.state_cost_at(cid, dclass) \
                == states.get((cid, dclass))
        assert table.state_cost_of(cid) == cheapest(states, cid)
    assert table.node_costs() == {
        cid: cheapest(states, cid) for cid, _ in states}
    with mock.patch.object(store, "BREAK_EVEN_PER_STATE", 0.0):
        try:
            table.resolve_with_cost("promote.me")
        except RouteError:
            pass
    assert table._costs is not None
    for cid in cids:
        assert table.state_cost_of(cid) == cheapest(states, cid)


def reference_encode_table_section(records, unreachable, tree_links,
                                   states=(), dref: int = 0) -> bytes:
    """The per-record section encoder: one ``_StringPool.add`` per
    string and one ``pack`` per record, joined, naming pool block
    ``dref`` — the bytes the section writer must reproduce."""
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
    blocks = dict(RECS=recs, UNRC=unrc, TREE=tree, STAT=stat,
                  BLOB=blob, DREF=struct.pack("<I", dref))
    parts = [struct.pack("<I", len(store.TABLE_SECTION_TAGS))]
    parts += [store._TAG.pack(tag.encode("ascii"), len(blocks[tag]))
              for tag in store.TABLE_SECTION_TAGS]
    parts += [blocks[tag] for tag in store.TABLE_SECTION_TAGS]
    return b"".join(parts)


def reference_tree_link_pairs(result) -> list[tuple[str, str]]:
    """``(from, to)`` name pairs of every NORMAL link a mapping leaned
    on — the shortest-path-tree edges plus the forward links that
    seeded invented back links — distinct and sorted: the ``TREE``
    reference."""
    cg = result.cgraph
    names = cg.names
    shift = result.shift
    csr = cg.link_count
    pairs: set[tuple[str, str]] = set()
    for state in result.touched:
        j = result.link[state]
        if 0 <= j < csr and cg.kind[j] == K_NORMAL:
            owner = result.parent[state] >> shift
            pairs.add((names[owner], names[state >> shift]))
    for owner, link_id in result.inferred:
        pairs.add((names[result._mapper._ov_to[link_id - csr]],
                   names[owner]))
    return sorted(pairs)


def reference_state_costs(result) -> list[tuple[int, int, int, int, int]]:
    """The mapper's per-state records, ``(cid, flags, kind, cost,
    parent_link)`` sorted by ``(cid, domain class)``: the ``STAT``
    reference."""
    shift = result.shift
    kinds = result.cgraph.state_kinds()
    dmask = (1 << shift) - 1
    records = []
    for state in result.touched:
        flags = ((state & dmask)
                 | (STATE_F_DOMAIN_SEEN if result.domain_seen[state] else 0)
                 | (STATE_F_HAS_AT if result.has_at[state] else 0)
                 | (STATE_F_HAS_BANG if result.has_bang[state] else 0))
        cid = state >> shift
        records.append((cid, flags, kinds[cid], result.cost[state],
                        result.link[state]))
    records.sort(key=lambda r: (r[0], r[1] & STATE_F_DOMAIN_CLASS))
    return records


def reference_payload(mapper, source: str):
    """``(records, unreachable, tree_links, states)`` for one source:
    the compact printer's ``(cost, name, route)`` records and
    unreachable names (which ``tests/test_compact.py`` holds equal to
    the reference engine's), and the two references above — the tuple
    payload the section writer's bytes are checked against."""
    result = mapper.run(source)
    _, records, unreachable, _ = build_portable_table(result)
    return ([(cost, name, route) for cost, name, route, _ in records],
            unreachable, reference_tree_link_pairs(result),
            reference_state_costs(result))


def reference_block(records) -> bytes:
    """The ``DFSM`` block of a reference payload's records: their
    names compiled in UTF-8 byte order."""
    return encode_keys(sorted((name for _, name, _ in records),
                              key=lambda name: name.encode("utf-8")))


def reference_section(mapper, source: str, dref: int = 0) -> bytes:
    """One source's section through the reference payload and
    encoder."""
    return reference_encode_table_section(
        *reference_payload(mapper, source), dref=dref)


def assert_writer_matches_reference(cg: CompactGraph,
                                    cfg: HeuristicConfig) -> int:
    """Every eligible source's section, written from the mapper's
    arrays, equals the reference, and so does the block it adds to a
    new pool; returns the sections checked."""
    mapper = CompactMapper(cg, cfg)
    sources = store.eligible_sources(cg)
    for source in sources:
        payload = reference_payload(mapper, source)
        pool = DfsmPool()
        assert encode_table_section(snapshot_payload(mapper, source),
                                    pool) \
            == reference_encode_table_section(*payload), source
        assert pool.blocks == [reference_block(payload[0])], source
    return len(sources)


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
                # every cid, the unreached ones and the one past the
                # last included
                assert_state_queries(table, states, range(cg.n + 2))


class TestLookup:
    @pytest.mark.parametrize("use_mmap", [True, False],
                             ids=["mmap", "bytes"])
    def test_lookup_matches_a_linear_scan(self, fixture_snapshot,
                                          use_mmap):
        """Every record name and its near misses — a proper prefix,
        an extension, the empty name, names past the last and before
        the first — answer what a scan of ``records()`` answers."""
        _, _, path = fixture_snapshot
        with SnapshotReader.open(path, use_mmap=use_mmap) as reader:
            for source in reader.sources():
                table = reader.table(source)
                scan = {}
                for cost, name, route in table.records():
                    scan.setdefault(name, (cost, route))
                probes = {"", "\U0010ffff", "\x00"}
                for name in scan:
                    probes.update((name, name[:-1], name + "a",
                                   name + "\x00", name + "\U0010ffff"))
                for probe in probes:
                    assert table.lookup(probe) == scan.get(probe), probe


class TestWriterMatchesReference:
    def test_fixture_sections(self, fixture_snapshot):
        cg, cfg, _ = fixture_snapshot
        assert assert_writer_matches_reference(cg, cfg) > 0

    def test_previous_block_kept_only_for_equal_names(
            self, fixture_snapshot):
        """``previous`` keeps the old ``DFSM`` block when the record
        names are byte-equal (and then builds none), and builds one
        when the old table lacks one record — both give the reference
        section and block."""
        cg, cfg, path = fixture_snapshot
        mapper = CompactMapper(cg, cfg)
        with SnapshotReader.open(path) as reader:
            for source in reader.sources():
                payload = reference_payload(mapper, source)
                want = reference_encode_table_section(*payload)
                block = reference_block(payload[0])
                blocks = snapshot_payload(mapper, source)
                pool = DfsmPool()
                with mock.patch.object(store, "encode_keys",
                                       side_effect=AssertionError):
                    assert encode_table_section(
                        blocks, pool, previous=reader.table(source)) \
                        == want
                assert pool.blocks == [block]
                fewer = SnapshotTable(
                    source, reference_encode_table_section(
                        payload[0][1:], *payload[1:]),
                    pool=[DfsmBlock(reference_block(payload[0][1:]))])
                pool = DfsmPool()
                assert encode_table_section(blocks, pool,
                                            previous=fewer) == want
                assert pool.blocks == [block]

    @pytest.mark.parametrize("text", [DOMAIN_TREE_MAP, MOTOWN_MAP,
                                      DOMAIN_TREE_MAP
                                      + "seismo\tcaip.rutgers.edu(5000)\n"
                                      + "caip.rutgers.edu\tseismo(95)\n"],
                             ids=["domain-tree", "motown", "equal-displays"])
    @pytest.mark.parametrize("second", [False, True],
                             ids=["tree", "second-best"])
    def test_domain_qualified_displays(self, text, second):
        """Records displayed under a domain-qualified name, including
        one equal to another host's own name, sort and intern as the
        reference does."""
        cfg = HeuristicConfig(second_best=second)
        graph = Pathalias(heuristics=cfg).build([("d.map", text)])
        assert assert_writer_matches_reference(
            CompactGraph.compile(graph), cfg) > 0

    @pytest.mark.parametrize("second", [False, True],
                             ids=["tree", "second-best"])
    def test_multibyte_utf8_names(self, second):
        """The three fixture maps as one graph, every name rewritten to
        two-, three- and four-byte UTF-8 (``é`` sorts after ``z``, so
        byte order moves names around).  The parser refuses such names;
        a compiled graph carries them."""
        cfg = HeuristicConfig(second_best=second)
        graph = Pathalias(heuristics=cfg).build(
            [(p.name, p.read_text()) for p in DATA_MAPS])
        cg = pickle.loads(pickle.dumps(CompactGraph.compile(graph)))
        rewrite = str.maketrans({"a": "é", "e": "中", "o": "\U0001f600",
                                 "s": "ß"})
        cg.names = [name.translate(rewrite) for name in cg.names]
        cg.cid_by_name = {cg.names[cid]: cid for cid in range(cg.n)
                          if not cg.private[cid]}
        assert any(not name.isascii() for name in cg.names)
        assert assert_writer_matches_reference(cg, cfg) > 0

    @pytest.mark.parametrize("seed", [42, 2024])
    def test_churn_revision_sections(self, seed, tmp_path):
        """Every table a churn revision remaps is the reference section
        of the revised graph, written straight from the arrays, keeping
        its old table's ``DFSM`` block; and every revision equals a
        fresh build."""
        from repro.netsim.churn import ChurnParams, ChurnScenario
        from repro.service.incremental import update_snapshot

        scenario = ChurnScenario(ChurnParams(nodes=3000, events=4,
                                             seed=seed))
        graphs = scenario.build_graphs()
        paths = {}
        for name, cg in graphs.items():
            paths[name] = tmp_path / f"{name}.g0.snap"
            build_snapshot(cg, paths[name])
        checked = 0
        for event in scenario.stream:
            for name in scenario.apply(event):
                cg = graphs[name]
                out = tmp_path / f"{name}.g{event.gen + 1}.snap"
                report = update_snapshot(paths[name], cg, out,
                                         full_threshold=1.0)
                assert report.mode == "incremental"
                mapper = CompactMapper(cg)
                with SnapshotReader.open(paths[name]) as old, \
                        SnapshotReader.open(out) as new:
                    for source in report.remapped:
                        table = new.table(source)
                        payload = reference_payload(mapper, source)
                        assert new.table_bytes(source) \
                            == reference_encode_table_section(
                                *payload, dref=table.dref)
                        assert table.dfsm_bytes() \
                            == reference_block(payload[0])
                        pool = DfsmPool()
                        with mock.patch.object(
                                store, "encode_keys",
                                side_effect=AssertionError):
                            assert encode_table_section(
                                snapshot_payload(mapper, source), pool,
                                previous=old.table(source)) \
                                == reference_encode_table_section(
                                    *payload)
                        checked += 1
                build_snapshot(cg, tmp_path / "fresh.snap")
                assert out.read_bytes() \
                    == (tmp_path / "fresh.snap").read_bytes()
                paths[name] = out
        assert checked > 0

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_generated_maps(self, data):
        """``featureful_maps`` widened with a private host, a dead
        link, one-way hosts nothing links to (so back-link inference
        invents links) and an isolated pair no other host reaches (so
        tables list unreachable hosts), in both mapping modes."""
        text = data.draw(featureful_maps())
        hosts = sorted({line.split()[0] for line in text.splitlines()
                        if line.startswith("h")})
        extra = []
        if data.draw(st.booleans()):
            owner = data.draw(st.sampled_from(hosts))
            extra += ["private {p}", f"p\t{owner}(5)", f"{owner}\tp(5)"]
        if data.draw(st.booleans()):
            extra.append(f"dead {{{hosts[0]}!{hosts[1]}}}")
        if data.draw(st.booleans()):
            extra.append("iso0\tiso1(7)")
        for i in range(data.draw(st.integers(0, 3))):
            target = data.draw(st.sampled_from(hosts))
            op = data.draw(st.sampled_from(["", "@"]))
            extra.append(f"oneway{i}\t{op}{target}"
                         f"({data.draw(st.integers(1, 500))})")
        cfg = HeuristicConfig(second_best=data.draw(st.booleans()))
        graph = Pathalias(heuristics=cfg).build(
            [("prop", "\n".join([text] + extra) + "\n")])
        cg = CompactGraph.compile(graph)
        assert_writer_matches_reference(cg, cfg)


@contextmanager
def full_writes():
    """The sources whose blocks the full writer writes while the block
    is open: only it labels routes (``route_labels``), so a re-priced
    table adds no name."""
    written = []
    real = store.route_labels

    def spy(result, *args):
        written.append(result.cgraph.names[result.source])
        return real(result, *args)

    with mock.patch.object(store, "route_labels", spy):
        yield written


def repriced(cg: CompactGraph, link: tuple[str, str],
             cost: int) -> CompactGraph:
    """A copy of ``cg`` with the ``link`` (from, to) repriced: the
    revision a cost-only update maps."""
    owner, target = (cg.find(name) for name in link)
    revised = copy.copy(cg)
    revised.cost = list(cg.cost)
    for j in range(cg.off[owner], cg.off[owner + 1]):
        if cg.to[j] == target:
            revised.cost[j] = cost
    assert revised.cost != cg.cost
    return revised


def compiled(text: str, cfg: HeuristicConfig | None = None
             ) -> CompactGraph:
    """One map text, compiled."""
    return CompactGraph.compile(
        Pathalias(heuristics=cfg).build([("d.map", text)]))


#: A map whose source ``a`` keeps its tree under small reprices and
#: moves it when ``a -> b`` costs more than the direct ``a -> c``.
PLAIN_MAP = "a\tb(10), c(30)\nb\tc(10), a(10)\nc\ta(1)\n"

#: Repricing ``rgw -> .rutgers`` to 100 moves ``caip``'s tree parent
#: from the domain to ``x``, so source ``a``'s record ``caip.rutgers``
#: becomes ``caip``: a cost-only revision that changes a record name.
RUTGERS_MAP = ("a\tx(10), rgw(10)\nx\tcaip(10)\nrgw\t.rutgers(0)\n"
               ".rutgers = {caip, aramis}\ncaip\tx(10)\n")


class TestRepricedSections:
    """``table_blocks(result, previous=old table)`` re-prices the old
    blocks when the tree did not move, and the bytes are the full
    writer's; every other case takes the full writer."""

    @pytest.mark.parametrize("seed", [42, 2024])
    def test_churn_tables_equal_the_writer(self, seed, tmp_path):
        """Every table 40 churn revisions remap, given its old table,
        is the full writer's blocks, and both outcomes occur."""
        from repro.netsim.churn import ChurnParams, ChurnScenario

        scenario = ChurnScenario(ChurnParams(nodes=3000, events=40,
                                             seed=seed))
        graphs = scenario.build_graphs()
        paths = {}
        for name, cg in graphs.items():
            paths[name] = tmp_path / f"{name}.g0.snap"
            build_snapshot(cg, paths[name])
        outcomes = {"re-priced": 0, "rewritten": 0}
        for event in scenario.stream:
            for name in scenario.apply(event):
                cg = graphs[name]
                out = tmp_path / f"{name}.g{event.gen + 1}.snap"
                report = update_snapshot(paths[name], cg, out,
                                         full_threshold=1.0)
                assert report.mode == "incremental"
                mapper = CompactMapper(cg)
                with SnapshotReader.open(paths[name]) as old:
                    for source in report.remapped:
                        result = mapper.run(source)
                        want = table_blocks(result)
                        with full_writes() as written:
                            got = table_blocks(
                                result, previous=old.table(source))
                        assert got == want, (name, event.gen, source)
                        outcomes["rewritten" if written
                                 else "re-priced"] += 1
                paths[name].unlink()
                paths[name] = out
        assert all(outcomes.values()), outcomes

    @pytest.mark.parametrize("second", [False, True],
                             ids=["tree", "second-best"])
    def test_second_best_takes_the_writer(self, second, tmp_path):
        """An unchanged graph's tables re-price in tree mode and are
        rewritten in second-best mode, where a link id does not fix
        the parent's domain class."""
        cfg = HeuristicConfig(second_best=second)
        cg = compiled(PLAIN_MAP, cfg)
        build_snapshot(cg, tmp_path / "s.snap", heuristics=cfg)
        mapper = CompactMapper(cg, cfg)
        with SnapshotReader.open(tmp_path / "s.snap") as reader:
            for source in reader.sources():
                result = mapper.run(source)
                want = table_blocks(result)
                with full_writes() as written:
                    got = table_blocks(result,
                                       previous=reader.table(source))
                assert got == want
                assert written == ([source] if second else [])

    def test_domain_qualified_records_take_the_writer(self, tmp_path):
        """``d.arpa`` prints every source's domain members under
        qualified names (``caip.rutgers.edu``), so ``RECS`` is not in
        rank order and no table re-prices, even unchanged."""
        cg = CompactGraph.compile(Pathalias().build(
            [("d.arpa", (DATA / "d.arpa").read_text())]))
        build_snapshot(cg, tmp_path / "s.snap")
        mapper = CompactMapper(cg)
        with SnapshotReader.open(tmp_path / "s.snap") as reader:
            for source in reader.sources():
                result = mapper.run(source)
                want = table_blocks(result)
                with full_writes() as written:
                    got = table_blocks(result,
                                       previous=reader.table(source))
                assert got == want
                assert written == [source]

    @pytest.mark.parametrize("cost, moved", [(15, False), (50, True)],
                             ids=["same-tree", "re-parented"])
    def test_a_moved_tree_takes_the_writer(self, cost, moved, tmp_path):
        """Repricing ``a -> b`` to 15 keeps ``a``'s tree and re-prices;
        to 50 it re-parents ``c`` onto ``a -> c`` and rewrites."""
        cg = compiled(PLAIN_MAP)
        build_snapshot(cg, tmp_path / "s.snap")
        revised = repriced(cg, ("a", "b"), cost)
        result = CompactMapper(revised).run("a")
        want = table_blocks(result)
        with SnapshotReader.open(tmp_path / "s.snap") as reader, \
                full_writes() as written:
            assert table_blocks(result, previous=reader.table("a")) \
                == want
        assert written == (["a"] if moved else [])

    def test_another_sources_table_takes_the_writer(self, tmp_path):
        cg = compiled(PLAIN_MAP)
        build_snapshot(cg, tmp_path / "s.snap")
        result = CompactMapper(cg).run("a")
        want = table_blocks(result)
        with SnapshotReader.open(tmp_path / "s.snap") as reader:
            for other in ("b", "c"):
                with full_writes() as written:
                    assert table_blocks(
                        result, previous=reader.table(other)) == want
                assert written == ["a"]

    def test_too_wide_cost_raises_the_writers_error(self, tmp_path):
        """A revision that keeps the tree but pushes a route past 64
        bits raises the full writer's error, not a re-price."""
        cg = compiled("a\tb(1)\nb\tc(1)\nc\ta(1)\n")
        build_snapshot(cg, tmp_path / "s.snap")
        result = CompactMapper(
            repriced(cg, ("a", "b"), (1 << 63) - 1)).run("a")
        with pytest.raises(SnapshotError) as plain:
            table_blocks(result)
        with SnapshotReader.open(tmp_path / "s.snap") as reader, \
                pytest.raises(SnapshotError) as given:
            table_blocks(result, previous=reader.table("a"))
        assert str(given.value) == str(plain.value)
        assert str(plain.value).startswith(
            f"source 'a': route to 'c' costs {1 << 63},")

    def test_dfsm_kept_without_name_lists(self, tmp_path):
        """A re-priced section keeps its ``DFSM`` block on the bytes
        check alone: neither name list is built, and no automaton."""
        cg = compiled(PLAIN_MAP)
        build_snapshot(cg, tmp_path / "s.snap")
        result = CompactMapper(repriced(cg, ("a", "b"), 15)).run("a")
        built = DfsmPool()
        want = encode_table_section(table_blocks(result), built)
        with SnapshotReader.open(tmp_path / "s.snap") as reader:
            old = reader.table("a")
            kept = DfsmPool()
            with full_writes() as written, \
                    mock.patch.object(SnapshotTable, "record_names",
                                      side_effect=AssertionError), \
                    mock.patch.object(store, "_record_names",
                                      side_effect=AssertionError), \
                    mock.patch.object(store, "encode_keys",
                                      side_effect=AssertionError):
                got = encode_table_section(
                    table_blocks(result, previous=old), kept,
                    previous=old)
        assert written == []
        assert got == want
        assert kept.blocks == built.blocks

    def test_workers_agree_with_one_process(self, tmp_path):
        """``update_snapshot`` over two workers, which re-price from
        the old sections they are sent, writes the bytes of an
        in-process update, revision after revision."""
        from repro.netsim.churn import ChurnParams, ChurnScenario

        scenario = ChurnScenario(ChurnParams(nodes=1000, events=12,
                                             seed=42))
        graphs = scenario.build_graphs()
        paths = {}
        for name, cg in graphs.items():
            paths[name] = tmp_path / f"{name}.g0.snap"
            build_snapshot(cg, paths[name])
        pooled = 0
        for event in scenario.stream:
            for name in scenario.apply(event):
                outs = [tmp_path / f"{name}.g{event.gen + 1}.j{jobs}.snap"
                        for jobs in (1, 2)]
                with full_writes() as written:
                    report = update_snapshot(paths[name], graphs[name],
                                             outs[0], full_threshold=1.0)
                update_snapshot(paths[name], graphs[name], outs[1],
                                jobs=2, full_threshold=1.0)
                assert outs[0].read_bytes() == outs[1].read_bytes()
                if len(report.remapped) > 1 \
                        and len(written) < len(report.remapped):
                    pooled += 1  # the pool ran, and re-priced
                paths[name] = outs[0]
        assert pooled > 0

    @pytest.mark.parametrize("text, blocks, moved", [
        # a's new list is caip's and x's: its compiled block is theirs,
        # stored once, and the later sections' DREFs move
        (RUTGERS_MAP, (3, 3), ["caip", "rgw", "x"]),
        # a's old list was only a's and rgw's, both renamed: its block
        # leaves the pool
        (RUTGERS_MAP.replace("rgw\t.rutgers(0)",
                             "rgw\t.rutgers(0), y(1)\ny\tcaip(30)"),
         (3, 2), ["caip", "x", "y"]),
        # a's new list is a's alone (only a shows z.other): a new
        # block takes the place of its old one
        (RUTGERS_MAP.replace("a\tx(10), rgw(10)",
                             "a\tx(10), rgw(10), .other(0)")
         .replace("x\tcaip(10)", "x\tcaip(10), z(1)")
         + ".other = {z}\nz\tx(1)\n", (4, 4), []),
    ], ids=["pooled-list", "block-leaves", "new-block"])
    def test_reparented_record_name_moves_its_block(self, tmp_path, text,
                                                    blocks, moved):
        """A cost-only revision can rename a record: ``a``'s
        ``caip.rutgers`` becomes ``caip``.  Its table is rewritten and
        its new name list compiled once; the block it names is stored
        once however many tables name it, and the update equals a
        fresh build."""
        cg = compiled(text)
        old = tmp_path / "old.snap"
        build_snapshot(cg, old)
        revised = repriced(cg, ("rgw", ".rutgers"), 100)
        keys = []
        real_encode_keys = store.encode_keys

        def encode_keys_spy(names, *args, **kwargs):
            keys.append(names)
            return real_encode_keys(names, *args, **kwargs)

        with full_writes() as written, mock.patch.object(
                store, "encode_keys", encode_keys_spy):
            report = update_snapshot(old, revised, tmp_path / "new.snap",
                                     full_threshold=1.0)
        assert report.mode == "incremental" and "a" in report.remapped
        assert "a" in written
        with SnapshotReader.open(old) as before, \
                SnapshotReader.open(tmp_path / "new.snap") as after:
            names = after.table("a").record_names()
            assert b"caip.rutgers" in before.table("a").record_names()
            assert b"caip" in names and b"caip.rutgers" not in names
            assert keys == [[name.decode() for name in names]]
            assert (len(before.pool_entries()),
                    len(after.pool_entries())) == blocks
            assert [source for source in after.sources()
                    if after.table(source).dref
                    != before.table(source).dref] == moved
        build_snapshot(revised, tmp_path / "full.snap")
        assert (tmp_path / "new.snap").read_bytes() \
            == (tmp_path / "full.snap").read_bytes()


class TestCostRangeWithWorkers:
    """``TestCostRange``'s maps (``tests/test_store.py``) built over a
    two-worker pool: the same error as in process, naming the source,
    the name and the cost, and nothing written; a map that fits gives
    the reference sections."""

    TOO_WIDE = 1 << 63
    HALF = TOO_WIDE // 2
    MAPS = {
        "route": "a\tb(99999999999999999999999)\nb\ta(1)\n",
        "sum": f"a\tb({HALF})\nb\tc({HALF})\nc\tb(1)\nb\ta(1)\n",
        "link": f"a\tb({TOO_WIDE}), c(1)\nb\ta(1)\nc\tb(1)\n",
        "fits": f"a\tb({TOO_WIDE - 1}), c(1)\nb\ta(1)\nc\tb(1)\n",
        # only a1 and a8 reach z, so both fail: the error is a1's, the
        # first in source order, whichever pool chunk a8 lands in
        "first-source": (f"a1\tz({TOO_WIDE})\na8\tz({TOO_WIDE})\n"
                         "a0\ta2(1)\na2\ta3(1)\na3\ta4(1)\na4\ta5(1)\n"
                         "a5\ta6(1)\na6\ta7(1)\na7\ta9(1)\na9\ta0(1)\n"),
    }

    @pytest.mark.parametrize("name", MAPS)
    def test_two_workers_agree_with_one(self, name, tmp_path):
        graph = Pathalias().build([("d.map", self.MAPS[name])])
        outcomes = []
        for jobs in (1, 2):
            out = tmp_path / f"j{jobs}.snap"
            try:
                build_snapshot(graph, out, jobs=jobs)
            except SnapshotError as exc:
                assert not out.exists()
                outcomes.append(str(exc))
            else:
                outcomes.append(out.read_bytes())
        assert outcomes[0] == outcomes[1]
        if name == "fits":
            cg = CompactGraph.compile(graph)
            mapper = CompactMapper(cg)
            with SnapshotReader.open(tmp_path / "j2.snap") as reader:
                for source in reader.sources():
                    assert reader.table_bytes(source) \
                        == reference_section(mapper, source)
        else:
            assert "which does not fit a snapshot's signed 64-bit" \
                in outcomes[0]
        if name == "first-source":
            assert outcomes[0].startswith("source 'a1': route to 'z'")


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
    @given(section_payloads(), st.lists(st.tuples(NAMES, NAMES),
                                        max_size=8))
    def test_writer_sort_and_reader_search_agree(self, payload, probes):
        """Every stored pair, record and state is found by the
        reader's byte-comparing binary searches, and nothing else is,
        whatever the mix of one- to four-byte UTF-8 names."""
        records, unreachable, pairs, states = payload
        table = SnapshotTable("src",
                              reference_encode_table_section(*payload),
                              pool=[DfsmBlock(reference_block(records))])
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
        assert_state_queries(table, costs, range(52))
