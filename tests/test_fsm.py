"""Compiled suffix-automaton dispatch: differential fuzz against the
dict walk on every lookup surface.

The automaton is a pure optimisation — its one contract is *byte
identity* with the per-suffix dict walk
(:meth:`repro.service.resolver.SuffixResolver.resolve_with_cost`).
These tests hold that contract over randomized label sets: degenerate
labels (empty, dotted edges), unicode-adjacent bytes, single-label
hosts, deep subdomains, overlapping suffixes, and absent names — for
both forms a snapshot table serves from: the walk in place over the
stored block, and the trie it inflates into on its break-even lookup.
"""

from __future__ import annotations

import math
import random
import struct
from itertools import cycle, islice
from pathlib import Path

import pytest

from repro.config import HeuristicConfig
from repro.core.pathalias import Pathalias
from repro.errors import RouteError
from repro.mailer.routedb import RouteDatabase
from repro.service.fsm import (
    FSM_MAGIC,
    NAME_F_DOMAIN,
    AutomatonError,
    FlatSuffixAutomaton,
    compile_keys,
    encode_keys,
)
from repro.service import store
from repro.service.resolver import domain_suffixes, resolve_with_cost_dict
from repro.service.shard import FederationView, Shard
from repro.service.store import (
    SnapshotError,
    SnapshotReader,
    SnapshotTable,
    build_snapshot,
)


# -- the oracle ---------------------------------------------------------------

def walk_match(keys: set, target: str) -> str | None:
    """The paper's dict walk, verbatim: the first present suffix key
    (exact name first, then each leading-dot domain suffix)."""
    for key in domain_suffixes(target):
        if key in keys:
            return key
    return None


LABELS = [
    "a", "b", "ab", "edu", "com", "rutgers", "caip", "x",
    "seismo", "ihnp4", "",            # empty label: "a..b" forms
    "münchen", "café",      # unicode-adjacent bytes
    "xn--node", "very-long-label-with-many-characters",
]


def random_name(rng: random.Random, depth: int) -> str:
    return ".".join(rng.choice(LABELS) for _ in range(depth))


def random_key_set(rng: random.Random, n: int) -> list[str]:
    """Mixed exact-host and leading-dot domain keys, deduplicated,
    biased toward overlapping suffix chains."""
    keys: set = set()
    while len(keys) < n:
        name = random_name(rng, rng.randint(1, 5))
        if not name:
            continue
        if rng.random() < 0.4:
            keys.add("." + name)
        else:
            keys.add(name)
        # half the time, also insert a suffix of what we just made,
        # so deep/shallow domain keys compete for the same targets
        if rng.random() < 0.5 and "." in name:
            keys.add("." + name.split(".", 1)[1])
    return sorted(keys, key=lambda k: k.encode("utf-8"))


def probe_targets(rng: random.Random, keys: list) -> list:
    """Hits, near-misses, subdomain extensions, and absent names."""
    out = []
    for key in keys:
        out.append(key)                       # the key itself
        out.append(key.lstrip("."))           # dotless twin
        out.append(random_name(rng, 1) + key if key.startswith(".")
                   else "sub." + key)         # deeper than the key
    for _ in range(len(keys)):
        out.append(random_name(rng, rng.randint(1, 6)))  # mostly absent
    out.extend(["", ".", "..", "a.", ".a", "a..b", "!weird"])
    return out


# -- the matcher alone --------------------------------------------------------

class TestMatcherDifferential:
    @pytest.mark.parametrize("seed", range(8))
    def test_match_agrees_with_walk(self, seed):
        rng = random.Random(seed)
        keys = random_key_set(rng, 40)
        auto = compile_keys(keys)
        flat = FlatSuffixAutomaton(encode_keys(keys))
        inflated = flat.inflate()
        for target in probe_targets(rng, keys):
            expect = walk_match(set(keys), target)
            for impl in (auto, flat, inflated):
                idx = impl.match(target)
                got = keys[idx] if idx is not None else None
                assert got == expect, (
                    f"seed={seed} target={target!r}: "
                    f"{type(impl).__name__} matched {got!r}, "
                    f"walk matched {expect!r}")

    def test_exact_beats_domain(self):
        keys = [".edu", "a.edu"]             # payload = position in list
        auto = compile_keys(keys)
        assert keys[auto.match("a.edu")] == "a.edu"
        assert keys[auto.match("b.edu")] == ".edu"
        assert auto.match("edu") is None     # ".edu" covers *.edu only

    def test_leading_dot_target_hits_literal_key(self):
        # a leading-dot *target* can match a leading-dot key exactly
        keys = sorted([".edu", ".rutgers.edu"],
                      key=lambda k: k.encode("utf-8"))
        auto = compile_keys(keys)
        assert keys[auto.match(".rutgers.edu")] == ".rutgers.edu"
        assert keys[auto.match(".other.edu")] == ".edu"

    def test_empty_keyset(self):
        auto = compile_keys([])
        assert auto.match("anything") is None
        flat = FlatSuffixAutomaton(encode_keys([]))
        assert flat.match("anything") is None


# -- serialization ------------------------------------------------------------

class TestSerialization:
    def test_round_trip_is_deterministic(self):
        # the block is a pure function of the (sorted) key sequence:
        # re-encode → same bytes
        rng = random.Random(99)
        keys = random_key_set(rng, 30)
        blob = encode_keys(keys)
        assert blob == encode_keys(list(keys))
        assert blob.startswith(FSM_MAGIC)

    def test_names_round_trip(self):
        names = [("a.edu", 0), (".edu", NAME_F_DOMAIN)]
        blob = encode_keys([n for n, _ in names], names=names)
        assert FlatSuffixAutomaton(blob).names() == names

    def test_corrupt_blobs_are_refused(self):
        blob = encode_keys(["a.b"])
        with pytest.raises(AutomatonError):
            FlatSuffixAutomaton(b"NOPE" + blob[4:])
        with pytest.raises(AutomatonError):
            FlatSuffixAutomaton(blob[:20])
        with pytest.raises(AutomatonError):
            FlatSuffixAutomaton(b"")
        # every label ref running past the blob: both forms refuse it
        _, _, _, sc, ec, lc, _ = struct.unpack_from("<4sHHIIII", blob)
        past = bytearray(blob)
        for lid in range(lc):
            struct.pack_into("<I", past, 24 + 16 * sc + 8 * ec + 8 * lid
                             + 4, len(blob))
        flat = FlatSuffixAutomaton(bytes(past))
        with pytest.raises(AutomatonError, match="past the blob"):
            flat.match("a.b")
        with pytest.raises(AutomatonError, match="past the blob"):
            flat.inflate()


# -- the snapshot surface -----------------------------------------------------

MAP = """\
a b(3), c(5), .edu(9)
b c(2), caip.rutgers.edu(4)
caip.rutgers.edu .rutgers.edu(1), deep.sub.example.com(7)
c a(1), single(2)
"""

DATA = Path(__file__).parent / "data"

#: ``(map name, map text, second-best)``: the four-line map above, then
#: every ``d.*`` fixture map in tree and in second-best mode.
SNAPSHOT_INPUTS = [("d.map", MAP, False)] + [
    (p.name, p.read_text(), second)
    for p in sorted(DATA.glob("d.*")) for second in (False, True)]


def open_snapshot(tmp_path_factory, name, text, second=False):
    cfg = HeuristicConfig(second_best=second)
    graph = Pathalias(heuristics=cfg).build([(name, text)])
    out = tmp_path_factory.mktemp("fsm") / f"{name}.snap"
    build_snapshot(graph, out, heuristics=cfg)
    return SnapshotReader.open(out)


@pytest.fixture(scope="module")
def reader(tmp_path_factory):
    return open_snapshot(tmp_path_factory, "d.map", MAP)


def promotion_lookup(table) -> int:
    """K: the lookup on which ``table`` inflates its ``DFSM`` block,
    the ones before it answered in place."""
    return max(1, math.ceil(table.flat_automaton().state_count
                            * store.BREAK_EVEN_PER_STATE))


def assert_resolves_as_dict_walk(table, target: str) -> None:
    """The serving path answers ``target`` as the dict walk over the
    table's exact lookups does: the same resolution, or the same
    miss."""
    try:
        expect = resolve_with_cost_dict(table, target, "u")
    except RouteError as exc:
        with pytest.raises(RouteError) as err:
            table.resolve_with_cost(target, "u")
        assert str(err.value) == str(exc)
    else:
        assert table.resolve_with_cost(target, "u") == expect


def fresh_table(reader, source: str) -> SnapshotTable:
    """``source``'s table from a new reader of ``reader``'s file, so its
    pool block has walked nothing and promoted nothing."""
    return SnapshotReader.open(reader.path).table(source)


def assert_serving_agrees(reader, source, targets, monkeypatch) -> None:
    """``source``'s serving path answers every target as the dict
    walk does in both forms: on a fresh table held in place, then on
    a fresh table across its promotion — lookups K-1 (in place), K
    (inflating) and K+1 (on the trie) — and every target once more on
    the trie."""
    with monkeypatch.context() as patch:
        patch.setattr(store, "BREAK_EVEN_PER_STATE", math.inf)
        cold = fresh_table(reader, source)
        for target in targets:
            assert_resolves_as_dict_walk(cold, target)
        assert cold._auto is None
    table = fresh_table(reader, source)
    k = promotion_lookup(table)
    for n, target in enumerate(islice(cycle(targets), k + len(targets)),
                               start=1):
        assert_resolves_as_dict_walk(table, target)
        assert (table._auto is not None) == (n >= k), (source, n, k)
        assert (table._costs is not None) == (n >= k), (source, n, k)


@pytest.fixture(scope="module", params=SNAPSHOT_INPUTS,
                ids=lambda p: f"{p[0]}-{'second-best' if p[2] else 'tree'}")
def any_reader(request, tmp_path_factory):
    return open_snapshot(tmp_path_factory, *request.param)


class TestSnapshotTableDifferential:
    def test_stored_block_serves_lookups(self, reader):
        table = reader.table("a")
        assert table.flat_automaton().state_count > 0

    def test_linker_agrees_on_every_table(self, any_reader, monkeypatch):
        # the stored block re-encodes from the table's own record
        # names, and its inflated trie, the in-place flat walk and
        # the dict walk match the same key for every probe; so does
        # the serving path, in place and promoted
        rng = random.Random(5)
        for source in any_reader.sources():
            table = any_reader.table(source)
            names = [name.decode() for name in table.record_names()]
            assert encode_keys(names) == table.dfsm_bytes(), source
            keys = set(names)
            impls = (table.automaton(), table.flat_automaton())
            targets = probe_targets(rng, names)
            for target in targets:
                expect = walk_match(keys, target)
                for impl in impls:
                    idx = impl.match(target)
                    got = names[idx] if idx is not None else None
                    assert got == expect, (
                        f"{source} target={target!r}: "
                        f"{type(impl).__name__} matched {got!r}, "
                        f"walk matched {expect!r}")
            assert_serving_agrees(any_reader, source, targets,
                                  monkeypatch)

    @pytest.mark.parametrize("seed", range(3))
    def test_resolve_agrees_with_dict_walk(self, reader, seed,
                                           monkeypatch):
        rng = random.Random(seed)
        for source in reader.sources():
            table = reader.table(source)
            targets = probe_targets(
                rng, [name.decode() for name in table.record_names()])
            assert_serving_agrees(reader, source, targets, monkeypatch)

    @pytest.mark.parametrize("seed", range(4))
    def test_byte_flips_in_the_block_fail_as_snapshot_errors(
            self, any_reader, seed, monkeypatch):
        """A pool block with random bytes flipped, walked in place:
        each lookup answers a record of the table, or raises
        ``RouteError`` or ``SnapshotError`` — never a raw
        ``struct.error`` or ``IndexError``, and never a payload at or
        past the record count."""
        monkeypatch.setattr(store, "BREAK_EVEN_PER_STATE", math.inf)
        rng = random.Random(seed)
        outcomes = set()
        for source in any_reader.sources():
            clean = any_reader.table(source)
            names = [name.decode() for name in clean.record_names()]
            targets = probe_targets(rng, names)
            block = clean.dfsm_bytes()
            data = any_reader.table_bytes(source)
            for _ in range(6):
                raw = bytearray(block)
                for _ in range(rng.randint(1, 3)):
                    raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
                # the section's DREF names slot clean.dref
                pool = [store.DfsmBlock(bytes(raw))] * (clean.dref + 1)
                table = SnapshotTable(source, data, pool=pool)
                for target in rng.sample(targets, min(12, len(targets))):
                    try:
                        _, res = table.resolve_with_cost(target, "u")
                    except RouteError:
                        outcomes.add("miss")
                    except SnapshotError as exc:
                        assert f"{source!r}" in str(exc)
                        outcomes.add("corrupt")
                    else:
                        assert res.matched in names
                        outcomes.add("answer")
        assert outcomes == {"miss", "corrupt", "answer"}


# -- the federation ownership surface -----------------------------------------

class TestFederationViewDifferential:
    @pytest.fixture(scope="class")
    def snaps(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("fed")
        east = "a b(1), .edu(4)\nb a(1)\n"
        west = "c d(2), .rutgers.edu(3)\nd c(2), a(9)\n"
        paths = {}
        for name, text in (("east", east), ("west", west)):
            graph = Pathalias().build([(f"{name}.map", text)])
            out = tmp / f"{name}.snap"
            build_snapshot(graph, out)
            paths[name] = out
        return paths

    def test_owners_of_fsm_equals_dict(self, snaps):
        fsm = FederationView(
            [Shard.open(n, p) for n, p in snaps.items()])
        oracle = FederationView(
            [Shard.open(n, p, dispatch="dict")
             for n, p in snaps.items()], dispatch="dict")
        assert fsm.dispatch == "fsm" and oracle.dispatch == "dict"
        targets = ["a", "b", "c", "d", "x.edu", "y.rutgers.edu",
                   "deep.x.rutgers.edu", "nowhere", ".edu", "edu",
                   "a.b.c.d", ""]
        for target in targets:
            assert fsm.owners_of(target) == oracle.owners_of(target), \
                f"owners_of({target!r}) diverged"

    def test_dispatch_survives_shard_swap(self, snaps):
        view = FederationView(
            [Shard.open(n, p) for n, p in snaps.items()])
        replaced = view.with_shard(
            Shard.open("east", snaps["east"]))
        assert replaced.dispatch == view.dispatch
        assert replaced.owners_of("x.edu") == view.owners_of("x.edu")


# -- the in-memory mailer surface ---------------------------------------------

class TestRouteDatabaseDifferential:
    @pytest.mark.parametrize("seed", range(3))
    def test_resolve_agrees_with_walk(self, seed):
        rng = random.Random(1000 + seed)
        keys = random_key_set(rng, 25)
        db = RouteDatabase({k: f"{k}!%s" for k in keys},
                           costs={k: i for i, k in enumerate(keys)})
        for target in probe_targets(rng, keys):
            try:
                expect = resolve_with_cost_dict(db, target, "u")
            except RouteError:
                with pytest.raises(RouteError):
                    db.resolve_with_cost(target, "u")
            else:
                assert db.resolve_with_cost(target, "u") == expect


# -- incremental splice -------------------------------------------------------

class TestIncrementalSplice:
    def test_cost_only_update_reuses_the_pool_block(self, tmp_path,
                                                    monkeypatch):
        """A cost-only revision remaps tables whose names do not move:
        each keeps its block and its ``DREF``, and nothing is
        compiled."""
        from repro.service.incremental import update_snapshot

        base = "a b(3), c(5)\nb c(2)\nc a(1)\n"
        revised = "a b(4), c(5)\nb c(2)\nc a(1)\n"
        old = tmp_path / "old.snap"
        new = tmp_path / "new.snap"
        build_snapshot(Pathalias().build([("d.map", base)]), old)
        reader = SnapshotReader.open(old)
        monkeypatch.setattr(store, "encode_keys", None)  # never called
        report = update_snapshot(reader, Pathalias().build(
            [("d.map", revised)]), new, full_threshold=1.0)
        assert report.mode == "incremental" and report.remapped
        old_r, new_r = SnapshotReader.open(old), SnapshotReader.open(new)
        assert new_r.pool_entries() == old_r.pool_entries()
        for source in new_r.sources():
            assert new_r.table(source).dref == old_r.table(source).dref
            assert new_r.table(source).dfsm_bytes() \
                == old_r.table(source).dfsm_bytes()


# -- one block per distinct name list -----------------------------------------

class TestSharedBlocks:
    """Tables of one reader that name one pool block share its
    matchers, and promotion counts their lookups together."""

    @pytest.fixture()
    def backbone(self, tmp_path_factory):
        """A reader whose 10 tables all name pool block 0."""
        reader = open_snapshot(tmp_path_factory, "d.backbone",
                               (DATA / "d.backbone").read_text())
        assert {reader.table(s).dref for s in reader.sources()} == {0}
        return SnapshotReader.open(reader.path)

    def test_equal_names_share_one_flat_matcher(self, backbone):
        first, *others = (backbone.table(s) for s in backbone.sources())
        assert len(others) == 9
        for table in others:
            assert table.record_names() == first.record_names()
            assert table.flat_automaton() is first.flat_automaton()

    def test_promotion_inflates_one_trie_for_all(self, backbone,
                                                 monkeypatch):
        """Lookups from every table count toward the block's one
        promotion, and afterwards every table matches with the same
        trie.  A table decodes its own ``STAT`` map only on its own
        K-th lookup, so one first touched after the block promoted
        prices nodes by point lookup until then."""
        inflations = []
        real = FlatSuffixAutomaton.inflate

        def spy(self):
            inflations.append(self)
            return real(self)

        monkeypatch.setattr(FlatSuffixAutomaton, "inflate", spy)
        # a break-even past one lookup per table
        monkeypatch.setattr(store, "BREAK_EVEN_PER_STATE", 2.0)
        late, *tables = [backbone.table(s) for s in backbone.sources()]
        block = late._dfsm()
        k = promotion_lookup(late)
        assert k > len(tables)
        for n in range(1, k + 1):
            table = tables[n % len(tables)]
            table.resolve_with_cost("seismo", "u")
            assert (block.auto is not None) == (n == k), n
        assert len(inflations) == 1
        for table in tables:
            assert table._auto is None and table._costs is None
        for n in range(1, k + 1):
            late.resolve_with_cost("mcvax", "u")
            assert (late._costs is not None) == (n == k), n
        assert late._auto is block.auto
        assert late._costs == late.node_costs()
        assert len(inflations) == 1
        for table in tables:
            assert table._costs is None
        # another reader of the file has its own blocks
        other = SnapshotReader.open(backbone.path).table(late.source)
        assert other.flat_automaton() is not late.flat_automaton()
