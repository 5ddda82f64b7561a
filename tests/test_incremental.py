"""Diff-driven snapshot updates: affected-set precision and the
byte-identity guarantee."""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest

from repro.config import HeuristicConfig
from repro.core.pathalias import Pathalias
from repro.graph.compact import CompactGraph, K_NORMAL
from repro.service.incremental import (
    affected_sources_exact,
    compact_link_costs,
    diff_compact_graphs,
    update_snapshot,
)
from repro.service.store import SnapshotReader, build_snapshot

from tests.conftest import stored_tree_links

#: a: close to b, far from c.  b: bridges a and c.  d: pendant on c.
#: Every source's tree crosses the cheap b<->c bridge; the expensive
#: direct a->c link is relaxed but never used.
DIAMOND = """\
a\tb(10), c(100)
b\ta(10), c(10)
c\tb(10), a(100), d(10)
d\tc(10)
"""

DATA = Path(__file__).parent / "data"


def build(text, name="d.map"):
    return Pathalias().build([(name, text)])


def snap(graph, path, **kwargs):
    return build_snapshot(graph, path, **kwargs)


def assert_identical_to_full_rebuild(out: Path, new_graph, cfg=None):
    reference = out.parent / (out.name + ".reference")
    build_snapshot(new_graph, reference, heuristics=cfg)
    assert out.read_bytes() == reference.read_bytes()


def repriced(cg: CompactGraph, j: int, delta: int) -> CompactGraph:
    """A detached clone of ``cg`` with one link cost changed — the
    array-level way to synthesize a pure cost revision."""
    clone = pickle.loads(pickle.dumps(cg))
    clone.cost[j] += delta
    return clone


class TestAffectedSet:
    def test_cost_increase_remaps_only_tree_users(self, tmp_path):
        """Raising b->c can only matter to sources whose shortest-path
        tree crosses b->c: a and b.  c and d route the other way and
        must be spliced from the old snapshot untouched."""
        old = tmp_path / "old.snap"
        snap(build(DIAMOND), old)
        revised = build(DIAMOND.replace("b\ta(10), c(10)",
                                        "b\ta(10), c(500)"))
        out = tmp_path / "new.snap"
        report = update_snapshot(old, revised, out)
        assert report.mode == "incremental"
        assert report.remapped == ["a", "b"]
        assert report.reused == 2
        assert report.total_sources == 4
        assert_identical_to_full_rebuild(out, revised)

    def test_cost_decrease_uses_triangle_test(self, tmp_path):
        """Cheapening the unused a->c link to 15 only helps a
        (0 + 15 < 20); for b, c, d the triangle test proves the old
        routes still win."""
        old = tmp_path / "old.snap"
        snap(build(DIAMOND), old)
        revised = build(DIAMOND.replace("a\tb(10), c(100)",
                                        "a\tb(10), c(15)"))
        out = tmp_path / "new.snap"
        report = update_snapshot(old, revised, out)
        assert report.mode == "incremental"
        assert report.remapped == ["a"]
        assert report.reused == 3
        assert_identical_to_full_rebuild(out, revised)

    def test_untouched_cost_change_remaps_nobody(self, tmp_path):
        """An increase on a link no tree uses reuses every section."""
        old = tmp_path / "old.snap"
        snap(build(DIAMOND), old)
        revised = build(DIAMOND.replace("c\tb(10), a(100), d(10)",
                                        "c\tb(10), a(150), d(10)"))
        out = tmp_path / "new.snap"
        report = update_snapshot(old, revised, out)
        assert report.mode == "incremental"
        assert report.remapped == []
        assert report.reused == 4
        assert_identical_to_full_rebuild(out, revised)

    def test_cost_decrease_tie_counts_as_affected(self, tmp_path):
        """An exact-cost tie through the cheapened link can steal the
        label by relaxation order and change the route *text* at the
        same cost, so the triangle test must treat ties as affected.

        Here s reaches v for 10 via a; dropping u->v from 7 to 6 makes
        u's path also cost 10, and u pops first, so a fresh rebuild
        routes s's mail via u."""
        tie_map = ("s\ta(5), u(4)\n"
                   "a\ts(5), v(5)\n"
                   "u\ts(4), v(7)\n"
                   "v\ta(5), u(7)\n")
        old = tmp_path / "old.snap"
        snap(build(tie_map), old)
        assert SnapshotReader.open(old).table("s").route("v") == \
            "a!v!%s"
        revised = build(tie_map.replace("u\ts(4), v(7)",
                                        "u\ts(4), v(6)"))
        out = tmp_path / "new.snap"
        report = update_snapshot(old, revised, out,
                                 full_threshold=1.0)
        assert "s" in report.remapped
        assert SnapshotReader.open(out).table("s").route("v") == \
            "u!v!%s"
        assert_identical_to_full_rebuild(out, revised)

    def test_affected_sources_directly(self, tmp_path):
        """The triangle test on its own: cheapening the unused a->c
        link to 15 can only improve a's routes."""
        old = tmp_path / "old.snap"
        snap(build(DIAMOND), old)
        reader = SnapshotReader.open(old)
        new_cg = CompactGraph.compile(
            build(DIAMOND.replace("a\tb(10), c(100)",
                                  "a\tb(10), c(15)")))
        changed = [j for j in range(new_cg.link_count)
                   if new_cg.cost[j] != reader.decode_graph().cost[j]]
        assert len(changed) == 1
        assert affected_sources_exact(reader, new_cg, changed) == ["a"]


class TestFullFallbacks:
    def make_old(self, tmp_path, text=DIAMOND, **kwargs):
        old = tmp_path / "old.snap"
        snap(build(text), old, **kwargs)
        return old

    def test_host_added_forces_full(self, tmp_path):
        old = self.make_old(tmp_path)
        revised = build(DIAMOND + "e\td(10)\n")
        out = tmp_path / "new.snap"
        report = update_snapshot(old, revised, out)
        assert report.mode == "full"
        assert report.reason == "topology changed"
        assert "e" in report.diff.hosts_added
        assert_identical_to_full_rebuild(out, revised)

    def test_link_removed_forces_full(self, tmp_path):
        old = self.make_old(tmp_path)
        revised = build(DIAMOND.replace("c\tb(10), a(100), d(10)",
                                        "c\tb(10), d(10)"))
        out = tmp_path / "new.snap"
        report = update_snapshot(old, revised, out)
        assert report.mode == "full"
        assert ("c", "a") in report.diff.links_removed
        assert_identical_to_full_rebuild(out, revised)

    def test_threshold_zero_forces_full(self, tmp_path):
        old = self.make_old(tmp_path)
        revised = build(DIAMOND.replace("b\ta(10), c(10)",
                                        "b\ta(10), c(500)"))
        out = tmp_path / "new.snap"
        report = update_snapshot(old, revised, out,
                                 full_threshold=0.0)
        assert report.mode == "full"
        assert "threshold" in report.reason
        assert_identical_to_full_rebuild(out, revised)

    def test_update_preserves_stored_heuristics(self, tmp_path):
        cfg = HeuristicConfig(back_link_factor=2)
        old = self.make_old(tmp_path, heuristics=cfg)
        revised = build(DIAMOND.replace("b\ta(10), c(10)",
                                        "b\ta(10), c(500)"))
        out = tmp_path / "new.snap"
        report = update_snapshot(old, revised, out)
        assert report.heuristics == cfg
        assert SnapshotReader.open(out).heuristics() == cfg
        assert_identical_to_full_rebuild(out, revised, cfg=cfg)

    def test_identical_map_reuses_everything(self, tmp_path):
        old = self.make_old(tmp_path)
        out = tmp_path / "new.snap"
        report = update_snapshot(old, build(DIAMOND), out)
        assert report.mode == "incremental"
        assert report.remapped == []
        assert report.diff.is_empty
        assert out.read_bytes() == old.read_bytes()


#: p is private (file-scoped); NET is a placeholder; .dom a domain.
#: All three have NORMAL links whose costs can change — revisions that
#: only the stored per-state costs can screen (route records omit them).
STRUCTURED = """\
private {p}
a\tb(10), p(20), NET(40), .dom(90)
p\tc(30)
b\ta(10), c(10)
c\tb(10), d(10)
d\tc(10)
NET = {b, d}(50)
.dom = {c}
"""


class TestExactAffectedV2:
    """The tentpole: with stored per-state costs the triangle test
    runs on exact numbers, so second-best snapshots and revisions
    touching nets, domains, or private nodes update incrementally —
    and stay byte-identical to a from-scratch v2 build."""

    def updated(self, tmp_path, text, old_text=None, cfg=None,
                **kwargs):
        old = tmp_path / "old.snap"
        snap(build(old_text or text), old, heuristics=cfg)
        revised = build(text) if old_text else None
        return old, revised

    def test_private_touching_decrease_incremental(self, tmp_path):
        old = tmp_path / "old.snap"
        snap(build(STRUCTURED), old)
        revised = build(STRUCTURED.replace("p\tc(30)", "p\tc(5)"))
        out = tmp_path / "new.snap"
        report = update_snapshot(old, revised, out,
                                 full_threshold=1.0)
        assert report.mode == "incremental"
        assert_identical_to_full_rebuild(out, revised)

    def test_net_touching_decrease_incremental(self, tmp_path):
        old = tmp_path / "old.snap"
        snap(build(STRUCTURED), old)
        revised = build(STRUCTURED.replace("NET(40)", "NET(15)"))
        out = tmp_path / "new.snap"
        report = update_snapshot(old, revised, out,
                                 full_threshold=1.0)
        assert report.mode == "incremental"
        assert_identical_to_full_rebuild(out, revised)

    def test_domain_touching_decrease_incremental(self, tmp_path):
        old = tmp_path / "old.snap"
        snap(build(STRUCTURED), old)
        revised = build(STRUCTURED.replace(".dom(90)", ".dom(35)"))
        out = tmp_path / "new.snap"
        report = update_snapshot(old, revised, out,
                                 full_threshold=1.0)
        assert report.mode == "incremental"
        assert_identical_to_full_rebuild(out, revised)

    def test_second_best_update_incremental(self, tmp_path):
        cfg = HeuristicConfig(second_best=True)
        old = tmp_path / "old.snap"
        snap(build(STRUCTURED), old, heuristics=cfg)
        revised = build(STRUCTURED.replace("b\ta(10), c(10)",
                                           "b\ta(10), c(500)"))
        out = tmp_path / "new.snap"
        report = update_snapshot(old, revised, out,
                                 full_threshold=1.0)
        assert report.mode == "incremental"
        assert_identical_to_full_rebuild(out, revised, cfg=cfg)

    def test_unaffected_sources_splice_verbatim(self, tmp_path):
        """A private-link increase only remaps the sources whose tree
        used it; the rest splice from the old file."""
        old = tmp_path / "old.snap"
        snap(build(STRUCTURED), old)
        revised = build(STRUCTURED.replace("p\tc(30)", "p\tc(90)"))
        out = tmp_path / "new.snap"
        report = update_snapshot(old, revised, out,
                                 full_threshold=1.0)
        assert report.mode == "incremental"
        assert report.reused > 0
        assert_identical_to_full_rebuild(out, revised)

    def test_affected_sources_exact_directly(self, tmp_path):
        old = tmp_path / "old.snap"
        snap(build(DIAMOND), old)
        reader = SnapshotReader.open(old)
        new_cg = CompactGraph.compile(
            build(DIAMOND.replace("b\ta(10), c(10)",
                                  "b\ta(10), c(500)")))
        changed = [j for j in range(new_cg.link_count)
                   if new_cg.cost[j] != reader.decode_graph().cost[j]]
        assert affected_sources_exact(reader, new_cg, changed) == \
            ["a", "b"]

    def test_negative_cost_returns_none(self, tmp_path):
        """Negative costs void Dijkstra's preconditions: the exact
        analysis refuses (None) so update_snapshot rebuilds fully."""
        old = tmp_path / "old.snap"
        snap(build(DIAMOND), old)
        reader = SnapshotReader.open(old)
        cg = CompactGraph.compile(build(DIAMOND))
        j = next(j for j in range(cg.link_count)
                 if cg.kind[j] == K_NORMAL)
        revised = repriced(cg, j, -(cg.cost[j] + 5))
        assert affected_sources_exact(reader, revised, [j]) is None


class TestNegativeCostRevisionV2:
    """Negative link costs on a v2 snapshot: the documented
    full-rebuild path, taken loudly and byte-identically."""

    def negative_revision(self):
        cg = CompactGraph.compile(build(DIAMOND))
        j = next(j for j in range(cg.link_count)
                 if cg.kind[j] == K_NORMAL)
        return cg, repriced(cg, j, -(cg.cost[j] + 5))

    def test_update_takes_full_rebuild_path(self, tmp_path):
        old = tmp_path / "old.snap"
        cg, revised = self.negative_revision()
        snap(cg, old)
        out = tmp_path / "out.snap"
        report = update_snapshot(old, revised, out)
        assert report.mode == "full"
        assert "negative link cost" in report.reason
        assert SnapshotReader.open(out).version == 2
        assert report.reused == 0
        assert len(report.remapped) == report.total_sources

    def test_output_byte_identical_to_scratch_build(self, tmp_path,
                                                    capsys):
        """The rebuild enforces the graph model's non-negative-weight
        rule exactly like a scratch build does (same clamp, same
        stderr warning), so the bytes still match."""
        old = tmp_path / "old.snap"
        cg, revised = self.negative_revision()
        snap(cg, old)
        out = tmp_path / "out.snap"
        update_snapshot(old, revised, out)
        err = capsys.readouterr().err
        assert "negative link cost(s) clamped to 0" in err
        assert_identical_to_full_rebuild(out, revised)
        # the clamped graph is what the snapshot stores: reopening it
        # keeps the non-negative invariant for future updates
        assert min(SnapshotReader.open(out).decode_graph().cost) >= 0

    def test_fallback_is_said_not_silent(self, tmp_path):
        """The summary line `pathalias update` prints on stderr names
        the fallback mode and its reason — no silent mode switch.
        (The CLI's stderr plumbing itself is covered in
        ``tests/test_cli.py``.)"""
        old = tmp_path / "old.snap"
        cg, revised = self.negative_revision()
        snap(cg, old)
        report = update_snapshot(old, revised, tmp_path / "out.snap")
        summary = report.summary()
        assert summary.startswith("full update (negative link cost)")
        assert "0 reused" in summary


def structural_candidates(cg: CompactGraph) -> list[int]:
    """NORMAL link ids touching a net, domain, or private node —
    preferred revision targets (only the stored per-state costs can
    screen them) — falling back to any NORMAL link."""
    touching = [j for j in range(cg.link_count)
                if cg.kind[j] == K_NORMAL and cg.cost[j] > 8
                and (cg.netlike[_owner(cg, j)] or
                     cg.private[_owner(cg, j)] or
                     cg.netlike[cg.to[j]] or cg.private[cg.to[j]])]
    if touching:
        return touching[:3]
    return [j for j in range(cg.link_count)
            if cg.kind[j] == K_NORMAL and cg.cost[j] > 8][:3]


def _owner(cg: CompactGraph, j: int) -> int:
    from repro.service.incremental import _link_owner

    return _link_owner(cg, j)


def reference_affected_sources(reader: SnapshotReader,
                               new_cg: CompactGraph,
                               changed: list[int]) -> list[str] | None:
    """The affected-source analysis by whole-table decodes: every
    source's ``TREE`` pairs decoded into a set and its ``STAT`` block
    into a dict — the reference ``affected_sources_exact``'s point
    lookups must agree with.  A wrongly *extra* source never breaks
    byte identity, so only this comparison catches one."""
    old_cg = reader.decode_graph()
    links = []
    for j in changed:
        u = _owner(new_cg, j)
        v = new_cg.to[j]
        c_old, c_new = old_cg.cost[j], new_cg.cost[j]
        if c_old < 0 or c_new < 0:
            return None
        links.append((u, v, new_cg.names[u], new_cg.names[v],
                      c_old, c_new))
    second = reader.second_best
    classes = (0, 1) if second else (0,)
    affected = []
    for source in reader.sources():
        pairs = stored_tree_links(reader, source)
        states = reader.table(source).state_cost_map()
        hit = False
        for u, v, u_name, v_name, c_old, c_new in links:
            if (u_name, v_name) in pairs:
                hit = True
                break
            if c_new >= c_old:
                continue
            for dclass in classes:
                cu = states.get((u, dclass))
                if cu is None:
                    continue
                vclass = (dclass | new_cg.is_domain[v]) if second else 0
                cv = states.get((v, vclass))
                if cv is None or cu + c_new <= cv:
                    hit = True
                    break
            if hit:
                break
        if hit:
            affected.append(source)
    return affected


class TestFixtureSuiteV2:
    """The acceptance bar on the real regional maps: every synthetic
    cost revision — including ones touching nets, domains, and
    private nodes, and including second-best snapshots — updates
    incrementally, remaps exactly the sources the whole-table
    reference analysis names, and lands byte-identical to a
    from-scratch build."""

    @pytest.mark.parametrize("path", sorted(DATA.glob("d.*")),
                             ids=lambda p: p.name)
    @pytest.mark.parametrize("second", [False, True],
                             ids=["tree", "second-best"])
    @pytest.mark.parametrize("delta", [7, -7],
                             ids=["increase", "decrease"])
    def test_no_fallback_and_byte_identical(self, tmp_path, path,
                                            second, delta):
        cfg = HeuristicConfig(second_best=second)
        graph = Pathalias(heuristics=cfg).build(
            [(path.name, path.read_text())])
        cg = CompactGraph.compile(graph)
        old = tmp_path / "old.snap"
        snap(cg, old, heuristics=cfg)
        reader = SnapshotReader.open(old)
        for j in structural_candidates(cg):
            revised = repriced(cg, j, delta)
            out = tmp_path / "new.snap"
            report = update_snapshot(reader, revised, out,
                                     full_threshold=1.0)
            assert report.mode == "incremental", report.reason
            assert report.remapped == reference_affected_sources(
                reader, revised, [j])
            reference = tmp_path / "ref.snap"
            build_snapshot(revised, reference, heuristics=cfg)
            assert out.read_bytes() == reference.read_bytes()


class TestRealMaps:
    @pytest.mark.parametrize("path", sorted(DATA.glob("d.*")),
                             ids=lambda p: p.name)
    def test_no_change_round_trip(self, tmp_path, path):
        graph = Pathalias().build([(path.name, path.read_text())])
        old = tmp_path / "old.snap"
        snap(graph, old)
        again = Pathalias().build([(path.name, path.read_text())])
        out = tmp_path / "new.snap"
        report = update_snapshot(old, again, out)
        assert report.mode == "incremental"
        assert report.remapped == []
        assert out.read_bytes() == old.read_bytes()


class TestReportDiff:
    def test_diff_describes_the_revision_as_updated(self, tmp_path):
        """The diff is computed when read, and reads the revision's
        costs as they were at update time: repricing the graph in
        place afterwards (as the churn replay does) does not leak into
        the report."""
        old = tmp_path / "old.snap"
        snap(build(DIAMOND), old)
        revised = CompactGraph.compile(
            build(DIAMOND.replace("b\ta(10), c(10)", "b\ta(10), c(500)")))
        report = update_snapshot(old, revised, tmp_path / "new.snap")
        for j in range(revised.link_count):
            revised.cost[j] += 7
        assert report._diff is None
        assert report.diff.cost_changes == [("b", "c", 10, 500)]
        assert report.summary().endswith(
            f"; map diff: {report.diff.summary()}")


class TestCompactDiffHelpers:
    def test_compact_link_costs_match_mapdiff(self):
        from repro.graph.compact import CompactGraph
        from repro.netsim.mapdiff import _link_costs

        graph = build(DIAMOND)
        cg = CompactGraph.compile(graph)
        assert compact_link_costs(cg) == _link_costs(graph)

    def test_diff_compact_graphs_matches_diff_graphs(self):
        from repro.graph.compact import CompactGraph
        from repro.netsim.mapdiff import diff_graphs

        old = build(DIAMOND)
        new = build(DIAMOND.replace("b\ta(10), c(10)",
                                    "b\ta(10), c(500)") + "e\td(5)\n")
        got = diff_compact_graphs(CompactGraph.compile(old),
                                  CompactGraph.compile(new))
        want = diff_graphs(old, new)
        assert got.hosts_added == want.hosts_added
        assert got.links_added == want.links_added
        assert got.cost_changes == want.cost_changes
