"""Diff-driven snapshot updates: remap only what a revision touched.

Every monthly map posting forced sites to rerun pathalias from
scratch, even though most revisions touch a handful of links.  Given
the previous snapshot and the new map, this module

1. compares the stored compact graph with the freshly compiled one
   array by array;
2. if the revision is *pure NORMAL-link cost changes* on an otherwise
   identical topology, computes the **affected-source set** — sources
   whose recorded shortest-path tree leaned on a changed link, plus
   (for cost decreases) sources where the cheaper link could open a
   better-or-equal path, judged by the triangle test
   ``cost(s, from) + new_cost <= cost(s, to)`` (ties count: an
   equal-cost path can win the label by relaxation order and change
   the route text);
3. remaps only those sources (fanning out over the batch pool) and
   splices every other source's table section out of the old snapshot
   **verbatim**, but for its pool index when that moved — the output
   is byte-identical to a from-scratch rebuild;
4. falls back to a full rebuild whenever the incremental path cannot
   be proven equivalent.

The report's structural diff (:func:`repro.netsim.mapdiff.diff_link_maps`
over link-cost maps reconstructed from both graphs) is computed only
when something reads it.

The triangle test runs on the stored per-state costs (the ``STAT``
block): exact final costs for every state of every node — nets,
domains, private shadows, and both second-best domain classes
included — so the only full fallbacks are topology changes, negative
link costs, and the ``full_threshold`` economy cut-off.

The conservative direction is always "remap more": a source wrongly
counted as affected costs one redundant (identical) remap; a source
wrongly skipped would corrupt the store.
"""

from __future__ import annotations

import copy
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.config import HeuristicConfig
from repro.core.batch import map_sources
from repro.graph.build import Graph
from repro.graph.compact import CompactGraph, K_NORMAL
from repro.netsim.mapdiff import MapDiff, diff_link_maps
from repro.service.store import (
    FLAG_CASE_FOLD,
    FLAG_SECOND_BEST,
    DfsmPool,
    SnapshotReader,
    build_snapshot,
    check_link_costs,
    eligible_sources,
    encode_graph_section,
    encode_meta_section,
    encode_table_section,
    revision_payload,
    splice_table_section,
    write_snapshot,
)


@dataclass
class UpdateReport:
    """What an update did and why."""

    mode: str                 # "incremental" | "full"
    reason: str               # why this mode was chosen
    total_sources: int = 0
    remapped: list[str] = field(default_factory=list)
    reused: int = 0
    engine: str = ""
    seconds: float = 0.0
    out_path: Path | None = None
    heuristics: HeuristicConfig | None = None
    #: the old graph and the revision as it stood at update time
    graphs: tuple[CompactGraph, CompactGraph] | None = field(
        default=None, repr=False)
    _diff: MapDiff | None = field(default=None, init=False, repr=False)

    @property
    def diff(self) -> MapDiff | None:
        """The NORMAL-link view of the revision (``mapdiff``) between
        ``graphs``, computed on first read: the update itself never
        needs it."""
        if self._diff is None and self.graphs is not None:
            self._diff = diff_compact_graphs(*self.graphs)
        return self._diff

    def summary(self) -> str:
        """One human-readable line: mode, reason, remap/reuse counts."""
        base = (f"{self.mode} update ({self.reason}): "
                f"{len(self.remapped)}/{self.total_sources} sources "
                f"remapped, {self.reused} reused")
        if self.diff is not None:
            base += f"; map diff: {self.diff.summary()}"
        return base


def compact_link_costs(cg: CompactGraph) -> dict[tuple[str, str], int]:
    """NORMAL link costs keyed by (from, to); cheapest if parallel.

    The array-level mirror of ``mapdiff._link_costs`` so a stored
    snapshot can be diffed without rehydrating ``Node`` objects.
    """
    out: dict[tuple[str, str], int] = {}
    for cid in range(cg.n):
        if cg.private[cid]:
            continue
        for j in range(cg.off[cid], cg.off[cid + 1]):
            if cg.kind[j] != K_NORMAL:
                continue
            key = (cg.names[cid], cg.names[cg.to[j]])
            cost = cg.cost[j]
            if key not in out or cost < out[key]:
                out[key] = cost
    return out


def compact_hosts(cg: CompactGraph) -> set[str]:
    """Public node names (mirrors the host universe of diff_graphs)."""
    return {cg.names[cid] for cid in range(cg.n) if not cg.private[cid]}


def diff_compact_graphs(old: CompactGraph, new: CompactGraph) -> MapDiff:
    """The mapdiff structural view between two compiled graphs."""
    return diff_link_maps(compact_hosts(old), compact_hosts(new),
                          compact_link_costs(old),
                          compact_link_costs(new))


def _cost_only_changes(old: CompactGraph,
                       new: CompactGraph) -> list[int] | None:
    """Link ids whose cost changed, if that is the *only* difference.

    Returns None when the graphs differ in any structural way — node
    set, flags, kinds, operators, link order, or the cost of a
    non-NORMAL link — in which case the caller must rebuild fully.
    With identical structure, link ids line up one-to-one between the
    two graphs, so per-link comparison is exact (parallel links
    included, which the name-keyed mapdiff view cannot distinguish).
    """
    if not old.same_shape(new):
        return None
    changed = []
    for j, (c_old, c_new) in enumerate(zip(old.cost, new.cost)):
        if c_old != c_new:
            if new.kind[j] != K_NORMAL:
                return None
            changed.append(j)
    return changed


def _link_owner(cg: CompactGraph, j: int) -> int:
    """Compact id of the node whose CSR slice contains link ``j``."""
    lo, hi = 0, cg.n
    while lo < hi:
        mid = (lo + hi) // 2
        if cg.off[mid + 1] <= j:
            lo = mid + 1
        else:
            hi = mid
    return lo


def affected_sources_exact(reader: SnapshotReader,
                           new_cg: CompactGraph,
                           changed: list[int]) -> list[str] | None:
    """The affected-source analysis over stored per-state costs.

    Two screens per (source, changed link), both exact:

    * **tree usage** — the stored tree-link pairs say whether this
      source's shortest-path tree (any state, either second-best
      domain class, invented-back-link seeds included) leaned on the
      link; if so, its table must be remapped;
    * **triangle test** — for a cost *decrease* on ``u -> v``, the
      stored state costs answer ``cost(s, u) + new_cost <=
      cost(s, v)`` exactly, per state: the candidate path relaxes
      ``u``'s state into the ``v`` state whose domain class is
      ``class(u) | is_domain(v)``, mirroring the mapper's own
      transition.  Dynamic penalties (mixed syntax, domain relay) only
      ever *add* cost, so using the bare link cost is a lower bound —
      a source counted affected by it at worst remaps to an identical
      section.

    Both screens are point lookups — a binary search of the sorted
    ``TREE`` pairs and of the sorted ``STAT`` records — so a source
    costs O(changed links x log table), not a decode of its table.

    Nets, domains, private shadows, and second-best snapshots all have
    their states stored, so none of them force a full rebuild here.
    Returns None only for negative link costs (Dijkstra's preconditions
    are gone — rebuild fully).
    """
    old_cg = reader.decode_graph()
    links = []
    for j in changed:
        u = _link_owner(new_cg, j)
        v = new_cg.to[j]
        c_old, c_new = old_cg.cost[j], new_cg.cost[j]
        if c_old < 0 or c_new < 0:
            return None
        links.append((u, v, new_cg.names[u], new_cg.names[v],
                      c_old, c_new))
    second = reader.second_best
    classes = (0, 1) if second else (0,)
    is_domain = new_cg.is_domain

    affected = []
    for source in reader.sources():
        table = reader.table(source)
        hit = False
        for u, v, u_name, v_name, c_old, c_new in links:
            if table.has_tree_link(u_name, v_name):
                hit = True
                break
            if c_new >= c_old:
                # An increase on a link no stored state's path used
                # cannot move any label (costs are non-negative and
                # ties already resolved against it).
                continue
            for dclass in classes:
                cu = table.state_cost_at(u, dclass)
                if cu is None:
                    # This state of u is unreachable from the source;
                    # reachability is cost-independent, so the cheaper
                    # link cannot open a path through it.
                    continue
                vclass = (dclass | is_domain[v]) if second else 0
                cv = table.state_cost_at(v, vclass)
                if cv is None or cu + c_new <= cv:
                    hit = True
                    break
            if hit:
                break
        if hit:
            affected.append(source)
    return affected


def update_snapshot(old: str | Path | SnapshotReader,
                    new_graph: Graph | CompactGraph,
                    out_path: str | Path,
                    jobs: int | None = None,
                    full_threshold: float = 0.5,
                    case_fold: bool | None = None) -> UpdateReport:
    """Produce the snapshot for ``new_graph`` at ``out_path``, reusing
    the old snapshot's table sections wherever the revision provably
    cannot have changed them.

    ``old`` is a snapshot path or an already-open
    :class:`SnapshotReader` (callers that read the header flags before
    building the revision graph should pass their reader rather than
    pay a second full-file read and CRC).  The heuristic configuration
    is taken from the old snapshot (the tables must be mapped
    consistently); ``case_fold`` overrides the recorded folding flag
    when the caller parsed the revision differently (the CLI's ``-i``)
    so the output header stays truthful.  ``full_threshold`` is the
    affected fraction beyond which incremental splicing loses to a
    plain rebuild.  Output bytes are identical to
    ``build_snapshot(new_graph, out_path, heuristics=old.heuristics(),
    case_fold=...)`` in every mode.
    """
    t0 = time.perf_counter()
    reader = old if isinstance(old, SnapshotReader) \
        else SnapshotReader.open(old)
    cfg = reader.heuristics()
    fold = reader.case_fold if case_fold is None else case_fold
    out_flags = (FLAG_SECOND_BEST if cfg.second_best else 0) \
        | (FLAG_CASE_FOLD if fold else 0)
    new_cg = new_graph if isinstance(new_graph, CompactGraph) \
        else CompactGraph.compile(new_graph)
    old_cg = reader.decode_graph()
    # The caller may reprice its graph in place once this returns (the
    # churn replay does), so the report's diff reads a copy of today's
    # costs; names and links never change in place.
    revision = copy.copy(new_cg)
    revision.cost = list(new_cg.cost)
    graphs = (old_cg, revision)

    def full(reason: str) -> UpdateReport:
        info = build_snapshot(new_cg, out_path, heuristics=cfg,
                              jobs=jobs, case_fold=fold)
        return UpdateReport(
            mode="full", reason=reason,
            total_sources=len(info.sources),
            remapped=list(info.sources), reused=0, engine=info.engine,
            seconds=time.perf_counter() - t0,
            out_path=Path(out_path), heuristics=cfg, graphs=graphs)

    changed = _cost_only_changes(old_cg, new_cg)
    if changed is None:
        return full("topology changed")
    affected = affected_sources_exact(reader, new_cg, changed)
    if affected is None:
        return full("negative link cost")
    sources = eligible_sources(new_cg)
    if sources != reader.sources():
        # Cannot happen when the structural guard passed, but the
        # splice below depends on it, so verify rather than assume.
        return full("eligible source set changed")
    if len(affected) > full_threshold * len(sources):
        return full(f"{len(affected)}/{len(sources)} sources affected "
                    f"(threshold {full_threshold:.0%})")

    # Each affected source travels with its old section, so a worker
    # re-prices the tables whose tree did not move (table_blocks).
    payloads, engine = map_sources(
        new_cg, [(source, reader.table_bytes(source))
                 for source in affected],
        revision_payload, cfg, jobs)
    # Reachability is cost-independent, but a record's name is not: a
    # host whose tree parent changes to or from a domain is printed
    # under another name ("caip.rutgers" <-> "caip").  So the encoder
    # decides per table whether the old DFSM block still fits.  The
    # pool numbers blocks in first-use order, so every section, spliced
    # or not, takes its block in source order.
    fresh = dict(zip(affected, payloads))
    pool = DfsmPool()
    table_sections = [
        (source, encode_table_section(fresh[source], pool,
                                      previous=reader.table(source))
         if source in fresh else splice_table_section(reader, source, pool))
        for source in sources]
    try:
        graph_section = encode_graph_section(
            new_cg, previous=(reader.graph_section(), old_cg))
    except struct.error:
        check_link_costs(new_cg)
        raise
    write_snapshot(
        out_path, graph_section,
        encode_meta_section(cfg), table_sections, pool,
        flags=out_flags)
    reason = ("no route-relevant changes" if not changed
              else f"{len(changed)} link cost change(s)")
    return UpdateReport(
        mode="incremental", reason=reason,
        total_sources=len(sources), remapped=list(affected),
        reused=len(sources) - len(affected), engine=engine,
        seconds=time.perf_counter() - t0, out_path=Path(out_path),
        heuristics=cfg, graphs=graphs)
