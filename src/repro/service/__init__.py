"""The persistent route service.

"Output from pathalias is a simple linear file, in the UNIX tradition.
If desired, a separate program may be used to convert this file into a
format appropriate for rapid database retrieval."  This package is that
separate program, grown into a serving tier:

* :mod:`repro.service.resolver` — the one :class:`Resolver` contract
  every lookup surface satisfies (in-process snapshot table, daemon
  and federation clients, in-memory mailer table) and the shared
  implementation of the paper's domain-suffix search;
* :mod:`repro.service.cache` — the daemons' bounded result cache,
  stamped with one epoch and invalidated O(1) by bumping it on every
  snapshot swap (RELOAD, ATTACH/DETACH, NOTIFY-driven re-syncs);
* :mod:`repro.service.store` — a binary on-disk *route snapshot*: a
  compiled graph plus every source's route table in flat,
  offset-indexed sections, opened and searched by bisection without
  re-parsing or re-mapping;
* :mod:`repro.service.incremental` — diff-driven snapshot updates that
  remap only the sources a map revision can actually affect;
* :mod:`repro.service.daemon` — a long-running asyncio lookup server
  (``ROUTE`` / ``RELOAD`` / ``STATS`` over a line protocol) with atomic
  hot-swap of snapshots mid-traffic, plus the synchronous client that
  lets :class:`repro.mailer.router.MailRouter` route through it;
* :mod:`repro.service.shard` / :mod:`repro.service.federation` — many
  regional snapshots (backbone, universities, ARPA, ...) served as
  independently reloadable *shards* behind one front end, with
  cross-shard routes stitched through gateway hosts;
* :mod:`repro.service.backend` — the scale-out tier: a shard served
  by a separate per-shard daemon *process*, fanned out to over one
  pipelined socket connection, so the front end shards CPU and not
  just snapshots.

See ``docs/architecture.md`` for the layer map, ``docs/protocol.md``
for the normative line-protocol reference, and
``docs/snapshot-format.md`` for the byte-level store layout.
"""

from repro.service.resolver import (
    Resolution,
    Resolver,
    SuffixResolver,
    domain_suffixes,
)
from repro.service.cache import (
    DEFAULT_CACHE_SIZE,
    ResultCache,
)
from repro.service.store import (
    SnapshotError,
    SnapshotInfo,
    SnapshotReader,
    SnapshotTable,
    build_snapshot,
)
from repro.service.incremental import UpdateReport, update_snapshot
from repro.service.daemon import (
    DaemonRouteDatabase,
    LineService,
    RouteService,
    serve,
)
from repro.service.shard import (
    FederatedResolution,
    FederationView,
    Shard,
)
from repro.service.backend import (
    BackendShard,
    ShardBackend,
    parse_backend_spec,
)
from repro.service.federation import (
    FederatedRouteDatabase,
    FederationService,
)

__all__ = [
    "Resolution",
    "Resolver",
    "SuffixResolver",
    "domain_suffixes",
    "DEFAULT_CACHE_SIZE",
    "ResultCache",
    "SnapshotError",
    "SnapshotInfo",
    "SnapshotReader",
    "SnapshotTable",
    "build_snapshot",
    "UpdateReport",
    "update_snapshot",
    "DaemonRouteDatabase",
    "LineService",
    "RouteService",
    "serve",
    "Shard",
    "FederationView",
    "FederatedResolution",
    "FederatedRouteDatabase",
    "FederationService",
    "BackendShard",
    "ShardBackend",
    "parse_backend_spec",
]
