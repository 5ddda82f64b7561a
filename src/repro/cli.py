"""Command-line interface mirroring the historical tool.

Usage::

    pathalias -l localhost [options] [file ...]

Reads map files (or standard input), computes routes from the local
host, and writes one route per line to standard output.  Options follow
the original where the paper documents them (``-l``, ``-c``, ``-i``)
plus reproduction-specific switches for the experiments.

The serving tier lives behind subcommands (the flat form above stays
the default when the first argument is not one of them)::

    pathalias snapshot -o routes.snap [map ...]     build a snapshot
    pathalias update old.snap -o new.snap [map ...] diff-driven update
    pathalias lookup routes.snap dest [user]        one-shot query
    pathalias lookup --connect HOST:PORT dest       ... against a daemon
    pathalias serve routes.snap [--port N]          the lookup daemon
    pathalias federate NAME=MAP ... -o DIR          per-region snapshots
    pathalias federate ... --spawn                  one-command cluster
    pathalias serve --shard NAME=SNAP ...           the federation daemon
    pathalias serve --backend NAME=HOST:PORT ...    ... fanning out to
                                                    per-shard daemons
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.config import HeuristicConfig
from repro.core.pathalias import Pathalias
from repro.errors import PathaliasError
from repro.parser.lexgen import LexScanner
from repro.parser.scanner import Scanner


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathalias",
        description="compute electronic-mail routes from connectivity "
                    "maps (Honeyman & Bellovin, USENIX 1986)")
    parser.add_argument("files", nargs="*",
                        help="map files (default: standard input)")
    parser.add_argument("-l", "--localhost", default="localhost",
                        help="name of the local host (route source)")
    parser.add_argument("-c", "--costs", action="store_true",
                        help="print costs (the paper's output layout)")
    parser.add_argument("-i", "--ignore-case", action="store_true",
                        help="fold host names to lower case")
    parser.add_argument("-s", "--second-best", action="store_true",
                        help="maintain second-best (domain-free) paths")
    parser.add_argument("--no-back-links", action="store_true",
                        help="do not invent links to unreachable hosts")
    parser.add_argument("--engine", choices=("compact", "reference"),
                        default="compact",
                        help="mapping engine: the compiled flat-array "
                             "engine (default) or the paper-shaped "
                             "reference implementation")
    parser.add_argument("--batch", metavar="DIR",
                        help="precompute a paths.<host> file for every "
                             "eligible source into DIR instead of "
                             "printing one table")
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        metavar="N",
                        help="worker processes for --batch (0 = all "
                             "available CPUs; default 1; the "
                             "reference engine is always serial)")
    parser.add_argument("--lex", action="store_true",
                        help="use the table-driven (lex-style) scanner")
    parser.add_argument("--stats", action="store_true",
                        help="report phase timings and graph statistics "
                             "on standard error")
    parser.add_argument("--warnings", action="store_true",
                        help="report input warnings on standard error")
    parser.add_argument("--dot", metavar="FILE",
                        help="also write the shortest-path tree as "
                             "Graphviz DOT to FILE ('-' for stdout)")
    parser.add_argument("--check", action="store_true",
                        help="run map consistency checks and report "
                             "findings on standard error")
    parser.add_argument("--report", action="store_true",
                        help="print a full run report on standard "
                             "error (stats, timings, load, checks)")
    parser.add_argument("--trace", metavar="HOST",
                        help="explain the chosen route to HOST hop by "
                             "hop on standard error")
    return parser


def _run_batch(tool: Pathalias, named: list[tuple[str, str]],
               heuristics: HeuristicConfig, args) -> int:
    """Precompute route tables for every source (``--batch DIR``)."""
    import time

    from repro.core.batch import BatchMapper, default_jobs

    try:
        graph = tool.build(named)
        jobs = default_jobs() if args.jobs == 0 else max(1, args.jobs)
        if args.engine == "reference" and jobs > 1:
            print("pathalias: batch: the reference engine is always "
                  "serial; ignoring --jobs", file=sys.stderr)
            jobs = 1
        mapper = BatchMapper(graph, heuristics, jobs=jobs,
                             engine=args.engine)
        t0 = time.perf_counter()
        batch = mapper.run()
        count = mapper.write_paths_files(args.batch, batch=batch)
        elapsed = time.perf_counter() - t0
    except (PathaliasError, OSError) as exc:
        print(f"pathalias: {exc}", file=sys.stderr)
        return 1
    rate = count / elapsed if elapsed > 0 else float("inf")
    # batch.engine reports what actually ran ("compact/4", or the
    # serial-fallback note), not merely what was requested.
    print(f"pathalias: batch: {count} route tables -> {args.batch} "
          f"in {elapsed:.2f}s ({rate:.1f} tables/s, jobs={jobs}, "
          f"engine={batch.engine})", file=sys.stderr)
    return 0


#: First arguments that route into the service sub-CLI instead of the
#: historical flat option set.
SERVICE_COMMANDS = ("snapshot", "update", "lookup", "serve",
                    "federate", "inspect")


def build_service_parser(command: str) -> argparse.ArgumentParser:
    """One standalone parser per service command.

    Standalone (rather than argparse subparsers) so map files can
    follow ``-o``/``-j`` between the positionals via
    ``parse_intermixed_args``, which subparsers do not support.
    """
    if command == "snapshot":
        snap = argparse.ArgumentParser(
            prog="pathalias snapshot",
            description="precompute every source's routes into a "
                        "binary snapshot")
        snap.add_argument("files", nargs="*",
                          help="map files (default: standard input)")
        snap.add_argument("-o", "--out", metavar="FILE",
                          help="snapshot file to write "
                               "(atomic replace)")
        snap.add_argument("-j", "--jobs", type=int, default=1,
                          metavar="N",
                          help="worker processes (0 = all CPUs)")
        snap.add_argument("-s", "--second-best", action="store_true",
                          help="maintain second-best (domain-free) "
                               "paths")
        snap.add_argument("--no-back-links", action="store_true",
                          help="do not invent links to unreachable "
                               "hosts")
        snap.add_argument("-i", "--ignore-case", action="store_true",
                          help="fold host names to lower case")
        return snap

    if command == "update":
        upd = argparse.ArgumentParser(
            prog="pathalias update",
            description="rebuild a snapshot for a revised map, "
                        "remapping only the sources the revision can "
                        "affect")
        upd.add_argument("snapshot", help="the previous snapshot")
        upd.add_argument("files", nargs="*",
                         help="revised map files (default: standard "
                              "input)")
        upd.add_argument("-o", "--out", required=True, metavar="FILE",
                         help="snapshot file to write")
        upd.add_argument("-j", "--jobs", type=int, default=1,
                         metavar="N",
                         help="worker processes (0 = all CPUs)")
        upd.add_argument("--full-threshold", type=float, default=0.5,
                         metavar="F",
                         help="affected-source fraction beyond which "
                              "a full rebuild is cheaper (default "
                              "0.5)")
        upd.add_argument("-i", "--ignore-case", action="store_true",
                         help="fold host names to lower case")
        return upd

    if command == "lookup":
        look = argparse.ArgumentParser(
            prog="pathalias lookup",
            description="one-shot route lookup against a snapshot "
                        "file, or (--connect) against a running "
                        "daemon — same output either way")
        look.add_argument("snapshot", nargs="?",
                          help="snapshot file (omit with --connect)")
        look.add_argument("destination")
        look.add_argument("user", nargs="?",
                          help="instantiate the route for this user")
        look.add_argument("-l", "--localhost", metavar="HOST",
                          help="source table to search (default: the "
                               "snapshot's/daemon's first source)")
        look.add_argument("--connect", metavar="HOST:PORT",
                          help="query a running route or federation "
                               "daemon instead of opening a snapshot")
        return look

    if command == "inspect":
        ins = argparse.ArgumentParser(
            prog="pathalias inspect",
            description="print a snapshot's block map: per-source "
                        "section tags, offsets, sizes, and the "
                        "compiled dispatch automaton's shape")
        ins.add_argument("snapshot", help="snapshot file to inspect")
        ins.add_argument("-l", "--localhost", metavar="HOST",
                         help="inspect only this source's table "
                              "(default: every source)")
        return ins

    if command == "federate":
        fed = argparse.ArgumentParser(
            prog="pathalias federate",
            description="build one snapshot per regional map and "
                        "report the gateway picture between them")
        fed.add_argument("regions", nargs="+", metavar="NAME=MAPFILE",
                         help="a shard name and its regional map file")
        fed.add_argument("-o", "--out-dir", required=True,
                         metavar="DIR",
                         help="directory for the NAME.snap files")
        fed.add_argument("-j", "--jobs", type=int, default=1,
                         metavar="N",
                         help="worker processes per snapshot (0 = "
                              "all CPUs)")
        fed.add_argument("-s", "--second-best", action="store_true",
                         help="maintain second-best (domain-free) "
                              "paths")
        fed.add_argument("--no-back-links", action="store_true",
                         help="do not invent links to unreachable "
                              "hosts")
        fed.add_argument("-i", "--ignore-case", action="store_true",
                         help="fold host names to lower case")
        fed.add_argument("--spawn", action="store_true",
                         help="after building the snapshots, spawn "
                              "one route daemon per shard and run the "
                              "fan-out front end over them — a "
                              "one-command local cluster")
        fed.add_argument("--host", default="127.0.0.1",
                         help="bind address for --spawn daemons "
                              "(default 127.0.0.1)")
        fed.add_argument("--port", type=int, default=4176,
                         help="front-end TCP port for --spawn "
                              "(default 4176; shard daemons always "
                              "take ephemeral ports)")
        return fed

    srv = argparse.ArgumentParser(
        prog="pathalias serve",
        description="run the route lookup daemon on a snapshot, or "
                    "the federation daemon over named shards "
                    "(--shard)")
    srv.add_argument("snapshot", nargs="?",
                     help="snapshot file (single-snapshot mode; omit "
                          "when using --shard)")
    srv.add_argument("--shard", action="append", default=[],
                     metavar="NAME=SNAPSHOT",
                     help="serve this snapshot as a named federation "
                          "shard (repeatable; switches to the "
                          "federation daemon)")
    srv.add_argument("--backend", action="append", default=[],
                     metavar="NAME=HOST:PORT",
                     help="federate this shard from a remote route "
                          "daemon instead of a local snapshot — whole "
                          "lookups fan out to it over sockets "
                          "(repeatable; mixes with --shard)")
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    srv.add_argument("--port", type=int, default=4176,
                     help="TCP port (default 4176; 0 = ephemeral)")
    srv.add_argument("--source", metavar="HOST",
                     help="default source table (default: the "
                          "snapshot's first source)")
    srv.add_argument("--dispatch", choices=("fsm", "dict"),
                     default="fsm",
                     help="suffix-lookup dispatch: the compiled "
                          "automaton (fsm, default) or the original "
                          "per-suffix dict walk (dict — the "
                          "differential oracle; forces --no-cache)")
    srv.add_argument("--cache", type=int, default=None, metavar="SIZE",
                     help="bound the generation-stamped (source, "
                          "dest) result cache at SIZE hot pairs "
                          "(default 4096); invalidated O(1) on every "
                          "RELOAD/ATTACH/DETACH/NOTIFY")
    srv.add_argument("--no-cache", action="store_true",
                     help="serve every lookup uncached (pins a "
                          "differential oracle; implied by "
                          "--dispatch dict)")
    return srv


def _parse_named_pairs(pairs: list[str], form: str) -> dict[str, str]:
    """Split ``NAME=VALUE`` shard arguments, rejecting malformed or
    duplicate names."""
    out: dict[str, str] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name or not value:
            raise PathaliasError(
                f"{pair!r} is not of the form {form}")
        if name in out:
            raise PathaliasError(f"duplicate shard name {name!r}")
        out[name] = value
    return out


def _read_named(files: list[str]) -> list[tuple[str, str]] | None:
    """Read map inputs; None (after reporting) on I/O failure."""
    if not files:
        return [("<stdin>", sys.stdin.read())]
    named = []
    for path in files:
        try:
            with open(path, "r") as handle:
                named.append((path, handle.read()))
        except OSError as exc:
            print(f"pathalias: {exc}", file=sys.stderr)
            return None
    return named


def _effective_jobs(jobs: int) -> int:
    from repro.core.batch import default_jobs

    return default_jobs() if jobs == 0 else max(1, jobs)


def _daemon_lookup(args) -> int:
    """``pathalias lookup --connect HOST:PORT dest [user]`` — the
    snapshot-file lookup's output, answered by a running daemon.

    The snapshot positional is unused, so argparse may have parked the
    destination in its slot; the non-empty positionals, in order, are
    the destination and the optional user.
    """
    from repro.service.backend import parse_backend_spec
    from repro.service.daemon import DaemonRouteDatabase

    addr = parse_backend_spec(args.connect)
    if addr is None:
        raise PathaliasError(
            f"--connect {args.connect!r} is not of the form HOST:PORT")
    positionals = [p for p in (args.snapshot, args.destination,
                               args.user) if p is not None]
    if not 1 <= len(positionals) <= 2:
        raise PathaliasError(
            "lookup --connect takes <destination> [user]")
    destination = positionals[0]
    user = positionals[1] if len(positionals) == 2 else "%s"
    with DaemonRouteDatabase(addr, source=args.localhost) as db:
        cost, resolution = db.resolve_with_cost(destination, user)
    print(f"{cost}\t{resolution.matched}\t{resolution.address}")
    return 0


def _run_cluster(shard_snaps: dict, host: str, port: int) -> int:
    """``pathalias federate --spawn``: one daemon process per shard
    snapshot (ephemeral ports, parsed from their startup line), then
    the fan-out front end over them, in the foreground.  Children are
    terminated when the front end exits — SIGTERM is translated into
    the same clean shutdown SIGINT gets, so a supervisor's terminate
    never orphans the shard daemons.
    """
    import signal
    import subprocess
    import threading

    from repro.service.federation import run_federation_daemon

    def _terminated(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminated)

    def _forward_stderr(name: str, stream) -> None:
        # Keep draining the child's stderr pipe for its whole life —
        # a full 64 KiB pipe would block the daemon's next stderr
        # write inside its event loop and stall the shard — and
        # forward the lines so operators see the daemons' diagnostics.
        for line in stream:
            sys.stderr.write(f"[{name}] {line}")
            sys.stderr.flush()

    procs = []
    backends = {}
    try:
        for name, snap in shard_snaps.items():
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", snap,
                 "--host", host, "--port", "0"],
                stderr=subprocess.PIPE, text=True)
            procs.append(proc)
            # scan stderr for the listening line — warnings or other
            # chatter may precede it, and EOF (child died) is the
            # only failure signal, so a healthy-but-chatty daemon is
            # never misdiagnosed and a dead one never blocks us
            chatter: list[str] = []
            while True:
                line = proc.stderr.readline()
                if not line:
                    detail = " / ".join(
                        c.strip() for c in chatter) or "no output"
                    raise PathaliasError(
                        f"shard daemon {name} failed to start: "
                        f"{detail}")
                if "listening on" in line:
                    break
                chatter.append(line)
                sys.stderr.write(f"[{name}] {line}")
            backends[name] = line.rsplit("listening on", 1)[1].strip()
            threading.Thread(target=_forward_stderr,
                             args=(name, proc.stderr),
                             daemon=True).start()
            print(f"pathalias: federate: spawned shard daemon {name} "
                  f"(pid {proc.pid}) on {backends[name]}",
                  file=sys.stderr, flush=True)
        return run_federation_daemon(
            {}, host=host, port=port, backends=backends)
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()


def service_main(argv: list[str]) -> int:
    """Entry point for the snapshot/update/lookup/serve subcommands."""
    import time

    from repro.errors import PathaliasError

    command = argv[0]
    # parse_intermixed_args: map files may follow -o/-j between the
    # positionals, e.g. ``pathalias update old.snap -o new.snap *.map``.
    args = build_service_parser(command).parse_intermixed_args(argv[1:])
    args.command = command

    try:
        if args.command == "snapshot":
            from repro.service.store import build_snapshot

            if not args.out:
                raise PathaliasError("snapshot needs -o FILE")
            named = _read_named(args.files)
            if named is None:
                return 2
            heuristics = HeuristicConfig(
                second_best=args.second_best,
                infer_back_links=not args.no_back_links)
            tool = Pathalias(heuristics=heuristics,
                             case_fold=args.ignore_case)
            t0 = time.perf_counter()
            graph = tool.build(named)
            info = build_snapshot(graph, args.out, heuristics,
                                  jobs=_effective_jobs(args.jobs),
                                  case_fold=args.ignore_case)
            elapsed = time.perf_counter() - t0
            print(f"pathalias: snapshot: {len(info.sources)} sources "
                  f"-> {info.path} ({info.size} bytes) in "
                  f"{elapsed:.2f}s (engine={info.engine})",
                  file=sys.stderr)
            return 0

        if args.command == "update":
            from repro.service.incremental import update_snapshot
            from repro.service.store import SnapshotReader

            named = _read_named(args.files)
            if named is None:
                return 2
            # The old snapshot knows how its map was parsed: honour
            # its case-folding flag (or the explicit -i) so the
            # revision diffs cleanly, and tell update_snapshot which
            # folding actually applied so the new header is truthful.
            reader = SnapshotReader.open(args.snapshot)
            case_fold = args.ignore_case or reader.case_fold
            tool = Pathalias(case_fold=case_fold)
            graph = tool.build(named)
            report = update_snapshot(
                reader, graph, args.out,
                jobs=_effective_jobs(args.jobs),
                full_threshold=args.full_threshold,
                case_fold=case_fold)
            print(f"pathalias: update: {report.summary()} -> "
                  f"{report.out_path} in {report.seconds:.2f}s",
                  file=sys.stderr)
            return 0

        if args.command == "lookup":
            if args.connect:
                return _daemon_lookup(args)
            from repro.service.store import (
                SnapshotError,
                SnapshotReader,
            )

            if args.snapshot is None:
                raise PathaliasError(
                    "lookup needs a snapshot file (or --connect "
                    "HOST:PORT)")
            reader = SnapshotReader.open(args.snapshot)
            source = args.localhost
            if source is None:
                sources = reader.sources()
                if not sources:
                    raise SnapshotError(
                        f"{args.snapshot}: snapshot has no source "
                        f"tables")
                source = sources[0]
            cost, resolution = reader.table(source).resolve_with_cost(
                args.destination,
                args.user if args.user is not None else "%s")
            print(f"{cost}\t{resolution.matched}\t"
                  f"{resolution.address}")
            return 0

        if args.command == "inspect":
            from repro.service.store import SnapshotReader

            reader = SnapshotReader.open(args.snapshot)
            sources = ([args.localhost] if args.localhost
                       else reader.sources())
            print(f"{args.snapshot}: format v{reader.version}, "
                  f"{len(reader.sources())} sources")
            for source in sources:
                table = reader.table(source)
                blocks = table.block_map()
                print(f"source {source}: {len(table)} records, "
                      f"{len(blocks)} blocks")
                for tag, off, length in blocks:
                    line = (f"  {tag}  off={off:<10d} "
                            f"len={length:d}")
                    if tag == "DFSM":
                        auto = table.flat_automaton()
                        line += (f"  states={auto.state_count} "
                                 f"edges={auto.edge_count}")
                    print(line)
            return 0

        if args.command == "federate":
            from repro.service.shard import FederationView, Shard
            from repro.service.store import build_snapshot

            regions = _parse_named_pairs(args.regions, "NAME=MAPFILE")
            heuristics = HeuristicConfig(
                second_best=args.second_best,
                infer_back_links=not args.no_back_links)
            tool = Pathalias(heuristics=heuristics,
                             case_fold=args.ignore_case)
            out_dir = Path(args.out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            shards = []
            shard_args = []
            for name, map_file in regions.items():
                named = _read_named([map_file])
                if named is None:
                    return 2
                out = out_dir / f"{name}.snap"
                info = build_snapshot(
                    tool.build(named), out, heuristics,
                    jobs=_effective_jobs(args.jobs),
                    case_fold=args.ignore_case)
                print(f"pathalias: federate: {name}: "
                      f"{len(info.sources)} sources -> {info.path} "
                      f"({info.size} bytes)", file=sys.stderr)
                shards.append(Shard.open(name, out))
                shard_args.append(f"--shard {name}={out}")
            view = FederationView(shards)
            names = view.shard_names()
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    gates = view.gateways(a, b)
                    print(f"pathalias: federate: gateways {a}<->{b}: "
                          f"{', '.join(gates) if gates else '(none)'}",
                          file=sys.stderr)
            print(f"pathalias: federate: serve with: pathalias serve "
                  f"{' '.join(shard_args)}", file=sys.stderr)
            if args.spawn:
                return _run_cluster(
                    {shard.name: str(shard.path) for shard in shards},
                    host=args.host, port=args.port)
            return 0

        if args.command == "serve":
            if args.shard or args.backend:
                from repro.service.federation import (
                    run_federation_daemon,
                )

                if args.snapshot is not None:
                    raise PathaliasError(
                        "give either a snapshot or --shard/--backend "
                        "pairs, not both")
                shards = _parse_named_pairs(args.shard,
                                            "NAME=SNAPSHOT")
                backends = _parse_named_pairs(args.backend,
                                              "NAME=HOST:PORT")
                both = sorted(set(shards) & set(backends))
                if both:
                    raise PathaliasError(
                        f"shard name(s) {', '.join(both)} given as "
                        f"both --shard and --backend")
                return run_federation_daemon(
                    shards, host=args.host, port=args.port,
                    source=args.source, backends=backends,
                    dispatch=args.dispatch,
                    cache_size=0 if args.no_cache else args.cache)
            if args.snapshot is None:
                raise PathaliasError(
                    "serve needs a snapshot file or --shard/--backend "
                    "pairs")
            from repro.service.daemon import run_daemon

            return run_daemon(args.snapshot, host=args.host,
                              port=args.port, source=args.source,
                              dispatch=args.dispatch,
                              cache_size=0 if args.no_cache else
                              args.cache)
    except PathaliasError as exc:
        print(f"pathalias: {args.command}: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in SERVICE_COMMANDS:
        return service_main(argv)
    args = build_arg_parser().parse_args(argv)

    heuristics = HeuristicConfig(
        second_best=args.second_best,
        infer_back_links=not args.no_back_links,
    )
    tool = Pathalias(
        heuristics=heuristics,
        case_fold=args.ignore_case,
        scanner_class=LexScanner if args.lex else Scanner,
        engine=args.engine,
    )

    named = _read_named(args.files)
    if named is None:
        return 2

    if args.batch:
        return _run_batch(tool, named, heuristics, args)

    try:
        result = tool.run_detailed(named, args.localhost)
    except PathaliasError as exc:
        print(f"pathalias: {exc}", file=sys.stderr)
        return 1

    table = result.table
    print(table.format_paper() if args.costs else table.format_tab())

    if args.dot:
        from repro.graph.export import tree_to_dot

        dot_text = tree_to_dot(result.mapping,
                               title=f"routes from {args.localhost}")
        if args.dot == "-":
            print(dot_text, end="")
        else:
            with open(args.dot, "w") as handle:
                handle.write(dot_text)

    if args.check:
        from repro.graph.check import check_map

        findings = check_map(result.graph)
        for finding in findings:
            print(f"pathalias: check: {finding}", file=sys.stderr)
        print(f"pathalias: check: {findings.summary()}",
              file=sys.stderr)

    if args.report:
        from repro.core.report import run_report

        print(run_report(result), file=sys.stderr)

    if args.trace:
        from repro.core.explain import explain_route
        from repro.errors import RouteError

        try:
            explanation = explain_route(result.mapping, args.trace,
                                        heuristics)
            print(explanation.describe(), file=sys.stderr)
        except RouteError as exc:
            print(f"pathalias: trace: {exc}", file=sys.stderr)

    if args.warnings:
        for warning in table.warnings:
            print(f"pathalias: warning: {warning}", file=sys.stderr)
    for name in table.unreachable:
        print(f"pathalias: {name}: unreachable", file=sys.stderr)

    if args.stats:
        from repro.graph.stats import compute_stats

        stats = compute_stats(result.graph)
        times = result.times
        print(f"pathalias: {stats.nodes} nodes, {stats.links} links "
              f"(e/v = {stats.sparsity:.2f})", file=sys.stderr)
        print(f"pathalias: scan {times.scan:.3f}s parse {times.parse:.3f}s"
              f" build {times.build:.3f}s map {times.map:.3f}s "
              f"print {times.print:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
