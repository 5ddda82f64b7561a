"""CLI tests (the pathalias command)."""

import sys

import pytest

from repro.cli import main

from tests.conftest import PAPER_1981_MAP


@pytest.fixture
def map_file(tmp_path):
    path = tmp_path / "d.map"
    path.write_text(PAPER_1981_MAP)
    return str(path)


class TestBasicInvocation:
    def test_tab_output_default(self, map_file, capsys):
        assert main(["-l", "unc", map_file]) == 0
        out = capsys.readouterr().out
        assert "phs\tduke!phs!%s" in out
        assert out.splitlines() == sorted(out.splitlines())

    def test_costs_option(self, map_file, capsys):
        assert main(["-l", "unc", "-c", map_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "0\tunc\t%s"
        assert out[-1] == "3395\tstanford\tduke!research!ucbvax!%s@stanford"

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("a b(10)"))
        assert main(["-l", "a"]) == 0
        assert "b\tb!%s" in capsys.readouterr().out

    def test_ignore_case(self, tmp_path, capsys):
        path = tmp_path / "d.map"
        path.write_text("UNC Duke(10)")
        assert main(["-l", "unc", "-i", str(path)]) == 0
        assert "duke\tduke!%s" in capsys.readouterr().out

    def test_lex_scanner_same_output(self, map_file, capsys):
        main(["-l", "unc", "-c", map_file])
        hand = capsys.readouterr().out
        main(["-l", "unc", "-c", "--lex", map_file])
        lex = capsys.readouterr().out
        assert hand == lex


class TestOptions:
    def test_second_best(self, tmp_path, capsys):
        from tests.conftest import MOTOWN_MAP

        path = tmp_path / "d.map"
        path.write_text(MOTOWN_MAP)
        assert main(["-l", "princeton", "-s", "-c", str(path)]) == 0
        out = capsys.readouterr().out
        assert "500\tmotown\ttopaz!motown!%s" in out

    def test_no_back_links_reports_unreachable(self, tmp_path, capsys):
        path = tmp_path / "d.map"
        path.write_text("a b(10)\nleaf a(10)")
        assert main(["-l", "a", "--no-back-links", str(path)]) == 0
        err = capsys.readouterr().err
        assert "leaf: unreachable" in err

    def test_stats_on_stderr(self, map_file, capsys):
        assert main(["-l", "unc", "--stats", map_file]) == 0
        err = capsys.readouterr().err
        assert "nodes" in err and "scan" in err

    def test_warnings_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "d.map"
        path.write_text("a a(10), b(10)")
        assert main(["-l", "a", "--warnings", str(path)]) == 0
        assert "warning" in capsys.readouterr().err


class TestToolOptions:
    def test_dot_to_file(self, map_file, tmp_path, capsys):
        out = tmp_path / "routes.dot"
        assert main(["-l", "unc", "--dot", str(out), map_file]) == 0
        dot = out.read_text()
        assert dot.startswith("digraph")
        assert '"unc" -> "duke"' in dot

    def test_dot_to_stdout(self, map_file, capsys):
        assert main(["-l", "unc", "--dot", "-", map_file]) == 0
        out = capsys.readouterr().out
        assert "digraph" in out

    def test_check_reports_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "d.map"
        path.write_text("a b(10)\nb c(10)\nc b(10)")
        assert main(["-l", "a", "--check", str(path)]) == 0
        err = capsys.readouterr().err
        assert "asymmetric-link" in err
        assert "check:" in err

    def test_check_clean_map(self, tmp_path, capsys):
        path = tmp_path / "d.map"
        path.write_text("a b(10)\nb a(10)")
        assert main(["-l", "a", "--check", str(path)]) == 0
        assert "map is clean" in capsys.readouterr().err

    def test_report(self, map_file, capsys):
        assert main(["-l", "unc", "--report", map_file]) == 0
        err = capsys.readouterr().err
        assert "pathalias run report" in err
        assert "busiest relays:" in err

    def test_trace(self, map_file, capsys):
        assert main(["-l", "unc", "--trace", "mit-ai", map_file]) == 0
        err = capsys.readouterr().err
        assert "route to mit-ai (cost 3395)" in err
        assert "unc -> duke" in err

    def test_trace_unknown_host(self, map_file, capsys):
        assert main(["-l", "unc", "--trace", "zebra", map_file]) == 0
        assert "trace:" in capsys.readouterr().err


class TestFailures:
    def test_unknown_localhost(self, map_file, capsys):
        assert main(["-l", "ghost", map_file]) == 1
        assert "ghost" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["-l", "a", "/nonexistent/map"]) == 2
        assert "pathalias:" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "d.map"
        path.write_text("= broken =")
        assert main(["-l", "a", str(path)]) == 1
        err = capsys.readouterr().err
        assert "pathalias:" in err


class TestEngineSelection:
    def test_engines_agree_byte_for_byte(self, map_file, capsys):
        assert main(["-l", "unc", "--engine", "compact", map_file]) == 0
        compact = capsys.readouterr().out
        assert main(["-l", "unc", "--engine", "reference", map_file]) == 0
        reference = capsys.readouterr().out
        assert compact == reference
        assert "phs\tduke!phs!%s" in compact

    def test_compact_supports_trace_and_report(self, map_file, capsys):
        assert main(["-l", "unc", "--engine", "compact", "--report",
                     "--trace", "mit-ai", map_file]) == 0
        err = capsys.readouterr().err
        assert "pathalias run report" in err
        assert "route to mit-ai (cost 3395)" in err


class TestBatchMode:
    def test_batch_writes_all_sources(self, map_file, tmp_path, capsys):
        out = tmp_path / "paths"
        assert main(["--batch", str(out), map_file]) == 0
        written = sorted(p.name for p in out.iterdir())
        assert "paths.unc" in written and "paths.ucbvax" in written
        assert "phs\tduke!phs!%s" in (out / "paths.unc").read_text()
        assert "batch:" in capsys.readouterr().err

    def test_batch_parallel_jobs(self, map_file, tmp_path, capsys):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert main(["--batch", str(serial), map_file]) == 0
        assert main(["--batch", str(parallel), "-j", "2", map_file]) == 0
        assert "jobs=2" in capsys.readouterr().err
        for path in serial.iterdir():
            assert (parallel / path.name).read_text() == path.read_text()

    def test_batch_parse_error(self, tmp_path, capsys):
        path = tmp_path / "d.map"
        path.write_text("= broken =")
        assert main(["--batch", str(tmp_path / "out"), str(path)]) == 1
        assert "pathalias:" in capsys.readouterr().err


class TestServiceCommands:
    def test_snapshot_and_lookup(self, map_file, tmp_path, capsys):
        snap = tmp_path / "routes.snap"
        assert main(["snapshot", "-o", str(snap), map_file]) == 0
        err = capsys.readouterr().err
        assert "snapshot:" in err and "sources" in err
        assert snap.exists()
        assert main(["lookup", str(snap), "phs", "honey",
                     "-l", "unc"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "800\tphs\tduke!phs!honey"

    def test_lookup_without_user_keeps_template(self, map_file,
                                                tmp_path, capsys):
        snap = tmp_path / "routes.snap"
        assert main(["snapshot", "-o", str(snap), map_file]) == 0
        capsys.readouterr()
        assert main(["lookup", str(snap), "phs", "-l", "unc"]) == 0
        assert "duke!phs!%s" in capsys.readouterr().out

    def test_lookup_miss_fails(self, map_file, tmp_path, capsys):
        snap = tmp_path / "routes.snap"
        assert main(["snapshot", "-o", str(snap), map_file]) == 0
        capsys.readouterr()
        assert main(["lookup", str(snap), "nowhere"]) == 1
        assert "no route" in capsys.readouterr().err

    def test_update_incremental(self, tmp_path, capsys):
        old_map = tmp_path / "v1.map"
        old_map.write_text("a b(10), c(100)\nb a(10), c(10)\n"
                           "c b(10), a(100), d(10)\nd c(10)\n")
        new_map = tmp_path / "v2.map"
        new_map.write_text("a b(10), c(100)\nb a(10), c(500)\n"
                           "c b(10), a(100), d(10)\nd c(10)\n")
        old = tmp_path / "v1.snap"
        new = tmp_path / "v2.snap"
        assert main(["snapshot", "-o", str(old), str(old_map)]) == 0
        assert main(["update", str(old), "-o", str(new),
                     str(new_map)]) == 0
        err = capsys.readouterr().err
        assert "incremental update" in err
        fresh = tmp_path / "fresh.snap"
        assert main(["snapshot", "-o", str(fresh), str(new_map)]) == 0
        assert new.read_bytes() == fresh.read_bytes()

    def test_update_missing_snapshot(self, map_file, tmp_path, capsys):
        assert main(["update", str(tmp_path / "no.snap"),
                     "-o", str(tmp_path / "out.snap"), map_file]) == 1
        assert "cannot open snapshot" in capsys.readouterr().err

    def test_snapshot_bad_map(self, tmp_path, capsys):
        bad = tmp_path / "d.map"
        bad.write_text("= broken =")
        assert main(["snapshot", "-o", str(tmp_path / "x.snap"),
                     str(bad)]) == 1
        assert "pathalias:" in capsys.readouterr().err

    def test_serve_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0
        assert "lookup daemon" in capsys.readouterr().out

    def test_snapshot_without_out_fails(self, map_file, capsys):
        assert main(["snapshot", map_file]) == 1
        assert "-o FILE" in capsys.readouterr().err

    def test_serve_format_mismatch_fails_fast(self, map_file,
                                              tmp_path, capsys,
                                              v1_stamped):
        snap = tmp_path / "routes.snap"
        assert main(["snapshot", "-o", str(snap), map_file]) == 0
        v1 = v1_stamped(snap)
        capsys.readouterr()
        assert main(["serve", str(v1)]) == 1
        err = capsys.readouterr().err
        assert "version 1" in err and "rebuild" in err

    def test_flat_cli_untouched_by_subcommands(self, map_file, capsys):
        # a file named like a subcommand must still route to the flat
        # parser when preceded by options
        assert main(["-l", "unc", map_file]) == 0
        assert "duke" in capsys.readouterr().out

    def test_update_honours_case_fold_flag(self, tmp_path, capsys):
        """A snapshot built with -i records case folding; a later
        update without -i must parse the revision the same way."""
        v1 = tmp_path / "v1.map"
        v1.write_text("A B(10), C(100)\nB A(10), C(10)\n"
                      "C B(10), A(100), D(10)\nD C(10)\n")
        v2 = tmp_path / "v2.map"
        v2.write_text("A B(10), C(100)\nB A(10), C(500)\n"
                      "C B(10), A(100), D(10)\nD C(10)\n")
        old = tmp_path / "v1.snap"
        new = tmp_path / "v2.snap"
        assert main(["snapshot", "-i", "-o", str(old), str(v1)]) == 0
        assert main(["update", str(old), "-o", str(new),
                     str(v2)]) == 0
        err = capsys.readouterr().err
        assert "incremental update" in err
        fresh = tmp_path / "fresh.snap"
        assert main(["snapshot", "-i", "-o", str(fresh),
                     str(v2)]) == 0
        assert new.read_bytes() == fresh.read_bytes()

    def test_update_i_flag_upgrades_snapshot_header(self, tmp_path,
                                                    capsys):
        """-i on update of an unfolded snapshot must record folding
        in the new header (byte-identical to snapshot -i) so later
        unflagged updates keep parsing folded."""
        v1 = tmp_path / "v1.map"
        v1.write_text("a b(10)\nb a(10)\n")
        v2 = tmp_path / "v2.map"
        v2.write_text("A B(20)\nB A(20)\n")
        old = tmp_path / "v1.snap"
        new = tmp_path / "v2.snap"
        assert main(["snapshot", "-o", str(old), str(v1)]) == 0
        assert main(["update", "-i", str(old), "-o", str(new),
                     str(v2)]) == 0
        fresh = tmp_path / "fresh.snap"
        assert main(["snapshot", "-i", "-o", str(fresh),
                     str(v2)]) == 0
        assert new.read_bytes() == fresh.read_bytes()
        from repro.service.store import SnapshotReader

        assert SnapshotReader.open(new).case_fold

    def test_lookup_empty_snapshot_clean_error(self, tmp_path,
                                               capsys):
        """A snapshot with zero eligible sources fails cleanly, not
        with an IndexError traceback."""
        nets = tmp_path / "nets.map"
        nets.write_text(".edu = {.rutgers}\n")
        snap = tmp_path / "empty.snap"
        assert main(["snapshot", "-o", str(snap), str(nets)]) == 0
        capsys.readouterr()
        assert main(["lookup", str(snap), "a"]) == 1
        assert "no source tables" in capsys.readouterr().err


class TestFederateCommand:
    MAPS = {
        "west": "a\tb(10), gate(100)\nb\ta(10)\n",
        "east": "gate\tz(10)\nz\tgate(10), y(10)\ny\tz(10)\n",
    }

    def _write_maps(self, tmp_path):
        paths = {}
        for name, text in self.MAPS.items():
            path = tmp_path / f"{name}.map"
            path.write_text(text)
            paths[name] = str(path)
        return paths

    def test_federate_builds_shards_and_reports_gateways(
            self, tmp_path, capsys):
        maps = self._write_maps(tmp_path)
        out = tmp_path / "shards"
        assert main(["federate",
                     f"west={maps['west']}", f"east={maps['east']}",
                     "-o", str(out)]) == 0
        err = capsys.readouterr().err
        assert "federate: west: 3 sources" in err
        assert "gateways east<->west: gate" in err
        assert "serve with: pathalias serve --shard" in err
        from repro.service.store import SnapshotReader

        assert SnapshotReader.open(out / "west.snap").source_count == 3
        assert SnapshotReader.open(out / "east.snap").source_count == 3

    def test_federate_rejects_malformed_region(self, tmp_path, capsys):
        assert main(["federate", "westonly", "-o",
                     str(tmp_path / "x")]) == 1
        assert "NAME=MAPFILE" in capsys.readouterr().err

    def test_federate_rejects_duplicate_names(self, tmp_path, capsys):
        maps = self._write_maps(tmp_path)
        assert main(["federate", f"west={maps['west']}",
                     f"west={maps['east']}",
                     "-o", str(tmp_path / "x")]) == 1
        assert "duplicate shard name" in capsys.readouterr().err

    def test_serve_requires_snapshot_or_shards(self, capsys):
        assert main(["serve"]) == 1
        assert "snapshot file or --shard" in capsys.readouterr().err

    def test_serve_rejects_snapshot_plus_shards(self, tmp_path,
                                                capsys):
        assert main(["serve", "some.snap",
                     "--shard", "a=b.snap"]) == 1
        assert "not both" in capsys.readouterr().err

    def test_serve_shard_help_documents_federation(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = capsys.readouterr().out
        assert "--shard" in out and "federation" in out

    def test_federate_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            main(["federate", "--help"])
        assert "regional map" in capsys.readouterr().out


class TestClusterCommands:
    """The fan-out surfaces: lookup --connect and serve --backend."""

    def test_lookup_connect_matches_snapshot_lookup(self, map_file,
                                                    tmp_path, capsys):
        """`lookup --connect` prints the same line the snapshot-file
        lookup prints — the CI cluster job diffs exactly this."""
        from tests.test_daemon import _ThreadedDaemon

        snap = tmp_path / "routes.snap"
        assert main(["snapshot", "-o", str(snap), map_file]) == 0
        assert main(["lookup", str(snap), "phs", "honey",
                     "-l", "unc"]) == 0
        offline = capsys.readouterr().out
        with _ThreadedDaemon(str(snap)) as daemon:
            assert main(["lookup", "--connect",
                         f"127.0.0.1:{daemon.port}",
                         "phs", "honey", "-l", "unc"]) == 0
            online = capsys.readouterr().out
        assert online == offline == "800\tphs\tduke!phs!honey\n"

    def test_lookup_connect_without_user(self, map_file, tmp_path,
                                         capsys):
        from tests.test_daemon import _ThreadedDaemon

        snap = tmp_path / "routes.snap"
        assert main(["snapshot", "-o", str(snap), map_file]) == 0
        capsys.readouterr()
        with _ThreadedDaemon(str(snap), source="unc") as daemon:
            assert main(["lookup", "--connect",
                         f"127.0.0.1:{daemon.port}", "phs"]) == 0
        assert "duke!phs!%s" in capsys.readouterr().out

    def test_lookup_connect_bad_spec(self, capsys):
        assert main(["lookup", "--connect", "nowhere", "phs"]) == 1
        assert "HOST:PORT" in capsys.readouterr().err

    def test_lookup_needs_snapshot_or_connect(self, capsys):
        assert main(["lookup", "phs"]) == 1
        assert "snapshot file (or --connect" in \
            capsys.readouterr().err

    def test_serve_rejects_shard_backend_name_collision(self, capsys):
        assert main(["serve", "--shard", "a=x.snap",
                     "--backend", "a=127.0.0.1:4311"]) == 1
        assert "both --shard and --backend" in capsys.readouterr().err

    def test_serve_rejects_snapshot_plus_backend(self, capsys):
        assert main(["serve", "some.snap",
                     "--backend", "a=127.0.0.1:4311"]) == 1
        assert "not both" in capsys.readouterr().err

    def test_serve_help_documents_backends(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = capsys.readouterr().out
        assert "--backend" in out and "fan out" in out

    def test_federate_help_documents_spawn(self, capsys):
        with pytest.raises(SystemExit):
            main(["federate", "--help"])
        assert "--spawn" in capsys.readouterr().out

    def test_update_full_fallback_says_so_on_stderr(self, tmp_path,
                                                    capsys):
        """A revision the incremental path cannot prove safe reports
        its full-rebuild fallback and the reason on stderr — never a
        silent mode switch."""
        old_map = tmp_path / "v1.map"
        old_map.write_text("a b(10)\nb a(10)\n")
        new_map = tmp_path / "v2.map"
        new_map.write_text("a b(10), c(10)\nb a(10)\nc a(10)\n")
        old = tmp_path / "v1.snap"
        assert main(["snapshot", "-o", str(old), str(old_map)]) == 0
        capsys.readouterr()
        assert main(["update", str(old), "-o",
                     str(tmp_path / "v2.snap"), str(new_map)]) == 0
        err = capsys.readouterr().err
        assert "full update (topology changed)" in err


class TestOversizedNumbers:
    """A number no snapshot or ``int()`` can hold ends the command
    with one ``pathalias:`` line, not a traceback."""

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int() digit limit on this Python")
    @pytest.mark.parametrize("scanner", [[], ["--lex"]])
    def test_digit_run_past_int_limit(self, tmp_path, capsys, scanner):
        path = tmp_path / "d.map"
        path.write_text("a\tb(" + "9" * 5000 + ")\n")
        assert main([*scanner, "-l", "a", str(path)]) != 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("pathalias:")
        assert "line 1: number of 5000 digits is too long" in err[0]

    def test_snapshot_cost_past_64_bits(self, tmp_path, capsys):
        path = tmp_path / "d.map"
        path.write_text("a\tb(99999999999999999999999)\nb\ta(1)\n")
        out = tmp_path / "x.snap"
        assert main(["snapshot", "-o", str(out), str(path)]) != 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("pathalias: snapshot: source 'a': "
                                 "route to 'b' costs "
                                 "99999999999999999999999,")
        assert not out.exists()
