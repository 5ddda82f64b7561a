"""The documentation suite stays true (tier-1 mirror of the CI docs job).

``tools/check_docs.py`` is the single source of truth for what
"documented" means — the protocol page lists exactly the daemons'
verbs, relative links resolve, and the service tier's public API
carries docstrings.  Running it here means drift fails the tier-1
suite locally, not just the CI docs job.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _tool():
    sys.path.insert(0, str(REPO / "tools"))
    try:
        import check_docs
    finally:
        sys.path.pop(0)
    return check_docs


class TestDocsSuite:
    def test_protocol_page_matches_daemon_verbs(self):
        problems: list = []
        _tool().check_protocol(problems)
        assert problems == []

    def test_verbs_tables_match_actual_dispatch(self):
        """VERBS (what the docs are checked against) names exactly
        the verbs handle_line dispatches — closing the loop so docs
        == VERBS == code."""
        problems: list = []
        _tool().check_dispatch(problems)
        assert problems == []

    def test_dispatch_checker_notices_unlisted_verb(self, monkeypatch):
        """Drop a verb from a VERBS table and the dispatch check must
        flag the handle_line branch it no longer covers."""
        tool = _tool()
        from repro.service.daemon import RouteService

        trimmed = tuple(v for v in RouteService.VERBS if v != "STATS")
        monkeypatch.setattr(RouteService, "VERBS", trimmed)
        problems: list = []
        tool.check_dispatch(problems)
        assert any("dispatches STATS" in p for p in problems)

    def test_markdown_links_resolve(self):
        problems: list = []
        _tool().check_links(problems)
        assert problems == []

    def test_snapshot_format_page_documents_writer_tags(self):
        problems: list = []
        _tool().check_snapshot_tags(problems)
        assert problems == []

    def test_tag_checker_notices_a_missing_tag(self, tmp_path,
                                               monkeypatch):
        """The tag check is a real check: drop a tag from the marker
        and it must complain."""
        tool = _tool()
        docs = tmp_path / "docs"
        docs.mkdir()
        page = (REPO / "docs" / "snapshot-format.md").read_text()
        broken = page.replace(
            "<!-- table-tags RECS UNRC TREE STAT BLOB DREF -->",
            "<!-- table-tags RECS UNRC TREE BLOB DREF -->")
        assert broken != page
        (docs / "snapshot-format.md").write_text(broken)
        monkeypatch.setattr(tool, "REPO", tmp_path)
        problems: list = []
        tool.check_snapshot_tags(problems)
        assert any("table-tags marker" in p for p in problems)

    def test_service_public_api_is_docstringed(self):
        problems: list = []
        _tool().check_docstrings(problems)
        assert problems == []

    def test_checker_notices_a_verb_gap(self, tmp_path, monkeypatch):
        """The protocol check is a real check: drop a verb from the
        marker and it must complain."""
        tool = _tool()
        docs = tmp_path / "docs"
        docs.mkdir()
        page = (REPO / "docs" / "protocol.md").read_text()
        broken = page.replace(
            "<!-- verbs:federation ROUTE EXACT SOURCE SHARDS ATTACH "
            "DETACH RELOAD PIPELINE STATS QUIT -->",
            "<!-- verbs:federation ROUTE EXACT SOURCE SHARDS ATTACH "
            "DETACH RELOAD PIPELINE STATS -->")
        assert broken != page
        (docs / "protocol.md").write_text(broken)
        monkeypatch.setattr(tool, "REPO", tmp_path)
        problems: list = []
        tool.check_protocol(problems)
        assert any("verbs:federation" in p for p in problems)
