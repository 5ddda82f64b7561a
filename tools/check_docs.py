#!/usr/bin/env python
"""Keep the documentation suite honest.

Four checks, each of which has actually drifted in this repo's past:

1. **Protocol page vs. the daemons.**  ``docs/protocol.md`` carries
   machine-readable markers (``<!-- verbs:daemon ... -->`` and
   ``<!-- verbs:federation ... -->``).  Each marker must list exactly
   the verbs the corresponding service class implements (its ``VERBS``,
   read off its verb table), and every listed verb must also have a
   ``### VERB`` heading in the page, so the marker cannot drift from
   the prose.  ``VERBS`` in turn must name exactly the verbs the class
   declares a ``do_<VERB>`` handler for.

2. **Links.**  Every relative markdown link in README.md and
   ``docs/*.md`` must point at a file that exists.

3. **Docstrings.**  Every public module/class/function/method under
   ``src/repro/service/`` (plus ``core/fastmap.py``) carries a
   docstring — the same D1 surface ruff enforces in CI, checked here
   without needing ruff installed (and mirrored into the tier-1 suite
   by ``tests/test_docs.py``).

4. **Snapshot-format page vs. the writer.**  ``docs/snapshot-format.md``
   carries a ``<!-- table-tags ... -->`` marker that must list exactly
   the v2 table-section tags the snapshot writer emits
   (``repro.service.store.TABLE_SECTION_TAGS``), and each tag must be
   described (appear in backticks) in the page body.

Usage::

    PYTHONPATH=src python tools/check_docs.py

Exits non-zero with one line per finding.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: modules whose public API must be fully docstringed (ruff D1 scope
#: plus the compiled engine the docs lean on).
DOCSTRING_SCOPE = ("src/repro/service", "src/repro/core/fastmap.py")

#: markdown files whose relative links must resolve.
LINKED_PAGES = ("README.md", "docs/architecture.md",
                "docs/protocol.md", "docs/snapshot-format.md")


def _service_classes() -> dict:
    """The daemons' service classes, by protocol-page marker name."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.service.daemon import RouteService
    from repro.service.federation import FederationService

    return {"daemon": RouteService, "federation": FederationService}


def _service_verbs() -> dict[str, tuple]:
    """The live verb lists, imported from the daemons themselves."""
    return {service: cls.VERBS
            for service, cls in _service_classes().items()}


def check_dispatch(problems: list) -> None:
    """Each VERBS list names exactly the verbs its service has a
    ``do_<VERB>`` handler for — what ``LineService.handle_line``
    dispatches to (the protocol page is checked against VERBS, so
    this closes the loop: docs == VERBS == code)."""
    for cls in _service_classes().values():
        name = f"{cls.__module__}.{cls.__name__}"
        handled = {attr[3:] for attr in dir(cls)
                   if attr.startswith("do_")}
        listed = set(cls.VERBS)
        for verb in sorted(handled - listed):
            problems.append(
                f"{name}.handle_line dispatches {verb} but VERBS does "
                f"not list it")
        for verb in sorted(listed - handled):
            problems.append(
                f"{name}: VERBS lists {verb} but there is no "
                f"do_{verb} handler")


def check_protocol(problems: list) -> None:
    """Marker sets and headings in docs/protocol.md match the code."""
    page = REPO / "docs" / "protocol.md"
    if not page.exists():
        problems.append(f"{page}: missing")
        return
    text = page.read_text()
    markers = dict(re.findall(r"<!--\s*verbs:(\w+)\s+([^>]*?)-->",
                              text))
    headings = set(re.findall(r"^### ([A-Z]+)\b", text, re.MULTILINE))
    for service, verbs in _service_verbs().items():
        if service not in markers:
            problems.append(
                f"docs/protocol.md: no <!-- verbs:{service} --> marker")
            continue
        documented = tuple(markers[service].split())
        if documented != verbs:
            problems.append(
                f"docs/protocol.md: verbs:{service} marker lists "
                f"{documented}, but the {service} implements {verbs}")
        for verb in verbs:
            if verb not in headings:
                problems.append(
                    f"docs/protocol.md: verb {verb} has no "
                    f"'### {verb}' section")
    for extra in sorted(markers.keys() - _service_verbs().keys()):
        problems.append(
            f"docs/protocol.md: marker verbs:{extra} matches no "
            f"service")


def check_snapshot_tags(problems: list) -> None:
    """docs/snapshot-format.md documents exactly the v2 table-section
    tags the snapshot writer emits."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.service.store import TABLE_SECTION_TAGS

    page = REPO / "docs" / "snapshot-format.md"
    if not page.exists():
        problems.append("docs/snapshot-format.md: missing")
        return
    text = page.read_text()
    match = re.search(r"<!--\s*table-tags\s+([^>]*?)-->", text)
    if match is None:
        problems.append(
            "docs/snapshot-format.md: no <!-- table-tags --> marker")
        return
    documented = tuple(match.group(1).split())
    if documented != TABLE_SECTION_TAGS:
        problems.append(
            f"docs/snapshot-format.md: table-tags marker lists "
            f"{documented}, but the writer emits "
            f"{TABLE_SECTION_TAGS}")
    for tag in TABLE_SECTION_TAGS:
        if f"`{tag}`" not in text:
            problems.append(
                f"docs/snapshot-format.md: section tag {tag} is "
                f"never described (no `{tag}` in the page body)")


def check_links(problems: list) -> None:
    """Relative markdown links in the doc pages resolve to files."""
    for rel in LINKED_PAGES:
        page = REPO / rel
        if not page.exists():
            problems.append(f"{rel}: missing")
            continue
        for match in re.finditer(r"\[[^\]]+\]\(([^)\s]+)\)",
                                 page.read_text()):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue  # same-page anchor
            if not (page.parent / path).exists():
                problems.append(f"{rel}: broken link -> {target}")


def _missing_docstrings(path: Path) -> list:
    """Public defs without docstrings (ruff D100-D103 surface: module,
    classes, functions, methods; underscore names and function-nested
    defs are exempt, as are members of private classes)."""
    tree = ast.parse(path.read_text())
    out = []
    if not ast.get_docstring(tree):
        out.append((path, 1, "module"))

    def walk(node, private: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                is_private = private or child.name.startswith("_")
                if not is_private and not ast.get_docstring(child):
                    out.append((path, child.lineno, child.name))
                walk(child, is_private)
            elif isinstance(child, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                if not private and not child.name.startswith("_") \
                        and not ast.get_docstring(child):
                    out.append((path, child.lineno, child.name))
                # function-nested defs are never public: do not recurse

    walk(tree, False)
    return out


def check_docstrings(problems: list) -> None:
    """The D1 surface over the service tier is fully documented."""
    for scope in DOCSTRING_SCOPE:
        root = REPO / scope
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            for _, lineno, name in _missing_docstrings(path):
                problems.append(
                    f"{path.relative_to(REPO)}:{lineno}: public "
                    f"{name!r} has no docstring")


def main() -> int:
    """Run all checks; print findings; 0 only when clean."""
    problems: list = []
    check_protocol(problems)
    check_dispatch(problems)
    check_snapshot_tags(problems)
    check_links(problems)
    check_docstrings(problems)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"check_docs: {len(problems)} problem(s)",
              file=sys.stderr)
        return 1
    print("check_docs: protocol, format tags, links, and docstrings "
          "all clean", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
