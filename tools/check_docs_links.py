#!/usr/bin/env python
"""Verify that local markdown links in README.md and docs/ resolve.

The README links docs/architecture.md and docs/search-to-serve.md (and
the docs cross-link each other); this script fails CI when a rename or
deletion leaves a dangling reference. External (http/https/mailto)
links are out of scope — only repo-relative paths are checked, resolved
against the file that contains the link.

Also fails on *orphans*: every docs/*.md must be reachable — linked
from README.md or from another doc — so new documentation cannot land
invisible.

Code names docs too: every ``*.md`` path in a docstring or comment of a
``.py`` file under src/, tests/ or examples/ must exist, resolved
against the repo root or the file's own directory. String literals in
code are data (a test may write ``docs/usage.md`` into a temp dir), so
they are not checked.

Usage: python tools/check_docs_links.py   (exit 1 on any problem)
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from pathlib import Path
from typing import Iterator, List

LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(#[^)\s]*)?\)")
MD_PATH = re.compile(r"[\w./-]*\w\.md\b")
SKIP_PREFIXES = ("http://", "https://", "mailto:")
CODE_DIRS = ("src", "tests", "examples")

REPO = Path(__file__).resolve().parent.parent


def iter_sources(root: Path) -> Iterator[Path]:
    yield root / "README.md"
    yield from sorted((root / "docs").glob("*.md"))


def prose(source: str) -> Iterator[str]:
    """Docstrings and comments of one Python module."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            yield token.string


def code_problems(root: Path) -> List[str]:
    problems = []
    for top in CODE_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            for text in prose(path.read_text()):
                for name in MD_PATH.findall(text):
                    if not ((root / name).exists()
                            or (path.parent / name).exists()):
                        problems.append(f"{path.relative_to(root)}: "
                                        f"names missing doc -> {name}")
    return problems


def check(root: Path) -> int:
    broken = []
    checked = 0
    linked = set()
    for source in iter_sources(root):
        for match in LINK.finditer(source.read_text()):
            target = match.group(1)
            if target.startswith(SKIP_PREFIXES):
                continue
            checked += 1
            resolved = (source.parent / target)
            if resolved.exists():
                linked.add(resolved.resolve())
            else:
                broken.append(f"{source.relative_to(root)}: "
                              f"broken link -> {target}")
    orphans = [doc for doc in sorted((root / "docs").glob("*.md"))
               if doc.resolve() not in linked]
    for doc in orphans:
        broken.append(f"{doc.relative_to(root)}: orphan — not linked "
                      f"from README.md or any other doc")
    broken += code_problems(root)
    for line in broken:
        print(line, file=sys.stderr)
    print(f"{checked} local links checked, {len(broken)} problems "
          f"({len(orphans)} orphans)")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(check(REPO))
