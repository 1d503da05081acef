"""tools/check_docs_links.py: markdown links and doc names in code resolve."""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "check_docs_links", REPO / "tools" / "check_docs_links.py")
check_docs_links = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs_links)


@pytest.fixture
def tree(tmp_path):
    """A minimal clean repo: README linking the one doc, one module."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "guide.md").write_text("# Guide\n")
    (tmp_path / "README.md").write_text("See [guide](docs/guide.md).\n")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        '"""Documented in docs/guide.md."""\n'
        'FIXTURE = "docs/usage.md"  # data, not a reference\n')
    return tmp_path


def test_repo_is_clean():
    assert check_docs_links.check(REPO) == 0


def test_clean_tree_passes(tree):
    assert check_docs_links.check(tree) == 0


@pytest.mark.parametrize("line", [
    '"""Numbers are recorded in EXPERIMENTS.md."""\n',
    "X = 1  # see docs/DESIGN.md section 2\n",
])
def test_dangling_doc_name_in_code_fails(tree, line, capsys):
    (tree / "tests").mkdir()
    (tree / "tests" / "test_x.py").write_text(line)
    assert check_docs_links.check(tree) == 1
    assert "tests/test_x.py: names missing doc" in capsys.readouterr().err


def test_broken_markdown_link_fails(tree):
    (tree / "README.md").write_text(
        "See [guide](docs/guide.md) and [gone](docs/gone.md).\n")
    assert check_docs_links.check(tree) == 1
