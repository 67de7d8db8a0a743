"""Tests for the ``tools/check_docs.py`` documentation gates."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent.parent / "tools"


def load_tool(name):
    """Import a tools/ script as a module (the dir is not a package)."""
    spec = importlib.util.spec_from_file_location(
        name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_docs = load_tool("check_docs")


class TestCheckLinks:
    def test_resolving_links_pass(self, tmp_path):
        (tmp_path / "other.md").write_text("# other\n")
        (tmp_path / "README.md").write_text(
            "[other](other.md) and [web](https://example.com) "
            "and [anchor](#section)\n")
        assert check_docs.check_links(tmp_path) == []

    def test_broken_link_reported_with_location(self, tmp_path):
        (tmp_path / "README.md").write_text("intro\n[gone](gone.md)\n")
        errors = check_docs.check_links(tmp_path)
        assert len(errors) == 1
        assert "README.md:2" in errors[0]
        assert "gone.md" in errors[0]

    def test_anchor_suffix_stripped(self, tmp_path):
        (tmp_path / "doc.md").write_text("# doc\n")
        (tmp_path / "README.md").write_text("[d](doc.md#section)\n")
        assert check_docs.check_links(tmp_path) == []

    def test_skips_scraped_reference_files(self, tmp_path):
        (tmp_path / "SNIPPETS.md").write_text("[x](missing.md)\n")
        assert check_docs.check_links(tmp_path) == []

    def test_link_escaping_the_root_is_ignored(self, tmp_path):
        # Forge-relative URLs (e.g. a CI badge path) resolve outside
        # the tree and are not repo file references.
        (tmp_path / "README.md").write_text(
            "[badge](../../actions/workflows/ci.yml)\n")
        assert check_docs.check_links(tmp_path) == []


class TestCheckExportDocstrings:
    def make_pkg(self, tmp_path, init_body):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text(init_body)
        return pkg

    def test_documented_exports_pass(self, tmp_path):
        pkg = self.make_pkg(tmp_path, '''"""Package."""

__all__ = ["helper"]


def helper():
    """Do the thing."""
''')
        assert check_docs.check_export_docstrings(tmp_path, pkg) == []

    def test_undocumented_export_reported(self, tmp_path):
        pkg = self.make_pkg(tmp_path, '''"""Package."""

__all__ = ["helper"]


def helper():
    return 1
''')
        errors = check_docs.check_export_docstrings(tmp_path, pkg)
        assert len(errors) == 1
        assert "helper" in errors[0]

    def test_missing_module_docstring_reported(self, tmp_path):
        pkg = self.make_pkg(tmp_path, "__all__ = []\n")
        errors = check_docs.check_export_docstrings(tmp_path, pkg)
        assert any("missing module docstring" in e for e in errors)

    def test_reexport_resolved_in_home_module(self, tmp_path):
        pkg = self.make_pkg(tmp_path, '''"""Package."""

from pkg.impl import helper

__all__ = ["helper"]
''')
        (pkg / "impl.py").write_text('''"""Implementation."""


def helper():
    """Documented at the definition site."""
''')
        assert check_docs.check_export_docstrings(tmp_path, pkg) == []

    def test_private_module_needs_no_docstring(self, tmp_path):
        pkg = self.make_pkg(tmp_path, '"""Package."""\n')
        (pkg / "_private.py").write_text("X = 1\n")
        assert check_docs.check_export_docstrings(tmp_path, pkg) == []


class TestDocNames:
    def test_modules_and_attribute_paths_resolve(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "a.md").write_text(
            "`repro.keygen.batch`, `repro.core.BatchOracle` and "
            "`repro.keygen.batch.FrontierPlan.finalize`; a call like "
            "`repro.fleet.Fleet(spec)` is not a bare name.\n")
        (tmp_path / "README.md").write_text("`repro._dedup`\n")
        assert check_docs.check_doc_names(tmp_path) == []

    def test_stale_names_reported_with_location(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "a.md").write_text(
            "intro\n`repro.keygen.batch.NoSuchThing` and "
            "`repro.no_such_module.thing`\n")
        (tmp_path / "README.md").write_text(
            "`repro.keygen.group_based.GroupBasedKeyGen.gone`\n")
        errors = check_docs.check_doc_names(tmp_path)
        assert errors == [
            "docs/a.md:2: unresolved name -> "
            "repro.keygen.batch.NoSuchThing",
            "docs/a.md:2: unresolved name -> repro.no_such_module.thing",
            "README.md:1: unresolved name -> "
            "repro.keygen.group_based.GroupBasedKeyGen.gone"]


class TestAgainstThisRepo:
    def test_repo_gates_pass(self):
        # The repo itself must satisfy its own gates.
        assert check_docs.check_links() == []
        assert check_docs.check_export_docstrings() == []
        assert check_docs.check_doc_names() == []
