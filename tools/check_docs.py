#!/usr/bin/env python
"""Documentation gates for CI.

Three checks, all fatal on failure:

1. **Intra-repo links** — every relative markdown link in the repo's
   ``*.md`` files must resolve to an existing file (anchors are
   stripped; ``http(s)``/``mailto`` links are ignored).
2. **Export docstrings** — every name exported through an ``__all__``
   list under ``src/repro`` must resolve to an object carrying a
   docstring, and every public module must have one.
3. **Named code** — every backticked dotted name ``repro.…`` in
   ``docs/*.md`` and ``README.md`` must import and resolve, so a
   deletion cannot leave the docs naming code that is gone.  This is
   the one check that imports the package (and so needs NumPy).

Run from the repository root: ``python tools/check_docs.py``.
"""

from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE_ROOT = ROOT / "src" / "repro"
SKIP_DIRS = {".git", ".hypothesis", ".benchmarks", "__pycache__",
             ".pytest_cache"}
#: Scraped external reference material, not authored documentation.
SKIP_FILES = {"PAPERS.md", "SNIPPETS.md"}

#: Inline markdown links: [text](target).  Images share the syntax.
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: A backticked dotted name of the package: `repro.keygen.batch`.
NAME_PATTERN = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)`")


def iter_markdown_files(root: Path = ROOT):
    """All tracked markdown files under *root* (default: the repo)."""
    for path in sorted(root.rglob("*.md")):
        if any(part in SKIP_DIRS for part in path.parts):
            continue
        if path.name in SKIP_FILES:
            continue
        yield path


def check_links(root: Path = ROOT) -> list:
    """Return one error string per broken relative link under *root*."""
    errors = []
    for path in iter_markdown_files(root):
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1):
            for target in LINK_PATTERN.findall(line):
                if target.startswith(("http://", "https://",
                                      "mailto:", "#")):
                    continue
                resolved = (path.parent
                            / target.split("#", 1)[0]).resolve()
                if not resolved.is_relative_to(root):
                    # Escapes the repository: a forge-relative URL
                    # (e.g. the CI badge), not a repo file reference.
                    continue
                if not resolved.exists():
                    errors.append(
                        f"{path.relative_to(root)}:{lineno}: broken "
                        f"link -> {target}")
    return errors


def _docstring_index(tree: ast.Module) -> dict:
    """Map top-level names of a module to ``has_docstring`` booleans.

    Imported names map to ``None`` (resolved in their home module, not
    here); assignments count as documented, matching pydocstyle, which
    has no rule for attribute docstrings.
    """
    index = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            index[node.name] = ast.get_docstring(node) is not None
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                index[alias.asname or alias.name.split(".")[0]] = None
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    index[target.id] = True
        elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name):
            index[node.target.id] = True
    return index


def _exported_names(tree: ast.Module):
    """The literal ``__all__`` entries of a module, if any."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) \
                        and target.id == "__all__":
                    try:
                        return [str(name) for name
                                in ast.literal_eval(node.value)]
                    except ValueError:
                        return []
    return []


def check_export_docstrings(root: Path = ROOT,
                            source_root: Path = SOURCE_ROOT) -> list:
    """Return one error per undocumented module or ``__all__`` export.

    Exports are resolved through the import graph: a name re-exported
    by a package ``__init__`` is looked up in the module that defines
    it.  *root* anchors the reported relative paths; *source_root* is
    the package tree to scan (both default to this repository).
    """
    errors = []
    trees = {}
    for path in sorted(source_root.rglob("*.py")):
        trees[path] = ast.parse(path.read_text(encoding="utf-8"))
    # Definition sites across the package, for re-export resolution.
    defined = {}
    for path, tree in trees.items():
        for name, documented in _docstring_index(tree).items():
            if documented is not None:
                defined.setdefault(name, documented)
    for path, tree in trees.items():
        relative = path.relative_to(root)
        if not path.name.startswith("_") or path.name == "__init__.py":
            if ast.get_docstring(tree) is None:
                errors.append(f"{relative}: missing module docstring")
        local = _docstring_index(tree)
        for name in _exported_names(tree):
            documented = local.get(name)
            if documented is None:
                documented = defined.get(name)
            if documented is None:
                # Not a def/class anywhere (e.g. a constant): fine.
                continue
            if not documented:
                errors.append(f"{relative}: export '{name}' has no "
                              f"docstring")
    return errors


def resolves(name: str) -> bool:
    """Whether dotted *name* is an importable module or an attribute
    path under one (``repro.keygen.batch.FrontierPlan.finalize``)."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            target = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            # A missing module of the name itself: try a shorter one.
            # Any other missing module is a missing dependency.
            if exc.name is None or not module_name.startswith(exc.name):
                raise
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def check_doc_names(root: Path = ROOT,
                    source_root: Path = SOURCE_ROOT) -> list:
    """Return one error per backticked ``repro.…`` name in
    ``docs/*.md`` and ``README.md`` under *root* that does not resolve
    against the package at *source_root*."""
    source = str(source_root.parent)
    if source not in sys.path:
        sys.path.insert(0, source)
    errors = []
    paths = sorted((root / "docs").glob("*.md")) + [root / "README.md"]
    for path in paths:
        if not path.exists():
            continue
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1):
            for name in NAME_PATTERN.findall(line):
                if not resolves(name):
                    errors.append(f"{path.relative_to(root)}:{lineno}: "
                                  f"unresolved name -> {name}")
    return errors


def main() -> int:
    """Run every gate; print findings and return a process exit code."""
    errors = check_links() + check_export_docstrings() + check_doc_names()
    for error in errors:
        print(error)
    if errors:
        print(f"\n{len(errors)} documentation problem(s) found.")
        return 1
    print("docs ok: links resolve, exports documented, names resolve.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
