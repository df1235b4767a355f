"""Every name a ``src/repro`` module imports is used.

A stdlib ``ast`` scan: an imported name counts as used when the module
reads it (as a name, or inside a string annotation), lists it in its
``__all__``, or another module imports it from this one (a re-export).
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, Iterator, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
IMPORTERS = [ROOT / d for d in ("src", "tests", "benchmarks", "examples",
                                "perfbench")]


def module_name(path: pathlib.Path) -> str:
    parts = list(path.relative_to(ROOT / "src").with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def resolve(importer: str, is_package: bool, node: ast.ImportFrom) -> str:
    """The absolute module name an ``ImportFrom`` reads from."""
    if not node.level:
        return node.module or ""
    base = importer.split(".")
    if not is_package:
        base.pop()
    if node.level > 1:
        base = base[:len(base) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def imported_names(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """(bound name, line) of every import except ``__future__`` ones."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def used_names(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a string annotation such as "Scheduler" or "List[Loc]"
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr)
                        if isinstance(n, ast.Name))
        elif isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in node.targets):
                used.update(ast.literal_eval(node.value))
    return used


def reexported() -> Dict[str, Set[str]]:
    """module -> the names other files import from it."""
    out: Dict[str, Set[str]] = {}
    for top in IMPORTERS:
        for path in top.rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            inside = PACKAGE in path.parents
            importer = module_name(path) if inside else ""
            for node in ast.walk(tree):
                if not isinstance(node, ast.ImportFrom):
                    continue
                if node.level and not inside:
                    continue
                source = resolve(importer, path.name == "__init__.py", node)
                out.setdefault(source, set()).update(
                    alias.name for alias in node.names)
    return out


def unused_imports() -> List[str]:
    exported = reexported()
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = used_names(tree) | exported.get(module_name(path), set())
        for name, line in imported_names(tree):
            if name not in used:
                unused.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    return unused


def test_no_unused_imports():
    assert unused_imports() == []


def test_scan_flags_an_unused_import():
    tree = ast.parse("from typing import List, Tuple\nx: 'List[int]' = []\n")
    names = {name for name, _ in imported_names(tree)}
    assert names - used_names(tree) == {"Tuple"}
