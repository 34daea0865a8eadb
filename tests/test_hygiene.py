"""Static hygiene of the library sources."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "orcbind"


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_library_modules_have_no_unused_imports():
    found = {
        module.name: names
        for module in sorted(SRC.glob("*.py"))
        if (names := unused_imports(module.read_text()))
    }
    assert found == {}


def function_imports(source: str) -> list[str]:
    """Imports inside function bodies, as "function:line"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.append(f"{node.name}:{inner.lineno}")
    return found


def test_library_modules_import_only_at_top_level():
    found = {
        module.name: places
        for module in sorted(SRC.glob("*.py"))
        if (places := function_imports(module.read_text()))
    }
    assert found == {}
