"""Static hygiene of the library sources."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "orcbind"
ROOT = SRC.parent.parent


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


def defined_names(source: str) -> list[str]:
    """Top-level functions, classes and assigned names, and the methods of
    top-level classes, dunder names excepted."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.append(item.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.extend(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def referenced_names(source: str) -> set[str]:
    """Loaded names, attributes, imported names and string constants that
    are identifiers: the benchmark's tracer looks functions up by name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            found.add(node.value)
    return found


def test_library_modules_define_nothing_unreferenced():
    used = set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            used |= referenced_names(path.read_text())
    found = {
        module.name: names
        for module in sorted(SRC.glob("*.py"))
        if (names := [n for n in defined_names(module.read_text()) if n not in used])
    }
    assert found == {}


def silent_handlers(source: str) -> dict[int, tuple[str, str]]:
    """``except`` clauses with no ``raise`` in their body, by line: the
    innermost enclosing function and the caught type as written."""
    found = {}
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.ExceptHandler) and not any(
                    isinstance(inner, ast.Raise) for inner in ast.walk(node)
                ):
                    caught = ast.unparse(node.type) if node.type else ""
                    found[node.lineno] = (func.name, caught)
    return found


def test_cli_turns_no_error_into_a_verdict():
    # only main maps InputError to exit 2, and only a failed derivation
    # step is a negative answer; every other error propagates
    allowed = {("main", "InputError")}
    found = [
        f"cli.py:{line}"
        for line, (func, caught) in sorted(silent_handlers((SRC / "cli.py").read_text()).items())
        if caught != "DerivationFailed" and (func, caught) not in allowed
    ]
    assert found == []


def pair_tuple_fields(source: str) -> list[str]:
    """Class fields annotated ``tuple[tuple[str, ...``: maps held as pairs
    keyed by name, as "Class.field"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    if ast.unparse(item.annotation).replace(" ", "").startswith("tuple[tuple[str,"):
                        found.append(f"{node.name}.{item.target.id}")
    return found


def test_frozen_values_hold_maps_as_frozen_maps():
    found = {
        module.name: fields
        for module in sorted(SRC.glob("*.py"))
        if (fields := pair_tuple_fields(module.read_text()))
    }
    assert found == {}


def bare_forwarders(source: str) -> list[str]:
    """Methods of ``OrchestrationScheme`` subclasses whose body is only
    ``return f(<the method's own arguments>)``, as "Class.method": a scheme
    binds such an operation with ``staticmethod(f)`` instead."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ClassDef) and "OrchestrationScheme" in map(ast.unparse, node.bases)):
            continue
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            body = [s for s in item.body if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
            if len(body) != 1 or not isinstance(body[0], ast.Return) or not isinstance(body[0].value, ast.Call):
                continue
            call = body[0].value
            if not call.keywords and list(map(ast.unparse, call.args)) == [a.arg for a in item.args.args[1:]]:
                found.append(f"{node.name}.{item.name}")
    return found


def test_schemes_bind_operations_instead_of_forwarding_to_them():
    found = {
        module.name: methods
        for module in sorted(SRC.glob("*.py"))
        if (methods := bare_forwarders(module.read_text()))
    }
    assert found == {}
