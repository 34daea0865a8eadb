"""Static hygiene of the library sources."""

import ast
from collections import Counter
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


def definitions(tree) -> list:
    """Top-level functions, classes and assigned names, and the methods of
    top-level classes, dunder names excepted, as ``(name, node)``: the node
    whose subtree is the definition."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found.append((item.name, item))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                found.extend((n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name))
    return [(name, node) for name, node in found if not (name.startswith("__") and name.endswith("__"))]


def references(tree) -> Counter:
    """Loaded names, attributes, imported names and string constants that
    are identifiers (the benchmark's tracer looks functions up by name),
    with how often each occurs."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            found[node.value] += 1
    return found


# ROADMAP item 13 puts these two checks on the CLI; until then only tests call them.
AWAITING_A_COMMAND = {"check_solution", "check_clause_correctness"}


def test_library_modules_define_nothing_unreferenced():
    # references from tests/ do not count, nor a name's uses inside its own
    # definition (recursion, a class naming itself in its methods)
    used = Counter()
    for folder in ("src", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            used += references(ast.parse(path.read_text()))
    found = {}
    for module in sorted(SRC.glob("*.py")):
        for name, node in definitions(ast.parse(module.read_text())):
            if used[name] - references(node)[name] <= 0 and name not in AWAITING_A_COMMAND:
                found.setdefault(module.name, []).append(name)
    assert found == {}


# Test-only helpers that the check above cannot see, because a local or an
# attribute elsewhere shares their name; they live in tests/oracles.py.
TEST_ONLY = {"muller.py": {"rename"}, "sigcat.py": {"signature", "identity", "compose"}}


def test_test_only_helpers_stay_in_the_tests():
    found = {
        module: sorted(names & {name for name, _ in definitions(ast.parse((SRC / module).read_text()))})
        for module, names in TEST_ONLY.items()
    }
    assert found == {module: [] for module in TEST_ONLY}


def test_the_worked_example_builds_no_clauses():
    # its clauses and query are read from examples/data
    tree = ast.parse((SRC / "travel.py").read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "engine" not in imported


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
