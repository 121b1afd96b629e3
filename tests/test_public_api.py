"""Every name the package re-exports, and every function and class it
defines at top level, is used by the code that ships.

A function that only tests call is an operator that never runs: the suite
would cover it while the program runs something else.
"""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "camsched"
SHIPPED = sorted(
    [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    + list((REPO / "demos").glob("*.py"))
    + list((REPO / "perfbench").glob("*.py"))
)


def reexported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def loads(node):
    """Names `node` reads as variables or attributes."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
    }


def reachable_names(trees):
    """Names read by module-level code, or by a top-level function or class
    that is itself reachable; a definition reading its own name does not
    count, so neither does a chain of definitions that nothing reaches."""
    roots, reads = set(), {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                reads.setdefault(node.name, set()).update(loads(node) - {node.name})
            else:
                roots |= loads(node)
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(reads.get(name, ()))
    return seen


def test_shipped_sources_are_found():
    names = {p.name for p in SHIPPED}
    assert {"sched.py", "cli.py", "run.py", "tracing.py"} <= names
    assert any(name.startswith("01_") for name in names)


def shipped_reachable_names():
    return reachable_names(
        ast.parse(path.read_text(), filename=str(path)) for path in SHIPPED
    )


def test_every_reexported_name_runs_outside_the_tests():
    exported = reexported_names()
    assert len(exported) > 50
    assert sorted(exported - shipped_reachable_names()) == []


def test_every_top_level_definition_runs_outside_the_tests():
    defined = [
        f"{path.name}:{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    assert len(defined) > 50
    used = shipped_reachable_names()
    assert [name for name in defined if name.split(":")[1] not in used] == []
