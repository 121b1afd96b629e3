"""Every name the package re-exports, every function and class it defines
at top level, and every method and property of its classes, is used by the
code that ships.

A function that only tests call is an operator that never runs: the suite
would cover it while the program runs something else.
"""

import ast
import importlib.util
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


def methods(cls):
    """The non-dunder methods and properties in a class body."""
    return [
        node for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def definitions(node):
    """(name, names read) of a top-level function or class. A class's own
    reads leave out its methods and properties: each of those is a
    definition of its own, reached when something reads its name."""
    if not isinstance(node, ast.ClassDef):
        return [(node.name, loads(node))]
    own = methods(node)
    rest = [sub for sub in node.body if sub not in own]
    rest += node.bases + node.keywords + node.decorator_list
    return [(node.name, set().union(*map(loads, rest)))] + [(m.name, loads(m)) for m in own]


def reachable_names(trees):
    """Names read by module-level code, or by a definition that is itself
    reachable; a definition reading its own name does not count, so neither
    does a chain of definitions that nothing reaches. Methods are matched by
    name alone, so any attribute read of that name reaches them."""
    roots, reads = set(), {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for name, names in definitions(node):
                    reads.setdefault(name, set()).update(names - {name})
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
    assert {"filter_cam", "QualityState", "SystemModel", "evolve", "run", "load_trace"} <= exported
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


def test_every_method_runs_outside_the_tests():
    defined = [
        f"{path.name}:{cls.name}.{method.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(cls, ast.ClassDef)
        for method in methods(cls)
    ]
    assert len(defined) > 10
    used = shipped_reachable_names()
    assert [name for name in defined if name.rsplit(".", 1)[1] not in used] == []


def test_every_traced_layer_name_is_bound_to_one_callable():
    # the benchmark's tracer patches each name on every module it lists; a
    # name that is gone or rebound elsewhere would otherwise surface only
    # in a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.LAYER_FUNCTIONS) > 10
    unbound = []
    for span, attr, modules in tracing.LAYER_FUNCTIONS:
        bound = [getattr(module, attr, None) for module in modules]
        if not callable(bound[0]) or any(fn is not bound[0] for fn in bound):
            unbound.append((span, attr, [module.__name__ for module in modules]))
    assert unbound == []
