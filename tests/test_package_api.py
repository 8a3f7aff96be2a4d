"""Every public name has a caller: `__all__` against the package's own use.

A library module's `__all__` must list exactly the public names that
another module of the package, `cli`, or the benchmark (`perfbench/`,
including the functions its tracer wraps, `layers.LAYERS`) takes from it,
and the package root binds nothing but `__version__`.  Tests do not count
as callers.  No handler in the package catches a whole family of errors,
so none can turn a fault into a refusal.  The checks read the sources;
they import nothing.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wlmimo"
BENCH = ROOT / "perfbench"
ENTRY = {"__init__", "cli"}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def declared(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def used_names() -> dict[str, set[str]]:
    """module -> public names another module, cli or perfbench uses."""
    used = defaultdict(set)
    for path in PACKAGE.glob("*.py"):
        if path.stem == "__init__":
            continue                        # re-exports are not callers
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.ImportFrom) and node.level == 1 \
                    and node.module and node.module != path.stem:
                used[node.module] |= {a.name for a in node.names}
    for path in BENCH.rglob("*.py"):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.startswith("wlmimo."):
                used[node.module.split(".", 1)[1]] |= {a.name for a in node.names}
            elif isinstance(node, ast.Attribute):
                parts = ast.unparse(node).split(".")
                if len(parts) == 3 and parts[0] == "wlmimo":
                    used[parts[1]].add(parts[2])
            elif isinstance(node, ast.Assign) and path.name == "layers.py" \
                    and any(isinstance(t, ast.Name) and t.id == "LAYERS"
                            for t in node.targets):
                for module, name in ast.literal_eval(node.value):
                    used[module].add(name)
    return used


def test_all_lists_exactly_the_names_other_modules_use():
    used = used_names()
    wrong = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ENTRY:
            continue
        listed = set(declared(parse(path)))
        callers = {n for n in used[path.stem] if not n.startswith("_")}
        if listed != callers:
            wrong[path.stem] = {"no caller": sorted(listed - callers),
                                "not listed": sorted(callers - listed)}
    assert wrong == {}


def test_package_root_binds_only_the_version():
    tree = parse(PACKAGE / "__init__.py")
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue                                  # the docstring
        if isinstance(node, ast.Assign):
            bound += [ast.unparse(t) for t in node.targets]
        else:
            bound.append(ast.unparse(node).splitlines()[0])
    assert bound == ["__version__"]


# Handlers that would catch faults along with refusals.
CATCH_ALL = {"ValueError", "TypeError", "ArithmeticError", "Exception", "BaseException"}


def test_no_handler_catches_a_whole_family_of_errors():
    # A refusal is a DomainError raised where a domain is checked; a handler
    # that translates every ValueError (or wider) would pass faults off as one.
    wide = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if not isinstance(node, ast.ExceptHandler):
                continue
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None or {ast.unparse(t).split(".")[-1]
                                     for t in types} & CATCH_ALL:
                wide.append(f"{path.name}:{node.lineno}")
    assert wide == []
