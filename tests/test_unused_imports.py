"""Every name a module of the package imports is read, checked with the
standard library only (nothing of the package or the benchmark is imported).

A name a module of src/ imports must be used in the scope that imports it
(the module, or the function whose body holds the import), be listed in the
module's `__all__`, or be a (module, name) site of `bench/layers.py`'s
FUNCTION_SITES, which the benchmark's tracer patches in that module's
namespace.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "datafuse"
LAYERS = ROOT / "bench" / "layers.py"


def _function_sites(source: str) -> set:
    """The (module, name) pairs of the FUNCTION_SITES table of bench/layers.py,
    the module without its "datafuse." prefix."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "FUNCTION_SITES"
            for target in node.targets
        ):
            return {
                (module.removeprefix("datafuse."), name)
                for module, name, _ in ast.literal_eval(node.value)
            }
    raise AssertionError("bench/layers.py has no FUNCTION_SITES table")


def _exported(tree: ast.Module) -> set:
    """The names of a module's `__all__` list, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _imports(scope):
    """(line, bound name) of each import in `scope` outside its nested
    functions, and the scopes of those functions."""
    found, nested, todo = [], [], list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested.append(node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    found.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        else:
            todo.extend(ast.iter_child_nodes(node))
    return found, nested


def unused_imports(sources: dict, sites: set) -> list:
    """"<module>:<line>: <name>" for each imported name that is neither read
    in its scope, nor exported, nor a tracer site; `sources` maps a module
    name to its source text."""
    hits = []
    for module, source in sources.items():
        tree = ast.parse(source)
        exported, scopes = _exported(tree), [tree]
        while scopes:
            scope = scopes.pop()
            found, nested = _imports(scope)
            scopes.extend(nested)
            read = {
                node.id
                for node in ast.walk(scope)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            for line, name in found:
                module_level = scope is tree
                if name in read or module_level and (name in exported or (module, name) in sites):
                    continue
                hits.append(f"{module}:{line}: {name}")
    return sorted(hits)


def test_every_import_of_src_is_read_exported_or_a_tracer_site():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    sites = _function_sites(LAYERS.read_text(encoding="utf-8"))
    assert unused_imports(sources, sites) == []


def test_the_check_sees_an_unread_import_in_a_module_and_in_a_function():
    made_up = {
        "one": (
            "import os\n"
            "import numpy as np\n"
            "from .two import a, b as c, d\n"
            "from .three import site\n"
            "__all__ = ['d']\n"
            "\n\n"
            "def f():\n"
            "    from .two import e, g\n"
            "    return np.zeros(e)\n"
            "\n\n"
            "def h():\n"
            "    return c\n"
        ),
    }
    assert unused_imports(made_up, {("one", "site")}) == [
        "one:1: os",
        "one:3: a",
        "one:9: g",
    ]
