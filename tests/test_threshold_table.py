"""The numerical thresholds of the package live in one table, the float
constants of `datafuse._linalg`, checked with the standard library only
(nothing of the package is imported).

- No comparison in src/ holds a float literal other than the exact
  constants 0.0, 0.5, 1.0 and 2.0: a guard reads its threshold from the
  table by name.
- No module other than `_linalg` binds a name of the table, so no threshold
  is defined twice.
- Each entry's line says whether it is absolute or relative.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "datafuse"
TABLE_MODULE = "_linalg"
EXEMPT = {0.0, 0.5, 1.0, 2.0}


def _table(source: str) -> dict:
    """The table of a module's source: each module-level assignment of a
    float literal (or its negation) to an upper-case name, by name, with
    its line number."""
    table = {}
    for node in ast.parse(source).body:
        value = node.value if isinstance(node, ast.Assign) else None
        if isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.USub):
            value = value.operand
        if isinstance(value, ast.Constant) and type(value.value) is float:
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    table[target.id] = node.lineno
    return table


def _bound(node):
    """The name that `node` binds: an assigned name or attribute, or a
    parameter; else None."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
        return node.attr
    return node.arg if isinstance(node, ast.arg) else None


def gate_hits(sources: dict) -> list:
    """"<module>:<line>: <what>" for each float literal in a comparison that
    is not exempt, and for each binding of a table name outside the table's
    module; `sources` maps a module name to its source text."""
    table = _table(sources[TABLE_MODULE])
    hits = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Compare):
                for sub in ast.walk(node):
                    if (isinstance(sub, ast.Constant) and type(sub.value) is float
                            and sub.value not in EXEMPT):
                        hits.add((module, sub.lineno, f"literal {sub.value!r} in a comparison"))
            elif module != TABLE_MODULE and _bound(node) in table:
                hits.add((module, node.lineno, f"binds table name {_bound(node)}"))
    return [f"{module}:{line}: {what}" for module, line, what in sorted(hits)]


def _package_sources() -> dict:
    return {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}


def test_every_threshold_of_src_is_a_name_of_the_one_table():
    assert gate_hits(_package_sources()) == []


def test_each_table_entry_says_whether_it_is_absolute_or_relative():
    source = _package_sources()[TABLE_MODULE]
    lines = source.splitlines()
    table = _table(source)
    assert len(table) >= 14
    for name, line in table.items():
        comment = lines[line - 1].partition("#")[2]
        assert comment.lstrip().startswith(("absolute", "relative")), name


def test_gate_sees_a_bare_literal_and_a_second_definition():
    made_up = {
        "_linalg": "LIMIT = 1e-3\nSLACK = -1e-9\nWIDTH = 4\n\n\ndef g(x):\n    return x < LIMIT\n",
        "other": (
            "from ._linalg import LIMIT\n"
            "SLACK = 2e-9\n"
            "WIDTH = 5\n"
            "\n\n"
            "def f(x, y=1e-4):\n"
            "    return x > 1e-4 or 0.0 < x < 1.0 or x == -2.0 or y <= LIMIT\n"
        ),
    }
    assert gate_hits(made_up) == [
        "other:2: binds table name SLACK",
        "other:7: literal 0.0001 in a comparison",
    ]
