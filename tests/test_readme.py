"""README.md: its library quickstart runs and prints what it says, and its
table of functional kinds is the package's."""

import contextlib
import io
import re
from pathlib import Path

from datafuse import FunctionalKind
from datafuse.model import _ARGS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    """The text of README's section `## title`, up to the next section."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end >= 0 else len(README)]


def test_library_quickstart_prints_its_result():
    blocks = re.findall(r"```python\n(.*?)```", _section("Library quickstart"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert out.getvalue() == "[2.2]\n"


def test_kinds_table_lists_each_kind_with_its_arguments():
    # one row per kind: its argument names in the table's order, the optional
    # ones in brackets
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", _section("Library quickstart"), re.M)
    assert [kind for kind, _ in rows] == [kind.value for kind in FunctionalKind]
    for kind, cell in rows:
        required, spec = _ARGS[FunctionalKind(kind)]
        names = [name for name, _ in spec]
        assert re.findall(r"`(\w+)`", cell) == names, kind
        assert re.findall(r"\[`(\w+)`", cell) == names[required:], kind
