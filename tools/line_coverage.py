"""The lines of src/ that a pytest run never executes, by sys.settrace.

    PYTHONPATH=src:tools python -m pytest -q -p line_coverage

After the test summary this lists each executable line of src/ (a line some
code object of its file maps an instruction to) that no test ran, as
path:first-last, and how many of them ran. A line that no test ran fails
the run (exit status 1, if the tests passed) unless its stripped source text
is in ALLOWED, so run it on the whole suite. Tracing about doubles the
run's time.
"""

import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
_FILES = {str(p): p for p in sorted(SRC.rglob("*.py"))}
_in_src, _ran = {}, set()
_report = []

# lines no test can run, by their stripped source text (not their number, so
# an edit above them keeps them allowed): the tomli fallback of the TOML
# reader, which runs only on Python 3.10, and the CLI module's script entry
ALLOWED = frozenset({"except ModuleNotFoundError:", "import tomli as tomllib", "sys.exit(main())"})


def _line(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _in_src:
        _in_src[name] = os.path.realpath(name) in _FILES
    return _line if _in_src[name] else None


def _executable(code):
    lines = {line for _, _, line in code.co_lines() if line}  # 0: a module's RESUME
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable(const)
    return lines


def unrun(name: str, text: str, ran) -> tuple:
    """(executable, unrun): the executable lines of the file `name` that
    holds `text`, and those of them not in `ran`, a set of (name, line)."""
    lines = sorted(_executable(compile(text, name, "exec")))
    return lines, [line for line in lines if (name, line) not in ran]


def blocking(text: str, lines) -> list:
    """The lines of `lines` (numbers in `text`) whose stripped source text
    is not in ALLOWED."""
    source = text.splitlines()
    return [line for line in lines if source[line - 1].strip() not in ALLOWED]


def _spans(lines) -> list:
    spans = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return spans


def pytest_sessionfinish(session):
    sys.settrace(None)
    ran = {(os.path.realpath(name), line) for name, line in _ran}
    total = missed = blocked = 0
    for name, path in _FILES.items():
        text = path.read_text()
        lines, missing = unrun(name, text, ran)
        total, missed = total + len(lines), missed + len(missing)
        blocked += len(blocking(text, missing))
        where = path.relative_to(SRC.parent)
        for first, last in _spans(missing):
            _report.append(f"{where}:{first}" + (f"-{last}" if last > first else ""))
    _report.append(f"line_coverage: {total - missed} of {total} executable lines of src/ ran")
    if blocked:
        _report.append(f"line_coverage: FAILED, {blocked} lines no test ran are not in ALLOWED")
        if session.exitstatus == pytest.ExitCode.OK:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    for line in _report:
        terminalreporter.write_line(line)


def pytest_load_initial_conftests(early_config, parser, args):
    # before any conftest or test module imports the package
    sys.settrace(_call)
