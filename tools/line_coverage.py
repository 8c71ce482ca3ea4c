"""The lines of src/ that a pytest run never executes, by sys.settrace.

    PYTHONPATH=src:tools python -m pytest -q -p line_coverage

After the test summary this lists each executable line of src/ (a line some
code object of its file maps an instruction to) that no test ran, as
path:first-last, and how many of them ran. It gates nothing: the exit
status stays the test run's. Tracing about doubles the run's time.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
_FILES = {str(p): p for p in sorted(SRC.rglob("*.py"))}
_in_src, _ran = {}, set()


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


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    ran = {(os.path.realpath(name), line) for name, line in _ran}
    total = missed = 0
    for name, path in _FILES.items():
        lines = sorted(_executable(compile(path.read_text(), name, "exec")))
        unrun = [line for line in lines if (name, line) not in ran]
        total, missed = total + len(lines), missed + len(unrun)
        spans = []
        for line in unrun:
            if spans and line == spans[-1][1] + 1:
                spans[-1][1] = line
            else:
                spans.append([line, line])
        for first, last in spans:
            where = path.relative_to(SRC.parent)
            terminalreporter.write_line(f"{where}:{first}" + (f"-{last}" if last > first else ""))
    terminalreporter.write_line(
        f"line_coverage: {total - missed} of {total} executable lines of src/ ran"
    )


def pytest_load_initial_conftests(early_config, parser, args):
    # before any conftest or test module imports the package
    sys.settrace(_call)
