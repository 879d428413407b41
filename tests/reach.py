"""Reach gate: a pytest plugin that fails the run when a statement of
``src/gesturegen`` is reached by no test and is not listed in
``tests/unreached.txt``, or is listed there but reached, so the list only
shrinks. It is off in the plain test command; load it by name:

    PYTHONPATH=src:tests python -m pytest -q -p reach

Stdlib only. ``sys.settrace`` records the lines each code object of the
package runs; a code object whose every line has run stops being traced.
The executable lines of a file are those of its compiled code objects'
line tables, and each belongs to the innermost statement (or ``except``
clause) whose span holds it. A statement is reached when one of its lines
runs. Code that only a subprocess runs is not seen.

An entry of the list is ``file.py:function: statement  # reason``: the
function's qualified name (``<module>`` at top level), the first source
line of the statement, stripped, comment and all, so entries survive line
shifts, and after the last ``  # `` the reason. An entry covers every
unreached statement with that text in that function.
"""

import ast
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gesturegen"
LISTED = Path(__file__).resolve().parent / "unreached.txt"

_todo = {}  # code object -> its lines not yet run; None outside the package
_prefix = str(PACKAGE) + "/"


def _lines(code) -> set:
    """The line numbers in a code object's line table."""
    return {line for _, _, line in code.co_lines() if line}


def _local(frame, event, arg):
    if event == "line":
        _todo[frame.f_code].discard(frame.f_lineno)
    return _local


def _call(frame, event, arg):
    code = frame.f_code
    if code not in _todo:
        _todo[code] = _lines(code) if code.co_filename.startswith(_prefix) else None
    todo = _todo[code]
    if not todo:
        return None
    todo.discard(code.co_firstlineno)  # the call itself: a def line raises no line event
    return _local


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def _statements(source: str) -> dict:
    """{line: (first line, function, statement text)}: the innermost
    statement or except clause whose span (from its first decorator) holds
    each line."""
    text, owner = source.splitlines(), {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.ExceptHandler)):
                start = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", ())])
                statement = (start, scope, text[child.lineno - 1].strip())
                owner.update(dict.fromkeys(range(start, child.end_lineno + 1), statement))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return owner


def unreached() -> set:
    """(file, function, statement text) of every package statement none of
    whose lines ran."""
    ran = {}
    for code, todo in _todo.items():
        if todo is not None:
            ran.setdefault(code.co_filename, set()).update(_lines(code) - todo)
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        owner = _statements(source)
        executable = set().union(*map(_lines, _code_objects(compile(source, str(path), "exec"))))
        reached = {owner[line][0] for line in ran.get(str(path), ()) if line in owner}
        found |= {(path.name, *owner[line][1:]) for line in executable if line in owner and owner[line][0] not in reached}
    return found


def listed() -> dict:
    """(file, function, statement text) -> reason, for each entry of the list."""
    entries = {}
    for number, line in enumerate(LISTED.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        where, _, reason = line.rpartition("  # ")
        key = tuple(part.strip() for part in where.split(":", 2))
        if len(key) != 3 or not (key[2] and reason.strip()):
            raise ValueError(f"{LISTED.name}:{number}: an entry is 'file.py:function: statement  # reason'")
        entries[key] = reason.strip()
    return entries


def pytest_configure(config):
    sys.settrace(_call)
    threading.settrace(_call)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    if exitstatus != 0:
        return  # a failing run reaches less than it should; its gaps say nothing
    found, entries = unreached(), listed()
    problems = [f"unreached, not listed: {f}:{fn}: {s}" for f, fn, s in sorted(found - set(entries))]
    problems += [f"listed, but reached: {f}:{fn}: {s}" for f, fn, s in sorted(set(entries) - found)]
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    reporter.write_line("")
    reporter.write_sep("=", f"reach: {len(found)} unreached statements, {len(entries)} listed")
    for problem in problems:
        reporter.write_line(problem)
    if problems:
        session.exitstatus = 1
