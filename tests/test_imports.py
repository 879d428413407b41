"""Every module imports on its own: none relies on another module having
been imported first. config sits below the modules that read a Config,
and every public function and class has a caller outside the tests."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import gesturegen


def _package_modules():
    return {k: v for k, v in sys.modules.items() if k == "gesturegen" or k.startswith("gesturegen.")}


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(gesturegen.__path__)))
def test_module_imports_first(name):
    loaded = _package_modules()
    for key in loaded:
        del sys.modules[key]
    try:
        importlib.import_module(f"gesturegen.{name}")
    finally:
        for key in _package_modules():
            del sys.modules[key]
        sys.modules.update(loaded)


def test_config_imports_only_lower_modules():
    tree = ast.parse(Path(gesturegen.__file__).with_name("config.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("gesturegen")):
            module = (node.module or "").removeprefix("gesturegen").lstrip(".")
            imported |= {module.split(".")[0]} if module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name.split(".")[1] for a in node.names if a.name.startswith("gesturegen.")}
    assert imported <= {"errors", "model", "pose"}


def _module_names(tree, modules):
    """Local names bound to a package module, as by ``from . import
    autodiff as ad`` or ``from gesturegen import model as seq2seq``."""
    return {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in (None, "gesturegen")
        for a in node.names
        if a.name in modules
    }


def test_every_public_name_has_a_caller():
    # Test-only API is dead weight: every public top-level function and class
    # of the package must be named by package or bench code outside tests. An
    # attribute counts only on a name bound to a package module, so that
    # x.reshape(...) on an array is no use of a package reshape.
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "gesturegen"
    modules = {path.stem for path in package.glob("*.py")}
    defined, used = [], set()
    for path in sorted(package.glob("*.py")) + sorted((root / "bench").glob("*.py")):
        if path.name.startswith("test_") or path.name == "conftest.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.parent == package:
            defined += [
                (path.stem, node.name)
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            ]
        bound = _module_names(tree, modules)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
                used.add(node.attr)
    assert [f"{module}.{name}" for module, name in defined if name not in used] == []


def _file_writes(tree):
    """(call, line) of every call in ``tree`` that writes or renames a file:
    ``open`` of anything but ``os.devnull`` with a mode other than a constant
    read mode, ``os.replace``, ``os.rename``, and ``write_text`` or
    ``write_bytes`` on a path."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        on_os = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os"
        if name == "open":
            mode = node.args[1] if len(node.args) > 1 else next((k.value for k in node.keywords if k.arg == "mode"), None)
            writes = not (mode is None or isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt"))
            writes = writes and not (node.args and ast.unparse(node.args[0]) == "os.devnull")
        else:
            writes = (on_os and name in ("replace", "rename")) or name in ("write_text", "write_bytes")
        if writes:
            found.append((name, node.lineno))
    return found


def test_one_file_writer():
    # errors.open_for_write is the one writer: it writes beside the target
    # and renames over it, so a failed write keeps the old bytes.
    package = Path(gesturegen.__file__).parent
    writes = {
        (path.name, name)
        for path in package.glob("*.py")
        for name, _ in _file_writes(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert writes == {("errors.py", "open"), ("errors.py", "replace")}


def test_file_writes_finds_every_kind():
    tree = ast.parse(
        'open(p, "w")\nopen(p, mode="ab")\nopen(p, m)\nos.replace(a, b)\nos.rename(a, b)\np.write_bytes(b)\n'
        'os.open(p, os.O_WRONLY)\nopen(p)\nopen(p, "rb")\nreplace(cfg, seed=1)\ns.replace("a", "b")\n'
        "os.open(os.devnull, os.O_WRONLY)\n"
    )
    assert [line for _, line in _file_writes(tree)] == [1, 2, 3, 4, 5, 6, 7]
