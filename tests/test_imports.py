"""Every module imports on its own: none relies on another module having
been imported first. config sits below the modules that read a Config,
every public function and class has a caller outside the tests, and so
does every defaulted parameter."""

import ast
import importlib
import pkgutil
import re
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


def test_readme_names_resolve():
    # every backticked `gesturegen.<module>...` or `<module>.<name>...` in
    # the README names a package module and attributes it has; a file name
    # such as `config.py` is no reference
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    modules = {m.name for m in pkgutil.iter_modules(gesturegen.__path__)}
    checked, missing = 0, []
    for span in re.findall(r"`([^`\n]+)`", readme):
        for ref in re.findall(r"(?<![\w./])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span):
            module, *names = ref.removeprefix("gesturegen.").split(".")
            if module not in modules or names == ["py"]:
                continue
            obj, checked = importlib.import_module(f"gesturegen.{module}"), checked + 1
            for name in names:
                obj = getattr(obj, name, None)
            if obj is None:
                missing.append(ref)
    assert checked > 0 and missing == []


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


# The benchmark's probe ops: src/'s tape is what bench/test_bench.py runs
# (tsum(mul(x, x)).backward() through a traced Tensor.backward), and the
# general tape is tests/tape_oracle.py. The benchmark change that retargets
# that test deletes them and this entry.
_BENCH_TEST_ONLY = {"autodiff.mul", "autodiff.tsum"}


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
    names = {f"{module}.{name}" for module, name in defined}
    assert _BENCH_TEST_ONLY <= names
    assert [f"{module}.{name}" for module, name in defined if name not in used and f"{module}.{name}" not in _BENCH_TEST_ONLY] == []


def _unpassed_defaults(defined, callers, modules):
    """(function, parameter) of every defaulted parameter of a module-level
    function in the ``defined`` trees that no call in the ``callers`` trees
    passes, by position, by keyword or through ``*`` or ``**``. A call
    counts as ``f(...)``, or as ``m.f(...)`` on a name bound to one of the
    package ``modules``."""
    params, passed = {}, set()
    for tree in defined:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                named = list(enumerate(positional))[len(positional) - len(args.defaults) :]
                named += [(None, a.arg) for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
                params[node.name] = named
    for tree in callers:
        bound = _module_names(tree, modules)
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in bound:
                name = func.attr
            else:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}  # None: a ** spread
            for index, param in params.get(name, ()):
                if None in keywords or param in keywords or index is not None and (starred or index < len(node.args)):
                    passed.add((name, param))
    return sorted({(name, param) for name, named in params.items() for _, param in named} - passed)


# Defaults that no package or bench call passes, each kept for a reason.
_TEST_ONLY_DEFAULTS = {
    ("fit_pca", "k"): "tests fit bases of other widths",
    ("main", "argv"): "None reads the command line; tests pass their own",
}


def test_every_default_has_a_caller():
    # An option that only its default ever takes is a constant: every
    # defaulted parameter of a package function must be passed by some
    # package or bench call, or be named above with its reason.
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "gesturegen"
    modules = {path.stem for path in package.glob("*.py")}
    sources = sorted(package.glob("*.py")) + sorted((root / "bench").glob("*.py"))
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sources
        if not (path.name.startswith("test_") or path.name == "conftest.py")
    }
    defined = [tree for path, tree in trees.items() if path.parent == package]
    unpassed = _unpassed_defaults(defined, trees.values(), modules)
    assert set(_TEST_ONLY_DEFAULTS) <= set(unpassed)
    assert [entry for entry in unpassed if entry not in _TEST_ONLY_DEFAULTS] == []


def test_unpassed_defaults_finds_every_kind():
    defined = ast.parse(
        "def f(a, b=1, c=2, *, d=3, e):\n    pass\n"
        "def g(a=1, b=2):\n    pass\n"
        "def h(a=1, /, b=2):\n    pass\n"
        "def k(a=1, b=2, c=3):\n    pass\n"
        "class C:\n    def m(self, a=1):\n        pass\n"
    )
    callers = ast.parse(
        "f(0, 1, e=5)\nm.f(0, d=4, e=5)\nx.g(1, 2)\ng(*args)\nh(**kw)\nk(0, b=1)\nnp.k(0, 1, 2)\n"
        "from gesturegen import model as m\n"
    )
    assert _unpassed_defaults([defined], [callers], {"model"}) == [("f", "c"), ("k", "c")]


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


def _matmul_operators(tree):
    """Lines of every `@` and `@=` in ``tree``."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(getattr(node, "op", None), ast.MatMult))


def test_decode_kernels_use_no_matmul_operator():
    # A batch-1 decoder step costs numpy's per-call dispatch more than its
    # arithmetic, so the kernels it runs take 2-D products through
    # ndarray.dot / np.dot, not the `@` gufunc (see the autodiff docstring).
    # _attend's batched context product is an np.matmul call and may stay.
    assert _matmul_operators(ast.parse("a @ b\na.dot(b)\nnp.matmul(a, b)\na @= b\n")) == [1, 4]
    package = Path(gesturegen.__file__).parent
    found = {}
    for module, names in (("autodiff", {"_affine", "_gru_cell", "_attend"}), ("model", {"_decoder"})):
        tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in names}
        assert set(functions) == names
        found |= {f"{module}.{name}": _matmul_operators(node) for name, node in functions.items()}
    assert all(lines == [] for lines in found.values()), found
