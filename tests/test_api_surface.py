"""Every function, method and class the package defines has a caller in
the package or the benchmark: an entry point only tests call is dead code
with a test attached.  And the package imports no scipy.sparse."""

import ast
import subprocess
import sys
from pathlib import Path


ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fkpeaks"
CALLERS = (ROOT / "src", ROOT / "perfbench")
# _Frame.coercivity waits for its caller: ROADMAP item 7 certifies the
# inversion lemma's constant with it
EXEMPT = {"_Frame.coercivity"}


def _definitions(tree: ast.Module):
    """(qualified name, name) of every def and class in a module, nested
    ones included; dunder methods are called by the interpreter."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    out.append((prefix + name, name))
                visit(child, prefix + name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _locals(func) -> set[str]:
    """The names a function binds: its arguments and assignment targets."""
    args = func.args
    names = {a.arg for a in (*args.posonlyargs, *args.args,
                             *args.kwonlyargs, args.vararg, args.kwarg)
             if a is not None}
    return names | {n.id for n in ast.walk(func)
                    if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Store)}


def _references(tree: ast.Module, reexport: bool = False) -> set[str]:
    """Names, attributes, import aliases and string constants: a string
    names what getattr dispatches to (build_potential on POTENTIALS keys,
    the benchmark's wrapped methods).  A name a function binds itself,
    an attribute of a module from outside the package (np.zeros) and a
    package re-export (`reexport`, __init__.py) are not references."""
    refs, outside = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            outside |= {a.asname or a.name.split(".")[0] for a in node.names
                        if a.name.split(".")[0] != PACKAGE.name}
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and node.module.split(".")[0] != PACKAGE.name):
            outside |= {a.asname or a.name for a in node.names}

    def visit(node, bound):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            bound = bound | _locals(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in bound:
                refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name)
                    and node.value.id in outside):
                refs.add(node.attr)
        elif isinstance(node, ast.alias) and not reexport:
            refs.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, frozenset())
    return refs


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _package_definitions(package: Path):
    return [(path.stem, qual, name) for path in sorted(package.glob("*.py"))
            for qual, name in _definitions(_parse(path))]


def unreferenced(package: Path = PACKAGE, callers=CALLERS) -> list[str]:
    """Qualified names of the package's definitions, outside EXEMPT, that
    nothing in `callers` references."""
    refs = set()
    for root in callers:
        for path in sorted(root.rglob("*.py")):
            refs |= _references(_parse(path),
                                reexport=path.name == "__init__.py")
    return [f"{stem}.{qual}" for stem, qual, name in
            _package_definitions(package)
            if name not in refs and qual not in EXEMPT]


def test_every_definition_has_a_caller():
    assert unreferenced() == []
    assert EXEMPT <= {qual for _, qual, _ in _package_definitions(PACKAGE)}


def test_a_helper_only_tests_call_is_found(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        "import numpy as np\n\n\n"
        "def used():\n    return 1\n\n\n"
        "def zeros():\n    return np.zeros(3)\n\n\n"
        "def only_tests_call():\n    only_tests_call = used()\n"
        "    return only_tests_call\n\n\n"
        "class Box:\n    def __init__(self):\n        self.v = used()\n\n"
        "    def shown(self):\n        return self.v\n\n\n"
        "KINDS = {'dispatched': 1}\n\n\n"
        "def dispatched():\n    return Box().shown()\n")
    assert unreferenced(pkg, (tmp_path / "src",)) == [
        "mod.zeros", "mod.only_tests_call"]


def test_package_imports_no_scipy_sparse():
    # the package's one eigensolver is its own Lanczos; scipy.sparse (and
    # ARPACK behind it) adds about 3.5 MiB of resident memory on import
    code = ("import importlib, pkgutil, sys\n"
            f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
            "import fkpeaks\n"
            "for mod in pkgutil.iter_modules(fkpeaks.__path__):\n"
            "    if mod.name != '__main__':\n"
            "        importlib.import_module('fkpeaks.' + mod.name)\n"
            "print([m for m in sys.modules if m.startswith('scipy.sparse')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
