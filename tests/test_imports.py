"""Import hygiene, checked with ``ast`` and a fresh interpreter: no unused
imports (no linter runs on this repository), no scipy, fractions or decimal
at run time, every name in an ``__all__`` exists, and every name the
benchmark in ``perfbench/`` imports or patches still exists."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "scripts")


def _unused_imports(source: str, is_package_init: bool = False) -> list[tuple[int, str]]:
    """(line, name) of every imported name that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if is_package_init:
        # the names listed in a package's __all__ are its re-exports
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for top in SCANNED for path in sorted((ROOT / top).rglob("*.py"))
              for line, name in _unused_imports(path.read_text(),
                                                path.name == "__init__.py")]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_scan_sees_unused_and_reexported_names():
    src = ("from __future__ import annotations\nimport os\nimport os.path\n"
           "import sys as system\nfrom math import pi, tau\n__all__ = ['pi']\n"
           "print(tau)\n")
    assert _unused_imports(src) == [(3, "os"), (4, "system"), (5, "pi")]
    assert _unused_imports(src, is_package_init=True) == [(3, "os"), (4, "system")]


def test_every_exported_name_resolves():
    # a stale __all__ entry breaks only `from flagmirror.<module> import *`
    import flagmirror

    modules = [flagmirror] + [importlib.import_module(f"flagmirror.{m.name}")
                              for m in pkgutil.iter_modules(flagmirror.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert len(modules) > 8 and not missing, missing


def _scipy_imports(source: str) -> list[int]:
    """Lines of every import of scipy or a scipy submodule."""
    def is_scipy(name):
        return name == "scipy" or name.startswith("scipy.")
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Import) and any(is_scipy(a.name) for a in node.names)
                  or isinstance(node, ast.ImportFrom) and is_scipy(node.module or ""))


def test_src_does_not_import_scipy():
    assert _scipy_imports("import scipy.optimize\nfrom scipy import linalg\n"
                          "import scipyx\nfrom . import scipy\n") == [1, 2]
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line in _scipy_imports(path.read_text())]
    assert not found, "scipy imported at:\n" + "\n".join(found)


def test_runtime_loads_no_scipy():
    """The package and its command line run on numpy alone; scipy is a test
    dependency, and importing scipy.optimize would cost about half a second.
    The exact algebra is over the ints, so neither fractions nor decimal
    loads either."""
    code = ("import sys, flagmirror, flagmirror.verify, flagmirror.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('scipy', 'fractions', 'decimal')))")
    paths = [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_benchmark_finds_every_name_it_uses():
    """The benchmark in perfbench/ runs against the source tree of its own
    checkout: its worker imports names from flagmirror and its tracer patches
    others, so deleting one of them breaks every benchmark run. Import the
    worker and install the tracer as a traced run does."""
    code = ("import worker, spans\n"
            "tracer, memo = spans.install()\n"
            "print(memo['qschubert'].cache_info().misses,"
            " memo['class_product'].cache_info().misses)")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench")))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]
