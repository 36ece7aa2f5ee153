"""Package-level structure: every exported name exists, no module imports a
name it never uses, only fields builds a pool, no module solves Gauss rules
by an eigenvalue solve, importing the harness or loading the shipped config
loads neither sympy nor scipy, and importing bmklab keeps numpy's BLAS to
one thread."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import bmklab

MODULES = [info.name for info in pkgutil.iter_modules(bmklab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"bmklab.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert not missing


def _parse(name):
    """The ast of src/bmklab/<name>.py."""
    path = os.path.join(os.path.dirname(bmklab.__file__), f"{name}.py")
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _unused_imports(tree):
    """(line, name) of each name an import binds that its scope never reads.

    A module-level import may be read anywhere in the module, or listed in
    __all__; an import inside a function, only in that function.
    """
    scopes = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unused = []
    for scope in scopes:
        own, stack = [], list(ast.iter_child_nodes(scope))
        while stack:   # this scope's nodes, not those of functions nested in it
            node = stack.pop()
            own.append(node)
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.extend(ast.iter_child_nodes(node))
        read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        if scope is tree:
            read |= {elt.value for node in own if isinstance(node, ast.Assign)
                     and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                     for elt in node.value.elts}
        for node in own:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name != "*" and name not in read:
                        unused.append((node.lineno, name))
    return sorted(unused)


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_no_module_imports_a_name_it_never_uses(name):
    """Each src/bmklab/*.py, parsed with ast, reads every name it imports,
    at module level and inside each function: a deletion leaves no import
    behind."""
    assert _unused_imports(_parse(name)) == []


def _names(tree):
    """Every identifier the tree reads, binds, imports or takes as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
    return out


SCHEDULER_NAMES = {"ThreadPoolExecutor", "sched_getaffinity"}


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_only_fields_builds_a_pool_or_reads_the_cpu_count(name):
    """Each src/bmklab/*.py but fields, parsed with ast, names neither
    ThreadPoolExecutor nor sched_getaffinity: bmk's sweep and mollify's
    convolution share fields._on_cpus, and no module adds its own pool."""
    assert _names(_parse(name)) & SCHEDULER_NAMES == (SCHEDULER_NAMES if name == "fields" else set())


def test_scheduler_guard_sees_imports_and_attributes():
    """The guard sees a pool built from an import or from an attribute, and
    a CPU count read through os."""
    for code in ("from concurrent.futures import ThreadPoolExecutor\n",
                 "import concurrent.futures as cf\npool = cf.ThreadPoolExecutor(2)\n",
                 "import os\nn = len(os.sched_getaffinity(0))\n"):
        assert _names(ast.parse(code)) & SCHEDULER_NAMES


def _dense_gauss_uses(tree):
    """Each numpy.polynomial import or attribute and each eigvalsh the tree names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            modules = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.Attribute) and node.attr == "polynomial":
            modules = ["numpy.polynomial"]
        else:
            modules = []
        out.update(m for m in modules if m.startswith("numpy.polynomial"))
    return out | (_names(tree) & {"eigvalsh"})


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_no_module_solves_gauss_rules_by_eigenvalues(name):
    """Each src/bmklab/*.py, parsed with ast, neither imports
    numpy.polynomial nor calls eigvalsh: fields.leggauss solves the rules by
    Newton's method in O(n^2), and the O(n^3) dense eigenvalue route stays
    out."""
    assert _dense_gauss_uses(_parse(name)) == set()


def test_dense_gauss_guard_sees_imports_and_attributes():
    """The guard sees numpy.polynomial imported as a module, from a package
    or reached as an attribute, and eigvalsh called through numpy.linalg."""
    for code in ("from numpy.polynomial import legendre\n",
                 "from numpy.polynomial.legendre import leggauss\n",
                 "import numpy.polynomial.legendre as L\n",
                 "from numpy import polynomial\n",
                 "import numpy as np\nx, w = np.polynomial.legendre.leggauss(8)\n",
                 "import numpy as np\nx = np.linalg.eigvalsh(np.eye(2))\n"):
        assert _dense_gauss_uses(ast.parse(code))


def test_dead_import_guard_sees_module_and_function_imports():
    """The guard flags an unused import at module level and inside a function,
    and passes __future__ imports, names read in nested functions and names
    re-exported through __all__."""
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "def f():\n"
        "    from json import dumps, loads\n"
        "    def g():\n"
        "        return np.zeros(1), dumps\n"
        "    return g\n"
        "def h():\n"
        "    return loads\n")
    assert _unused_imports(tree) == [(2, "os"), (4, "pi"), (7, "loads")]


def _fresh_env():
    """This environment, with the tested bmklab first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(importlib.import_module("bmklab").__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def test_cli_import_loads_neither_sympy_nor_scipy():
    """numpy is the only runtime dependency: a fresh interpreter imports the
    harness and builds green-stokes's config from full.ini without either."""
    full = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "scripts", "configs", "full.ini")
    env = _fresh_env()
    code = ("import sys; from bmklab import cli; "
            "cli.ExperimentConfig(experiment='green-stokes', "
            f"**cli.load_config({full!r}, 'green-stokes')); "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'sympy', 'scipy'}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.skipif(not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
                    reason="counts threads in /proc/self/task; needs 2 usable CPUs")
@pytest.mark.parametrize("setting", [None, "2"])
def test_bmklab_import_keeps_numpy_from_starting_blas_threads(setting):
    """fields._on_cpus is the only thread pool: a fresh interpreter that
    imports bmklab and then numpy runs one thread, as OPENBLAS_NUM_THREADS
    is 1.  An OPENBLAS_NUM_THREADS the user set survives the import."""
    env = _fresh_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    code = ("import os, bmklab, numpy; "
            "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    threads, value = out.stdout.split()
    if setting is None:
        assert (threads, value) == ("1", "1")
    else:
        assert value == setting


@pytest.mark.skipif(not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
                    reason="counts threads in /proc/self/task; needs 2 usable CPUs")
def test_kernel_profile_script_imports_bmklab_before_numpy():
    """scripts/kernel_profile.py, loaded in a fresh interpreter without
    running main, runs one thread: it imports bmklab before numpy, so
    numpy's OpenBLAS starts no helper thread."""
    script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "scripts", "kernel_profile.py")
    env = _fresh_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    code = ("import importlib.util, os; "
            f"spec = importlib.util.spec_from_file_location('kernel_profile', {script!r}); "
            "spec.loader.exec_module(importlib.util.module_from_spec(spec)); "
            "print(len(os.listdir('/proc/self/task')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "1"
